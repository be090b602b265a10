"""The hidden world's answer machinery for monitor placements.

Placing a monitor on a node reveals its true color and its true neighbor
list, plus one stated color per neighbor. Topology is never falsified;
colors may be. Whether a node lies about a given neighbor depends on its
own honesty, the relative rank of the neighbor, both colors, and the
active lying scenario:

  LS1  blue nodes know who the reds are (and their ranks) and lie by the
       same rules reds do;
  LS2  blue nodes know nothing and simply call every neighbor blue.

A red speaker, in either scenario, lies about a red neighbor with
probability min((1 - H) * L_subject / L_speaker, 1) and about a blue
neighbor with probability (1 - H). A lie states the flipped color. Each
(speaker, subject) claim is decided once and cached, so re-reading a
monitor's answers never changes them.

The world is fixed across runs; the per-run honesty vector lives in the
run's Oracle. A claim is just the stated Color, aligned with neighbors.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .graph import Color, WorldGraph

HONESTY_MEAN = 0.5
HONESTY_SD = 0.125


class LyingScenario(enum.Enum):
    LS1 = "ls1"
    LS2 = "ls2"

    @classmethod
    def parse(cls, text: str) -> "LyingScenario":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown lying scenario {text!r}: expected 'ls1' or 'ls2'") from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MonitorReport:
    """Everything one monitor placement reveals.

    `statements[i]` is the color the target states for `neighbors[i]`;
    neighbor lists are always the true topology, in ascending id order.
    """

    target: int
    true_color: Color
    neighbors: tuple[int, ...]
    statements: tuple[Color, ...]


def assign_honesty(world: WorldGraph, rng: random.Random) -> list[float]:
    """Draw a fresh per-node honesty vector for one run on `world`.

    Each node gets an independent Normal(0.5, 0.125) draw clamped into
    [0, 1], taken in node-id order so a given seed always yields the same
    vector. Clamping (rather than redrawing) keeps the seed-to-vector
    mapping simple; the out-of-range tail is about 0.006% of draws.
    """
    return [min(1.0, max(0.0, rng.gauss(HONESTY_MEAN, HONESTY_SD))) for _ in range(world.n)]


@dataclass
class Oracle:
    """Stateful answer source for one run.

    Holds the shared world, this run's honesty (see assign_honesty), the
    scenario, and a seeded stream for the lie draws. Claims are drawn
    lazily, one Bernoulli draw per (speaker, subject) in ascending subject
    order, and cached in `issued` so a repeated placement returns the
    identical report. One oracle per run; distinct runs with distinct
    oracles can execute in parallel.
    """

    world: WorldGraph
    honesty: list[float]
    scenario: LyingScenario
    rng: random.Random
    issued: dict[tuple[int, int], Color] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.honesty) != self.world.n or not all(0.0 <= h <= 1.0 for h in self.honesty):
            raise ValueError(f"honesty needs one value in [0, 1] for each of the {self.world.n} nodes")

    def place_monitor(self, target: int) -> MonitorReport:
        """Answer a monitor placement on `target`.

        Each uncached claim's lie probability follows the module docstring,
        computed from the speaker's values read once per placement.
        """
        world = self.world
        if not 0 <= target < world.n:
            raise ValueError(f"unknown node id {target}")
        colors, hierarchy, issued, rand = world.colors, world.hierarchy, self.issued, self.rng.random
        neighbors = tuple(sorted(world.adjacency[target]))
        blind = colors[target] is Color.BLUE and self.scenario is LyingScenario.LS2
        dishonesty = 1.0 - self.honesty[target]
        speaker_rank = hierarchy[target]
        statements = []
        for v in neighbors:
            said = issued.get((target, v))
            if said is None:
                true = colors[v]
                if blind:
                    p = 1.0 if true is Color.RED else 0.0
                elif true is Color.RED:
                    p = min(dishonesty * hierarchy[v] / speaker_rank, 1.0)
                else:
                    p = min(dishonesty, 1.0)
                said = issued[(target, v)] = true.flip() if rand() < p else true
            statements.append(said)
        return MonitorReport(
            target=target,
            true_color=colors[target],
            neighbors=neighbors,
            statements=tuple(statements),
        )
