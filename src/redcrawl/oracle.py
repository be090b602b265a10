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
neighbor with probability (1 - H). A lie states the flipped color. A
node's claims are drawn once, at its placement; placing a second monitor
on it raises ValueError.

The world is fixed across runs and read-only, so every run's Oracle
shares it; the per-run honesty array lives in the Oracle. A report's
neighbor array is the world's own read-only CSR slice of the target, and
its claims are one array of color codes (graph.RED or graph.BLUE, as
int8) aligned with it. One placement gathers the subjects' codes and
ranks from the world's arrays and draws every claim with a few array
operations. A report of at most SMALL_REPORT claims is drawn by a plain
loop over its claims instead, with the same float operations per claim
and the same one `random()` per claim in ascending subject order, so
both give the same codes and leave the stream in the same state. The
paper's networks are sparse social graphs: 95% of the nodes of an
n=26220 `structural_signal` world (the README's PokeC size) have at most
16 neighbors, and at that size the array path's dozen numpy calls cost
more than the claims. The kept counting scores split at the same size
(see strategies). The value is the smallest `choice` of four runs of
`scripts/time_small_reports.py`, which times both paths at sizes 1-64
for a counting step (the oracle and the kept scores) and for a redlearn
step (the oracle alone): four runs on 2 vCPU read 29, 29, 29 and 36.
The loop's fixed costs are paid once per run: the oracle looks up its
stream's `random` and a memoryview of the world's ranks when it is built,
and the world's neighbor view reads the CSR bounds as Python ints.

An LS2 blue speaker's claims need no draw, so its placement only
advances the stream past them, by one `getrandbits` call that takes the
two 32-bit words per claim that `random()` takes. The world guarantees
the shape MonitorReport checks (an ascending, self-free, read-only
slice; codes 0 or 1), so the oracle builds its own reports without
re-running those checks.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .graph import BLUE, RED, WorldGraph, _uniforms, is_integer

# A report of at most this many claims is drawn and scored by a plain
# loop over its claims, a larger one by array operations (see above).
SMALL_REPORT = 29
HONESTY_MEAN = 0.5
HONESTY_SD = 0.125
_TWOPI = 2.0 * math.pi  # `random.TWOPI`, the angle scale of `gauss`


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


@dataclass(frozen=True, eq=False)
class MonitorReport:
    """Everything one monitor placement reveals, checked when built.

    `color` is the target's true color code, `neighbors` its true
    neighbor ids as a flat, strictly ascending integer array that does
    not hold `target`, and `statements[i]` the int8 code (0 or 1) the
    target states for `neighbors[i]`. Any other shape raises
    ValueError; both arrays are then made read-only. Only
    `Oracle.place_monitor` skips these checks, for reports the world's
    arrays already make well formed. Reports have no `==`, since arrays
    do not compare to one bool.
    """

    target: int
    color: int
    neighbors: np.ndarray
    statements: np.ndarray

    def __post_init__(self) -> None:
        t, nbrs, said = self.target, self.neighbors, self.statements
        if not is_integer(t):
            raise ValueError(f"report target {t!r} is not an integer node id")
        if not (is_integer(self.color) and self.color in (RED, BLUE)):
            raise ValueError(f"report on node {t} has color {self.color!r}, not a code {RED} or {BLUE}")
        if not (isinstance(nbrs, np.ndarray) and nbrs.ndim == 1 and nbrs.dtype.kind in "iu"
                and isinstance(said, np.ndarray) and said.ndim == 1 and said.dtype == np.int8):
            raise ValueError(f"report on node {t} needs flat arrays: integer neighbors, int8 statements")
        if len(said) != len(nbrs):
            raise ValueError(f"report on node {t} has {len(said)} statements for {len(nbrs)} neighbors")
        if np.count_nonzero(nbrs[1:] <= nbrs[:-1]):
            raise ValueError(f"report on node {t} lists neighbors that do not strictly ascend")
        i = nbrs.searchsorted(t)  # they ascend, so t can only sit at i
        if i < len(nbrs) and nbrs[i] == t:
            raise ValueError(f"report on node {t} lists the node itself among its neighbors")
        if said.tobytes().translate(None, b"\0\1"):  # int8 codes: a byte left is not 0 or 1
            raise ValueError(f"report on node {t} has a statement code outside {{0, 1}}")
        nbrs.setflags(write=False)
        said.setflags(write=False)


def assign_honesty(world: WorldGraph, rng: random.Random) -> np.ndarray:
    """Draw a fresh honesty array for one run on `world`, one float64 per node.

    Each node gets an independent Normal(0.5, 0.125) draw clamped into
    [0, 1], taken in node-id order so a given seed always yields the same
    array. Clamping (rather than redrawing) keeps the seed-to-array
    mapping simple; the out-of-range tail is about 0.006% of draws.

    The draws are those of one `rng.gauss(0.5, 0.125)` call per node, bit
    for bit, made in bulk: `gauss`' Box-Muller pairs over uniforms that
    match `rng.random()` (`_uniforms`), with the same libm `log`, `cos`
    and `sin` calls, a correctly rounded square root and the same
    products and sums in the same order. A pending `rng.gauss_next` is
    the first draw, and an unused sine is left pending, so `rng` ends in
    the state the calls leave.
    """
    n = world.n
    pending = [] if rng.gauss_next is None else [rng.gauss_next]
    rng.gauss_next = None
    pairs = (n - len(pending) + 1) // 2
    # The steps work in place, in the buffer of the uniforms where they can:
    # a dense batch draws honesty 48 times, and each freed temporary would
    # add to the heap the run leaves behind.
    z = _uniforms(rng, 2 * pairs)
    x2pi = (z[0::2] * _TWOPI).tolist()
    one_minus = np.subtract(1.0, z[1::2], out=z[1::2]).tolist()
    g2rad = np.fromiter(map(math.log, one_minus), dtype=float, count=pairs)
    g2rad *= -2.0
    np.sqrt(g2rad, out=g2rad)
    z[0::2] = np.fromiter(map(math.cos, x2pi), dtype=float, count=pairs)
    z[1::2] = np.fromiter(map(math.sin, x2pi), dtype=float, count=pairs)
    z[0::2] *= g2rad
    z[1::2] *= g2rad
    if pending:
        z = np.concatenate((pending, z))
    if len(z) > n:
        rng.gauss_next = z.item(n)
    z = z[:n]
    z *= HONESTY_SD
    z += HONESTY_MEAN
    return np.clip(z, 0.0, 1.0, out=z)


@dataclass(eq=False)
class Oracle:
    """Stateful answer source for one run.

    Holds the shared world, a read-only float64 copy of this run's honesty
    (see assign_honesty), the scenario, and a seeded stream for the lie
    draws: one `random()` value per (speaker, subject) claim, in ascending
    subject order. An LS2 blue speaker skips its values unread, so the
    stream ends every placement in the state those calls leave.
    `issued` is the set of targets answered so far. One oracle per run;
    distinct runs with distinct oracles can execute in parallel. The
    stream's bound `random` and a memoryview of the world's ranks are
    taken once, when the oracle is built, so `rng` is not to be rebound.
    """

    world: WorldGraph
    honesty: np.ndarray
    scenario: LyingScenario
    rng: random.Random
    issued: set[int] = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, LyingScenario):
            raise ValueError(f"scenario {self.scenario!r} is not a LyingScenario; "
                             f"LyingScenario.parse reads one from text")
        problem = f"honesty needs one value in [0, 1] for each of the {self.world.n} nodes"
        try:
            honesty = np.array(self.honesty, dtype=float)  # the oracle's own copy
        except (TypeError, ValueError):  # not numbers, or ragged
            raise ValueError(problem) from None
        if honesty.shape != (self.world.n,) or not ((honesty >= 0.0) & (honesty <= 1.0)).all():
            raise ValueError(problem)
        honesty.setflags(write=False)
        self.honesty = honesty
        self._random = self.rng.random
        self._rank = self.world.hierarchy.data

    def place_monitor(self, target: int) -> MonitorReport:
        """Answer a monitor placement on `target`.

        The lie probabilities follow the module docstring, computed
        elementwise in the scalar formula's order, so each claim's float
        matches it bit for bit; a report of at most SMALL_REPORT claims
        computes the same floats one claim at a time. No clamp to 1 is
        needed: every draw is below 1, so `draw < min(p, 1)` exactly when
        `draw < p`. A target that is not a node id raises the world view's
        IndexError, and one already answered raises ValueError, both
        before any claim is drawn.
        """
        world = self.world
        neighbors = world.adjacency[target]
        if target in self.issued:
            raise ValueError(f"node {target} is already monitored")
        color = world.codes.item(target)
        if color == BLUE and self.scenario is LyingScenario.LS2:
            # Calls every neighbor blue. Its draws are thrown away, so the stream
            # only advances: 64 bits are the two words one random() call takes.
            self.rng.getrandbits(64 * len(neighbors))
            said = np.full(len(neighbors), BLUE, dtype=np.int8)
        elif len(neighbors) <= SMALL_REPORT:
            said = world.codes[neighbors]
            rand, rank = self._random, self._rank
            dishonesty = 1.0 - self.honesty.item(target)
            rank_t = rank[target]
            for i, (v, code) in enumerate(zip(neighbors.tolist(), said.tolist())):
                # the array path's p, one claim at a time: code 1 is a blue subject
                p = dishonesty if code else rank[v] * dishonesty / rank_t
                if rand() < p:
                    said[i] = code ^ 1
        else:
            said = world.codes[neighbors]
            # One rng.random() per claim, in ascending subject order; random() never returns 1.0.
            draws = np.fromiter(iter(self.rng.random, 1.0), dtype=float, count=len(neighbors))
            dishonesty = 1.0 - self.honesty.item(target)
            p = world.hierarchy[neighbors]
            p *= dishonesty
            p /= world.hierarchy[target]
            np.putmask(p, said, dishonesty)  # the codes are 1 where the subject is blue
            said ^= draws < p
        said.setflags(write=False)
        self.issued.add(target)
        # Built without __post_init__: the world's read-only CSR slice ascends and
        # never holds the target, and `said` is a read-only int8 code per neighbor.
        report = object.__new__(MonitorReport)
        vars(report).update(target=target, color=color, neighbors=neighbors, statements=said)
        return report
