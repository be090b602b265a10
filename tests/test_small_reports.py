"""A report of at most `oracle.SMALL_REPORT` claims takes a scalar path through
the oracle and the kept scores; a larger one takes the array path. The
observer has one path for every report. Each crawl here runs three times,
with the constant as it stands (both paths mixed) and with every report
forced down one path, and every step must give the same claims, random
stream, observer arrays and kept scores."""

import random
import sys

import numpy as np
import pytest

from redcrawl import LyingScenario, ObserverState, Oracle, WorldGraph, assign_honesty, oracle, run_single
from redcrawl.graph import BLUE, RED
from redcrawl.strategies import CountingScores
from helpers import SMALL_REPORT_READERS, force_path, report_fields

N = 200


def threshold_world(seed: int) -> WorldGraph:
    """G(N, p) with mean degree SMALL_REPORT, a third of it red, ranks spread over [1, 10]."""
    rng = random.Random(seed)
    p = oracle.SMALL_REPORT / (N - 1)
    edges = [(u, v) for u in range(N) for v in range(u + 1, N) if rng.random() < p]
    codes = np.full(N, BLUE, dtype=np.int8)
    codes[rng.sample(range(N), N // 3)] = RED
    return WorldGraph(codes, [rng.uniform(1.0, 10.0) for _ in range(N)], edges)


def run_honesty(world: WorldGraph) -> np.ndarray:
    honesty = assign_honesty(world, random.Random(3))
    honesty[::5] = 0.0  # red subjects whose lie probability exceeds 1 before any clamp
    return honesty


def snapshots(world, strategy, scenario, steps):
    """Crawl `steps` kept-score picks; return each step's report, streams and arrays as plain values."""
    lies = Oracle(world, run_honesty(world), scenario, random.Random(4))
    start = int(world.red_ids()[0])
    state = ObserverState(start, world.n)
    state.ingest(lies.place_monitor(start))
    kept = CountingScores(strategy, state)
    tiebreak = random.Random(5)
    seen = []
    for _ in range(steps):
        report = lies.place_monitor(kept.choose(tiebreak))
        state.ingest(report)
        kept.update(report)
        seen.append((report_fields(report), lies.rng.getstate(), tiebreak.getstate(),
                     state.say.tobytes(), state.color.tobytes(), state.on_frontier.tobytes(),
                     kept.score.tobytes(), kept.top, list(kept.top_ids)))
    return seen


def test_every_reader_imports_the_one_constant():
    readers = {name for name, module in sys.modules.items()
               if name.startswith("redcrawl") and hasattr(module, "SMALL_REPORT")}
    assert readers == {module.__name__ for module in SMALL_REPORT_READERS}
    assert {module.SMALL_REPORT for module in SMALL_REPORT_READERS} == {oracle.SMALL_REPORT}


@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
@pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
def test_both_paths_give_the_same_bytes_at_every_step(strategy, scenario, monkeypatch):
    world = threshold_world(1)
    mixed = snapshots(world, strategy, scenario, steps=180)
    # Red and blue speakers made reports one claim below, at and one above the constant.
    sizes = {(fields[1], len(fields[2])) for fields, *_ in mixed}
    edge = oracle.SMALL_REPORT
    assert {(color, k) for color in (RED, BLUE) for k in (edge - 1, edge, edge + 1)} <= sizes
    for path in ("array", "scalar"):
        with monkeypatch.context() as m:
            force_path(m, path)
            forced = snapshots(world, strategy, scenario, steps=180)
        assert len(forced) == len(mixed)
        for step, (got, want) in enumerate(zip(forced, mixed)):
            assert got == want, f"{path} path differs at step {step}"


@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
def test_both_paths_give_the_same_redlearn_trace(scenario, monkeypatch):
    world = threshold_world(2)
    start = int(world.red_ids()[0])

    def trace():
        return run_single(world, "redlearn", scenario, start, seed=6, budget=60, retrain_every=5).nodes

    mixed = trace()
    for path in ("array", "scalar"):
        with monkeypatch.context() as m:
            force_path(m, path)
            assert np.array_equal(trace(), mixed), path
