"""Time the scalar and the array path of a report at each size, to choose `oracle.SMALL_REPORT`.

    PYTHONPATH=src python3 scripts/time_small_reports.py [--sizes 1-64] [--hubs 200] [--rounds 7]

For each report size k, a world of `hubs` red hubs, each with k leaves of
its own (every third leaf red), is crawled hub by hub under LS1: each
hub's `Oracle.place_monitor`, `ObserverState.ingest`, the
`observer.count_claims` that a fold makes for it and `rs`'s
`CountingScores.update` (which scores every claim) is timed call by
call. The rest of a fold, the verified table and the red triangles, runs
the same code on both paths and is left out. The same crawl runs once
with `SMALL_REPORT` above k (every report takes the scalar path) and
once at -1 (every report takes the array path); the two crawls must
give the same claims and scores. Each round alternates the two paths,
and the per-call time reported for a path is the median over rounds of
the mean over hubs, in microseconds.

The last line of stdout is a JSON object with the per-size times and,
in `largest_scalar_win`, the largest size up to which the scalar path
is faster at every size: for a counting step, which never folds
(`place_monitor`, `ingest` and `update`), and for a redlearn step, which
keeps no counting scores (`place_monitor`, `ingest` and `count_claims`).
`choice` is the smaller of the two, so that neither kind of step is
slower on the scalar path at any size up to it. `oracle.SMALL_REPORT`
is the smallest `choice` of four runs at the defaults, made one after
another on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import numpy as np

from redcrawl import observer, oracle, strategies
from redcrawl.graph import BLUE, RED, WorldGraph
from redcrawl.observer import ObserverState, count_claims
from redcrawl.oracle import LyingScenario, Oracle
from redcrawl.strategies import CountingScores

LAYERS = ("place_monitor", "ingest", "count_claims", "update")
# The layers each kind of step runs.
STEPS = {"counting_step": ("place_monitor", "ingest", "update"),
         "learn_step": ("place_monitor", "ingest", "count_claims")}


def star_world(hubs: int, k: int) -> WorldGraph:
    """`hubs` red hubs 0..hubs-1, hub h joined to the k leaves hubs + h*k .. hubs + h*k + k - 1."""
    n = hubs + hubs * k
    leaves = np.arange(hubs, n)
    edges = np.column_stack((np.repeat(np.arange(hubs), k), leaves))
    codes = np.full(n, BLUE, dtype=np.int8)
    codes[:hubs] = RED
    codes[leaves[::3]] = RED
    rank = random.Random(k)
    return WorldGraph(codes, [rank.uniform(1.0, 20.0) for _ in range(n)], edges)


def set_small_report(limit: int) -> None:
    for module in (oracle, observer, strategies):
        module.SMALL_REPORT = limit


def crawl(world: WorldGraph, hubs: int, honesty: np.ndarray) -> tuple[list[float], tuple]:
    """Place, ingest, count and score every hub in id order; return the seconds per layer and the outcome."""
    lies = Oracle(world, honesty, LyingScenario.LS1, random.Random(1))
    state = ObserverState(0, world.n)
    state.on_frontier[:hubs] = True  # every hub observed, as if named by an earlier report
    kept = CountingScores("rs", state)
    say = np.zeros((world.n, 4), dtype=np.int64)
    clock = time.perf_counter
    spent = [0.0] * len(LAYERS)
    said = []
    for hub in range(hubs):
        t0 = clock()
        report = lies.place_monitor(hub)
        t1 = clock()
        state.ingest(report)
        t2 = clock()
        count_claims(say, report)
        t3 = clock()
        kept.update(report)
        t4 = clock()
        for i, (start, end) in enumerate(((t0, t1), (t1, t2), (t2, t3), (t3, t4))):
            spent[i] += end - start
        said.append(report.statements.tobytes())
    outcome = (said, lies.rng.getstate(), say.tobytes(), state.say.tobytes(), state.on_frontier.tobytes(),
               kept.score.tobytes(), kept.top, tuple(kept.top_ids))
    return spent, outcome


def parse_sizes(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1-64", help="report sizes as LOW-HIGH (default 1-64)")
    parser.add_argument("--hubs", type=int, default=200, help="reports timed per size and round")
    parser.add_argument("--rounds", type=int, default=7, help="rounds per size; the median is reported")
    args = parser.parse_args(argv)
    saved = oracle.SMALL_REPORT
    rows = []
    try:
        for k in parse_sizes(args.sizes):
            world = star_world(args.hubs, k)
            honesty = np.array([random.Random(k + 1).random() for _ in range(world.n)])
            per_round = {"scalar": [], "array": []}
            for r in range(args.rounds):
                outcomes = {}
                for path in (("scalar", "array") if r % 2 == 0 else ("array", "scalar")):
                    set_small_report(k if path == "scalar" else -1)
                    spent, outcomes[path] = crawl(world, args.hubs, honesty)
                    per_round[path].append(spent)
                if outcomes["scalar"] != outcomes["array"]:
                    raise SystemExit(f"the two paths disagree at size {k}")
            row = {"size": k}
            for path, rounds in per_round.items():
                us = [statistics.median(spent[i] for spent in rounds) / args.hubs * 1e6 for i in range(len(LAYERS))]
                row[path] = {layer: round(x, 3) for layer, x in zip(LAYERS, us)}
                for step, layers in STEPS.items():
                    row[path][step] = round(sum(x for layer, x in zip(LAYERS, us) if layer in layers), 3)
            rows.append(row)
            print(f"k={k:3d}  " + "  ".join(f"{step} scalar {row['scalar'][step]:6.2f} us array {row['array'][step]:6.2f} us"
                                           for step in STEPS), file=sys.stderr)
    finally:
        set_small_report(saved)
    wins = {}
    for name in STEPS:
        wins[name] = 0
        for row in rows:
            if row["scalar"][name] >= row["array"][name]:
                break
            wins[name] = row["size"]
    print(json.dumps({"hubs": args.hubs, "rounds": args.rounds, "largest_scalar_win": wins,
                      "choice": min(wins.values()), "sizes": rows}))


if __name__ == "__main__":
    main()
