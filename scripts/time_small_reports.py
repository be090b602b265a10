"""Time the scalar and the array path of a report at each size, to choose `oracle.SMALL_REPORT`.

    PYTHONPATH=src python3 scripts/time_small_reports.py [--sizes 1-64] [--hubs 200] [--rounds 7]

For each report size k, a world of `hubs` red hubs, each with k leaves of
its own (every third leaf red), is crawled hub by hub under LS1: each
hub's `Oracle.place_monitor` and `rs`'s `CountingScores.update` (which
scores every claim), the two layers that split at the constant, are timed
call by call. `ObserverState.ingest` and the fold run the same code on
both paths and are left out. The same crawl runs once with `SMALL_REPORT`
above k (every report takes the scalar path) and once at -1 (every report
takes the array path); the two crawls must give the same claims, stream,
observer arrays and scores, and the script exits 1 if they do not. Each
round alternates the two paths, and the per-call time reported for a path
is the median over rounds of the mean over hubs, in microseconds.

The last line of stdout is a JSON object with the per-size times and,
in `largest_scalar_win`, for a counting step (`place_monitor` and
`update`) and for a redlearn step, which keeps no counting scores
(`place_monitor` alone), the largest size at which the scalar path is
faster before the first two sizes in a row at which it is not. So one
noisy size does not end the scan, and two do. `choice` is the smaller of
the two. `oracle.SMALL_REPORT` is the smallest `choice` of four runs at
the defaults, made one after another on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import numpy as np

from redcrawl import oracle, strategies
from redcrawl.graph import BLUE, RED, WorldGraph
from redcrawl.observer import ObserverState
from redcrawl.oracle import LyingScenario, Oracle
from redcrawl.strategies import CountingScores

LAYERS = ("place_monitor", "update")
# The timed layers each kind of step runs.
STEPS = {"counting_step": ("place_monitor", "update"),
         "learn_step": ("place_monitor",)}


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
    for module in (oracle, strategies):
        module.SMALL_REPORT = limit


def crawl(world: WorldGraph, hubs: int, honesty: np.ndarray) -> tuple[list[float], tuple]:
    """Place, ingest and score every hub in id order; return the seconds per timed layer and the outcome."""
    lies = Oracle(world, honesty, LyingScenario.LS1, random.Random(1))
    state = ObserverState(0, world.n)
    state.on_frontier[:hubs] = True  # every hub observed, as if named by an earlier report
    kept = CountingScores("rs", state)
    clock = time.perf_counter
    spent = [0.0] * len(LAYERS)
    said = []
    for hub in range(hubs):
        t0 = clock()
        report = lies.place_monitor(hub)
        t1 = clock()
        state.ingest(report)
        t2 = clock()
        kept.update(report)
        t3 = clock()
        spent[0] += t1 - t0
        spent[1] += t3 - t2
        said.append(report.statements.tobytes())
    outcome = (said, lies.rng.getstate(), state.say.tobytes(), state.on_frontier.tobytes(),
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
        wins[name], losses = 0, 0
        for row in rows:
            if row["scalar"][name] < row["array"][name]:
                wins[name], losses = row["size"], 0
            else:
                losses += 1
                if losses == 2:
                    break
    print(json.dumps({"hubs": args.hubs, "rounds": args.rounds, "largest_scalar_win": wins,
                      "choice": min(wins.values()), "sizes": rows}))


if __name__ == "__main__":
    main()
