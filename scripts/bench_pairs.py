"""Run the benchmark in alternating pairs on two source trees and keep every run.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME --seed N
        [--pairs 10] [--seconds 30] [--trace] --out BENCH_name.json

Each side of a pair runs `perfbench/run.py --workload NAME --seed N
--seconds S` in a fresh copy of its tree (no `__pycache__`, no earlier
benchmark work), so neither side starts from compiled bytecode the other
lacks. Odd pairs run the parent first and even pairs the change first.
The last two stdout lines of every run (the environment and digests, then
the metrics) are kept. With `--trace`, each side runs `--trace 1` instead
and the per-layer metrics are kept.

`--out` is a JSON file keyed by `<workload>_seed<N>` (`_traced` appended
with `--trace`); an existing file keeps its other keys, and an existing
key keeps its runs, the new pairs numbered after them. For each
end-to-end metric the summary gives both sides' median and quartiles, the
pairs the change won, and whether the change's median is better than the
parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BETTER = {"wall_s": "lower", "setup_s": "lower", "monitors_per_s": "higher", "peak_rss_mb": "lower",
          "pct_red_found": "higher"}
IGNORED = shutil.ignore_patterns("__pycache__", ".perfbench_work", ".git", ".pytest_cache")


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in a fresh copy of `tree`: its environment line and its metrics line."""
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=IGNORED)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=copy, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
    env, metrics = json.loads(out[-2]), json.loads(out[-1])
    return {"environment": env, "result": metrics}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    summary = {
        "pairs": len(pairs),
        "failed": {side: sum(r["result"]["failed"] for r in runs if r["side"] == side)
                   for side in ("parent", "change")},
        "digests": sorted({(r["environment"]["digests"]["traces_sha256"],
                            r["environment"]["digests"]["summary_sha256"]) for r in runs}),
        "identical_in_every_batch": all(r["environment"]["digests"]["identical_in_every_batch"] for r in runs),
    }
    for metric, better in BETTER.items():
        values = {side: [pairs[p][side]["result"]["metrics"][metric]["value"] for p in sorted(pairs)]
                  for side in ("parent", "change")}
        if not all(values.values()):
            continue
        sign = 1 if better == "higher" else -1
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = change["median"] - parent["median"]
        summary[metric] = {
            "better": better,
            "parent": parent,
            "change": change,
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "median_gap": gap,
            "parent_iqr": parent["q3"] - parent["q1"],
            "gap_beyond_parent_iqr": sign * gap > parent["q3"] - parent["q1"],
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    key = f"{args.workload}_seed{args.seed}" + ("_traced" if args.trace else "")
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    runs = record.get(key, {}).get("runs", [])
    first = max((run["pair"] for run in runs), default=0) + 1
    for pair in range(first, first + args.pairs):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            run = run_side(trees[side], args.workload, args.seed, args.seconds, args.trace)
            runs.append({"pair": pair, "side": side, **run})
            shown = run["result"].get("metrics", {}).get("monitors_per_s", {}).get("value")
            print(f"pair {pair} {side}: failed {run['result']['failed']}, monitors_per_s {shown}", flush=True)

    record.setdefault("machine", {"python": platform.python_version(), "cpus": os.cpu_count()})
    record[key] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace {int(args.trace)}",
        "summary": None if args.trace else summarize(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
