"""redcrawl benchmark.

    python3 perfbench/run.py --workload {learn,frontier,dense} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The workload's inputs are made
from the seed, then a fresh single-threaded interpreter (BLAS threads
pinned to 1) runs the workload through the public `run_experiment` API
for about S seconds: as many whole batches as fit, at least two
without tracing. Set-up is also timed alone a few times after each batch. Every batch's CSVs are checked (see check.py).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics, medians over batches:
  wall_s          one run_experiment call: world build, every cell, CSVs
  setup_s         world build, up to the first cell
  monitors_per_s  monitors placed / (wall_s - setup_s)
  peak_rss_mb     peak resident memory of the measuring process
  pct_red_found   mean over cells of the % of reds confirmed at full budget
With `--trace 1` half the time runs untraced and half traced (tracer.py),
and the metrics are per-layer self times and counts, per batch.
`attempted` and `failed` count (strategy, run) cells; a cell fails if its
batch raised or its trace breaks the legality check.

The line before the last holds the environment and the output digests.
Every batch of a run must write identical CSVs; with `--trace 1` that
includes the traced batches, so tracing must not change the output.
Whether the digests match those recorded for the seed commit in
digests.json is reported, and drift is not counted as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK_DIR = ".perfbench_work"
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "monitors_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pct_red_found": "%",
}
LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.edges": "count",
    "oracle.assign_honesty_s": "s",
    "oracle.place_monitor_s": "s",
    "oracle.claims": "count",
    "oracle.ns_per_claim": "ns",
    "oracle.cache_hit_frac": "frac",
    "observer.ingest_s": "s",
    "observer.ingest_ns_per_claim": "ns",
    "observer.features_s": "s",
    "observer.features_calls": "count",
    "observer.candidates_s": "s",
    "observer.frontier_mean": "count",
    "strategies.pick_s": "s",
    "strategies.picks": "count",
    "strategies.scored_per_pick": "count",
    "strategies.fallback_picks": "count",
    "classifier.fit_s": "s",
    "classifier.fits": "count",
    "classifier.fit_iters_mean": "count",
    "classifier.fits_at_max_iter": "count",
    "classifier.loss_evals_per_iter": "count",
    "classifier.train_rows_mean": "count",
    "classifier.build_training_set_s": "s",
    "classifier.predict_s": "s",
    "classifier.rows_predicted": "count",
    "harness.run_single_s": "s",
    "harness.output_s": "s",
    "harness.traces_bytes": "bytes",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "frac",
}


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "redcrawl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(root: Path, work: Path, config: Path, seconds: float, trace: bool, min_calls: int) -> dict:
    spec = work / "spec.json"
    result = work / "result.json"
    spec.write_text(json.dumps({
        "config": str(config), "seconds": seconds, "trace": trace,
        "min_calls": min_calls, "result": str(result),
    }), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    env.update((var, "1") for var in THREAD_VARS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec)],
        cwd=root, env=env, stdout=sys.stderr, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def measure(workload, seed: int, seconds: float, trace: bool, root: Path, min_calls: int = 2) -> dict:
    """Run one workload and return {"result": <final line>, "details": <report>}."""
    load_before = os.getloadavg()
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    try:
        config = workload.write_config(seed, work)
        out = run_worker(root, work, config, seconds, trace, min_calls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calls = out["calls"]
    ok = [c for c in calls if "error" not in c]
    if not ok:
        raise RuntimeError("no batch completed:\n" + calls[0]["error"])

    traces = {c["traces_sha256"] for c in ok}
    summaries = {c["summary_sha256"] for c in ok}
    first = ok[0]
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    if recorded is None:
        seed_commit = "unrecorded"
    else:
        seed_commit = "match" if recorded == [first["traces_sha256"], first["summary_sha256"]] else "drift"
    problems = {
        "errors": [c["error"] for c in calls if "error" in c],
        "violations": [c["violations"] for c in calls if c.get("violations")][:1],
        "summary_problems": [c["summary_problems"] for c in calls if c.get("summary_problems")][:1],
        "nondeterministic_output": len(traces) > 1 or len(summaries) > 1,
    }
    attempted = sum(c["cells"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    correct = failed == 0 and not any(problems.values())

    untraced = [c for c in ok if not c["traced"]]
    if trace:
        if "layers" not in out or not untraced:
            raise RuntimeError("a traced or an untraced batch failed:\n" + "\n".join(problems["errors"]))
        values = dict(out["layers"])
        values["graph.edges"] = first["edges"]
        values["harness.traces_bytes"] = first["traces_bytes"]
        values["trace_overhead_frac"] = values["traced_wall_s"] / statistics.median(
            c["wall_s"] for c in untraced) - 1
        units = LAYER_UNITS
    else:
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in untraced),
            "setup_s": statistics.median(t for c in untraced for t in c["setup_s"]),
            "monitors_per_s": statistics.median(c["monitors"] / (c["wall_s"] - c["setup_s"][0]) for c in untraced),
            "peak_rss_mb": out["peak_rss_kb"] / 1024,
            "pct_red_found": first["pct_red_found"],
        }
        units = E2E_UNITS
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "batches": len(ok),
        "cells_per_batch": first["cells"],
        "wall_s_per_batch": [round(c["wall_s"], 4) for c in ok],
        "digests": {
            "traces_sha256": first["traces_sha256"],
            "summary_sha256": first["summary_sha256"],
            "seed_commit": seed_commit,
            "identical_in_every_batch": len(traces) == 1 and len(summaries) == 1,
        },
        "problems": problems,
        "env": {
            "python": out["python"],
            "numpy": out["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: "1" for var in THREAD_VARS},
            "git_commit": git_commit(root),
            "source_sha256": source_digest(root),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "redcrawl" / "__init__.py").is_file():
        print(f"error: no redcrawl sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["details"]["elapsed_s"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(report["details"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
