"""One benchmark measurement, in its own interpreter: `python worker.py SPEC.json`.

The spec names a config file, a time budget and whether to trace. The
worker runs `run_experiment` on that config repeatedly until the budget
is spent (at least `min_calls` times), checks the CSVs of every call, and
writes one JSON result to the spec's `result` path. With tracing on, the
first half of the budget runs untraced and the second half traced, so
the two can be compared for tracing overhead and identical output.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
from tracer import Tracer

# Set-up is short next to a batch, so besides the set-up of every timed
# batch it is sampled by up to SETUP_PROBES set-up-only calls after each
# untraced batch, taking at most SETUP_SHARE of that batch's time.
SETUP_PROBES = 3
SETUP_SHARE = 0.1


class SetupDone(Exception):
    """Raised at the first cell of a set-up-only call."""


class SetupClock:
    """Wraps `harness.run_single` to stamp when a call's first cell starts.

    Set-up is everything `run_experiment` does before that. With `probe`
    set, the first cell raises SetupDone instead of running, so the call
    does its set-up only.
    """

    def __init__(self, harness):
        self.first: float | None = None
        self.probe = False
        run_single = harness.run_single

        def wrapper(*args, **kwargs):
            if self.first is None:
                self.first = time.perf_counter()
                if self.probe:
                    raise SetupDone
            return run_single(*args, **kwargs)

        harness.run_single = wrapper

    def start(self) -> float:
        self.first = None
        gc.collect()
        return time.perf_counter()

    def setup_s(self, t0: float) -> float:
        if self.first is None:
            raise RuntimeError("run_experiment never called harness.run_single; setup_s cannot be measured")
        return self.first - t0


def probe_setup(harness, config_path: Path, clock: SetupClock, seconds: float) -> list[float]:
    """Set-up times of up to SETUP_PROBES set-up-only calls, started within `seconds`."""
    times: list[float] = []
    clock.probe = True
    t_start = time.perf_counter()
    try:
        while len(times) < SETUP_PROBES and time.perf_counter() - t_start < seconds:
            config = harness.parse_config(config_path)
            t0 = clock.start()
            try:
                harness.run_experiment(config)
            except SetupDone:
                times.append(clock.setup_s(t0))
            else:
                clock.setup_s(t0)  # raises: no cell ran
    finally:
        clock.probe = False
    return times


def run_calls(harness, config_path: Path, seconds: float, min_calls: int, clock: SetupClock,
              traced: bool) -> list[dict]:
    """Time whole `run_experiment` batches until `seconds` would be exceeded."""
    calls: list[dict] = []
    walls: list[float] = []
    t_start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - t_start + statistics.median(walls) <= seconds:
        config = harness.parse_config(config_path)
        cells = config.runs * len(config.strategies)
        t0 = clock.start()
        try:
            result = harness.run_experiment(config)
        except Exception:
            calls.append({"traced": traced, "cells": cells, "failed": cells, "error": traceback.format_exc()})
            break
        wall = time.perf_counter() - t0
        walls.append(wall)
        setups = [clock.setup_s(t0)]
        if not traced:
            setups += probe_setup(harness, config_path, clock, SETUP_SHARE * wall)
        calls.append(dict(check_call(config, result), traced=traced, cells=cells, wall_s=wall, setup_s=setups))
    return calls


def check_call(config, result) -> dict:
    """Check one call's CSVs and summarize them."""
    world = result["world"]
    rows = check.read_csv(result["traces_csv"])
    total_reds = sum(1 for c in world.colors if c.value == "red")
    bad = check.check_traces(rows, world, result["budget"], config.runs, config.strategies)
    summary_problems = check.check_summary(
        check.read_csv(result["summary_csv"]), rows, config.budget_tiers, world.n, total_reds
    )
    pcts = check.final_pcts(rows, total_reds)
    return {
        "failed": len(bad),
        "violations": {f"{run}/{strategy}": p for (run, strategy), p in list(bad.items())[:5]},
        "summary_problems": summary_problems[:5],
        "monitors": len(rows),
        "edges": world.num_edges(),
        "pct_red_found": sum(pcts) / len(pcts),
        "traces_bytes": Path(result["traces_csv"]).stat().st_size,
        "traces_sha256": check.sha256(result["traces_csv"]),
        "summary_sha256": check.sha256(result["summary_csv"]),
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy
    from redcrawl import harness

    clock = SetupClock(harness)
    config_path = Path(spec["config"])
    seconds = spec["seconds"]
    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    if not spec["trace"]:
        out["calls"] = run_calls(harness, config_path, seconds, spec["min_calls"], clock, traced=False)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        untraced = run_calls(harness, config_path, seconds / 2, 1, clock, traced=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_calls(harness, config_path, seconds / 2, 1, clock, traced=True)
        finally:
            tracer.uninstall()
        out["calls"] = untraced + traced
        ok = [c for c in traced if "error" not in c]
        if ok:
            out["layers"] = tracer.layer_metrics(len(ok), sum(c["wall_s"] for c in ok))
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
