"""Seeded experiment driver: runs, pairing, traces, and summary tables.

A run starts on a known red node, spends one monitor on it, then loops
strategy pick -> oracle answer -> observer ingest until the budget is
gone or the frontier empties. Per-run randomness is split into three
independent streams (honesty assignment, lie draws, strategy
tie-breaks), all derived from a per-run seed that itself comes from the
master seed and the run index only. Because neither the start node nor
the world streams depend on the strategy, every strategy in an
experiment faces the same sequence of worlds: a paired comparison.

A run's trace is its monitored node ids in monitor order; every red
count is read from the world's true colors where it is needed. Results
land in two CSVs, a per-step trace (`run,strategy,step,node,
true_color,cum_red`) and a budget-tier summary (`strategy,tier,
mean_pct_red,std_pct_red,runs`). The same config always reproduces both
files byte for byte. "Reds found" counts monitored nodes whose true
color is red; stated colors are unreliable, so a red only counts once a
monitor has confirmed it.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .classifier import build_training_set, fit
from .graph import (
    BLUE,
    RED,
    SYNTHETIC_MODES,
    Color,
    WorldGraph,
    float_text,
    generate_synthetic,
    is_integer,
    load_graph,
    remove_red_red_edges,
)
from .observer import ObserverState
from .oracle import LyingScenario, Oracle, assign_honesty
from .strategies import STRATEGY_NAMES, CountingScores, ExplorationExhausted, check_strategy, pick

logger = logging.getLogger(__name__)

TRACE_HEADER = ["run", "strategy", "step", "node", "true_color", "cum_red"]
SUMMARY_HEADER = ["strategy", "tier", "mean_pct_red", "std_pct_red", "runs"]


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from a master seed and context labels.

    Hash-based (not Python's salted `hash`) so the same config reproduces
    the same streams across processes and platforms.
    """
    text = ":".join([str(master_seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(eq=False)
class RunTrace:
    """One seeded run's monitored node ids in monitor order: `nodes[0]` is the forced start.

    Reds are not stored: a prefix's count is read from `world.codes[nodes]`.
    `honesty` is the array the run's oracle answered from, the one drawn
    from its seed; `run_experiment` hands it on to the run's other cells.
    """

    run_id: int
    strategy: str
    seed: int
    nodes: np.ndarray
    honesty: np.ndarray


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; see README for the file keys."""

    edges: str | None = None
    nodes: str | None = None
    synthetic_mode: str | None = None
    synthetic_n: int = 500
    synthetic_red_fraction: float = 0.05
    synthetic_seed: int = 1
    scenario: LyingScenario = LyingScenario.LS1
    strategies: list[str] = field(default_factory=lambda: list(STRATEGY_NAMES))
    runs: int = 25
    budget_fraction: float = 0.5
    budget_tiers: list[float] = field(default_factory=lambda: [0.10, 0.25, 0.50])
    retrain_every: int = 1
    master_seed: int = 0
    remove_red_red: bool = False
    output_dir: str = "out"
    dump_reports: bool = False

    def validate(self) -> None:
        if (self.edges is None) != (self.nodes is None):
            raise ValueError("edges and nodes must be given together")
        if self.edges is None and self.synthetic_mode is None:
            raise ValueError("config needs either edges/nodes files or a synthetic_mode")
        if self.edges is not None and self.synthetic_mode is not None:
            raise ValueError("config gives both a file graph and a synthetic graph; pick one")
        if self.synthetic_mode is not None and self.synthetic_mode not in SYNTHETIC_MODES:
            raise ValueError(f"unknown synthetic_mode {self.synthetic_mode!r}")
        if not isinstance(self.scenario, LyingScenario):  # the Oracle's rule, checked before any output
            raise ValueError(f"scenario {self.scenario!r} is not a LyingScenario; "
                             f"LyingScenario.parse reads one from text")
        # run_single's rule: a float such as 2.5 (or a bool) is not a count
        for name in ("runs", "retrain_every"):
            value = getattr(self, name)
            if not (is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be at least 1 and an integer, got {value!r}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if not self.budget_tiers:
            raise ValueError("budget_tiers must name at least one tier")
        for tier in self.budget_tiers:
            if not 0.0 < tier <= self.budget_fraction:
                raise ValueError(f"budget tier {float_text(tier)} outside "
                                 f"(0, budget_fraction = {float_text(self.budget_fraction)}]")
        if len(set(self.budget_tiers)) < len(self.budget_tiers):
            raise ValueError(f"budget_tiers must not repeat: {self.budget_tiers}")
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        for s in self.strategies:
            check_strategy(s)
        if len(set(self.strategies)) < len(self.strategies):
            raise ValueError(f"strategies must not repeat: {self.strategies}")
        if not self.output_dir.strip():
            raise ValueError("output_dir must name a directory, got an empty value")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "edges": str,
    "nodes": str,
    "synthetic_mode": str,
    "synthetic_n": int,
    "synthetic_red_fraction": float,
    "synthetic_seed": int,
    "scenario": LyingScenario.parse,
    "strategies": lambda v: [s.strip() for s in v.split(",") if s.strip()],
    "runs": int,
    "budget_fraction": float,
    "budget_tiers": lambda v: [float(t) for t in v.split(",") if t.strip()],
    "retrain_every": int,
    "master_seed": int,
    "remove_red_red": _parse_bool,
    "output_dir": str,
    "dump_reports": _parse_bool,
}


def set_config_value(config: ExperimentConfig, key: str, text: str) -> None:
    """Parse `text` as config key `key` would be in a file and set it on `config`."""
    if key not in _CONFIG_PARSERS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        setattr(config, key, _CONFIG_PARSERS[key](text))
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Read a `key = value` config file (# starts a comment); `run_experiment` checks it after any CLI overrides.

    A key may be set on one line only: a second line setting it is an error, not a silent override.
    """
    config = ExperimentConfig()
    set_on: dict[str, int] = {}  # key -> the line that set it
    with open(path, encoding="utf-8-sig") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_num}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in set_on:
                raise ValueError(f"{path}:{line_num}: {key} is already set on line {set_on[key]}")
            try:
                set_config_value(config, key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{line_num}: {exc}") from None
            set_on[key] = line_num
    return config


def run_single(
    world: WorldGraph,
    strategy: str,
    scenario: LyingScenario,
    start: int,
    seed: int,
    budget: int,
    retrain_every: int = 1,
    *,
    run_id: int = 0,
    report_log_path=None,
    step_callback=None,
    honesty: np.ndarray | None = None,
) -> RunTrace:
    """Execute one seeded run of `strategy` and return its trace.

    Honesty is `honesty` if given (the array a run with this seed
    draws), else drawn from the run seed; the start node takes the first
    monitor, and then the loop of pick / answer / ingest continues until
    the budget runs out or no candidate remains. A counting strategy
    keeps its scores in a `CountingScores`, built once before the start's
    ingest and updated from each report, the start's included, so no
    step rescans the frontier and the run never folds the state's
    counters. The learning strategy calls `pick` at every step and
    refits once `retrain_every` placements have joined the observer's
    record since its last fit, starting each fit from the model the last
    one returned. `step_callback`, if given, is called as
    `(state, decision)` after each pick and before the matching ingest,
    which rejects a pick that is not a candidate; a counting run builds
    that Decision from its kept scores only when a callback is set. A
    learning run whose fits stopped before `grad_tol` logs their count.
    The trace is read from that record when the loop ends: the monitored
    node ids in monitor order.
    """
    check_strategy(strategy)
    for name, value in (("budget", budget), ("retrain_every", retrain_every)):
        if not (is_integer(value) and value >= 1):
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    state = ObserverState(start, world.n)  # checks that start is a node id
    if world.codes[start] != RED:
        raise ValueError(f"start node {start} is not red")
    if honesty is None:
        honesty = assign_honesty(world, random.Random(derive_seed(seed, "honesty")))
    lies_rng = random.Random(derive_seed(seed, "lies"))
    tiebreak_rng = random.Random(derive_seed(seed, "tiebreak"))

    oracle = Oracle(world, honesty, scenario, lies_rng)
    # Built before the first report, so the kept scores take every report from
    # its claims and the run never reads the state's claim counts.
    counting = None if strategy == "redlearn" else CountingScores(strategy, state)
    report = oracle.place_monitor(start)
    state.ingest(report)
    if counting is not None:
        counting.update(report)

    model = None
    fitted_at = fits = unconverged = 0
    while len(state.reports) < budget:
        if counting is None and (model is None or len(state.reports) - fitted_at >= retrain_every):
            model = fit(build_training_set(state, start=model))
            fitted_at = len(state.reports)
            fits += 1
            unconverged += not model.converged
        try:
            if counting is None:
                decision = pick(strategy, state, tiebreak_rng, model)
                chosen = decision.chosen
            else:
                chosen = counting.choose(tiebreak_rng)
        except ExplorationExhausted:
            logger.debug("run %d (%s): frontier exhausted after %d monitors", run_id, strategy, len(state.reports))
            break
        if step_callback is not None:
            step_callback(state, decision if counting is None else counting.decision(chosen))
        report = oracle.place_monitor(chosen)
        state.ingest(report)
        if counting is not None:
            counting.update(report)

    if unconverged:
        logger.warning("run %d (%s): %d of %d fits stopped before grad_tol", run_id, strategy, unconverged, fits)
    if report_log_path is not None:
        state.dump_report_log(report_log_path)
    nodes = np.fromiter(state.reports, dtype=np.int64, count=len(state.reports))
    return RunTrace(run_id=run_id, strategy=strategy, seed=seed, nodes=nodes, honesty=honesty)


def _monitor_count(fraction: float, n: int) -> int:
    """`floor(fraction * n)` monitors, at least 1, for `fraction` as written in decimal.

    The float product can fall just short of a whole number (0.57 * 100
    is 56.99999999999999), so the fraction is read back from its shortest
    decimal text first: 0.57 of 100 nodes is 57 monitors.
    """
    return max(1, math.floor(Fraction(repr(float(fraction))) * n))


class SummaryRow(NamedTuple):
    strategy: str
    tier: float
    mean_pct_red: float
    std_pct_red: float
    runs: int


def summarize(traces: list[RunTrace], tiers: list[float], world: WorldGraph) -> list[SummaryRow]:
    """Mean and std of the percentage of `world`'s reds found at each budget tier.

    A tier maps to floor(tier * world.n) monitors, the tier read as
    written (`_monitor_count`); the forced start monitor counts as the
    first. A tier's reds are the true reds among a trace's first that
    many nodes. Runs that ended before a tier contribute their final
    value and are flagged in the log.
    """
    total_reds = len(world.red_ids())
    by_strategy: dict[str, list[RunTrace]] = {}
    for trace in traces:
        by_strategy.setdefault(trace.strategy, []).append(trace)
    rows = []
    for strategy, group in by_strategy.items():
        for tier in tiers:
            monitors = _monitor_count(tier, world.n)
            short = sum(1 for t in group if len(t.nodes) < monitors)
            if short:
                logger.warning(
                    "%s tier %s: %d/%d run(s) exhausted candidates before %d monitors; using final values",
                    strategy, float_text(tier), short, len(group), monitors,
                )
            reds = [int(np.count_nonzero(world.codes[t.nodes[:monitors]] == RED)) for t in group]
            pcts = [100.0 * r / total_reds for r in reds]
            mean = sum(pcts) / len(pcts)
            var = sum((p - mean) ** 2 for p in pcts) / len(pcts)
            rows.append(SummaryRow(strategy, tier, mean, math.sqrt(var), len(group)))
    return rows


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every (strategy, run) cell of `config` and write the CSVs.

    Start nodes and per-run seeds are derived from the master seed once
    and reused for every strategy, and so is each run's honesty, drawn in
    the run's first cell. Returns the output paths, the summary rows, and
    the traces.
    """
    config.validate()
    if config.edges is not None:
        world = load_graph(config.edges, config.nodes)
    else:
        world = generate_synthetic(
            config.synthetic_n,
            config.synthetic_red_fraction,
            config.synthetic_mode,
            config.synthetic_seed,
        )
    if config.remove_red_red:
        world = remove_red_red_edges(world)

    red_ids = world.red_ids()
    total_reds = len(red_ids)
    if total_reds == 0:
        raise ValueError(f"graph {world.name!r} has no red nodes to start from")
    budget = _monitor_count(config.budget_fraction, world.n)

    run_params = []
    for i in range(config.runs):
        start_rng = random.Random(derive_seed(config.master_seed, i, "start"))
        run_params.append((start_rng.choice(red_ids), derive_seed(config.master_seed, i, "run")))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    traces: list[RunTrace] = []
    # Each run's honesty is drawn once, by its first cell, and handed on to
    # its other cells: a draw is the run's own work, not the experiment's set-up.
    honesties: list[np.ndarray | None] = [None] * config.runs
    for strategy in config.strategies:
        for i, (start, seed) in enumerate(run_params):
            report_log_path = (
                out_dir / f"reports_{strategy}_run{i}.jsonl" if config.dump_reports else None
            )
            trace = run_single(
                world,
                strategy,
                config.scenario,
                start,
                seed,
                budget,
                config.retrain_every,
                run_id=i,
                report_log_path=report_log_path,
                honesty=honesties[i],
            )
            honesties[i] = trace.honesty
            traces.append(trace)
        logger.info("strategy %s: %d runs done", strategy, config.runs)

    traces_path = out_dir / "traces.csv"
    color_text = {code: Color.from_code(code).value for code in (RED, BLUE)}
    with open(traces_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for t in traces:
            codes = world.codes[t.nodes]
            cum_reds = np.cumsum(codes == RED).tolist()
            writer.writerows([t.run_id, t.strategy, i, world.labels[node], color_text[code], cum_red]
                             for i, (node, code, cum_red) in
                             enumerate(zip(t.nodes.tolist(), codes.tolist(), cum_reds)))

    rows = summarize(traces, config.budget_tiers, world)
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for row in rows:
            writer.writerow([
                row.strategy,
                float_text(row.tier),
                f"{row.mean_pct_red:.4f}",
                f"{row.std_pct_red:.4f}",
                row.runs,
            ])

    return {
        "world": world,
        "budget": budget,
        "total_reds": total_reds,
        "traces_csv": traces_path,
        "summary_csv": summary_path,
        "summary": rows,
        "traces": traces,
    }
