"""Checks on the CSVs one `run_experiment` call wrote.

The trace legality checker replays `traces.csv` against the world on its
own, without the program's `ObserverState`: a monitor may only go on a
node some earlier monitor revealed as a neighbor. The summary check
recomputes `summary.csv` from the traces. Both report violations instead
of raising, so a bad cell is counted as failed and the run goes on.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

MAX_PROBLEMS_PER_CELL = 5


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cells_of(rows: list[dict[str, str]]) -> dict[tuple[str, str], list[dict[str, str]]]:
    """Group trace rows by (run, strategy), keeping file order."""
    cells: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in rows:
        cells.setdefault((row["run"], row["strategy"]), []).append(row)
    return cells


def replay(steps: list[dict[str, str]], world, budget: int) -> list[str]:
    """Violations of one cell's trace against `world`, at most MAX_PROBLEMS_PER_CELL.

    Step 0 is a red start node. Each later node is a neighbor of an
    earlier monitored node and no node repeats. `true_color` and
    `cum_red` match the world. At most `budget` steps are taken, and a
    trace that stops short of the budget has an empty frontier.
    """
    ids = {label: i for i, label in enumerate(world.labels)}
    problems: list[str] = []
    if len(steps) > budget:
        problems.append(f"{len(steps)} steps exceed the budget of {budget}")
    monitored: set[int] = set()
    frontier: set[int] = set()
    cum_red = 0
    for i, row in enumerate(steps):
        if len(problems) >= MAX_PROBLEMS_PER_CELL:
            return problems
        label = row["node"]
        node = ids.get(label)
        if node is None:
            problems.append(f"step {i}: node {label!r} is not in the world")
            return problems
        if row["step"] != str(i):
            problems.append(f"step {i}: numbered {row['step']!r}")
        color = world.colors[node].value
        if i == 0 and color != "red":
            problems.append(f"step 0: start node {label} is {color}, not red")
        if node in monitored:
            problems.append(f"step {i}: node {label} is monitored again")
        elif i > 0 and node not in frontier:
            problems.append(f"step {i}: node {label} was never observed")
        if row["true_color"] != color:
            problems.append(f"step {i}: true_color {row['true_color']} but node {label} is {color}")
        cum_red += color == "red"
        if row["cum_red"] != str(cum_red):
            problems.append(f"step {i}: cum_red {row['cum_red']}, expected {cum_red}")
        monitored.add(node)
        frontier.discard(node)
        frontier.update(v for v in world.adjacency[node] if v not in monitored)
    if len(steps) < budget and frontier:
        problems.append(f"stopped after {len(steps)} of {budget} steps with {len(frontier)} candidates left")
    return problems[:MAX_PROBLEMS_PER_CELL]


def check_traces(rows, world, budget: int, runs: int, strategies: list[str]) -> dict[tuple[str, str], list[str]]:
    """Replay every expected (run, strategy) cell; return the violations of each bad cell.

    Besides per-cell legality, runs are paired: every strategy of one
    run starts on the same node.
    """
    cells = cells_of(rows)
    expected = [(str(r), s) for s in strategies for r in range(runs)]
    bad = {cell: ["cell not expected"] for cell in cells.keys() - set(expected)}
    starts: dict[str, str] = {}
    for cell in expected:
        steps = cells.get(cell)
        if not steps:
            bad[cell] = ["no trace rows"]
            continue
        problems = replay(steps, world, budget)
        start = starts.setdefault(cell[0], steps[0]["node"])
        if steps[0]["node"] != start:
            problems.append(f"starts on {steps[0]['node']}, but run {cell[0]} starts on {start}")
        if problems:
            bad[cell] = problems
    return bad


def final_pcts(rows, total_reds: int) -> list[float]:
    """Percent of all reds confirmed at the end of each cell."""
    return [100.0 * int(steps[-1]["cum_red"]) / total_reds for steps in cells_of(rows).values()]


def check_summary(summary_rows, trace_rows, tiers: list[float], n: int, total_reds: int) -> list[str]:
    """Recompute every (strategy, tier) row of `summary.csv` from the traces.

    A tier means floor(tier * n) monitors; a cell that stopped earlier
    counts its final value. Means and standard deviations are printed
    with four decimals, so they must agree to within rounding.
    """
    by_strategy: dict[str, list[list[dict[str, str]]]] = {}
    for (_, strategy), steps in cells_of(trace_rows).items():
        by_strategy.setdefault(strategy, []).append(steps)
    expected = {}
    for strategy, group in by_strategy.items():
        for tier in tiers:
            monitors = max(1, math.floor(tier * n))
            pcts = [100.0 * int(s[min(monitors, len(s)) - 1]["cum_red"]) / total_reds for s in group]
            mean = sum(pcts) / len(pcts)
            std = math.sqrt(sum((p - mean) ** 2 for p in pcts) / len(pcts))
            expected[(strategy, tier)] = (mean, std, len(group))
    got = {(r["strategy"], float(r["tier"])): r for r in summary_rows}
    problems = []
    for key in sorted(set(expected) | set(got)):
        if key not in got or key not in expected:
            problems.append(f"summary row {key} {'missing' if key not in got else 'not expected'}")
            continue
        row, (mean, std, runs) = got[key], expected[key]
        if (abs(float(row["mean_pct_red"]) - mean) > 1e-4 or abs(float(row["std_pct_red"]) - std) > 1e-4
                or int(row["runs"]) != runs):
            problems.append(f"summary row {key} reads {row}, traces give mean {mean:.4f} std {std:.4f} runs {runs}")
    return problems
