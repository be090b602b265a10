"""Tests of the benchmark itself: the trace checker and a tiny run of each workload.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import dataclasses
import json

import pytest

import check
import run
from conftest import ROOT
from redcrawl import ExperimentConfig, run_experiment
from workloads import WORKLOADS

RUNS = 2
STRATEGIES = ["sr", "mrn", "redlearn"]


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    config = ExperimentConfig(
        synthetic_mode="homophily", synthetic_n=80, synthetic_seed=3, strategies=STRATEGIES,
        runs=RUNS, budget_fraction=0.5, retrain_every=5, master_seed=7,
        output_dir=str(tmp_path_factory.mktemp("out")),
    )
    result = run_experiment(config)
    return config, result, check.read_csv(result["traces_csv"])


def violations(rows, result):
    return check.check_traces(rows, result["world"], result["budget"], RUNS, STRATEGIES)


def doctored(rows, index, **changes):
    rows = [dict(r) for r in rows]
    rows[index].update(changes)
    return rows


def test_accepts_real_traces_and_summary(real):
    config, result, rows = real
    assert violations(rows, result) == {}
    world = result["world"]
    summary = check.read_csv(result["summary_csv"])
    assert check.check_summary(summary, rows, config.budget_tiers, world.n, result["total_reds"]) == []


def test_rejects_repeated_node(real):
    _, result, rows = real
    bad = violations(doctored(rows, 3, node=rows[1]["node"]), result)
    assert list(bad) == [(rows[3]["run"], rows[3]["strategy"])]
    assert any("monitored again" in p for p in bad[(rows[3]["run"], rows[3]["strategy"])])


def test_rejects_unobserved_node(real):
    _, result, rows = real
    world = result["world"]
    cell = [r for r in rows if (r["run"], r["strategy"]) == (rows[0]["run"], rows[0]["strategy"])]
    start = world.labels.index(cell[0]["node"])
    seen = {world.labels[v] for v in world.adjacency[start]} | {r["node"] for r in cell}
    stranger = next(label for label in world.labels if label not in seen)
    bad = violations(doctored(rows, 1, node=stranger), result)
    assert any("never observed" in p for p in bad[(rows[1]["run"], rows[1]["strategy"])])


def test_rejects_wrong_cum_red(real):
    _, result, rows = real
    bad = violations(doctored(rows, 2, cum_red=str(int(rows[2]["cum_red"]) + 1)), result)
    assert any("cum_red" in p for p in bad[(rows[2]["run"], rows[2]["strategy"])])


def test_rejects_blue_start_missing_cell_and_unpaired_start(real):
    _, result, rows = real
    world = result["world"]
    blue = next(label for v, label in enumerate(world.labels) if world.colors[v].value == "blue")
    bad = violations(doctored(rows, 0, node=blue), result)
    assert any("not red" in p for p in bad[(rows[0]["run"], rows[0]["strategy"])])
    last = rows[-1]
    bad = violations([r for r in rows if (r["run"], r["strategy"]) != (last["run"], last["strategy"])], result)
    assert bad == {(last["run"], last["strategy"]): ["no trace rows"]}


def test_rejects_short_trace_with_candidates_left_and_over_budget(real):
    _, result, rows = real
    cell = (rows[0]["run"], rows[0]["strategy"])
    short = [r for i, r in enumerate(rows) if not ((r["run"], r["strategy"]) == cell and i > 2)]
    assert any("candidates left" in p for p in violations(short, result)[cell])
    assert any("exceed the budget" in p
               for p in check.replay(rows[:result["budget"]], result["world"], result["budget"] - 1))


def test_summary_check_catches_a_wrong_mean(real):
    config, result, rows = real
    summary = check.read_csv(result["summary_csv"])
    summary[0]["mean_pct_red"] = f"{float(summary[0]['mean_pct_red']) + 1:.4f}"
    world = result["world"]
    assert check.check_summary(summary, rows, config.budget_tiers, world.n, result["total_reds"])


def tiny(name):
    """The workload at a size that runs in about a second."""
    workload = WORKLOADS[name]
    sizes = {"learn": {"synthetic_n": "60"}, "frontier": {"synthetic_n": "200"}, "dense": {}}[name]
    graph = workload.graph and dataclasses.replace(workload.graph, n=120, mean_degree=20.0)
    return dataclasses.replace(workload, config=dict(workload.config, runs="1", **sizes), graph=graph)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = run.measure(tiny(name), seed=5, seconds=0, trace=trace, root=ROOT, min_calls=1)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["details"]["digests"]["identical_in_every_batch"]
    if trace:
        layers = result["metrics"]
        selves = sum(m["value"] for k, m in layers.items() if k.endswith("_s") and k != "traced_wall_s")
        assert selves == pytest.approx(layers["traced_wall_s"]["value"], rel=1e-9)
        assert (layers["classifier.fits"]["value"] > 0) == (name == "learn")
    else:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "learn", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
