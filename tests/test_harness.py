"""Experiment driver: runs, budgets, pairing, summaries, config, CLI."""

import csv
import hashlib
import logging
import math
import random
import re

import numpy as np
import pytest

from redcrawl import (
    FEATURE_NAMES,
    Color,
    Decision,
    ExperimentConfig,
    LyingScenario,
    RunTrace,
    TrainingSet,
    assign_honesty,
    classifier,
    derive_seed,
    fit,
    generate_synthetic,
    harness,
    load_graph,
    parse_config,
    pick,
    predict_many,
    run_experiment,
    run_single,
    strategies,
    summarize,
)
from redcrawl.cli import main as cli_main
from redcrawl.graph import RED
from helpers import (
    brute_features,
    brute_knowledge,
    brute_verified,
    fit_settings,
    make_world,
    reference_traces_csv,
    reference_world_config,
    scores_of,
)


def assert_cli_error(capsys, argv, match):
    """`redcrawl argv` exits 2 with one stderr line, `redcrawl: error: ...`, holding `match`."""
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("redcrawl: error: ") and err.count("\n") == 1
    assert match in err


def fitted_loss(model, data) -> float:
    """`classifier.loss` of `model` on `data`, in the model's standardization."""
    Xs = (data.rows - model.mean) * model.scale
    return classifier.loss(Xs, data.labels, model.weights, model.bias, classifier.DEFAULT_PARAMS.l2)


def star_world():
    """Red clique 0-3; blues 4-9 hang off leaf reds only."""
    red_edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    blue_edges = [(1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
    return make_world(10, red_edges + blue_edges, red={0, 1, 2, 3})


class TestRunSingle:
    @pytest.fixture
    def recorded_fits(self, monkeypatch):
        """Every (training set, model) pair `run_single` fits, in order."""
        fits = []
        real_fit = harness.fit

        def recording_fit(data):
            fits.append((data, real_fit(data)))
            return fits[-1][1]

        monkeypatch.setattr(harness, "fit", recording_fit)
        return fits

    def test_budget_one_is_just_the_start(self):
        world = generate_synthetic(30, 0.2, "homophily", 1)
        start = world.red_ids()[0]
        trace = run_single(world, "sr", LyingScenario.LS1, start, 7, budget=1)
        assert trace.nodes.tolist() == [start]

    def test_mrn_sweeps_red_clique_before_blues(self):
        world = star_world()
        trace = run_single(world, "mrn", LyingScenario.LS1, 0, seed=3, budget=10)
        assert (world.codes[trace.nodes[:4]] == RED).all()
        assert not (world.codes[trace.nodes[4:]] == RED).any()

    def test_deterministic_given_seed(self):
        world = generate_synthetic(60, 0.15, "homophily", 2)
        start = world.red_ids()[0]
        for strategy in ("sr", "rs", "mrsr", "mrn", "redlearn"):
            a = run_single(world, strategy, LyingScenario.LS2, start, 11, budget=25)
            b = run_single(world, strategy, LyingScenario.LS2, start, 11, budget=25)
            assert (a.run_id, a.strategy, a.seed) == (b.run_id, b.strategy, b.seed)
            assert np.array_equal(a.nodes, b.nodes)

    def test_seed_changes_outcome(self):
        world = generate_synthetic(60, 0.15, "homophily", 2)
        start = world.red_ids()[0]
        a = run_single(world, "sr", LyingScenario.LS1, start, 1, budget=25)
        b = run_single(world, "sr", LyingScenario.LS1, start, 2, budget=25)
        assert not np.array_equal(a.nodes, b.nodes)

    def test_cum_red_non_decreasing_and_consistent(self):
        world = generate_synthetic(80, 0.2, "homophily", 5)
        start = world.red_ids()[0]
        seen = []
        trace = run_single(world, "rs", LyingScenario.LS1, start, 13, budget=40,
                           step_callback=lambda state, decision: seen.append(state))
        (state,) = set(seen)  # one observer for the whole run
        # the trace is the observer's record in monitor order, as CSR-dtype ids
        assert trace.nodes.dtype == np.int64
        assert trace.nodes.tolist() == list(state.reports)
        # so the running red count read from the world's colors is the reports' own
        reds = 0
        for node, cum_red in zip(trace.nodes.tolist(), np.cumsum(world.codes[trace.nodes] == RED).tolist()):
            reds += state.reports[node].color == RED
            assert cum_red == reds

    def test_early_termination_when_frontier_empties(self):
        # start's component has 3 nodes; the other component is unreachable
        world = make_world(6, [(0, 1), (1, 2), (3, 4), (4, 5)], red={0, 3})
        trace = run_single(world, "sr", LyingScenario.LS1, 0, seed=1, budget=6)
        assert sorted(trace.nodes.tolist()) == [0, 1, 2]

    def test_isolated_red_start_stops_immediately(self):
        world = make_world(5, [(1, 2), (2, 3), (3, 4)], red={0})
        trace = run_single(world, "mrn", LyingScenario.LS1, 0, seed=1, budget=5)
        assert trace.nodes.tolist() == [0]

    def test_every_pick_was_a_legal_candidate(self):
        world = generate_synthetic(50, 0.2, "homophily", 8)
        start = world.red_ids()[0]
        seen = []

        def audit(state, decision):
            cands = set(state.candidates())
            assert decision.chosen in cands
            assert set(scores_of(decision)) == cands
            seen.append(decision.chosen)

        trace = run_single(
            world, "redlearn", LyingScenario.LS1, start, 21, budget=20, step_callback=audit,
        )
        assert seen == trace.nodes[1:].tolist()

    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    def test_redlearn_scores_match_per_candidate_rows(self, recorded_fits, scenario):
        # the one-matrix scoring path must give exactly the scores of
        # predict_many over rows stacked from per-candidate features(v)
        learned = []

        def audit(state, decision):
            cands = state.candidates()
            _, model = recorded_fits[-1]
            if model.fallback:
                _, edges, monitored, statements = brute_knowledge(start, state.reports.values())
                verified = brute_verified(monitored, statements)
                col = FEATURE_NAMES.index("red_neighbors")
                want = [brute_features(v, edges, monitored, statements, verified)[col] for v in cands]
            else:
                rows = np.array([state.features(v) for v in cands])
                want = predict_many(model, rows).tolist()
                learned.append(decision.chosen)
            assert list(scores_of(decision)) == cands
            assert list(scores_of(decision).values()) == want

        world = generate_synthetic(80, 0.15, "homophily", 4)
        start = world.red_ids()[0]
        run_single(world, "redlearn", scenario, start, 17, budget=40,
                   retrain_every=3, step_callback=audit)
        assert len(learned) > 20

    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    def test_each_refit_starts_from_the_last_model_and_lands_on_the_cold_optimum(self, recorded_fits, scenario):
        world = generate_synthetic(500, 0.05, "structural_signal", 1)
        run_single(world, "redlearn", scenario, world.red_ids()[0], 7, budget=150, retrain_every=5)
        assert recorded_fits[0][0].start is None
        for (_, previous), (data, _) in zip(recorded_fits, recorded_fits[1:]):
            assert data.start is previous
        warm = [(data, model) for data, model in recorded_fits
                if data.start is not None and not data.start.fallback]
        assert len(warm) > 20
        warm_steps = cold_steps = 0
        for data, model in warm:
            cold = fit(TrainingSet(data.rows, data.labels))
            assert model.converged and cold.converged
            # The same optimum: its loss to about 1e-9. grad_tol bounds the
            # gradient, not the probabilities: along the Hessian's flattest
            # directions a cold fit too stops up to about 2e-5 from the
            # probabilities of a fit run to grad_tol 1e-13.
            assert abs(fitted_loss(model, data) - fitted_loss(cold, data)) <= 1e-8
            assert np.abs(predict_many(model, data.rows) - predict_many(cold, data.rows)).max() <= 1e-4
            warm_steps += model.iterations
            cold_steps += cold.iterations
        assert warm_steps < cold_steps

    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_step_callback_sees_picks_decision_and_changes_nothing(self, strategy, scenario):
        # a counting run builds its Decision from the kept scores only for a
        # callback: it must be pick()'s, fixed at pick time, and change no draw
        world = generate_synthetic(80, 0.15, "homophily", 4)
        start = world.red_ids()[0]
        seen = []

        def audit(state, decision):
            want = pick(strategy, state, random.Random(0))
            assert np.array_equal(decision.candidates, want.candidates)
            assert np.array_equal(decision.scores, want.scores)
            assert decision.scores.dtype == want.scores.dtype
            assert decision.scores[decision.candidates == decision.chosen] == want.scores.max()
            seen.append((decision, decision.candidates.copy(), decision.scores.copy()))

        quiet = run_single(world, strategy, scenario, start, 19, budget=40)
        traced = run_single(world, strategy, scenario, start, 19, budget=40, step_callback=audit)
        assert np.array_equal(quiet.nodes, traced.nodes)
        assert [d.chosen for d, _, _ in seen] == traced.nodes[1:].tolist()
        for decision, cands, scores in seen:
            assert np.array_equal(decision.candidates, cands)
            assert np.array_equal(decision.scores, scores)

    def test_pick_of_monitored_node_raises(self, monkeypatch):
        # A counting run draws from its kept scores; redlearn goes through pick.
        world = star_world()
        with monkeypatch.context() as m:
            m.setattr(strategies.CountingScores, "choose", lambda self, rng: 0)
            with pytest.raises(ValueError, match="node 0 is already monitored"):
                run_single(world, "mrn", LyingScenario.LS1, 0, seed=3, budget=5)
        monkeypatch.setattr(harness, "pick", lambda strategy, state, rng, model=None:
                            Decision(0, np.array([0]), np.array([0.0])))
        with pytest.raises(ValueError, match="node 0 is already monitored"):
            run_single(world, "redlearn", LyingScenario.LS1, 0, seed=3, budget=5)

    def test_start_must_be_red(self):
        world = make_world(3, [(0, 1), (1, 2)], red={0})
        with pytest.raises(ValueError, match="not red"):
            run_single(world, "sr", LyingScenario.LS1, 1, seed=0, budget=2)

    @pytest.mark.parametrize("start", [-1, 3, 10**6])
    def test_start_outside_the_world_rejected(self, start):
        world = make_world(3, [(0, 1), (1, 2)], red={0, 2})
        with pytest.raises(ValueError, match=rf"start node {start} is not a node id in \[0, 3\)"):
            run_single(world, "sr", LyingScenario.LS1, start, seed=0, budget=2)

    def test_budget_must_be_positive(self):
        world = make_world(3, [(0, 1)], red={0})
        with pytest.raises(ValueError, match="budget"):
            run_single(world, "sr", LyingScenario.LS1, 0, seed=0, budget=0)

    @pytest.mark.parametrize("strategy, budget, retrain_every, match", [
        ("bogus", 5, 1, r"unknown strategy 'bogus': expected one of \('sr', 'rs', 'mrsr', 'mrn', 'redlearn'\)"),
        ("sr", 2.5, 1, "budget must be an integer of at least 1, got 2.5"),
        ("sr", True, 1, "budget must be an integer of at least 1, got True"),
        ("sr", -1, 1, "budget must be an integer of at least 1, got -1"),
        ("redlearn", 5, 0, "retrain_every must be an integer of at least 1, got 0"),
        ("redlearn", 5, -3, "retrain_every must be an integer of at least 1, got -3"),
        ("mrn", 5, 1.0, "retrain_every must be an integer of at least 1, got 1.0"),
    ], ids=["unknown_strategy", "fractional_budget", "bool_budget", "negative_budget",
            "zero_retrain_every", "negative_retrain_every", "float_retrain_every"])
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, strategy, budget, retrain_every, match):
        def no_draw(*_):
            raise AssertionError("honesty was drawn")

        monkeypatch.setattr(harness, "assign_honesty", no_draw)
        world = make_world(3, [(0, 1), (1, 2)], red={0, 2})
        with pytest.raises(ValueError, match=match):
            run_single(world, strategy, LyingScenario.LS1, 0, seed=0, budget=budget, retrain_every=retrain_every)

    def test_retrain_cadence_only_affects_redlearn_timing(self):
        world = generate_synthetic(60, 0.2, "homophily", 3)
        start = world.red_ids()[0]
        every = run_single(world, "redlearn", LyingScenario.LS1, start, 5, budget=20, retrain_every=1)
        sparse = run_single(world, "redlearn", LyingScenario.LS1, start, 5, budget=20, retrain_every=50)
        assert len(every.nodes) == len(sparse.nodes) == 20
        # with retrain_every beyond the budget only the fallback fit happens,
        # so the sparse run must mimic the mrn ranking
        mrn = run_single(world, "mrn", LyingScenario.LS1, start, 5, budget=20)
        assert np.array_equal(sparse.nodes, mrn.nodes)

    def test_redlearn_refits_every_retrain_every_placements(self, monkeypatch):
        rows_per_fit = []
        real_fit = harness.fit

        def sized_fit(data, *args, **kwargs):
            rows_per_fit.append(len(data.rows))
            return real_fit(data, *args, **kwargs)

        monkeypatch.setattr(harness, "fit", sized_fit)
        world = generate_synthetic(500, 0.05, "structural_signal", 1)
        run_single(world, "redlearn", LyingScenario.LS1, world.red_ids()[0], 7, budget=60, retrain_every=10)
        # one row per monitored node: the start's fit, then one every ten placements
        assert rows_per_fit == [1, 11, 21, 31, 41, 51]

    def _structural_run(self, caplog):
        world = generate_synthetic(500, 0.05, "structural_signal", 1)
        with caplog.at_level(logging.WARNING, logger="redcrawl.harness"):
            run_single(world, "redlearn", LyingScenario.LS1, world.red_ids()[0], 7, budget=250,
                       retrain_every=10, run_id=3)
        return [r.getMessage() for r in caplog.records if "grad_tol" in r.getMessage()]

    def test_redlearn_fits_converge_without_warning(self, caplog, recorded_fits):
        warnings = self._structural_run(caplog)
        learned = [m for _, m in recorded_fits if not m.fallback]
        assert len(learned) > 10
        assert all(m.converged and m.iterations <= 20 for m in learned)
        assert warnings == []

    def test_a_start_worse_than_zero_weights_is_dropped_and_every_fit_converges(self, caplog, recorded_fits):
        # Criterion 5's run 7: a feature column whose spread was tiny in one
        # training set spreads out in the next, where the old model's steep
        # slope on it gives a start far worse than zero weights; Newton from
        # there stalled on saturated probabilities, and the models after it
        # inherited the stall.
        world = generate_synthetic(500, 0.05, "homophily", 1)
        start = random.Random(derive_seed(2026, 7, "start")).choice(world.red_ids())
        with caplog.at_level(logging.WARNING, logger="redcrawl.harness"):
            run_single(world, "redlearn", LyingScenario.LS1, start, derive_seed(2026, 7, "run"), budget=250,
                       retrain_every=10, run_id=7)
        assert all(model.converged for _, model in recorded_fits)
        assert not [r for r in caplog.records if "grad_tol" in r.getMessage()]
        learned = [data for data, _ in recorded_fits if data.start is not None and not data.start.fallback]
        with fit_settings(max_iter=0):
            dropped = [data for data in learned if not fit(data).weights.any()]
        assert dropped

    def test_fits_stopped_before_grad_tol_warn_once_per_run(self, caplog, recorded_fits):
        with fit_settings(max_iter=1):
            warnings = self._structural_run(caplog)
        stopped = sum(not m.converged for _, m in recorded_fits)
        assert stopped > 0
        assert warnings == [f"run 3 (redlearn): {stopped} of {len(recorded_fits)} fits stopped before grad_tol"]


class TestDeriveSeed:
    def test_stable_golden_value(self):
        # frozen: a change here silently breaks every recorded experiment
        assert derive_seed(0, 0, "start") == derive_seed(0, 0, "start")
        assert derive_seed(0, 0, "start") != derive_seed(0, 1, "start")
        assert derive_seed(0, 0, "start") != derive_seed(0, 0, "run")
        assert derive_seed(123, 4, "run") == 11894964125732599280

    def test_spreads_over_64_bits(self):
        seeds = {derive_seed(0, i, "run") for i in range(100)}
        assert len(seeds) == 100
        assert max(seeds) > 2**60


class TestSummarize:
    def _world(self, n_nodes, total_reds):
        """Reds are ids below `total_reds`; summarize reads colors only, so no edges."""
        return make_world(n_nodes, [], red=range(total_reds))

    def _trace(self, world, strategy, cum, run_id=0):
        """A trace over `world` whose running count of reds is `cum`."""
        reds = iter(world.red_ids())
        blues = iter(np.flatnonzero(world.codes != RED).tolist())
        nodes = [next(reds) if c > before else next(blues) for before, c in zip([0, *cum], cum)]
        return RunTrace(run_id=run_id, strategy=strategy, seed=0, nodes=np.array(nodes, dtype=np.int64),
                        honesty=np.full(world.n, 0.5))

    def test_mean_over_runs(self):
        # 10 monitors at the 0.5 tier of a 20-node graph; 4 and 6 of 10 reds
        world = self._world(20, 10)
        a = self._trace(world, "sr", [1, 1, 2, 2, 3, 3, 4, 4, 4, 4, 5], run_id=0)
        b = self._trace(world, "sr", [1, 2, 3, 4, 5, 5, 6, 6, 6, 6, 7], run_id=1)
        rows = summarize([a, b], [0.5], world)
        assert len(rows) == 1
        assert rows[0].strategy == "sr"
        assert rows[0].tier == 0.5
        assert rows[0].mean_pct_red == pytest.approx(50.0)
        assert rows[0].std_pct_red == pytest.approx(10.0)
        assert rows[0].runs == 2

    def test_everything_found_early_gives_100_everywhere(self):
        world = self._world(10, 3)
        trace = self._trace(world, "mrn", [1, 2, 3, 3, 3, 3, 3, 3, 3, 3])
        rows = summarize([trace], [0.3, 0.6, 1.0], world)
        assert [r.mean_pct_red for r in rows] == [100.0, 100.0, 100.0]

    def test_exhausted_run_contributes_final_value(self, caplog):
        import logging

        world = self._world(20, 4)
        trace = self._trace(world, "sr", [1, 2])  # stopped after 2 monitors
        with caplog.at_level(logging.WARNING, logger="redcrawl.harness"):
            rows = summarize([trace], [0.5], world)
        assert rows[0].mean_pct_red == pytest.approx(50.0)
        assert "exhausted" in caplog.text

    def test_tier_to_monitor_count_uses_floor(self):
        world = self._world(10, 2)
        trace = self._trace(world, "sr", [1, 1, 1, 2, 2, 2, 2, 2, 2, 2])
        rows = summarize([trace], [0.39], world)
        # floor(0.39 * 10) = 3 monitors -> cum_red 1 -> 50%
        assert rows[0].mean_pct_red == pytest.approx(50.0)

    def test_tier_is_floored_as_written(self):
        # 0.29 * 100 is 28.999999999999996 in floats; the tier means 29 monitors
        world = self._world(100, 2)
        trace = self._trace(world, "sr", [1] * 28 + [2, 2])
        rows = summarize([trace], [0.29], world)
        assert rows[0].mean_pct_red == pytest.approx(100.0)


class TestExperimentConfig:
    def test_parse_full_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            """
            # comment line
            synthetic_mode = structural_signal
            synthetic_n = 80
            synthetic_red_fraction = 0.1
            synthetic_seed = 4
            scenario = ls2
            strategies = mrn, redlearn
            runs = 3
            budget_fraction = 0.4    # inline comment
            budget_tiers = 0.1, 0.2, 0.4
            retrain_every = 5
            master_seed = 99
            remove_red_red = true
            output_dir = results
            """
        )
        config = parse_config(path)
        assert config.synthetic_mode == "structural_signal"
        assert config.synthetic_n == 80
        assert config.scenario is LyingScenario.LS2
        assert config.strategies == ["mrn", "redlearn"]
        assert config.runs == 3
        assert config.budget_fraction == 0.4
        assert config.budget_tiers == [0.1, 0.2, 0.4]
        assert config.retrain_every == 5
        assert config.master_seed == 99
        assert config.remove_red_red is True
        assert config.output_dir == "results"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus_key = 3\n")
        with pytest.raises(ValueError, match="bogus_key"):
            parse_config(path)

    def test_validation_needs_a_graph_source(self):
        with pytest.raises(ValueError, match="synthetic_mode"):
            ExperimentConfig(synthetic_mode=None).validate()

    def test_validation_rejects_both_sources(self):
        config = ExperimentConfig(edges="e", nodes="n", synthetic_mode="homophily")
        with pytest.raises(ValueError, match="both"):
            config.validate()

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError, match="strategy"):
            ExperimentConfig(synthetic_mode="homophily", strategies=["dfs"]).validate()
        with pytest.raises(ValueError, match="runs"):
            ExperimentConfig(synthetic_mode="homophily", runs=0).validate()
        with pytest.raises(ValueError, match="budget_fraction"):
            ExperimentConfig(synthetic_mode="homophily", budget_fraction=1.5).validate()
        with pytest.raises(ValueError, match="tier"):
            ExperimentConfig(synthetic_mode="homophily", budget_tiers=[0.0]).validate()
        # a tier past the budget would repeat the last row as if runs ran short
        with pytest.raises(ValueError, match=r"budget tier 0.5 outside \(0, budget_fraction = 0.1\]"):
            ExperimentConfig(synthetic_mode="homophily", budget_fraction=0.1, budget_tiers=[0.1, 0.5]).validate()
        # both numbers are written so that they read back, not rounded to six digits
        with pytest.raises(ValueError, match=r"budget tier 0.1234564 outside \(0, budget_fraction = 0.1234561\]"):
            ExperimentConfig(synthetic_mode="homophily", budget_fraction=0.1234561, budget_tiers=[0.1234564]).validate()
        with pytest.raises(ValueError, match="budget_tiers must name at least one tier"):
            ExperimentConfig(synthetic_mode="homophily", budget_tiers=[]).validate()
        with pytest.raises(ValueError, match="at least one strategy"):
            ExperimentConfig(synthetic_mode="homophily", strategies=[]).validate()
        with pytest.raises(ValueError, match="must not repeat"):
            ExperimentConfig(synthetic_mode="homophily", strategies=["mrn", "sr", "mrn"]).validate()
        # a repeated tier would write its summary rows twice
        with pytest.raises(ValueError, match=r"budget_tiers must not repeat: \[0.1, 0.25, 0.1\]"):
            ExperimentConfig(synthetic_mode="homophily", budget_tiers=[0.1, 0.25, 0.1]).validate()
        with pytest.raises(ValueError, match="output_dir must name a directory"):
            ExperimentConfig(synthetic_mode="homophily", output_dir=" ").validate()

    @pytest.mark.parametrize("key, value", [("runs", 2.5), ("retrain_every", 2.5), ("runs", True),
                                            ("retrain_every", 0)])
    def test_counts_that_are_not_whole_numbers_rejected_before_any_output(self, tmp_path, key, value):
        keys = {"runs": 1, "retrain_every": 1, key: value}
        config = ExperimentConfig(synthetic_mode="homophily", synthetic_n=60, strategies=["redlearn"],
                                  output_dir=str(tmp_path / "out"), **keys)
        with pytest.raises(ValueError, match=rf"{key} must be at least 1 and an integer, got {value!r}"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", ["ls1", None])
    def test_scenario_that_is_not_a_lying_scenario_rejected_before_any_output(self, tmp_path, scenario):
        config = ExperimentConfig(synthetic_mode="homophily", synthetic_n=60, strategies=["mrn"], runs=1,
                                  scenario=scenario, output_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=re.escape(f"scenario {scenario!r} is not a LyingScenario; "
                                                       f"LyingScenario.parse reads one from text")):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, text, want", [
        ("runs", "3", 3),
        ("scenario", "ls2", LyingScenario.LS2),
        ("strategies", "mrn, sr", ["mrn", "sr"]),
        ("remove_red_red", "true", True),
    ])
    def test_set_config_value_parses_like_a_file_line(self, key, text, want):
        config = ExperimentConfig()
        harness.set_config_value(config, key, text)
        assert getattr(config, key) == want

    @pytest.mark.parametrize("key, text, error", [
        ("l2", "0.01", "unknown config key 'l2'"),
        ("runs", "two", "bad value for runs: invalid literal for int() with base 10: 'two'"),
        ("dump_reports", "maybe", "bad value for dump_reports: expected a boolean, got 'maybe'"),
    ], ids=["unknown_key", "bad_int", "bad_bool"])
    def test_set_config_value_error_leaves_config_unchanged(self, key, text, error):
        # no path:line prefix here; parse_config adds it and the CLI shows the bare message
        config = ExperimentConfig()
        with pytest.raises(ValueError) as info:
            harness.set_config_value(config, key, text)
        assert str(info.value) == error
        assert config == ExperimentConfig()

    @pytest.mark.parametrize("key, value", [("l2", "0.01"), ("max_iter", "200"), ("grad_tol", "1e-5")])
    def test_classifier_fit_settings_are_not_config_keys(self, tmp_path, capsys, key, value):
        # the fit settings are classifier.DEFAULT_PARAMS; a file naming one is rejected, not ignored
        path = tmp_path / "exp.cfg"
        path.write_text(f"synthetic_mode = homophily\n{key} = {value}\n")
        with pytest.raises(ValueError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:2: unknown config key {key!r}"
        assert_cli_error(capsys, ["run", "--config", str(path)], str(info.value))

    @pytest.mark.parametrize("line", ["strategies =", "strategies = mrn,mrn"])
    def test_config_file_with_empty_or_repeated_strategies_rejected(self, tmp_path, monkeypatch, capsys, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(f"synthetic_mode = homophily\n{line}\nruns = 2\n")
        assert_cli_error(capsys, ["run", "--config", "exp.cfg"], "strateg")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, match", [
        ("budget_fraction = 0.1\nbudget_tiers = 0.1,0.5", "budget tier 0.5"),
        ("budget_tiers =", "at least one tier"),
        ("budget_tiers = 0.1,0.1", "budget_tiers must not repeat: [0.1, 0.1]"),
    ], ids=["tier_above_budget", "no_tiers", "repeated_tier"])
    def test_config_file_with_bad_tiers_rejected(self, tmp_path, monkeypatch, capsys, lines, match):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(f"synthetic_mode = homophily\n{lines}\n")
        assert_cli_error(capsys, ["run", "--config", "exp.cfg"], match)
        assert not (tmp_path / "out").exists()

    def test_parse_config_leaves_the_check_to_run_experiment(self, tmp_path):
        # the file is checked as a whole only once any CLI overrides are in
        path = tmp_path / "exp.cfg"
        path.write_text(f"synthetic_mode = homophily\nruns = 0\noutput_dir = {tmp_path / 'out'}\n")
        config = parse_config(path)
        assert config.runs == 0
        with pytest.raises(ValueError, match="runs must be at least 1"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, match", [
        ("synthetic_mode homophily", "expected 'key = value'"),
        ("dump_reports = maybe", "bad value for dump_reports: expected a boolean, got 'maybe'"),
        ("scenario = ls3", "bad value for scenario: unknown lying scenario 'ls3'"),
        ("runs = two", "bad value for runs: invalid literal for int"),
    ], ids=["no_equals", "bad_bool", "bad_scenario", "bad_int"])
    def test_config_file_line_errors_name_file_line_and_problem(self, tmp_path, line, match):
        path = tmp_path / "exp.cfg"
        path.write_text(f"synthetic_n = 30\n{line}\n")
        with pytest.raises(ValueError) as info:
            parse_config(path)
        assert str(info.value).startswith(f"{path}:2: ")
        assert match in str(info.value)

    @pytest.mark.parametrize("lines, key, first, second", [
        ("runs = 3\nruns = 5", "runs", 1, 2),
        # the second value is not even read: a bad one still reports the repeat
        ("runs = 3\nruns = two", "runs", 1, 2),
        ("runs = 2\nscenario = ls1\n\n# comment\nscenario = ls2", "scenario", 2, 5),
    ], ids=["same_type", "bad_second_value", "after_other_lines"])
    def test_config_key_set_twice_rejected(self, tmp_path, capsys, lines, key, first, second):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{lines}\n")
        with pytest.raises(ValueError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:{second}: {key} is already set on line {first}"
        assert_cli_error(capsys, ["run", "--config", str(path)], str(info.value))

    def test_cli_budget_below_a_tier_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("synthetic_mode = homophily\nsynthetic_n = 30\nruns = 2\nbudget_tiers = 0.1,0.5\n")
        out = tmp_path / "results"
        assert_cli_error(capsys, ["run", "--config", str(path), "--budget-fraction", "0.1", "--out", str(out)],
                         "budget tier 0.5")
        assert not out.exists()

    def test_cli_strategy_override_with_repeat_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("synthetic_mode = homophily\nsynthetic_n = 30\nruns = 2\n")
        out = tmp_path / "results"
        assert_cli_error(capsys, ["run", "--config", str(path), "--strategy", "mrn,mrn", "--out", str(out)],
                         "must not repeat")
        assert not out.exists()


class TestRunExperiment:
    def small_config(self, out_dir, **overrides):
        kwargs = dict(
            synthetic_mode="homophily",
            synthetic_n=40,
            synthetic_red_fraction=0.2,
            synthetic_seed=6,
            scenario=LyingScenario.LS1,
            strategies=["sr", "mrn"],
            runs=4,
            budget_fraction=0.5,
            budget_tiers=[0.1, 0.25, 0.5],
            retrain_every=1,
            master_seed=17,
            output_dir=str(out_dir),
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def test_outputs_and_schema(self, tmp_path):
        result = run_experiment(self.small_config(tmp_path / "out"))
        with open(result["traces_csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "strategy", "step", "node", "true_color", "cum_red"]
        assert {r[1] for r in rows[1:]} == {"sr", "mrn"}
        with open(result["summary_csv"], newline="") as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == ["strategy", "tier", "mean_pct_red", "std_pct_red", "runs"]
        assert len(srows) == 1 + 2 * 3  # strategies x tiers
        assert len(result["summary"]) == 6

    def test_paired_starts_across_strategies(self, tmp_path):
        result = run_experiment(self.small_config(tmp_path / "out"))
        starts = {}
        for trace in result["traces"]:
            starts.setdefault(trace.run_id, set()).add(trace.nodes[0])
        assert all(len(s) == 1 for s in starts.values())
        seeds = {}
        for trace in result["traces"]:
            seeds.setdefault(trace.run_id, set()).add(trace.seed)
        assert all(len(s) == 1 for s in seeds.values())

    def test_honesty_is_drawn_once_per_run_and_is_the_seeds_own(self, tmp_path, monkeypatch):
        drawn = []

        def recording_draw(world, rng):
            drawn.append(assign_honesty(world, rng))
            return drawn[-1]

        monkeypatch.setattr(harness, "assign_honesty", recording_draw)
        config = self.small_config(tmp_path / "out", strategies=["sr", "rs", "mrn"], runs=3)
        result = run_experiment(config)
        assert len(drawn) == 3  # one per run, not one per (strategy, run) cell
        for trace in result["traces"]:
            assert trace.honesty is drawn[trace.run_id]
        monkeypatch.undo()
        # a run_single call that draws its own honesty from the seed gives the same trace
        for trace in result["traces"]:
            alone = run_single(result["world"], trace.strategy, config.scenario, int(trace.nodes[0]),
                               trace.seed, result["budget"], run_id=trace.run_id)
            assert np.array_equal(alone.nodes, trace.nodes)

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = self.small_config(tmp_path / "a", strategies=["sr", "redlearn"], runs=2)
        config_b = self.small_config(tmp_path / "b", strategies=["sr", "redlearn"], runs=2)
        ra = run_experiment(config_a)
        rb = run_experiment(config_b)
        assert ra["traces_csv"].read_bytes() == rb["traces_csv"].read_bytes()
        assert ra["summary_csv"].read_bytes() == rb["summary_csv"].read_bytes()

    def test_mrn_beats_sr_with_homophily(self, tmp_path):
        config = self.small_config(
            tmp_path / "out",
            synthetic_n=150,
            synthetic_red_fraction=0.1,
            runs=8,
        )
        result = run_experiment(config)
        by = {(r.strategy, r.tier): r.mean_pct_red for r in result["summary"]}
        assert by[("mrn", 0.5)] > by[("sr", 0.5)]

    def test_remove_red_red_flag(self, tmp_path):
        config = self.small_config(tmp_path / "out", remove_red_red=True, runs=1)
        result = run_experiment(config)
        world = result["world"]
        assert all(
            world.colors[u] is not Color.RED or world.colors[v] is not Color.RED
            for u, v in world.edges()
        )

    def test_dump_reports(self, tmp_path):
        world = reference_world_config(tmp_path, 40, 0.2, "homophily", 6)
        config = self.small_config(tmp_path / "out", runs=1, dump_reports=True, **world)
        run_experiment(config)
        logs = sorted((tmp_path / "out").glob("reports_*_run0.jsonl"))
        assert [p.name for p in logs] == ["reports_mrn_run0.jsonl", "reports_sr_run0.jsonl"]
        # sha256 of the mrn log for this config on the frozen per-pair world:
        # a refactor leaves the dump's bytes as they are
        assert hashlib.sha256(logs[0].read_bytes()).hexdigest() == (
            "28a40b80eeefbf8b4699edd50b48d53c3df15dbdc4c4fe7cc4f7b3c822a4ca76"
        )

    # sha256 of traces.csv and summary.csv for the config below, on the
    # frozen per-pair world read from files, so a new generator leaves them
    # as they are. A refactor must leave them as they are; a deliberate
    # behaviour change records them again and says why. redlearn is left
    # out: its scores go through BLAS, whose summation order can differ by
    # CPU, so its bytes are pinned only by perfbench's digests on one
    # machine. The four counting strategies use integer counts and the
    # random streams alone.
    GOLDEN = {
        LyingScenario.LS1: ("a19628cb737e7ef53cdeee8eea98b6c27682a85a5e7d81d737169a87caf9b1b4",
                            "307afcd2e8758335a5ec68976b390e63f8d1e52af6fe151bb0d57694cb4b50fe"),
        LyingScenario.LS2: ("e936ca3a8a0ebb2d42e4abc44ff84b02e6215ab978e85f6653dc7df7fae14041",
                            "4bc5b66b2b23f71f190aa47f6110f26a18df551e2f3610229327af2329ccb7ec"),
    }

    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    def test_counting_strategies_outputs_match_golden_digests(self, tmp_path, caplog, scenario):
        config = self.small_config(
            tmp_path / "out",
            **reference_world_config(tmp_path, 300, 0.05, "homophily", 1),
            scenario=scenario,
            strategies=["sr", "rs", "mrsr", "mrn"],
            runs=3,
            budget_fraction=0.3,
            budget_tiers=[0.1, 0.2, 0.3],
            master_seed=0,
        )
        with caplog.at_level(logging.WARNING):
            result = run_experiment(config)
        # every run reaches the top tier, so no summary cell uses a final value
        assert not caplog.records
        digests = tuple(hashlib.sha256(result[key].read_bytes()).hexdigest()
                        for key in ("traces_csv", "summary_csv"))
        assert digests == self.GOLDEN[scenario]

    # Node ids that csv.writer quotes: a comma, a quote, both, and a quote at either end.
    QUOTED_IDS = ["a,b", 'say"hi"', '"lead', 'trail"', 'x,"y"', ",", '"']

    def test_trace_writer_quotes_loaded_ids_as_csv_writer_does(self, tmp_path):
        ids = self.QUOTED_IDS + [f"n{i}" for i in range(9)]
        rng = random.Random(2)
        with open(tmp_path / "nodes.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "color"])
            writer.writerows([label, "red" if i % 3 == 0 else "blue"] for i, label in enumerate(ids))
        # a ring, so every node is reached, plus chords
        pairs = [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]
        pairs += [tuple(rng.sample(ids, 2)) for _ in range(12)]
        (tmp_path / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="utf-8")
        config = self.small_config(tmp_path / "out", edges=str(tmp_path / "edges.txt"),
                                   nodes=str(tmp_path / "nodes.csv"), synthetic_mode=None,
                                   strategies=list(strategies.STRATEGY_NAMES), runs=2,
                                   budget_fraction=1.0, budget_tiers=[0.5, 1.0])
        result = run_experiment(config)
        reference_traces_csv(tmp_path / "reference.csv", result["traces"], result["world"])
        written = result["traces_csv"].read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        with open(result["traces_csv"], newline="", encoding="utf-8") as fh:
            assert set(self.QUOTED_IDS) <= {row[3] for row in csv.reader(fh)}  # every such id was monitored

    def test_trace_writer_matches_csv_writer_for_every_strategy(self, tmp_path):
        config = self.small_config(tmp_path / "out", strategies=list(strategies.STRATEGY_NAMES), runs=3)
        result = run_experiment(config)
        reference_traces_csv(tmp_path / "reference.csv", result["traces"], result["world"])
        assert result["traces_csv"].read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_budget_accounting(self, tmp_path):
        config = self.small_config(tmp_path / "out", runs=2)
        result = run_experiment(config)
        for trace in result["traces"]:
            assert len(trace.nodes) <= result["budget"]
            assert np.count_nonzero(result["world"].codes[trace.nodes] == RED) <= result["total_reds"]


class TestCli:
    def test_gen_writes_loadable_files(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert cli_main([
            "gen", "--n", "40", "--red-fraction", "0.2", "--mode", "homophily",
            "--seed", "3", "--out", str(out),
        ]) == 0
        g = load_graph(out / "edges.txt", out / "nodes.csv")
        assert g.n == 40
        assert len(g.red_ids()) == 8
        assert "40 nodes" in capsys.readouterr().out

    def test_run_with_overrides(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            "synthetic_mode = homophily\n"
            "synthetic_n = 30\n"
            "synthetic_red_fraction = 0.2\n"
            "synthetic_seed = 2\n"
            "strategies = sr\n"
            "runs = 5\n"
            "budget_tiers = 0.1234561,0.1234564\n"
            "master_seed = 1\n"
        )
        out = tmp_path / "results"
        assert cli_main([
            "run", "--config", str(config_path),
            "--strategy", "sr,mrn", "--runs", "2", "--scenario", "ls2",
            "--seed", "9", "--out", str(out),
        ]) == 0
        with open(out / "traces.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[1] for r in rows} == {"sr", "mrn"}
        assert {r[0] for r in rows} == {"0", "1"}
        # 0.1234561 and 0.1234564 are distinct tiers whose %g texts are both 0.123456:
        # summary.csv and the printed table each give them two labels
        with open(out / "summary.csv", newline="") as fh:
            srows = list(csv.reader(fh))[1:]
        assert [r[:2] for r in srows if r[0] == "mrn"] == [["mrn", "0.1234561"], ["mrn", "0.1234564"]]
        out_text = capsys.readouterr().out
        assert "summary" in out_text
        assert [line.split()[:2] for line in out_text.splitlines() if line.startswith("mrn ")] == [
            ["mrn", "0.1234561"], ["mrn", "0.1234564"]]

    def test_run_generated_files_round_trip(self, tmp_path):
        out = tmp_path / "g"
        cli_main([
            "gen", "--n", "30", "--red-fraction", "0.2", "--mode", "no_homophily",
            "--seed", "1", "--out", str(out),
        ])
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            f"edges = {out / 'edges.txt'}\n"
            f"nodes = {out / 'nodes.csv'}\n"
            "strategies = mrn\n"
            "runs = 2\n"
            f"output_dir = {tmp_path / 'res'}\n"
        )
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "res" / "summary.csv").is_file()


    @pytest.mark.parametrize("flags, line, error", [
        (["--scenario", "LS2"], "scenario = LS2", None),
        (["--strategy", ""], "strategies =", "strategies must name at least one strategy"),
        (["--out", ""], "output_dir =", "output_dir must name a directory"),
        (["--runs", "two"], "runs = two", "bad value for runs: invalid literal for int"),
        (["--remove-red-red"], "remove_red_red = true", None),
    ], ids=["scenario_upper_case", "empty_strategy", "empty_out", "bad_int", "remove_red_red"])
    def test_flag_parses_like_its_config_key(self, tmp_path, monkeypatch, capsys, flags, line, error):
        monkeypatch.chdir(tmp_path)
        base = ("synthetic_mode = homophily\nsynthetic_n = 30\nsynthetic_red_fraction = 0.2\n"
                "strategies = mrn\nruns = 2\noutput_dir = res\n")
        (tmp_path / "base.cfg").write_text(base)
        # a key may be set once per file, so the keyed file's line takes the place of base's
        key = line.partition("=")[0].strip()
        keyed = "".join(kept for kept in base.splitlines(keepends=True) if not kept.startswith(f"{key} ="))
        (tmp_path / "keyed.cfg").write_text(f"{keyed}{line}\n")
        if error is not None:
            assert_cli_error(capsys, ["run", "--config", "base.cfg", *flags], error)
            assert_cli_error(capsys, ["run", "--config", "keyed.cfg"], error)
            assert not (tmp_path / "res").exists()
            return
        assert cli_main(["run", "--config", "base.cfg", *flags]) == 0
        by_flag = capsys.readouterr().out
        assert cli_main(["run", "--config", "keyed.cfg"]) == 0
        assert capsys.readouterr().out == by_flag

    def test_config_with_byte_order_mark_runs(self, tmp_path, monkeypatch, capsys):
        # Windows Notepad starts a UTF-8 file with a byte-order mark
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_bytes(
            b"\xef\xbb\xbfsynthetic_mode = homophily\nsynthetic_n = 30\n"
            b"synthetic_red_fraction = 0.2\nstrategies = mrn\nruns = 2\n"
        )
        assert cli_main(["run", "--config", "exp.cfg"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[0].endswith(" 6 red / 24 blue")
        with open(tmp_path / "out" / "traces.csv", newline="") as fh:
            assert {row[1] for row in list(csv.reader(fh))[1:]} == {"mrn"}

    @pytest.mark.parametrize("line, flags", [
        ("runs = 0", ["--runs", "2"]),
        ("runs = 2\nbudget_fraction = 0.05", ["--budget-fraction", "0.5"]),  # below the default 0.5 tier
    ], ids=["runs", "budget_fraction"])
    def test_flag_repairs_a_file_value(self, tmp_path, monkeypatch, capsys, line, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(
            f"synthetic_mode = homophily\nsynthetic_n = 30\nsynthetic_red_fraction = 0.2\n"
            f"strategies = mrn\n{line}\n"
        )
        assert cli_main(["run", "--config", "exp.cfg", *flags]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "traces.csv", newline="") as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == {"0", "1"}
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 3  # header, then mrn at the three default tiers

    @pytest.mark.parametrize("argv, match", [
        (["run", "--config", "missing.cfg"], "No such file or directory: 'missing.cfg'"),
        (["gen", "--n", "5", "--red-fraction", "0.1", "--mode", "homophily", "--seed", "1", "--out", "g"],
         "n must be at least 10, got 5"),
    ], ids=["missing_config", "gen_too_few_nodes"])
    def test_input_error_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv, match):
        monkeypatch.chdir(tmp_path)
        assert_cli_error(capsys, argv, match)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fraction, n, budget", [(0.57, 100, 57), (0.58, 100, 58), (0.41, 300, 123),
                                                (0.69, 5000, 3450), (0.5, 45, 22), (0.001, 100, 1)])
def test_budget_floors_the_fraction_as_written(fraction, n, budget):
    assert math.floor(fraction * n) in (budget - 1, budget)  # the float product can fall short
    assert harness._monitor_count(fraction, n) == budget


def test_run_budget_floors_the_fraction_as_written(tmp_path):
    config = ExperimentConfig(
        synthetic_mode="homophily", synthetic_n=100, synthetic_red_fraction=0.2,
        synthetic_seed=1, strategies=["sr"], runs=1, budget_fraction=0.57,
        budget_tiers=[0.29], output_dir=str(tmp_path / "o"),
    )
    assert run_experiment(config)["budget"] == 57


def test_budget_is_floor_of_fraction(tmp_path):
    config = ExperimentConfig(
        synthetic_mode="homophily", synthetic_n=45, synthetic_red_fraction=0.2,
        synthetic_seed=1, strategies=["sr"], runs=1, budget_fraction=0.5,
        output_dir=str(tmp_path / "o"),
    )
    result = run_experiment(config)
    assert result["budget"] == math.floor(0.5 * 45)
