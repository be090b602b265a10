"""The learner's fast paths give the same bits as the references in helpers.

The golden digests in test_harness cover the counting strategies only, so
this is redlearn's byte-identity guard: trust, feature rows, predictions, loss,
gradient, Hessian and fit's standardization are compared with `tobytes()`,
and a small redlearn experiment is run with the package's functions and
again with the references patched in.
"""

import random

import numpy as np
import pytest

from redcrawl import (
    ExperimentConfig,
    LyingScenario,
    ObserverState,
    Oracle,
    TrainedModel,
    TrainingSet,
    assign_honesty,
    build_training_set,
    classifier,
    fit,
    generate_synthetic,
    predict_many,
    run_experiment,
    strategies,
)
from helpers import (
    reference_feature_rows,
    reference_gradient,
    reference_hessian,
    reference_loss,
    reference_predict_many,
    reference_trust,
)


def crawl_states(seed, mode="homophily", n=120, scenario=LyingScenario.LS1, monitors=(1, 2, 8, 30)):
    """States of one random crawl, taken after each count of monitors in `monitors`."""
    world = generate_synthetic(n, 0.1, mode, seed)
    rng = random.Random(seed)
    oracle = Oracle(world, assign_honesty(world, rng), scenario, rng)
    start = world.red_ids()[0]
    state = ObserverState(start, world.n)
    state.ingest(oracle.place_monitor(start))
    for count in monitors:
        while len(state.reports) < count and state.frontier().size:
            state.ingest(oracle.place_monitor(rng.choice(state.candidates())))
        yield state


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scaled_training_set(state, constant):
    """A training set's standardized rows as `fit` builds them, with the
    columns in `constant` given zero spread, and its labels."""
    data = build_training_set(state)
    data.rows[:, constant] = 1.0
    sd = data.rows.std(axis=0)
    scale = np.zeros_like(sd)
    np.divide(1.0, sd, out=scale, where=sd > 0)
    return (data.rows - data.rows.mean(axis=0)) * scale, data.labels


def test_trust_matches_numpys_division_of_the_counts():
    rng = random.Random(12)
    state = ObserverState(0, 10)
    for _ in range(300):
        counts = [rng.choice((0, 1, 7, rng.randrange(10**6), rng.randrange(2**40))) for _ in range(8)]
        state.verified_counts[...] = np.array(counts).reshape(2, 2, 2)
        assert same_bits(state.trust(), reference_trust(state))


@pytest.mark.parametrize("seed, mode, scenario", [
    (1, "homophily", LyingScenario.LS1),
    (2, "structural_signal", LyingScenario.LS1),
    (3, "homophily", LyingScenario.LS2),
])
def test_feature_rows_match_the_column_stack_reference(seed, mode, scenario):
    saw_no_claims = False
    for state in crawl_states(seed, mode, scenario=scenario):
        observed = np.flatnonzero(state.on_frontier | (state.color >= 0))
        ids = np.fromiter(state.reports, dtype=np.intp)
        for nodes in (state.frontier(), ids, observed, observed[::-1], observed[:0]):
            rows = state.feature_rows(nodes)
            assert rows.flags.c_contiguous
            assert same_bits(rows, reference_feature_rows(state, nodes))
            for v, row in zip(nodes.tolist(), rows):
                assert same_bits(state.features(v), row)
        saw_no_claims |= bool((state.say[observed].sum(axis=1) == 0).any())
    assert saw_no_claims  # a node no monitored neighbor has spoken about takes the 0.5 branch


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_predictions_match_the_one_expression_reference(seed):
    rng = np.random.default_rng(seed)
    for state in crawl_states(seed, "structural_signal"):
        X = state.feature_rows(state.frontier())
        scale = rng.uniform(0.1, 3.0, 9)
        scale[rng.integers(0, 9, 3)] = 0.0  # zero-spread columns
        models = [TrainedModel(weights=rng.normal(0.0, 2.0, 9), bias=float(rng.normal()),
                               mean=rng.normal(0.0, 2.0, 9), scale=scale)]
        fitted = fit(build_training_set(state))
        if not fitted.fallback:
            models.append(fitted)
        for model in models:
            assert same_bits(predict_many(model, X), reference_predict_many(model, X))
            assert same_bits(predict_many(model, X.tolist()), reference_predict_many(model, X))


@pytest.mark.parametrize("seed, mode", [(10, "homophily"), (11, "structural_signal")])
def test_fit_standardizes_by_numpys_mean_and_std(seed, mode):
    rng = np.random.default_rng(seed)
    checked = 0
    for state in crawl_states(seed, mode, monitors=(2, 8, 30, 60)):
        data = build_training_set(state)
        for rows in (data.rows, data.rows * rng.uniform(0.01, 100.0, 9) + rng.normal(0.0, 50.0, 9)):
            model = fit(TrainingSet(rows, data.labels))
            if model.fallback:
                continue
            sd = rows.std(axis=0)
            scale = np.zeros_like(sd)
            np.divide(1.0, sd, out=scale, where=sd > 0)
            assert same_bits(model.mean, rows.mean(axis=0)) and same_bits(model.scale, scale)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_loss_gradient_and_hessian_match_the_np_mean_references(seed):
    rng = np.random.default_rng(seed)
    checked = 0
    for state in crawl_states(seed, "homophily", monitors=(6, 20, 40)):
        constant = rng.integers(0, 9, 2)
        Xs, y = scaled_training_set(state, constant)
        assert not Xs[:, constant].any()
        for l2 in (0.0, 1e-3):
            for _ in range(5):
                w = rng.normal(0.0, 1.5, 9)
                w[constant] = 0.0
                b = float(rng.normal())
                assert same_bits(classifier.loss(Xs, y, w, b, l2), reference_loss(Xs, y, w, b, l2))
                gw, gb = classifier.gradient(Xs, y, w, b, l2)
                ref_gw, ref_gb = reference_gradient(Xs, y, w, b, l2)
                assert same_bits(gw, ref_gw) and same_bits(gb, ref_gb)
                assert same_bits(classifier.hessian(Xs, w, b, l2), reference_hessian(Xs, w, b, l2))
                checked += 1
    assert checked == 30


@pytest.mark.parametrize("mode, scenario", [("structural_signal", LyingScenario.LS1),
                                            ("homophily", LyingScenario.LS2)])
def test_redlearn_traces_are_the_bytes_of_the_references(tmp_path, monkeypatch, mode, scenario):
    def traces(out):
        config = ExperimentConfig(synthetic_mode=mode, synthetic_n=150, synthetic_red_fraction=0.1,
                                  synthetic_seed=3, scenario=scenario, strategies=["redlearn"], runs=2,
                                  budget_fraction=0.3, budget_tiers=[0.1, 0.3], retrain_every=3,
                                  master_seed=11, output_dir=str(tmp_path / out))
        return run_experiment(config)["traces_csv"].read_bytes()

    fast = traces("fast")
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ObserverState, "feature_rows", counted("rows", reference_feature_rows))
    monkeypatch.setattr(strategies, "predict_many", counted("predict", reference_predict_many))
    monkeypatch.setattr(classifier, "loss", counted("loss", reference_loss))
    monkeypatch.setattr(classifier, "gradient", counted("gradient", reference_gradient))
    monkeypatch.setattr(classifier, "hessian", counted("hessian", reference_hessian))
    assert traces("reference") == fast
    assert set(calls) == {"rows", "predict", "loss", "gradient", "hessian"}
