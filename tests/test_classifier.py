"""Logistic regression: training set assembly, loss/gradient, fit, predict."""

import dataclasses
import inspect
import math
import random

import numpy as np
import pytest

from redcrawl import (
    Color,
    LyingScenario,
    ObserverState,
    Oracle,
    TrainedModel,
    TrainingSet,
    build_training_set,
    fit,
    generate_synthetic,
    predict_many,
)
from redcrawl.classifier import DEFAULT_PARAMS, gradient, loss
from helpers import (
    assert_hessian_matches_gradient,
    brute_features,
    brute_knowledge,
    brute_verified,
    fit_settings,
    flip,
    identity_model,
    monitored_of,
    training_set,
)


def fv(*values):
    return tuple(float(x) for x in values)


def random_training_set(rng, n_rows, n_classes=2):
    rows = []
    for i in range(n_rows):
        values = [float(rng.randint(0, 6)) for _ in range(8)] + [rng.random()]
        color = Color.RED if (i % n_classes == 0) else Color.BLUE
        rows.append((fv(*values), color))
    return training_set(rows)


def crawl_state(world, scenario, n_monitors, seed):
    oracle = Oracle(world, [0.5] * world.n, scenario, random.Random(seed))
    start = world.red_ids()[0]
    state = ObserverState(start, world.n)
    state.ingest(oracle.place_monitor(start))
    rng = random.Random(seed + 1)
    while len(state.reports) < n_monitors:
        cands = state.candidates()
        if not cands:
            break
        state.ingest(oracle.place_monitor(rng.choice(cands)))
    return state


def separable_toy_set():
    rng = random.Random(0)
    rows = []
    for _ in range(10):
        rows.append((fv(rng.uniform(2, 3), rng.uniform(0, 1), 0, 0, 0, 0, 0, 0, 0.9), Color.RED))
        rows.append((fv(rng.uniform(0, 1), rng.uniform(2, 3), 0, 0, 0, 0, 0, 0, 0.1), Color.BLUE))
    return training_set(rows)


class TestBuildTrainingSet:
    def test_first_monitor_has_empty_knowledge_row(self):
        world = generate_synthetic(30, 0.2, "homophily", 1)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        start = world.red_ids()[0]
        state = ObserverState(start, world.n)
        state.ingest(oracle.place_monitor(start))
        data = build_training_set(state)
        assert len(data.rows) == 1
        features, label = data.rows[0], data.labels[0]
        assert tuple(features.tolist()) == (0, 0, 0, 0, 0, 0, 0, 0, 0.5)
        assert label == 1.0

    def test_row_per_monitor_with_true_labels(self):
        world = generate_synthetic(60, 0.25, "homophily", 2)
        state = crawl_state(world, LyingScenario.LS1, 20, seed=5)
        data = build_training_set(state)
        assert len(data.rows) == 20
        assert data.rows.shape == (20, 9)
        labels = {m: Color.RED if label else Color.BLUE for label, m in zip(data.labels, state.reports)}
        assert labels == monitored_of(state)

    def test_rows_are_the_monitored_feature_matrix(self):
        world = generate_synthetic(60, 0.25, "homophily", 2)
        state = crawl_state(world, LyingScenario.LS2, 25, seed=8)
        data = build_training_set(state)
        want = state.feature_rows(np.fromiter(state.reports, dtype=np.intp))
        assert np.array_equal(data.rows, want)
        assert data.labels.tolist() == [float(c is Color.RED) for c in monitored_of(state).values()]

    def test_rows_match_masked_recount_from_log(self):
        # recompute each monitored node's features from the log without its
        # own report; trust cells stay global, as at snapshot time
        world = generate_synthetic(50, 0.25, "homophily", 3)
        state = crawl_state(world, LyingScenario.LS1, 15, seed=9)
        data = build_training_set(state)
        start = world.red_ids()[0]  # crawl_state's start
        _, _, monitored_full, statements_full = brute_knowledge(start, state.reports.values())
        verified = brute_verified(monitored_full, statements_full)
        for features, label, m in zip(data.rows, data.labels, state.reports):
            masked = [rep for rep in state.reports.values() if rep.target != m]
            _, edges, monitored, statements = brute_knowledge(start, masked)
            expected = brute_features(m, edges, monitored, statements, verified)
            assert tuple(features.tolist()) == pytest.approx(expected)
            assert (Color.RED if label else Color.BLUE) is monitored_full[m]

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="no monitored"):
            build_training_set(ObserverState(0, 10))


class TestLossAndGradient:
    def test_gradient_and_hessian_match_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = rng.integers(2, 30)
            X = rng.normal(size=(n, 9))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=9)
            b = float(rng.normal())
            l2 = float(rng.choice([0.0, 1e-3, 0.1]))
            gw, gb = gradient(X, y, w, b, l2)
            h = 1e-5
            for j in range(9):
                e = np.zeros(9)
                e[j] = h
                fd = (loss(X, y, w + e, b, l2) - loss(X, y, w - e, b, l2)) / (2 * h)
                assert abs(gw[j] - fd) <= 1e-5 * max(1.0, abs(fd))
            fd_b = (loss(X, y, w, b + h, l2) - loss(X, y, w, b - h, l2)) / (2 * h)
            assert abs(gb - fd_b) <= 1e-5 * max(1.0, abs(fd_b))
            assert_hessian_matches_gradient(X, y, w, b, l2)

    def test_gradient_near_zero_at_converged_optimum(self):
        # noisy labels keep the optimum finite so descent can reach it
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] + rng.normal(scale=2.0, size=40) > 0).astype(float)
        rows = [
            (fv(x0, x1, 0, 0, 0, 0, 0, 0, 0.0), Color.RED if label else Color.BLUE)
            for (x0, x1), label in zip(X, y)
        ]
        data = training_set(rows)
        with fit_settings(l2=1e-2, max_iter=5000, grad_tol=1e-8):
            model = fit(data)
        Xs = (np.array([r[0] for r in rows]) - model.mean) * model.scale
        gw, gb = gradient(Xs, y, model.weights, model.bias, 1e-2)
        assert max(np.max(np.abs(gw)), abs(gb)) < 1e-6
        assert model.converged
        assert 0 < model.iterations < 5000


class TestFit:
    def test_linearly_separable_toy_set(self):
        data = separable_toy_set()
        rows = list(zip(data.rows, data.labels))
        model = fit(data)
        assert not model.fallback
        correct = sum(
            1 for features, label in rows
            if (predict_many(model, [features])[0] >= 0.5) == (label == 1.0)
        )
        assert correct == 20
        X = data.rows
        y = data.labels
        Xs = (X - model.mean) * model.scale
        assert loss(Xs, y, model.weights, model.bias, 1e-3) < 0.1

    def test_stopping_at_max_iter_is_reported(self):
        # without regularization separable data has no finite optimum
        with fit_settings(l2=0.0, max_iter=5):
            model = fit(separable_toy_set())
        assert not model.converged
        assert model.iterations == 5

    def test_default_params_are_values_fit_can_use(self):
        # every fit reads these; with max_iter 0 or a negative or non-finite
        # l2 or grad_tol it would fit nothing, diverge or never stop early
        assert DEFAULT_PARAMS.max_iter >= 1
        for value in (DEFAULT_PARAMS.l2, DEFAULT_PARAMS.grad_tol):
            assert 0 <= value < math.inf
        assert list(inspect.signature(fit).parameters) == ["data"]

    def test_single_class_routes_to_fallback(self):
        rows = [(fv(1, 0, 0, 0, 0, 0, 0, 0, 0.5), Color.RED) for _ in range(5)]
        model = fit(training_set(rows))
        assert model.fallback
        with pytest.raises(ValueError, match="fallback"):
            predict_many(model, [rows[0][0]])
        model = fit(TrainingSet(rows=np.zeros((0, 9)), labels=np.zeros(0)))
        assert model.fallback

    def test_fallback_means_no_weights(self):
        # one stored fact: a model without weights is the fallback, and predicts nothing
        model = TrainedModel(weights=None, bias=0.0, mean=None, scale=None)
        assert model.fallback
        with pytest.raises(ValueError, match="fallback model cannot predict"):
            predict_many(model, np.zeros((1, 9)))
        assert not identity_model(np.zeros(9)).fallback

    def test_weight_sign_matches_correlation(self):
        # single informative feature, balanced labels
        rows = []
        for i in range(20):
            red = i < 10
            value = 1.0 + 0.1 * i if red else -1.0 - 0.1 * i
            rows.append((fv(value, 0, 0, 0, 0, 0, 0, 0, 0.5), Color.RED if red else Color.BLUE))
        model = fit(training_set(rows))
        assert model.weights[0] > 0
        flipped = [(features, flip(label)) for features, label in rows]
        model = fit(training_set(flipped))
        assert model.weights[0] < 0

    # With 4 rows and no l2 some full Newton steps would raise the loss,
    # so only the backtracking keeps the sequence from going up.
    @pytest.mark.parametrize("n_rows, l2, converged", [(30, 1e-3, True), (4, 0.0, False)],
                             ids=["regularized", "unregularized_4_rows"])
    def test_loss_never_increases_over_newton_steps(self, n_rows, l2, converged):
        data = random_training_set(random.Random(1), n_rows)
        losses = [math.log(2.0)]  # zero weights and bias
        for k in range(1, 13):
            with fit_settings(l2=l2, max_iter=k):
                model = fit(data)
            Xs = (data.rows - model.mean) * model.scale
            losses.append(loss(Xs, data.labels, model.weights, model.bias, l2))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert model.converged is converged

    def test_deterministic(self):
        data = random_training_set(random.Random(7), 25)
        a = fit(data)
        b = fit(data)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_rescaling_invariance(self):
        data = random_training_set(random.Random(9), 40)
        factors = np.array([3.0, 0.5, 10.0, 1.0, 2.0, 0.1, 7.0, 1.0, 100.0])
        scaled_rows = data.rows * factors
        scaled = TrainingSet(rows=scaled_rows, labels=data.labels)
        model_a = fit(data)
        model_b = fit(scaled)
        for fa, fb in zip(data.rows, scaled_rows):
            assert predict_many(model_a, [fa])[0] == pytest.approx(predict_many(model_b, [fb])[0], abs=1e-6)


class TestWarmStart:
    """`fit` from `data.start`: the previous model mapped into the new standardization."""

    @staticmethod
    def signal_set(rng, n_rows):
        """Rows like `random_training_set`'s whose labels follow columns 0 and 1."""
        data = random_training_set(rng, n_rows)
        noise = np.array([rng.gauss(0.0, 1.5) for _ in range(n_rows)])
        data.labels[:] = data.rows[:, 0] - data.rows[:, 1] + noise > 0
        return data

    @staticmethod
    def logits(model, X):
        return ((X - model.mean) * model.scale) @ model.weights + model.bias

    @staticmethod
    def same_model(a, b) -> bool:
        return (a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias
                and a.mean.tobytes() == b.mean.tobytes() and a.scale.tobytes() == b.scale.tobytes()
                and (a.iterations, a.converged) == (b.iterations, b.converged))

    @pytest.mark.parametrize("seed", range(6))
    def test_start_keeps_the_previous_logits_on_the_new_rows(self, seed):
        rng = random.Random(seed)
        before = self.signal_set(rng, 40)
        previous = fit(before)
        extra = self.signal_set(rng, 10)
        after = TrainingSet(np.vstack((before.rows, extra.rows)), np.append(before.labels, extra.labels))
        # constant on the new rows only, at a value the old rows' mean is not:
        # its term of the old logit moves into the new bias
        after.rows[:, 2] = 2.0
        assert before.rows[:, 2].std() > 0 and previous.weights[2] != 0.0
        with fit_settings(max_iter=0):
            start = fit(TrainingSet(after.rows, after.labels, start=previous))
        assert start.iterations == 0 and start.weights.any()  # the start was kept
        assert start.scale[2] == 0.0 and start.weights[2] == 0.0
        new, old = self.logits(start, after.rows), self.logits(previous, after.rows)
        assert np.abs(old).max() > 1.0
        # the same logit summed two ways: a few ulps of its largest term
        terms = np.abs(after.rows * (previous.weights * previous.scale)).sum(axis=1) + abs(previous.bias)
        assert np.all(np.abs(new - old) <= 8 * np.finfo(float).eps * terms)

    def test_start_that_is_none_a_fallback_or_worse_than_zero_weights_fits_the_cold_model(self):
        data = self.signal_set(random.Random(3), 30)
        cold = fit(TrainingSet(data.rows, data.labels))
        fallback = fit(training_set([(fv(1, 0, 0, 0, 0, 0, 0, 0, 0.5), Color.RED)] * 3))
        # calls every red blue and every blue red: worse than zero weights
        flipped = dataclasses.replace(cold, weights=-cold.weights, bias=-cold.bias)
        assert cold.iterations > 0 and fallback.fallback
        for start in (None, fallback, flipped):
            assert self.same_model(fit(TrainingSet(data.rows, data.labels, start=start)), cold)
            with fit_settings(max_iter=0):
                zero = fit(TrainingSet(data.rows, data.labels, start=start))
            assert not zero.weights.any() and zero.bias == 0.0


class TestPredict:
    def test_zero_model_predicts_half(self):
        model = identity_model(np.zeros(9))
        assert predict_many(model, [fv(9, 9, 9, 9, 9, 9, 9, 9, 0.9)])[0] == 0.5

    def test_log_three_margin_gives_three_quarters(self):
        model = identity_model([math.log(3.0)] + [0.0] * 8)
        assert predict_many(model, [fv(1, 0, 0, 0, 0, 0, 0, 0, 0.0)])[0] == pytest.approx(0.75, abs=1e-9)

    def test_monotone_in_positive_weight_feature(self):
        model = identity_model([1.0] + [0.0] * 8)
        probs = [predict_many(model, [fv(k, 0, 0, 0, 0, 0, 0, 0, 0.0)])[0] for k in range(6)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert all(0.0 < p < 1.0 for p in probs)

    def test_predict_many_matches_predict(self):
        data = random_training_set(random.Random(4), 30)
        model = fit(data)
        features = list(data.rows)
        batch = predict_many(model, np.array(features))
        for x, p in zip(features, batch):
            assert predict_many(model, [x])[0] == pytest.approx(float(p))
