"""Binary logistic regression over observer features, fit by gradient descent.

The training set is rebuilt from scratch at every retrain: one row per
monitored node, its feature vector recomputed against the current
observer state and labeled with its true color. Feature vectors are
standardized at fit time (raw counts and the inferred probability live
on very different scales) and the weights minimize the L2-regularized
logistic loss

    mean_i log(1 + exp(-s_i * (w . x_i + b))) + 0.5 * l2 * |w|^2

with s_i = +1 for red, -1 for blue and the bias unregularized. Training
sets here are tiny (at most the monitor budget), so deterministic
full-batch descent with backtracking beats anything stochastic: the same
data always yields the same model. When every label is the same color
there is nothing to fit and a fallback model is returned; the caller
ranks by known-red neighbors instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Color
from .observer import FeatureVector, ObserverState

N_FEATURES = 9


@dataclass(frozen=True)
class ClassifierParams:
    l2: float = 1e-3
    max_iter: int = 500
    grad_tol: float = 1e-6


DEFAULT_PARAMS = ClassifierParams()


@dataclass
class TrainingSet:
    """Labeled feature rows snapshotted after `snapshot_step` monitors."""

    rows: list[tuple[FeatureVector, Color]]
    snapshot_step: int


@dataclass
class TrainedModel:
    """Standardizing logistic model; `fallback` means fitting was skipped.

    `iterations` counts accepted descent steps. `converged` is False when
    `fit` stopped before the gradient fell below `grad_tol`: at `max_iter`,
    or because no step along the gradient lowered the loss.
    """

    weights: np.ndarray | None
    bias: float
    mean: np.ndarray | None
    scale: np.ndarray | None
    fallback: bool
    iterations: int = 0
    converged: bool = True


def build_training_set(state: ObserverState) -> TrainingSet:
    """One row per monitored node, in monitor order.

    Each row carries the node's current feature vector, computed exactly
    as it would be for a candidate (a node's own report contributes
    nothing to its own counts), labeled with the node's true color.
    """
    if not state.monitored:
        raise ValueError("cannot build a training set with no monitored nodes")
    X = state.features_matrix(list(state.monitored), allow_monitored=True)
    rows = [
        (FeatureVector.from_row(x), color)
        for x, color in zip(X.tolist(), state.monitored.values())
    ]
    return TrainingSet(rows=rows, snapshot_step=len(state.monitored))


def _to_arrays(data: TrainingSet) -> tuple[np.ndarray, np.ndarray]:
    if not data.rows:
        return np.zeros((0, N_FEATURES)), np.zeros(0)
    X = np.array([fv.as_tuple() for fv, _ in data.rows], dtype=float)
    y = np.array([1.0 if c is Color.RED else 0.0 for _, c in data.rows])
    return X, y


def _sigmoid(z):
    # tanh form is stable for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> float:
    """Regularized logistic loss on already-scaled features."""
    reg = 0.5 * l2 * float(w @ w)
    if len(y) == 0:
        return reg
    z = X @ w + b
    s = 2.0 * y - 1.0
    return float(np.mean(np.logaddexp(0.0, -s * z))) + reg


def gradient(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> tuple[np.ndarray, float]:
    """Exact analytic gradient of `loss` in (weights, bias)."""
    if len(y) == 0:
        return l2 * w, 0.0
    p = _sigmoid(X @ w + b)
    resid = p - y
    gw = X.T @ resid / len(y) + l2 * w
    gb = float(np.mean(resid))
    return gw, gb


def fit(data: TrainingSet, params: ClassifierParams = DEFAULT_PARAMS) -> TrainedModel:
    """Fit by full-batch gradient descent with backtracking line search.

    Runs until the gradient max-norm drops below `grad_tol` or `max_iter`
    steps, only ever accepting steps that decrease the loss. Features
    with zero spread are mapped to 0 so constant columns cannot blow up
    the standardization. Single-class or empty data yields a fallback
    model.
    """
    X, y = _to_arrays(data)
    if len(y) == 0 or np.unique(y).size < 2:
        return TrainedModel(weights=None, bias=0.0, mean=None, scale=None, fallback=True)

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    scale = np.zeros_like(sd)
    np.divide(1.0, sd, out=scale, where=sd > 0)
    Xs = (X - mu) * scale

    w = np.zeros(X.shape[1])
    b = 0.0
    cur = loss(Xs, y, w, b, params.l2)
    step = 1.0
    iterations = 0
    converged = False
    for _ in range(params.max_iter):
        gw, gb = gradient(Xs, y, w, b, params.l2)
        if max(np.max(np.abs(gw)), abs(gb)) < params.grad_tol:
            converged = True
            break
        gsq = float(gw @ gw) + gb * gb
        t = step * 2.0
        accepted = False
        while t > 1e-14:
            nw = w - t * gw
            nb = b - t * gb
            nl = loss(Xs, y, nw, nb, params.l2)
            if nl <= cur - 1e-4 * t * gsq:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        w, b, cur, step = nw, nb, nl, t
        iterations += 1
    return TrainedModel(weights=w, bias=b, mean=mu, scale=scale, fallback=False,
                        iterations=iterations, converged=converged)


def predict_many(model: TrainedModel, X) -> np.ndarray:
    """Predicted red probability for each row of the (k, 9) feature matrix `X`."""
    if model.fallback:
        raise ValueError("fallback model cannot predict; rank by red neighbors instead")
    Xs = (np.asarray(X, dtype=float) - model.mean) * model.scale
    return _sigmoid(Xs @ model.weights + model.bias)


def predict(model: TrainedModel, x: FeatureVector) -> float:
    """Predicted probability that the node behind `x` is red."""
    return float(predict_many(model, [x.as_tuple()])[0])
