"""Binary logistic regression over observer features, fit by gradient descent.

The training set is rebuilt from scratch at every retrain: the observer's
(k, 9) feature matrix over the k monitored nodes, recomputed against the
current observer state, with a label per row (1.0 for red, 0.0 for blue).
Feature columns are standardized at fit time (raw counts and the
inferred probability live on very different scales) and the weights
minimize the L2-regularized logistic loss

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

from .graph import RED
from .observer import ObserverState


@dataclass(frozen=True)
class ClassifierParams:
    l2: float = 1e-3
    max_iter: int = 500
    grad_tol: float = 1e-6


DEFAULT_PARAMS = ClassifierParams()


@dataclass
class TrainingSet:
    """A (k, 9) feature matrix `rows` and its k `labels`: 1.0 for red, 0.0 for blue."""

    rows: np.ndarray
    labels: np.ndarray


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

    Each row is the node's current feature row, computed exactly as it
    would be for a candidate (a node's own report contributes nothing to
    its own counts), labeled with the node's true color.
    """
    ids = list(state.reports)
    if not ids:
        raise ValueError("cannot build a training set with no monitored nodes")
    labels = (state.counts.color[ids] == RED).astype(float)
    return TrainingSet(rows=state.features_matrix(ids, allow_monitored=True), labels=labels)


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
    X, y = data.rows, data.labels
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
