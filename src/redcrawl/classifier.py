"""Binary logistic regression over observer features, fit by Newton's method.

The training set is rebuilt from scratch at every retrain: the observer's
(k, 9) feature matrix over the k monitored nodes, recomputed against the
current observer state, with a label per row (1.0 for red, 0.0 for blue).
Feature columns are standardized at fit time (raw counts and the
inferred probability live on very different scales) and the weights
minimize the L2-regularized logistic loss

    mean_i log(1 + exp(-s_i * (w . x_i + b))) + 0.5 * l2 * |w|^2

with s_i = +1 for red, -1 for blue and the bias unregularized. The
problem has ten parameters, so `fit` solves it exactly by damped Newton
steps (iteratively reweighted least squares; Hastie, Tibshirani and
Friedman, The Elements of Statistical Learning, 2nd ed., section 4.4.1):
each step solves the 10x10 Hessian system and backtracks until the loss
drops, so it converges in a few steps and the same data always yields
the same model. When every label is the same color there is nothing to
fit and a fallback model is returned; the caller ranks by known-red
neighbors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RED
from .observer import ObserverState


@dataclass(frozen=True)
class ClassifierParams:
    """Fit settings; construction raises ValueError for values `fit` cannot use."""

    l2: float = 1e-3
    max_iter: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        for name, value in (("l2", self.l2), ("grad_tol", self.grad_tol)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


DEFAULT_PARAMS = ClassifierParams()


@dataclass
class TrainingSet:
    """A (k, 9) feature matrix `rows` and its k `labels`: 1.0 for red, 0.0 for blue."""

    rows: np.ndarray
    labels: np.ndarray


@dataclass
class TrainedModel:
    """Standardizing logistic model; `fallback` (`weights` is None) means fitting was skipped.

    `iterations` counts accepted Newton steps. `converged` is False when
    `fit` stopped before the gradient fell below `grad_tol`: at `max_iter`,
    or because the Newton direction could not be solved for or no step
    along it lowered the loss.
    """

    weights: np.ndarray | None
    bias: float
    mean: np.ndarray | None
    scale: np.ndarray | None
    iterations: int = 0
    converged: bool = True

    @property
    def fallback(self) -> bool:
        return self.weights is None


def build_training_set(state: ObserverState) -> TrainingSet:
    """One row per monitored node, in monitor order.

    Each row is the node's current feature row, computed exactly as it
    would be for a candidate (a node's own report contributes nothing to
    its own counts), labeled with the node's true color.
    """
    ids = list(state.reports)
    if not ids:
        raise ValueError("cannot build a training set with no monitored nodes")
    labels = (state.color[ids] == RED).astype(float)
    return TrainingSet(rows=state.features_matrix(ids), labels=labels)


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


def hessian(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> np.ndarray:
    """Exact Hessian of `loss` in (weights, bias), bias last.

    With A = [X | 1] and p the predicted probabilities this is
    A^T diag(p(1-p)) A / k, plus `l2` on the weight diagonal.
    """
    d = len(w)
    H = np.zeros((d + 1, d + 1))
    if len(y):
        A = np.column_stack([X, np.ones(len(y))])
        p = _sigmoid(X @ w + b)
        H = (A.T * (p * (1.0 - p))) @ A / len(y)
    H[np.arange(d), np.arange(d)] += l2
    return H


def fit(data: TrainingSet, params: ClassifierParams = DEFAULT_PARAMS) -> TrainedModel:
    """Fit by damped Newton steps with Armijo backtracking.

    Each step takes the gradient, stops if its max-norm is below
    `grad_tol`, solves the Hessian system for the Newton direction and
    backtracks from the full step until the loss drops enough, so the
    loss never increases. At most `max_iter` steps are taken. Features
    with zero spread are mapped to 0 and keep weight 0: they are left out
    of the solve, so constant columns neither blow up the
    standardization nor make the Hessian singular. Single-class or empty
    data yields a fallback model.
    """
    X, y = data.rows, data.labels
    if len(y) == 0 or np.unique(y).size < 2:
        return TrainedModel(weights=None, bias=0.0, mean=None, scale=None)

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    scale = np.zeros_like(sd)
    np.divide(1.0, sd, out=scale, where=sd > 0)
    Xs = (X - mu) * scale
    # the parameters the solve moves: the non-constant columns, then the bias
    free = np.append(np.flatnonzero(sd > 0), X.shape[1])

    w = np.zeros(X.shape[1])
    b = 0.0
    cur = loss(Xs, y, w, b, params.l2)
    iterations = 0
    converged = False
    for _ in range(params.max_iter):
        gw, gb = gradient(Xs, y, w, b, params.l2)
        g = np.append(gw, gb)
        if np.max(np.abs(g)) < params.grad_tol:
            converged = True
            break
        H = hessian(Xs, y, w, b, params.l2)
        d = np.zeros_like(g)
        try:
            d[free] = np.linalg.solve(H[np.ix_(free, free)], g[free])
        except np.linalg.LinAlgError:
            break
        slope = float(g @ d)
        if not slope > 0:  # also catches a nan direction
            break
        t = 1.0
        accepted = False
        while t > 1e-14:
            nw = w - t * d[:-1]
            nb = b - t * float(d[-1])
            nl = loss(Xs, y, nw, nb, params.l2)
            if nl <= cur - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        w, b, cur = nw, nb, nl
        iterations += 1
    return TrainedModel(weights=w, bias=b, mean=mu, scale=scale, iterations=iterations, converged=converged)


def predict_many(model: TrainedModel, X) -> np.ndarray:
    """Predicted red probability for each row of the (k, 9) feature matrix `X`."""
    if model.fallback:
        raise ValueError("fallback model cannot predict; rank by red neighbors instead")
    Xs = (np.asarray(X, dtype=float) - model.mean) * model.scale
    return _sigmoid(Xs @ model.weights + model.bias)
