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
drops, so it converges in a few steps and the same data and start always
yield the same model. When every label is the same color there is
nothing to fit and a fallback model is returned; the caller ranks by
known-red neighbors instead.

A training set may carry a start: the model of the run's previous fit.
Consecutive training sets differ by the rows monitored since and by what
those reports changed in the other rows' features, so the previous
model, mapped into the new standardization, is usually close to the new
optimum and Newton needs about half the steps it takes from zero
weights; a start that fits the new rows worse than zero weights is
dropped. The trade-off is that a fit depends on the previous model as
well as on the data: a warm and a cold fit of the same rows both stop
within `grad_tol` of the same optimum, but not on the same bits (their
losses agree to about 1e-9 and their probabilities to a few 1e-5, as
the gradient test leaves the flattest directions loose). A run stays
deterministic, since its fits and their starts come in a fixed order;
a training set without a start is fit from zero weights as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import RED
from .observer import ObserverState


@dataclass(frozen=True)
class ClassifierParams:
    """The settings of every fit: the one record `DEFAULT_PARAMS`, which `fit` reads.

    `perfbench/tracer.py` reads `DEFAULT_PARAMS.max_iter` to count the
    fits that stopped there.
    """

    l2: float = 1e-3
    max_iter: int = 500
    grad_tol: float = 1e-6


DEFAULT_PARAMS = ClassifierParams()


@dataclass
class TrainingSet:
    """A (k, 9) feature matrix `rows` and its k `labels`: 1.0 for red, 0.0 for blue.

    `start` is the run's previous model, or None for the first fit.
    `fit` starts Newton from it, or from zero weights when it is None, a
    fallback, or fits these rows worse than zero weights.
    """

    rows: np.ndarray
    labels: np.ndarray
    start: TrainedModel | None = None


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


def build_training_set(state: ObserverState, start: TrainedModel | None = None) -> TrainingSet:
    """One row per monitored node, in monitor order, to be fit from `start`.

    Each row is the node's current feature row, computed exactly as it
    would be for a candidate (a node's own report contributes nothing to
    its own counts), labeled with the node's true color. `start` is the
    model of the run's previous fit, or None for the first.
    """
    if not state.reports:
        raise ValueError("cannot build a training set with no monitored nodes")
    # The record's keys are monitored, hence observed: no id checks needed.
    ids = np.fromiter(state.reports, dtype=np.intp, count=len(state.reports))
    labels = (state.color[ids] == RED).astype(float)
    return TrainingSet(rows=state.feature_rows(ids), labels=labels, start=start)


def _probabilities(X: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """The sigmoid of `X @ w + b` as a new array, in the tanh form that is
    stable for large |z|: 0.5 * (1 + tanh(0.5 * z)), each step in place
    in the array that `X @ w` returned."""
    z = X @ w
    z += b
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> float:
    """Regularized logistic loss on already-scaled features, over at least one row.

    The margins are formed in place in the array `X @ w` returned, and
    the mean is `sum() / k`: the same pairwise sum and division that
    `np.mean` makes, so the same bits, without its per-call set-up.
    """
    z = X @ w
    z += b
    z *= 1.0 - 2.0 * y  # -s for s = 2y - 1; rounding is symmetric, so the two agree exactly
    return float(np.logaddexp(0.0, z, out=z).sum() / len(y)) + 0.5 * l2 * float(w @ w)


def gradient(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> tuple[np.ndarray, float]:
    """Exact analytic gradient of `loss` in (weights, bias).

    The residuals are formed in place in the probability array, and the
    bias term's mean is `sum() / k`, as in `loss`.
    """
    resid = _probabilities(X, w, b)
    resid -= y
    k = len(y)
    gw = X.T @ resid / k + l2 * w
    gb = float(resid.sum() / k)
    return gw, gb


def hessian(X: np.ndarray, w: np.ndarray, b: float, l2: float) -> np.ndarray:
    """Exact Hessian of `loss` in (weights, bias), bias last.

    With A = [X | 1] and p the predicted probabilities this is
    A^T diag(p(1-p)) A / k, plus `l2` on the weight diagonal, which is
    reached through one strided view.
    """
    k, d = X.shape
    A = np.empty((k, d + 1))
    A[:, :d] = X
    A[:, d] = 1.0
    p = _probabilities(X, w, b)
    H = (A.T * (p * (1.0 - p))) @ A
    H /= k
    H.reshape(-1)[: d * (d + 2) : d + 2] += l2  # the weight diagonal, bias excluded
    return H


def fit(data: TrainingSet) -> TrainedModel:
    """Fit by damped Newton steps with Armijo backtracking, with the settings in `DEFAULT_PARAMS`.

    Each step takes the gradient, stops if its max-norm is below
    `grad_tol`, solves the Hessian system for the Newton direction and
    backtracks from the full step until the loss drops enough, so the
    loss never increases. At most `max_iter` steps are taken. Features
    with zero spread are mapped to 0 and keep weight 0: they are left out
    of the solve, so constant columns neither blow up the
    standardization nor make the Hessian singular. Single-class or empty
    data yields a fallback model.

    Newton starts from `data.start` mapped into this fit's
    standardization, or from zero weights when the start is None or a
    fallback. The start's raw-space slope `a = weights * scale` and
    intercept `c = bias - a @ mean` give the weights `a * sd` (0 where
    the spread is 0) and the bias `c + a @ mean` over the new means of
    every column: a column that is constant on the new rows equals its
    mean there, so its term belongs in the bias. The start's logits on
    the new rows are then its own, to rounding. A start whose loss on
    the new rows is not below that of zero weights is dropped: every
    row's features are recomputed at each refit, and a column whose
    spread was tiny in the old rows gives the old model a steep raw
    slope that, once the column spreads, saturates the probabilities
    where the Hessian is singular and the line search stalls.
    """
    params = DEFAULT_PARAMS
    X, y = data.rows, data.labels
    reds = np.count_nonzero(y)
    if reds == 0 or reds == len(y):
        return TrainedModel(weights=None, bias=0.0, mean=None, scale=None)

    mu = X.mean(axis=0)
    Xs = X - mu
    sd = np.sqrt((Xs * Xs).sum(axis=0) / len(y))  # np.std's own steps, so its bits
    scale = np.zeros_like(sd)
    np.divide(1.0, sd, out=scale, where=sd > 0)
    Xs *= scale
    # the parameters the solve moves: the non-constant columns, then the bias
    free = np.append(np.flatnonzero(sd > 0), X.shape[1])
    free_block = np.ix_(free, free)

    w = np.zeros(X.shape[1])
    b = 0.0
    cur = loss(Xs, y, w, b, params.l2)
    start = data.start
    if start is not None and not start.fallback:
        a = start.weights * start.scale
        w_start = np.where(sd > 0, a * sd, 0.0)
        b_start = float(start.bias - a @ start.mean + a @ mu)
        start_loss = loss(Xs, y, w_start, b_start, params.l2)
        if start_loss < cur:
            w, b, cur = w_start, b_start, start_loss
    iterations = 0
    converged = False
    for _ in range(params.max_iter):
        gw, gb = gradient(Xs, y, w, b, params.l2)
        g = np.concatenate((gw, [gb]))
        if abs(g).max() < params.grad_tol:
            converged = True
            break
        H = hessian(Xs, w, b, params.l2)
        d = np.zeros(len(g))
        try:
            d[free] = np.linalg.solve(H[free_block], g[free])
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
    """Predicted red probability for each row of the (k, 9) feature matrix `X`.

    One standardized copy of `X` is made; the scores and the sigmoid are
    computed in place in the array its product with the weights returns.
    """
    if model.fallback:
        raise ValueError("fallback model cannot predict; rank by red neighbors instead")
    Xs = np.asarray(X, dtype=float) - model.mean
    Xs *= model.scale
    return _probabilities(Xs, model.weights, model.bias)
