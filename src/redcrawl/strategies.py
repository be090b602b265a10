"""Monitor-placement policies: score the frontier, pick the next target.

Every policy sees the same inputs, the observer state and its own random
stream, and returns a Decision naming the chosen candidate plus the score
it gave each candidate (useful for tracing), as a read-only mapping over
the pick's arrays. Each pick scores the whole frontier array at once and
takes one argmax: the counting policies sum columns of the observer's
claim-count table, and redlearn runs `predict_many` on the frontier's
feature matrix. Policies never mutate the
state and only ever return observed, unmonitored nodes; monitors cannot
be placed on nodes the crawl has not seen. Ties are broken uniformly at
random so that low-information early steps do not bias small networks
toward low ids.

  sr        uniform choice over the frontier (the floor every other
            policy should beat).
  rs        most says-red claims.
  mrsr      most red neighbors that call the candidate red.
  mrn       most known-red neighbors.
  redlearn  highest predicted red probability from the trained
            classifier; falls back to mrn ranking while the training
            data still has only one class.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .classifier import TrainedModel, predict_many
from .observer import BSR, RSB, RSR, ObserverState

STRATEGY_NAMES = ("sr", "rs", "mrsr", "mrn", "redlearn")

# Each counting strategy scores a candidate by the sum of these columns of
# its claim counts (see NodeCounters.say); sr sums none, so every score is 0.
_SCORE_COLUMNS = {"sr": [], "rs": [RSR, BSR], "mrsr": [RSR], "mrn": [RSR, RSB]}


class ExplorationExhausted(RuntimeError):
    """No observed, unmonitored node is left to place a monitor on."""


class Scores(Mapping):
    """Read-only node -> score mapping over one pick's candidate and score arrays.

    The arrays belong to the pick, so later ingests do not change them. The
    dict behind lookups and iteration is built on first use; `len` is free.
    """

    __slots__ = ("_nodes", "_values", "_dict")

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        self._nodes, self._values, self._dict = nodes, values, None

    def _items(self) -> dict[int, float]:
        if self._dict is None:
            self._dict = dict(zip(self._nodes.tolist(), self._values.astype(float).tolist()))
        return self._dict

    def __getitem__(self, v: int) -> float:
        return self._items()[v]

    def __iter__(self):
        return iter(self._items())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"Scores({self._items()!r})"


@dataclass(frozen=True)
class Decision:
    chosen: int
    scores: Mapping[int, float]


def _frontier(state: ObserverState) -> np.ndarray:
    cands = state.frontier()
    if not len(cands):
        raise ExplorationExhausted("candidate set is empty")
    return cands


def _argmax(cands: np.ndarray, scores: np.ndarray, rng: random.Random) -> Decision:
    """Uniform choice among the top-scoring candidates, taken in ascending id order."""
    tied = cands[scores == scores.max()]
    return Decision(chosen=int(rng.choice(tied)), scores=Scores(cands, scores))


def _pick_by_counts(strategy: str, state: ObserverState, rng: random.Random) -> Decision:
    cands = _frontier(state)
    say = state.counts.say
    scores = np.zeros(len(cands), dtype=np.int64)
    for col in _SCORE_COLUMNS[strategy]:
        scores += say[cands, col]
    return _argmax(cands, scores, rng)


def pick_redlearn(state: ObserverState, model: TrainedModel, rng: random.Random) -> Decision:
    """Pick the candidate the classifier rates most likely red.

    A fallback model (single-class training data so far) delegates the
    whole decision to the most-red-neighbors ranking, the strongest
    non-learning baseline when reds cluster.
    """
    if model.fallback:
        return _pick_by_counts("mrn", state, rng)
    cands = _frontier(state)
    return _argmax(cands, predict_many(model, state.features_matrix(cands)), rng)


def pick(strategy: str, state: ObserverState, rng: random.Random,
         model: TrainedModel | None = None) -> Decision:
    """Dispatch by strategy name (see STRATEGY_NAMES)."""
    if strategy == "redlearn":
        if model is None:
            raise ValueError("redlearn needs a trained (or fallback) model")
        return pick_redlearn(state, model, rng)
    if strategy not in _SCORE_COLUMNS:
        raise ValueError(f"unknown strategy {strategy!r}: expected one of {STRATEGY_NAMES}")
    return _pick_by_counts(strategy, state, rng)
