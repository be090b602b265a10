"""Monitor-placement policies: score the frontier, pick the next target.

Every policy does the same thing at each step: it scores the whole
frontier (the observed, unmonitored nodes, in ascending id order) and
monitors a top-scoring node. `pick` returns a Decision holding the chosen
node, the frontier array and the score array aligned with it (useful for
tracing); both arrays belong to the decision, so later ingests do not
change them. The counting policies sum columns of the observer's
claim-count table, and redlearn runs `predict_many` on the frontier's
feature matrix. Policies never mutate the state and only ever return
observed, unmonitored nodes; monitors cannot be placed on nodes the crawl
has not seen. Ties are broken uniformly at random so that low-information
early steps do not bias small networks toward low ids.

  sr        uniform choice over the frontier (the floor every other
            policy should beat).
  rs        most says-red claims.
  mrsr      most red neighbors that call the candidate red.
  mrn       most known-red neighbors.
  redlearn  highest predicted red probability from the trained
            classifier; ranks like mrn while the training data still
            has only one class (a fallback model), the strongest
            non-learning baseline when reds cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .classifier import TrainedModel, predict_many
from .observer import BSR, RSB, RSR, ObserverState

STRATEGY_NAMES = ("sr", "rs", "mrsr", "mrn", "redlearn")

# Each counting strategy scores a candidate by the sum of these columns of
# its claim counts (see ObserverState.say); sr sums none, so every score is 0.
_SCORE_COLUMNS = {"sr": [], "rs": [RSR, BSR], "mrsr": [RSR], "mrn": [RSR, RSB]}


class ExplorationExhausted(RuntimeError):
    """No observed, unmonitored node is left to place a monitor on."""


@dataclass(frozen=True, eq=False)
class Decision:
    """The chosen node, and the frontier with the score of each candidate.

    `==` compares identity: field-by-field equality over arrays would raise.
    """

    chosen: int
    candidates: np.ndarray
    scores: np.ndarray


def pick(strategy: str, state: ObserverState, rng: random.Random,
         model: TrainedModel | None = None) -> Decision:
    """Score the frontier by `strategy` (see STRATEGY_NAMES) and choose
    uniformly among the top-scoring candidates, taken in ascending id order.

    Raises ValueError for a redlearn pick without a model or an unknown
    strategy, then ExplorationExhausted if the frontier is empty.
    """
    if strategy == "redlearn" and model is None:
        raise ValueError("redlearn needs a trained (or fallback) model")
    if strategy not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}: expected one of {STRATEGY_NAMES}")
    cands = state.frontier()
    if not len(cands):
        raise ExplorationExhausted("candidate set is empty")
    if strategy == "redlearn" and not model.fallback:
        scores = predict_many(model, state.features_matrix(cands))
    else:
        scores = np.zeros(len(cands), dtype=np.int64)
        for col in _SCORE_COLUMNS["mrn" if strategy == "redlearn" else strategy]:
            scores += state.say[cands, col]
    return Decision(int(rng.choice(cands[scores == scores.max()])), cands, scores)
