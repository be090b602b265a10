"""Monitor-placement policies: score the frontier, pick the next target.

Every policy monitors a top-scoring node of the frontier (the observed,
unmonitored nodes, in ascending id order). `pick` returns a Decision
holding the chosen node, the frontier array and the score array aligned
with it (useful for tracing); both arrays belong to the decision, so
later ingests do not change them. The counting policies sum columns of
the observer's claim-count table, and redlearn runs `predict_many` on the
frontier's feature matrix. Policies never mutate the state and only ever
return observed, unmonitored nodes; monitors cannot be placed on nodes
the crawl has not seen. Ties are broken uniformly at random, by one
`rng.choice` over the tied ids in ascending order, so that
low-information early steps do not bias small networks toward low ids.

A counting score changes only when a report names the node, so a run
does not rescan the frontier at each step: `CountingScores` keeps every
node's score and the ascending ids that share the top score, and folds
in each report as it is ingested. Only nodes that reach the top score
are touched one by one; the rest take one numpy write per report, and
the top ids are rebuilt by one scan only when the last of them is
monitored. `pick` scores a state from scratch the same way, so a kept
run and a fresh pick draw the same node from the same rng.

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
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .classifier import TrainedModel, predict_many
from .observer import BSR, RSB, RSR, ObserverState
from .oracle import MonitorReport

STRATEGY_NAMES = ("sr", "rs", "mrsr", "mrn", "redlearn")


def check_strategy(strategy: str) -> None:
    """Raise ValueError unless `strategy` is one of STRATEGY_NAMES."""
    if strategy not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}: expected one of {STRATEGY_NAMES}")


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


class CountingScores:
    """One counting strategy's scores over a state, kept up to date by `update`.

      score    (n,) int64 array: each frontier node's score, -1 for a node
               off the frontier.
      top      the highest score on the frontier, -1 once it is empty.
      top_ids  the frontier ids that score `top`, as an ascending list.

    Claim counts only grow, so a report can raise its neighbors' scores
    but lower none, and the top falls only when its last id is monitored.
    """

    def __init__(self, strategy: str, state: ObserverState):
        if strategy not in _SCORE_COLUMNS:
            raise ValueError(f"{strategy!r} is not a counting strategy: expected one of {tuple(_SCORE_COLUMNS)}")
        self.state = state
        self.weights = np.zeros(4, dtype=np.int64)
        self.weights[_SCORE_COLUMNS[strategy]] = 1
        self.score = np.full(len(state.color), -1, dtype=np.int64)
        cands = state.frontier()
        self.score[cands] = self._read(cands)
        self._rebuild()

    def _read(self, ids: np.ndarray) -> np.ndarray:
        """The scores of `ids` from the state's claim counts: one sum of columns per row."""
        return self.state.say.take(ids, axis=0) @ self.weights

    def _rebuild(self) -> None:
        self.top = int(self.score.max())
        self.top_ids = np.flatnonzero(self.score == self.top).tolist() if self.top >= 0 else []

    def update(self, report: MonitorReport) -> None:
        """Fold in `report`, just ingested into the state: its target
        leaves the frontier and its unmonitored neighbors are re-scored."""
        score, top, top_ids = self.score, self.top, self.top_ids
        t = report.target
        if score[t] == top:
            del top_ids[bisect_left(top_ids, t)]
        score[t] = -1
        nbrs = report.neighbors
        ids = nbrs[self.state.on_frontier[nbrs]]
        if len(ids):
            new = self._read(ids)
            best = int(new.max())
            if best > top:
                self.top = best
                self.top_ids = top_ids = ids[new == best].tolist()
            elif best == top:
                for v in ids[(new == top) & (score.take(ids) != top)].tolist():
                    insort(top_ids, v)
            score[ids] = new
        if not top_ids:
            self._rebuild()

    def choose(self, rng: random.Random) -> int:
        """One uniform draw among the top-scoring ids, in ascending order."""
        if not self.top_ids:
            raise ExplorationExhausted("candidate set is empty")
        return rng.choice(self.top_ids)

    def decision(self, chosen: int) -> Decision:
        """A Decision for `chosen` with the frontier and its scores as they stand."""
        cands = self.state.frontier()
        return Decision(chosen, cands, self.score[cands])


def pick(strategy: str, state: ObserverState, rng: random.Random,
         model: TrainedModel | None = None) -> Decision:
    """Score the frontier by `strategy` (see STRATEGY_NAMES) and choose
    uniformly among the top-scoring candidates, taken in ascending id order.

    Raises ValueError for a redlearn pick without a model or an unknown
    strategy, then ExplorationExhausted if the frontier is empty.
    """
    if strategy == "redlearn" and model is None:
        raise ValueError("redlearn needs a trained (or fallback) model")
    check_strategy(strategy)
    if strategy == "redlearn" and not model.fallback:
        cands = state.frontier()
        if not len(cands):
            raise ExplorationExhausted("candidate set is empty")
        scores = predict_many(model, state.features_matrix(cands))
        return Decision(int(rng.choice(cands[scores == scores.max()])), cands, scores)
    counting = CountingScores("mrn" if strategy == "redlearn" else strategy, state)
    return counting.decision(counting.choose(rng))
