"""Monitor-placement policies: score the frontier, pick the next target.

Every policy monitors a top-scoring node of the frontier (the observed,
unmonitored nodes, in ascending id order). `pick` returns a Decision
holding the chosen node, the frontier array and the score array aligned
with it (useful for tracing); both arrays belong to the decision, so
later ingests do not change them. The counting policies sum columns of
the observer's claim-count table, and redlearn runs `predict_many` on the
frontier's feature matrix. A pick changes nothing observable in the
state: reading the claim counts or the features may fold pending
reports into the observer's counters (see observer), which leaves their
values as any reader would see them. Policies only ever return observed,
unmonitored nodes; monitors cannot be placed on nodes the crawl has not
seen. Ties are broken uniformly at random, by one `rng.choice` over the
tied ids in ascending order, so that low-information early steps do not
bias small networks toward low ids.

A counting score changes only when a report names the node, so a run
does not rescan the frontier at each step: `CountingScores` keeps every
node's score and the ascending ids that share the top score, and folds
in each report as it is ingested. It reads the state's claim counts
once, when it is built; after that each claim about a frontier node adds
its column's weight to that node's score, a newly observed node starting
from 0, which is the sum a read of the counts would give, since each
claim is counted once. So a run whose kept scores are built before its
first report never reads the counts (see observer). Only nodes that
reach the top score are touched one by one; the rest take one numpy
write per report. When the last top id is monitored, the ids one level
below take their place if they are known: a top that a small report
raises by one keeps the ids it leaves, and the small-report loop keeps
them up to date. Only otherwise are the top ids rebuilt by one scan of
every score: on the frontier benchmark's seed-1 batch, 6 of 568
rebuilds scan, the four first builds included. A report whose speaker
the strategy is silent on, since it weighs that speaker's claims 0
(every speaker for sr, a blue one for mrsr and mrn), raises no score:
its update reads no claims and only puts the newly observed neighbors
on the frontier at score 0.
`pick` scores a state from scratch from the claim counts, so a kept run
and a fresh pick draw the same node from the same rng. A report of at
most `oracle.SMALL_REPORT` claims is folded in one claim at a time, and
a larger one by array operations; both give the same scores and top
ids. Most reports in a sparse social graph are that small, and for them
the loop costs less than the array calls (see the oracle).

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
from .graph import BLUE, RED
from .observer import BSR, RSB, RSR, ObserverState
from .oracle import SMALL_REPORT, MonitorReport

STRATEGY_NAMES = ("sr", "rs", "mrsr", "mrn", "redlearn")


def check_strategy(strategy: str) -> None:
    """Raise ValueError unless `strategy` is one of STRATEGY_NAMES."""
    if strategy not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}: expected one of {STRATEGY_NAMES}")


# Each counting strategy scores a candidate by the sum of these columns of
# its claim counts (see ObserverState.say); sr sums none, so every score is 0.
_SCORE_COLUMNS = {"sr": [], "rs": [RSR, BSR], "mrsr": [RSR], "mrn": [RSR, RSB]}
# The speaker color codes each strategy is silent on: a claim lands in column
# 2 * speaker + said, so a speaker is silent when neither of its columns is summed.
_SILENT_SPEAKERS = {strategy: frozenset(c for c in (RED, BLUE) if not {2 * c, 2 * c + 1} & set(columns))
                    for strategy, columns in _SCORE_COLUMNS.items()}


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
      below_ids  the frontier ids that score `top - 1`, as an ascending
               list, or None where they are not known. They are known
               from the moment a small report raises the top by one until
               a large report arrives or the top falls to them.

    Claim counts only grow, so a report can raise its neighbors' scores
    but lower none, and the top falls only when its last id is monitored.
    `silent` holds the speaker color codes whose claims score nothing,
    `gains[speaker]` holds the weight of each said code and `weights`
    the four column weights as a list. Memoryviews of `score` and of the
    state's frontier mask are made once, when the scores are built, and
    kept for the small-report loop.
    """

    def __init__(self, strategy: str, state: ObserverState):
        if strategy not in _SCORE_COLUMNS:
            raise ValueError(f"{strategy!r} is not a counting strategy: expected one of {tuple(_SCORE_COLUMNS)}")
        self.state = state
        self.silent = _SILENT_SPEAKERS[strategy]
        weights = np.zeros(4, dtype=np.int64)
        weights[_SCORE_COLUMNS[strategy]] = 1
        self.gains = tuple(weights.reshape(2, 2))
        self.weights = weights.tolist()
        self.score = np.full(len(state.color), -1, dtype=np.int64)
        cands = state.frontier()
        self.score[cands] = state.say.take(cands, axis=0) @ weights
        self._score, self._on_frontier = self.score.data, state.on_frontier.data
        self.below_ids = None
        self._rebuild()

    def _rebuild(self) -> None:
        if self.below_ids:
            self.top -= 1
            self.top_ids, self.below_ids = self.below_ids, None
            return
        self.below_ids = None
        self.top = int(self.score.max())
        self.top_ids = np.flatnonzero(self.score == self.top).tolist() if self.top >= 0 else []

    def update(self, report: MonitorReport) -> None:
        """Fold in `report`, just ingested into the state: its target
        leaves the frontier and each claim about a frontier neighbor adds
        its column's weight to that neighbor's score."""
        score, top, top_ids = self.score, self.top, self.top_ids
        t = report.target
        if score[t] == top:
            del top_ids[bisect_left(top_ids, t)]
        elif self.below_ids is not None and score[t] == top - 1:
            del self.below_ids[bisect_left(self.below_ids, t)]
        score[t] = -1
        nbrs = report.neighbors
        if len(nbrs) <= SMALL_REPORT:
            self._update_small(nbrs.tolist(), report.statements.tolist(), 2 * report.color)
            return
        self.below_ids = None
        on = self.state.on_frontier[nbrs]
        ids = nbrs[on]
        if report.color in self.silent:
            # No claim of it is scored: only the newly observed neighbors move, from -1 to 0.
            ids = ids[score.take(ids) < 0]
            score[ids] = 0
            if top == 0:
                for v in ids.tolist():
                    insort(top_ids, v)
        elif len(ids):
            old = score.take(ids)
            new = np.maximum(old, 0)  # a newly observed neighbor starts from 0
            new += self.gains[report.color].take(report.statements[on])
            best = int(new.max())
            if best > top:
                self.top = best
                self.top_ids = top_ids = ids[new == best].tolist()
            elif best == top:
                for v in ids[(new == top) & (old != top)].tolist():
                    insort(top_ids, v)
            score[ids] = new
        if not top_ids:
            self._rebuild()

    def _update_small(self, nbrs: list[int], said: list[int], speaker: int) -> None:
        """`update`'s re-score, one claim at a time through memoryviews.

        A claim adds its column's weight to its subject's score, and a
        newly observed subject starts from 0 (its `say` row holds only
        this claim), so each frontier neighbor gets the score that
        reading its counts gives. A silent speaker's weights are 0. A
        neighbor above the top score starts a new top-id list, and one
        that reaches it joins the list: the ids and order of the array
        path. The top ids are rebuilt, as there, only if none is left.
        A top that rises by one keeps its old ids, less the one that
        rose, as `below_ids`, and while they are known each neighbor
        that reaches or leaves that level joins or leaves them.
        """
        score, on_frontier, weights = self._score, self._on_frontier, self.weights
        top, top_ids, below = self.top, self.top_ids, self.below_ids
        for v, s in zip(nbrs, said):
            if on_frontier[v]:
                old = score[v]
                score[v] = new = (old if old > 0 else 0) + weights[speaker + s]
                if new == old:
                    continue
                if below is not None:
                    if old == top - 1:
                        del below[bisect_left(below, v)]
                    elif new == top - 1:
                        insort(below, v)
                if new > top:
                    if new == top + 1 and top >= 0:
                        if old == top:
                            del top_ids[bisect_left(top_ids, v)]
                        below = top_ids
                    else:
                        below = None
                    top, top_ids = new, [v]
                elif new == top:
                    insort(top_ids, v)
        self.top, self.top_ids, self.below_ids = top, top_ids, below
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
        scores = predict_many(model, state.feature_rows(cands))  # frontier ids need no checks
        return Decision(int(rng.choice(cands[scores == scores.max()])), cands, scores)
    counting = CountingScores("mrn" if strategy == "redlearn" else strategy, state)
    return counting.decision(counting.choose(rng))
