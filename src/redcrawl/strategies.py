"""Monitor-placement policies: score the frontier, pick the next target.

Every policy sees the same inputs, the observer state and its own random
stream, and returns a Decision naming the chosen candidate plus the score
it gave each candidate (useful for tracing). Policies never mutate the
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
from dataclasses import dataclass

from .classifier import TrainedModel, predict_many
from .observer import ObserverState

STRATEGY_NAMES = ("sr", "rs", "mrsr", "mrn", "redlearn")


class ExplorationExhausted(RuntimeError):
    """No observed, unmonitored node is left to place a monitor on."""


@dataclass(frozen=True)
class Decision:
    chosen: int
    scores: dict[int, float]


def _candidates(state: ObserverState) -> list[int]:
    cands = state.candidates()
    if not cands:
        raise ExplorationExhausted("candidate set is empty")
    return cands


def _argmax(scores: dict[int, float], rng: random.Random) -> Decision:
    best = max(scores.values())
    tied = [v for v, s in scores.items() if s == best]
    return Decision(chosen=rng.choice(tied), scores=scores)


def pick_smart_random(state: ObserverState, rng: random.Random) -> Decision:
    """Uniform pick over the frontier."""
    cands = _candidates(state)
    return Decision(chosen=rng.choice(cands), scores={v: 0.0 for v in cands})


def pick_red_score(state: ObserverState, rng: random.Random) -> Decision:
    """Pick the candidate the most speakers have called red."""
    scores = {v: float(state.red_score(v)) for v in _candidates(state)}
    return _argmax(scores, rng)


def pick_mrsr(state: ObserverState, rng: random.Random) -> Decision:
    """Pick the candidate with the most red neighbors calling it red."""
    scores = {v: float(state.red_say_red_count(v)) for v in _candidates(state)}
    return _argmax(scores, rng)


def pick_mrn(state: ObserverState, rng: random.Random) -> Decision:
    """Pick the candidate with the most known-red neighbors."""
    scores = {v: float(state.red_neighbor_count(v)) for v in _candidates(state)}
    return _argmax(scores, rng)


def pick_redlearn(state: ObserverState, model: TrainedModel, rng: random.Random) -> Decision:
    """Pick the candidate the classifier rates most likely red.

    A fallback model (single-class training data so far) delegates the
    whole decision to the most-red-neighbors ranking, the strongest
    non-learning baseline when reds cluster.
    """
    if model.fallback:
        return pick_mrn(state, rng)
    cands = _candidates(state)
    probs = predict_many(model, state.features_matrix(cands))
    return _argmax(dict(zip(cands, probs.tolist())), rng)


_COUNTING_PICKS = {"sr": pick_smart_random, "rs": pick_red_score, "mrsr": pick_mrsr, "mrn": pick_mrn}


def pick(strategy: str, state: ObserverState, rng: random.Random,
         model: TrainedModel | None = None) -> Decision:
    """Dispatch by strategy name (see STRATEGY_NAMES)."""
    if strategy == "redlearn":
        if model is None:
            raise ValueError("redlearn needs a trained (or fallback) model")
        return pick_redlearn(state, model, rng)
    if strategy not in _COUNTING_PICKS:
        raise ValueError(f"unknown strategy {strategy!r}: expected one of {STRATEGY_NAMES}")
    return _COUNTING_PICKS[strategy](state, rng)
