"""Placement policies: scoring, argmax legality, tie-breaking, fallback."""

import copy
import random

import numpy as np
import pytest

from redcrawl import (
    Color,
    ExplorationExhausted,
    LyingScenario,
    MonitorReport,
    ObserverState,
    Oracle,
    TrainedModel,
    generate_synthetic,
    pick,
    pick_mrn,
    pick_mrsr,
    pick_red_score,
    pick_redlearn,
    pick_smart_random,
)
from helpers import identity_model


def report(target, color, neighbor_colors):
    neighbors = tuple(sorted(neighbor_colors))
    return MonitorReport(
        target=target,
        true_color=color,
        neighbors=neighbors,
        statements=tuple(neighbor_colors[v] for v in neighbors),
    )


@pytest.fixture
def four_candidate_state():
    state = ObserverState(0)
    state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE, 3: Color.BLUE, 4: Color.BLUE}))
    return state


class TestSmartRandom:
    def test_single_candidate(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        decision = pick_smart_random(state, random.Random(0))
        assert decision.chosen == 1
        assert decision.scores == {1: 0.0}

    def test_uniform_over_candidates(self, four_candidate_state):
        rng = random.Random(42)
        counts = {v: 0 for v in (1, 2, 3, 4)}
        for _ in range(10_000):
            counts[pick_smart_random(four_candidate_state, rng).chosen] += 1
        for v in counts:
            assert abs(counts[v] / 10_000 - 0.25) < 0.015

    def test_exhausted_frontier_signals(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {}))
        with pytest.raises(ExplorationExhausted):
            pick_smart_random(state, random.Random(0))


class TestRedScore:
    def test_picks_highest_says_red_count(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 5: Color.BLUE}))
        state.ingest(report(1, Color.BLUE, {0: Color.BLUE, 2: Color.RED, 5: Color.RED}))
        state.ingest(report(5, Color.BLUE, {0: Color.BLUE, 1: Color.BLUE, 2: Color.RED}))
        decision = pick_red_score(state, random.Random(0))
        assert decision.chosen == 2
        assert decision.scores[2] == 3.0

    def test_all_zero_scores_fall_back_to_uniform(self, four_candidate_state):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.BLUE, 2: Color.BLUE, 3: Color.BLUE}))
        rng = random.Random(3)
        counts = {v: 0 for v in (1, 2, 3)}
        for _ in range(6000):
            counts[pick_red_score(state, rng).chosen] += 1
        for v in counts:
            assert abs(counts[v] / 6000 - 1 / 3) < 0.03

    def test_ls2_blue_monitors_only_never_score(self):
        # blue speakers under LS2 never say red, so every score stays 0
        world = generate_synthetic(40, 0.2, "homophily", 1)
        # maximal liars
        oracle = Oracle(world, [0.0] * world.n, LyingScenario.LS2, random.Random(0))
        blues = [v for v in range(world.n) if world.colors[v] is Color.BLUE]
        state = ObserverState(blues[0])
        state.ingest(oracle.place_monitor(blues[0]))
        for v in blues[1:6]:
            if v in state.observed_nodes:
                state.ingest(oracle.place_monitor(v))
        decision = pick_red_score(state, random.Random(1))
        assert all(score == 0.0 for score in decision.scores.values())


class TestMostRedSayRed:
    def test_counts_only_red_speakers_saying_red(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 3: Color.RED}))
        state.ingest(report(1, Color.RED, {0: Color.RED, 3: Color.RED}))
        state.ingest(report(2, Color.BLUE, {0: Color.BLUE, 3: Color.RED}))
        decision = pick_mrsr(state, random.Random(0))
        # node 3: reds 0 and 1 say red, blue 2's claim does not count
        assert decision.chosen == 3
        assert decision.scores[3] == 2.0

    def test_no_red_monitors_uniform(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.BLUE, {1: Color.RED, 2: Color.RED}))
        rng = random.Random(5)
        chosen = {pick_mrsr(state, rng).chosen for _ in range(200)}
        assert chosen == {1, 2}


class TestMostRedNeighbors:
    def test_picks_max_known_red_neighbors(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 4: Color.BLUE}))
        state.ingest(report(3, Color.RED, {0: Color.RED, 4: Color.BLUE, 5: Color.BLUE}))
        # 4 is adjacent to both monitored reds, 5 to one
        decision = pick_mrn(state, random.Random(0))
        assert decision.chosen == 4
        assert decision.scores == {4: 2.0, 5: 1.0}

    def test_chases_blues_when_homophily_removed(self):
        # with no red-red edges every neighbor of a monitored red is blue
        world = generate_synthetic(80, 0.15, "no_homophily", 7)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        start = max(world.red_ids(), key=world.degree)
        state = ObserverState(start)
        state.ingest(oracle.place_monitor(start))
        rng = random.Random(2)
        for _ in range(10):
            decision = pick_mrn(state, rng)
            if decision.scores[decision.chosen] > 0:
                assert world.colors[decision.chosen] is Color.BLUE
            state.ingest(oracle.place_monitor(decision.chosen))


class TestRedLearnPick:
    def test_zero_weight_model_gives_uniform_half_scores(self, four_candidate_state):
        model = identity_model(np.zeros(9))
        decision = pick_redlearn(four_candidate_state, model, random.Random(0))
        assert all(score == 0.5 for score in decision.scores.values())
        rng = random.Random(8)
        counts = {v: 0 for v in (1, 2, 3, 4)}
        for _ in range(8000):
            counts[pick_redlearn(four_candidate_state, model, rng).chosen] += 1
        for v in counts:
            assert abs(counts[v] / 8000 - 0.25) < 0.02

    def test_dominant_red_neighbor_weight_ranks_like_mrn(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 4: Color.BLUE}))
        state.ingest(report(3, Color.RED, {0: Color.RED, 4: Color.BLUE, 5: Color.BLUE}))
        # weight large enough to dominate, small enough not to saturate
        model = identity_model([5.0] + [0.0] * 8)
        learned = pick_redlearn(state, model, random.Random(1))
        greedy = pick_mrn(state, random.Random(1))
        assert learned.chosen == greedy.chosen
        ranked_l = sorted(learned.scores, key=learned.scores.get)
        ranked_g = sorted(greedy.scores, key=greedy.scores.get)
        assert ranked_l == ranked_g

    def test_fallback_model_behaves_as_mrn(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 4: Color.BLUE}))
        state.ingest(report(3, Color.RED, {0: Color.RED, 4: Color.BLUE, 5: Color.BLUE}))
        fallback = TrainedModel(weights=None, bias=0.0, mean=None, scale=None, fallback=True)
        assert pick_redlearn(state, fallback, random.Random(7)) == pick_mrn(state, random.Random(7))

    def test_dispatch_requires_model(self, four_candidate_state):
        with pytest.raises(ValueError, match="model"):
            pick("redlearn", four_candidate_state, random.Random(0), model=None)


class TestCommonContracts:
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn", "redlearn"])
    def test_only_candidates_returned_and_state_unchanged(self, strategy):
        world = generate_synthetic(50, 0.2, "homophily", 3)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        start = world.red_ids()[0]
        state = ObserverState(start)
        state.ingest(oracle.place_monitor(start))
        for v in list(state.candidates())[:5]:
            state.ingest(oracle.place_monitor(v))
        model = identity_model(np.ones(9) * 0.3, bias=-0.2)
        before = copy.deepcopy(state.__dict__)

        decision = pick(strategy, state, random.Random(4), model=model)
        cands = set(state.candidates())
        assert decision.chosen in cands
        assert set(decision.scores) == cands
        assert decision.scores[decision.chosen] == max(decision.scores.values())
        after = state.__dict__
        assert {k: v for k, v in after.items()} == before

    def test_unknown_strategy_rejected(self, four_candidate_state):
        with pytest.raises(ValueError, match="unknown strategy"):
            pick("bfs", four_candidate_state, random.Random(0))

    def test_tie_break_uniform_over_tied_subset_only(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 3: Color.BLUE}))
        state.ingest(report(1, Color.RED, {0: Color.RED, 2: Color.RED}))
        # node 2 has two says-red, 3 has... 0's claim only; check rs tie logic
        rng = random.Random(0)
        for _ in range(50):
            assert pick_red_score(state, rng).chosen == 2
