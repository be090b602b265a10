"""Placement policies: scoring, argmax legality, tie-breaking, fallback, kept counting scores."""

import copy
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from redcrawl import (
    FEATURE_NAMES,
    Color,
    ExplorationExhausted,
    LyingScenario,
    ObserverState,
    Oracle,
    TrainedModel,
    assign_honesty,
    generate_synthetic,
    harness,
    pick,
    predict_many,
)
from redcrawl.graph import BLUE, RED
from redcrawl.observer import BSB, BSR, RSB, RSR
from redcrawl.strategies import _SILENT_SPEAKERS, CountingScores
from helpers import (
    brute_features,
    brute_knowledge,
    brute_verified,
    degree,
    force_path,
    identity_model,
    make_world,
    observed_of,
    report,
    report_fields,
    scores_of,
)


@pytest.fixture
def four_candidate_state():
    state = ObserverState(0, 10)
    state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE, 3: Color.BLUE, 4: Color.BLUE}))
    return state


class TestSmartRandom:
    def test_single_candidate(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        decision = pick("sr", state, random.Random(0))
        assert decision.chosen == 1
        assert scores_of(decision) == {1: 0.0}

    def test_uniform_over_candidates(self, four_candidate_state):
        rng = random.Random(42)
        counts = {v: 0 for v in (1, 2, 3, 4)}
        for _ in range(10_000):
            counts[pick("sr", four_candidate_state, rng).chosen] += 1
        for v in counts:
            assert abs(counts[v] / 10_000 - 0.25) < 0.015

    def test_exhausted_frontier_signals(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {}))
        with pytest.raises(ExplorationExhausted):
            pick("sr", state, random.Random(0))


class TestRedScore:
    def test_picks_highest_says_red_count(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 5: Color.BLUE}))
        state.ingest(report(1, Color.BLUE, {0: Color.BLUE, 2: Color.RED, 5: Color.RED}))
        state.ingest(report(5, Color.BLUE, {0: Color.BLUE, 1: Color.BLUE, 2: Color.RED}))
        decision = pick("rs", state, random.Random(0))
        assert decision.chosen == 2
        assert scores_of(decision)[2] == 3.0

    def test_all_zero_scores_fall_back_to_uniform(self, four_candidate_state):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.BLUE, 2: Color.BLUE, 3: Color.BLUE}))
        rng = random.Random(3)
        counts = {v: 0 for v in (1, 2, 3)}
        for _ in range(6000):
            counts[pick("rs", state, rng).chosen] += 1
        for v in counts:
            assert abs(counts[v] / 6000 - 1 / 3) < 0.03

    def test_ls2_blue_monitors_only_never_score(self):
        # blue speakers under LS2 never say red, so every score stays 0
        world = generate_synthetic(40, 0.2, "homophily", 1)
        # maximal liars
        oracle = Oracle(world, [0.0] * world.n, LyingScenario.LS2, random.Random(0))
        blues = [v for v in range(world.n) if world.colors[v] is Color.BLUE]
        state = ObserverState(blues[0], world.n)
        state.ingest(oracle.place_monitor(blues[0]))
        for v in blues[1:6]:
            if v in observed_of(state):
                state.ingest(oracle.place_monitor(v))
        decision = pick("rs", state, random.Random(1))
        assert all(score == 0.0 for score in scores_of(decision).values())


class TestMostRedSayRed:
    def test_counts_only_red_speakers_saying_red(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 3: Color.RED}))
        state.ingest(report(1, Color.RED, {0: Color.RED, 3: Color.RED}))
        state.ingest(report(2, Color.BLUE, {0: Color.BLUE, 3: Color.RED}))
        decision = pick("mrsr", state, random.Random(0))
        # node 3: reds 0 and 1 say red, blue 2's claim does not count
        assert decision.chosen == 3
        assert scores_of(decision)[3] == 2.0

    def test_no_red_monitors_uniform(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.BLUE, {1: Color.RED, 2: Color.RED}))
        rng = random.Random(5)
        chosen = {pick("mrsr", state, rng).chosen for _ in range(200)}
        assert chosen == {1, 2}


class TestMostRedNeighbors:
    def test_picks_max_known_red_neighbors(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 4: Color.BLUE}))
        state.ingest(report(3, Color.RED, {0: Color.RED, 4: Color.BLUE, 5: Color.BLUE}))
        # 4 is adjacent to both monitored reds, 5 to one
        decision = pick("mrn", state, random.Random(0))
        assert decision.chosen == 4
        assert scores_of(decision) == {4: 2.0, 5: 1.0}

    def test_chases_blues_when_homophily_removed(self):
        # with no red-red edges every neighbor of a monitored red is blue
        world = generate_synthetic(80, 0.15, "no_homophily", 7)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        start = max(world.red_ids(), key=lambda v: degree(world, v))
        state = ObserverState(start, world.n)
        state.ingest(oracle.place_monitor(start))
        rng = random.Random(2)
        for _ in range(10):
            decision = pick("mrn", state, rng)
            if scores_of(decision)[decision.chosen] > 0:
                assert world.colors[decision.chosen] is Color.BLUE
            state.ingest(oracle.place_monitor(decision.chosen))


class TestRedLearnPick:
    def test_zero_weight_model_gives_uniform_half_scores(self, four_candidate_state):
        model = identity_model(np.zeros(9))
        decision = pick("redlearn", four_candidate_state, random.Random(0), model)
        assert all(score == 0.5 for score in scores_of(decision).values())
        rng = random.Random(8)
        counts = {v: 0 for v in (1, 2, 3, 4)}
        for _ in range(8000):
            counts[pick("redlearn", four_candidate_state, rng, model).chosen] += 1
        for v in counts:
            assert abs(counts[v] / 8000 - 0.25) < 0.02

    def test_dominant_red_neighbor_weight_ranks_like_mrn(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 4: Color.BLUE}))
        state.ingest(report(3, Color.RED, {0: Color.RED, 4: Color.BLUE, 5: Color.BLUE}))
        # weight large enough to dominate, small enough not to saturate
        model = identity_model([5.0] + [0.0] * 8)
        learned = pick("redlearn", state, random.Random(1), model)
        greedy = pick("mrn", state, random.Random(1))
        assert learned.chosen == greedy.chosen
        learned_scores, greedy_scores = scores_of(learned), scores_of(greedy)
        ranked_l = sorted(learned_scores, key=learned_scores.get)
        ranked_g = sorted(greedy_scores, key=greedy_scores.get)
        assert ranked_l == ranked_g

    def test_fallback_model_behaves_as_mrn(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 4: Color.BLUE}))
        state.ingest(report(3, Color.RED, {0: Color.RED, 4: Color.BLUE, 5: Color.BLUE}))
        fallback = TrainedModel(weights=None, bias=0.0, mean=None, scale=None)
        got = pick("redlearn", state, random.Random(7), fallback)
        want = pick("mrn", state, random.Random(7))
        assert got.chosen == want.chosen
        assert np.array_equal(got.candidates, want.candidates)
        assert np.array_equal(got.scores, want.scores)

    def test_dispatch_requires_model(self, four_candidate_state):
        with pytest.raises(ValueError, match="model"):
            pick("redlearn", four_candidate_state, random.Random(0), model=None)


class TestCommonContracts:
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn", "redlearn"])
    def test_only_candidates_returned_and_state_unchanged(self, strategy):
        world = generate_synthetic(50, 0.2, "homophily", 3)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        start = world.red_ids()[0]
        state = ObserverState(start, world.n)
        state.ingest(oracle.place_monitor(start))
        for v in list(state.candidates())[:5]:
            state.ingest(oracle.place_monitor(v))
        model = identity_model(np.ones(9) * 0.3, bias=-0.2)
        # The counters are read from a copy, so that a fold inside the pick
        # is a fold of reports that no one has read yet.
        before = copy.deepcopy(state)

        decision = pick(strategy, state, random.Random(4), model=model)
        cands = set(state.candidates())
        assert decision.chosen in cands
        scores = scores_of(decision)
        assert set(scores) == cands
        assert scores[decision.chosen] == max(scores.values())
        assert list(map(report_fields, state.reports.values())) == \
            list(map(report_fields, before.reports.values()))
        for name in ("say", "color", "on_frontier", "verified_counts", "triangles"):
            assert np.array_equal(getattr(state, name), getattr(before, name)), name

    def test_unknown_strategy_rejected(self, four_candidate_state):
        with pytest.raises(ValueError, match="unknown strategy"):
            pick("bfs", four_candidate_state, random.Random(0))

    def test_bad_arguments_rejected_before_an_empty_frontier(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {}))
        with pytest.raises(ValueError, match="model"):
            pick("redlearn", state, random.Random(0))
        with pytest.raises(ValueError, match="unknown strategy"):
            pick("bfs", state, random.Random(0))
        with pytest.raises(ExplorationExhausted):
            pick("redlearn", state, random.Random(0), identity_model(np.zeros(9)))

    def test_tie_break_uniform_over_tied_subset_only(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 3: Color.BLUE}))
        state.ingest(report(1, Color.RED, {0: Color.RED, 2: Color.RED}))
        # node 2 has two says-red, 3 has... 0's claim only; check rs tie logic
        rng = random.Random(0)
        for _ in range(50):
            assert pick("rs", state, rng).chosen == 2


REFERENCE_COLUMN = {
    "sr": None,
    "rs": FEATURE_NAMES.index("red_score"),
    "mrsr": FEATURE_NAMES.index("red_say_red"),
    "mrn": FEATURE_NAMES.index("red_neighbors"),
}


def reference_pick(strategy, start, state, rng):
    """Scalar pick from the report log of a crawl from `start`: brute-force
    scores over the sorted frontier, then one rng.choice over the ascending
    tied list."""
    observed, edges, monitored, statements = brute_knowledge(start, state.reports.values())
    verified = brute_verified(monitored, statements)
    cands = sorted(observed - set(monitored))
    col = REFERENCE_COLUMN[strategy]
    scores = {
        v: 0.0 if col is None else brute_features(v, edges, monitored, statements, verified)[col]
        for v in cands
    }
    best = max(scores.values())
    return rng.choice([v for v in cands if scores[v] == best]), scores


class TestArrayPicksMatchScalarReference:
    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_same_choice_scores_and_rng_state(self, strategy, scenario):
        world = generate_synthetic(70, 0.2, "homophily", 5)
        oracle = Oracle(world, assign_honesty(world, random.Random(1)), scenario, random.Random(2))
        start = world.red_ids()[0]
        state = ObserverState(start, world.n)
        state.ingest(oracle.place_monitor(start))
        rng = random.Random(3)
        for _ in range(30):
            ref_rng = random.Random()
            ref_rng.setstate(rng.getstate())
            want_chosen, want_scores = reference_pick(strategy, start, state, ref_rng)
            decision = pick(strategy, state, rng)
            assert decision.chosen == want_chosen
            assert type(decision.chosen) is int
            assert rng.getstate() == ref_rng.getstate()
            assert scores_of(decision) == want_scores
            state.ingest(oracle.place_monitor(decision.chosen))


class TestDecisionScores:
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn", "redlearn"])
    def test_scores_keep_pick_time_values_across_ingest(self, strategy):
        world = generate_synthetic(60, 0.2, "homophily", 9)
        oracle = Oracle(world, [0.4] * world.n, LyingScenario.LS1, random.Random(0))
        start = world.red_ids()[0]
        state = ObserverState(start, world.n)
        state.ingest(oracle.place_monitor(start))
        model = identity_model(np.ones(9) * 0.3, bias=-0.2)
        rng = random.Random(6)
        for _ in range(8):
            cands = state.candidates()
            if strategy == "redlearn":
                want = dict(zip(cands, predict_many(model, state.feature_rows(state.frontier())).tolist()))
            else:
                want = reference_pick(strategy, start, state, random.Random(0))[1]
            decision = pick(strategy, state, rng, model=model)
            assert len(decision.scores) == len(cands)
            state.ingest(oracle.place_monitor(decision.chosen))
            assert scores_of(decision) == want
            assert list(scores_of(decision)) == cands

    def test_scores_are_read_only(self, four_candidate_state):
        decision = pick("mrn", four_candidate_state, random.Random(0))
        with pytest.raises(FrozenInstanceError):
            decision.scores = np.zeros(4)
        assert scores_of(decision) == {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}


SCAN_SCORES = {
    "sr": lambda say: np.zeros(len(say), dtype=np.int64),
    "rs": lambda say: say[:, RSR] + say[:, BSR],
    "mrsr": lambda say: say[:, RSR],
    "mrn": lambda say: say[:, RSR] + say[:, RSB],
}


def assert_kept_equals_scan(kept, strategy, state):
    """The kept scores and top ids are what a from-scratch frontier scan gives."""
    cands = state.frontier()
    scores = SCAN_SCORES[strategy](state.say[cands])
    want = np.full(len(state.color), -1, dtype=np.int64)
    want[cands] = scores
    assert kept.score.dtype == np.int64
    assert np.array_equal(kept.score, want)
    top = int(scores.max()) if len(cands) else -1
    assert kept.top == top
    assert kept.top_ids == cands[scores == top].tolist()
    assert all(type(v) is int for v in kept.top_ids)
    assert kept.below_ids is None or kept.below_ids == cands[scores == top - 1].tolist()


def crawl_against_scan(world, strategy, scenario, start, steps, seed=0):
    """Run `steps` kept-score picks from `start`, checking the kept scores
    against a scan and each draw against `reference_pick` before it is
    monitored; return the monitored ids."""
    oracle = Oracle(world, assign_honesty(world, random.Random(seed)), scenario, random.Random(seed + 1))
    state = ObserverState(start, world.n)
    state.ingest(oracle.place_monitor(start))
    kept = CountingScores(strategy, state)
    rng = random.Random(seed + 2)
    for _ in range(steps):
        assert_kept_equals_scan(kept, strategy, state)
        if not len(state.frontier()):
            with pytest.raises(ExplorationExhausted):
                kept.choose(rng)
            break
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        want_chosen, _ = reference_pick(strategy, start, state, ref_rng)
        chosen = kept.choose(rng)
        assert chosen == want_chosen and type(chosen) is int
        assert rng.getstate() == ref_rng.getstate()
        report = oracle.place_monitor(chosen)
        state.ingest(report)
        kept.update(report)
    return list(state.reports)


class TestCountingScoresMatchScan:
    # The n=150 no_homophily crawl is the one where many silent reports
    # arrive while the top score is 0 under mrsr and mrn.
    @pytest.mark.parametrize("mode, n", [pytest.param("homophily", 50, id="homophily"),
                                         pytest.param("no_homophily", 50, id="no_homophily"),
                                         pytest.param("structural_signal", 50, id="structural_signal"),
                                         pytest.param("no_homophily", 150, id="no_homophily-n150")])
    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_every_step_of_a_synthetic_crawl(self, strategy, scenario, mode, n):
        world = generate_synthetic(n, 0.2, mode, 6)
        start = world.red_ids()[1]
        monitored = crawl_against_scan(world, strategy, scenario, start, steps=35, seed=11)
        assert len(monitored) > 20

    @pytest.mark.parametrize("path", ["array", "scalar"])
    @pytest.mark.parametrize("mode, n", [pytest.param("homophily", 50, id="homophily"),
                                         pytest.param("no_homophily", 150, id="no_homophily-n150")])
    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_every_step_of_a_synthetic_crawl_on_each_path(self, strategy, scenario, mode, n, path, monkeypatch):
        force_path(monkeypatch, path)
        world = generate_synthetic(n, 0.2, mode, 6)
        assert len(crawl_against_scan(world, strategy, scenario, world.red_ids()[1], steps=35, seed=11)) > 20

    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_component_exhausts_before_the_budget(self, strategy):
        # start 0's component is a red triangle with a blue tail; 6-9 are unreachable
        world = make_world(10, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (8, 9)],
                           red={0, 1, 2, 6})
        monitored = crawl_against_scan(world, strategy, LyingScenario.LS1, 0, steps=10)
        assert sorted(monitored) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_start_without_neighbors(self, strategy):
        world = make_world(4, [(1, 2), (2, 3)], red={0, 1})
        assert crawl_against_scan(world, strategy, LyingScenario.LS2, 0, steps=3) == [0]

    @pytest.mark.parametrize("strategy", ["sr", "rs", "mrsr", "mrn"])
    def test_silent_speakers_are_those_no_column_scores(self, strategy, four_candidate_state):
        for speaker, columns in ((RED, [RSR, RSB]), (BLUE, [BSR, BSB])):
            say = np.zeros((len(columns), 4), dtype=np.int64)
            say[range(len(columns)), columns] = 1  # one claim in each of the speaker's columns
            assert (speaker in _SILENT_SPEAKERS[strategy]) == (not SCAN_SCORES[strategy](say).any())
        kept = CountingScores(strategy, four_candidate_state)
        assert kept.silent is _SILENT_SPEAKERS[strategy]  # the module's table, not one per instance

    @pytest.mark.parametrize("strategy", ["rs", "mrsr", "mrn"])
    def test_a_fallen_top_takes_the_kept_level_below(self, strategy, monkeypatch):
        # crawl_against_scan checks the kept level below the top at every step;
        # here some tops fall to it instead of to a scan.
        rebuild, kept_level = CountingScores._rebuild, []

        def counted(kept):
            kept_level.append(bool(kept.below_ids))
            rebuild(kept)

        monkeypatch.setattr(CountingScores, "_rebuild", counted)
        world = generate_synthetic(150, 0.2, "no_homophily", 6)
        crawl_against_scan(world, strategy, LyingScenario.LS1, world.red_ids()[1], steps=60, seed=11)
        assert any(kept_level)

    def test_monitoring_a_node_below_the_top_leaves_the_kept_level(self):
        # rs counts says-red claims: 0 puts 1, 2, 3 at the top (1); 1's report
        # raises 2 by one, so 3 is the kept level below. Monitoring 3, off the
        # top, must take it out of that level before the top falls to it.
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED, 3: Color.RED, 4: Color.BLUE}))
        kept = CountingScores("rs", state)
        for step in (report(1, Color.RED, {0: Color.RED, 2: Color.RED, 5: Color.BLUE}),
                     report(3, Color.BLUE, {0: Color.RED, 6: Color.BLUE}),
                     report(2, Color.RED, {0: Color.RED, 1: Color.RED, 7: Color.BLUE})):
            state.ingest(step)
            kept.update(step)
            assert_kept_equals_scan(kept, "rs", state)
            if step.target == 1:
                assert (kept.top, kept.top_ids, kept.below_ids) == (2, [2], [3])
        assert (kept.top, kept.top_ids) == (0, [4, 5, 6, 7])

    def test_silent_report_on_the_last_top_id_rebuilds(self):
        # mrsr weighs only red-says-red: 0 calls 1 red and 2, 3 blue, so 1 alone
        # tops at 1. Blue 1's report is silent and takes the last top id.
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE, 3: Color.BLUE}))
        kept = CountingScores("mrsr", state)
        assert (kept.top, kept.top_ids) == (1, [1])
        for step in (report(1, Color.BLUE, {0: Color.RED, 2: Color.RED, 5: Color.RED}),
                     report(2, Color.BLUE, {1: Color.RED, 3: Color.RED, 4: Color.BLUE})):
            assert step.color in kept.silent
            state.ingest(step)
            kept.update(step)
            assert_kept_equals_scan(kept, "mrsr", state)
        # the rebuild put 2, 3, 5 at the top; the second report, at top 0, added 4
        assert (kept.top, kept.top_ids) == (0, [3, 4, 5])

    @pytest.mark.parametrize("path", ["array", "scalar"])
    @pytest.mark.parametrize("strategy", ["rs", "mrsr"])
    def test_ls1_reports_with_no_red_claim_on_each_path(self, strategy, path, monkeypatch):
        # rs and mrsr sum only says-red columns, so under LS1 a report that calls
        # no neighbor red raises no score, from a red or a blue speaker; it
        # only puts its newly observed neighbors on the frontier at 0.
        force_path(monkeypatch, path)
        state = ObserverState(0, 10)
        kept = CountingScores(strategy, state)
        steps = [report(0, Color.RED, {1: Color.RED, 2: Color.BLUE, 3: Color.RED}),
                 report(1, Color.RED, {0: Color.BLUE, 2: Color.BLUE, 4: Color.BLUE, 5: Color.BLUE}),
                 report(3, Color.BLUE, {0: Color.BLUE, 2: Color.BLUE, 6: Color.BLUE}),
                 report(2, Color.BLUE, {1: Color.BLUE, 3: Color.BLUE, 4: Color.RED, 7: Color.BLUE})]
        for step in steps:
            state.ingest(step)
            kept.update(step)
            assert_kept_equals_scan(kept, strategy, state)
        # the reports with no red claim put 4, 5 and 6 on the frontier at 0; only rs scores blue 2's claim on 4
        assert (kept.top, kept.top_ids) == ((1, [4]) if strategy == "rs" else (0, [4, 5, 6, 7]))

    @pytest.mark.parametrize("strategy", ["redlearn", "bfs"])
    def test_only_counting_strategies_are_kept(self, strategy, four_candidate_state):
        with pytest.raises(ValueError, match="not a counting strategy"):
            CountingScores(strategy, four_candidate_state)

    def test_state_is_not_changed(self, four_candidate_state):
        # The reads, not the buffers: reading `say` may fold pending reports into
        # the private counters. They are read from a copy, so the state the kept
        # scores are built on still holds its report unfolded.
        reads = ("say", "verified_counts", "triangles", "color", "on_frontier")
        untouched = copy.deepcopy(four_candidate_state)
        kept = CountingScores("mrn", four_candidate_state)
        kept.choose(random.Random(0))
        kept.decision(1)
        for name in reads:
            assert np.array_equal(getattr(four_candidate_state, name), getattr(untouched, name)), name

    def test_decision_is_a_snapshot(self, four_candidate_state):
        kept = CountingScores("mrn", four_candidate_state)
        decision = kept.decision(kept.choose(random.Random(0)))
        report_on_2 = report(2, Color.RED, {0: Color.RED, 5: Color.RED})
        four_candidate_state.ingest(report_on_2)
        kept.update(report_on_2)
        assert scores_of(decision) == {1: 1, 2: 1, 3: 1, 4: 1}
        assert scores_of(kept.decision(5)) == {1: 1, 3: 1, 4: 1, 5: 1}


class TestRedlearnRunKeepsOneRanking:
    # Reds cluster on this homophily world, so mrn monitors reds for many
    # steps: the first 32 picks are fallback draws, the rest fitted picks.
    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    def test_fallback_draws_are_picks_then_fitted_picks_follow(self, scenario, monkeypatch):
        built, models, steps, updates = [], [], [], []
        real_fit, real_pick = harness.fit, harness.pick

        class Recorded(CountingScores):
            def __init__(self, strategy, state):
                super().__init__(strategy, state)
                built.append(strategy)

            def update(self, report):
                updates.append(report.target)
                super().update(report)

            def choose(self, rng):
                # before the placement: the kept scores are a scan's and the draw is pick's
                assert_kept_equals_scan(self, "mrn", self.state)
                assert models[-1].fallback
                ref_rng = random.Random()
                ref_rng.setstate(rng.getstate())
                want = pick("redlearn", self.state, ref_rng, models[-1])
                chosen = super().choose(rng)
                assert chosen == want.chosen and type(chosen) is int
                assert rng.getstate() == ref_rng.getstate()
                steps.append(("kept", want))
                return chosen

        def fitted_pick(strategy, state, rng, model=None):
            assert strategy == "redlearn" and not model.fallback
            decision = real_pick(strategy, state, rng, model)
            steps.append(("pick", decision))
            return decision

        def audit(state, decision):
            source, want = steps[-1]
            if source == "kept":
                assert decision.chosen == want.chosen
                assert np.array_equal(decision.candidates, want.candidates)
                assert np.array_equal(decision.scores, want.scores)
                assert decision.scores.dtype == want.scores.dtype
            else:
                assert decision is want

        monkeypatch.setattr(harness, "CountingScores", Recorded)
        monkeypatch.setattr(harness, "fit", lambda data: models.append(real_fit(data)) or models[-1])
        monkeypatch.setattr(harness, "pick", fitted_pick)
        world = generate_synthetic(150, 0.2, "homophily", 6)
        trace = harness.run_single(world, "redlearn", scenario, world.red_ids()[0], 17, budget=60,
                                   retrain_every=4, step_callback=audit)
        sources = [source for source, _ in steps]
        assert [want.chosen for _, want in steps] == trace.nodes[1:].tolist()
        assert built == ["mrn"]
        assert sources == ["kept"] * 32 + ["pick"] * 27
        # the kept scores took the start's report and each fallback draw's, then no more
        assert updates == trace.nodes[:33].tolist()
        assert sum(not m.fallback for m in models) > 1  # past the first fitted refit
