"""Observer state bookkeeping, trust table, and feature extraction."""

import copy
import random

import numpy as np
import pytest

from redcrawl import (
    FEATURE_NAMES,
    Color,
    LyingScenario,
    MonitorReport,
    ObserverState,
    Oracle,
    generate_synthetic,
    run_single,
)
from redcrawl.graph import BLUE, RED
from helpers import (
    brute_features,
    brute_knowledge,
    brute_trust,
    brute_verified,
    monitored_of,
    named,
    observed_of,
    ordered_inferred_red,
    replay,
    report,
    same_arrays,
    verified_dict,
)

INFERRED_RED = FEATURE_NAMES.index("inferred_red")


def ids(*values):
    return np.array(values, dtype=np.intp)


def codes(*values):
    return np.array(values, dtype=np.int8)


def crawl(world, honesty, scenario, start, n_monitors, seed):
    """Random legal crawl; returns the resulting state."""
    oracle = Oracle(world, honesty, scenario, random.Random(seed))
    state = ObserverState(start, world.n)
    state.ingest(oracle.place_monitor(start))
    rng = random.Random(seed + 1)
    while len(state.reports) < n_monitors:
        cands = state.candidates()
        if not cands:
            break
        state.ingest(oracle.place_monitor(rng.choice(cands)))
    return state


class TestIngest:
    def test_start_report_bookkeeping(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE, 3: Color.BLUE}))
        assert observed_of(state) == {0, 1, 2, 3}
        _, edges, _, statements = brute_knowledge(0, state.reports.values())
        assert edges == {(0, 1), (0, 2), (0, 3)}
        assert monitored_of(state) == {0: Color.RED}
        assert len(statements) == 3
        assert state.candidates() == [1, 2, 3]

    # as an index a bool masks the whole array: True would put every node on the frontier
    @pytest.mark.parametrize("start", [-1, -3, 1.5, True, np.True_])
    def test_negative_start_rejected(self, start):
        with pytest.raises(ValueError, match=rf"start node {start} is not a node id"):
            ObserverState(start, 10)

    def test_double_ingest_rejected(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        with pytest.raises(ValueError, match="already monitored"):
            state.ingest(report(0, Color.RED, {1: Color.BLUE}))

    def test_unobserved_target_rejected(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        with pytest.raises(ValueError, match="not been observed"):
            state.ingest(report(9, Color.BLUE, {0: Color.RED}))

    @pytest.mark.parametrize("target", [-1, 2, 10**6])
    def test_target_outside_the_arrays_rejected(self, target):
        state = ObserverState(0, 2)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        with pytest.raises(ValueError, match="has not been observed"):
            state.ingest(report(target, Color.BLUE, {0: Color.RED}))
        assert observed_of(state) == {0, 1}

    @pytest.mark.parametrize("neighbors, statements, match, color", [
        (ids(-1, 2), codes(RED, RED), r"names a neighbor outside \[0, 4\)", RED),
        (ids(2, 4), codes(RED, RED), r"names a neighbor outside \[0, 4\)", RED),
        (ids(0, 2), codes(RED), "has 1 statements for 2 neighbors", RED),
        (ids(0, 1), codes(RED, RED), "lists the node itself among its neighbors", RED),
        (ids(0, 1), codes(BLUE, BLUE), "lists the node itself among its neighbors", BLUE),
        (ids(3, -1, 2), codes(RED, RED, RED), "do not strictly ascend", RED),
        (ids(2, 2), codes(RED, RED), "do not strictly ascend", RED),
        (ids(0, 2), codes(RED, 2), r"statement code outside \{0, 1\}", RED),
        (ids(0, 2), codes(2, BLUE), r"statement code outside \{0, 1\}", BLUE),
        (ids(0, 2), codes(-1, RED), r"statement code outside \{0, 1\}", BLUE),
        (np.array([0.0, 2.0]), codes(RED, RED), "flat arrays", RED),
        (ids(0, 2).reshape(2, 1), codes(RED, RED), "flat arrays", RED),
        (ids(0, 2), np.array([256, RED], dtype=np.int64), "flat arrays", RED),
    ], ids=["negative_neighbor", "neighbor_at_n", "short_statements", "red_lists_itself",
            "blue_lists_itself", "unsorted_with_negative", "repeated_neighbor",
            "code_2_red_target", "code_2_blue_target", "negative_code",
            "float_neighbors", "2d_neighbors", "int64_code_256"])
    def test_malformed_report_rejected_before_any_write(self, neighbors, statements, match, color):
        state = ObserverState(0, 4)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE}))
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match=match):
            # a malformed report is rejected when built, or else by ingest
            state.ingest(MonitorReport(1, color, neighbors, statements))
        assert same_arrays(state, before)
        assert np.array_equal(state.verified_counts, before.verified_counts)
        assert list(state.reports) == [0]
        # nothing was half-written, so a well-formed report on 1 still goes in
        state.ingest(report(1, Color.RED, {0: Color.RED, 2: Color.RED}))
        assert list(state.reports) == [0, 1]

    def test_verification_when_subject_monitored_later(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE}))
        assert sum(verified_dict(state.verified_counts).values()) == 0
        # 1 turns out blue, so (red speaker, said red, blue subject) += 1
        state.ingest(report(1, Color.BLUE, {0: Color.BLUE}))
        assert verified_dict(state.verified_counts)[(Color.RED, Color.RED, Color.BLUE)] == 1
        # 1's own claim about 0 verifies immediately (0 already monitored)
        assert verified_dict(state.verified_counts)[(Color.BLUE, Color.BLUE, Color.RED)] == 1
        assert sum(verified_dict(state.verified_counts).values()) == 2

        # A blue speaker also claims 1 before 1 is monitored, so monitoring
        # 1 verifies claims from a red and a blue speaker at once.
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE}))
        state.ingest(report(2, Color.BLUE, {0: Color.RED, 1: Color.RED}))
        before = verified_dict(state.verified_counts)
        state.ingest(report(1, Color.BLUE, {0: Color.BLUE, 2: Color.BLUE}))
        after = verified_dict(state.verified_counts)
        gained = {k: n - before[k] for k, n in after.items() if n != before[k]}
        assert gained == {
            (Color.RED, Color.RED, Color.BLUE): 1,  # 0 called 1 red
            (Color.BLUE, Color.RED, Color.BLUE): 1,  # 2 called 1 red
            (Color.BLUE, Color.BLUE, Color.RED): 1,  # 1 called 0 blue
            (Color.BLUE, Color.BLUE, Color.BLUE): 1,  # 1 called 2 blue
        }
        _, _, monitored, statements = brute_knowledge(0, state.reports.values())
        assert verified_dict(state.verified_counts) == brute_verified(monitored, statements)

    def test_monotone_growth(self):
        world = generate_synthetic(50, 0.2, "homophily", 3)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        state = ObserverState(0, world.n)
        prev_nodes, prev_edges, prev_stmts = 0, 0, 0
        rng = random.Random(1)
        state.ingest(oracle.place_monitor(0))
        for _ in range(15):
            cands = state.candidates()
            if not cands:
                break
            state.ingest(oracle.place_monitor(rng.choice(cands)))
            _, edges, _, statements = brute_knowledge(0, state.reports.values())
            assert len(observed_of(state)) >= prev_nodes
            assert len(edges) >= prev_edges
            assert len(statements) >= prev_stmts
            prev_nodes = len(observed_of(state))
            prev_edges = len(edges)
            prev_stmts = len(statements)


class TestConditionalTrust:
    def test_symmetric_prior_with_no_evidence(self):
        state = ObserverState(0, 10)
        for speaker_color in Color:
            for said in Color:
                assert state.trust()[speaker_color.code, said.code] == 0.5

    def test_smoothed_ratio(self):
        state = ObserverState(0, 10)
        state.verified_counts[RED, RED, RED] = 3
        state.verified_counts[RED, RED, BLUE] = 1
        assert state.trust()[RED, RED] == pytest.approx(2 / 3)

    def test_approaches_raw_ratio(self):
        state = ObserverState(0, 10)
        state.verified_counts[RED, RED, RED] = 100
        assert state.trust()[RED, RED] == pytest.approx(101 / 102)
        assert state.trust()[RED, RED] >= 0.99 * (101 / 102)

    def test_every_cell_equals_the_python_int_ratio_bit_for_bit(self):
        rng = random.Random(11)
        state = ObserverState(0, 10)
        for _ in range(200):
            counts = [rng.choice((0, 1, 7, rng.randrange(10**6), rng.randrange(2**40)))
                      for _ in range(8)]
            state.verified_counts[...] = np.array(counts).reshape(2, 2, 2)
            trust = state.trust()
            assert trust.shape == (2, 2)
            for sp in (RED, BLUE):
                for said in (RED, BLUE):
                    r, b = counts[4 * sp + 2 * said], counts[4 * sp + 2 * said + 1]
                    assert trust[sp, said] == (r + 1) / (r + b + 2)


class TestInferredRedProbability:
    def test_no_statements_gives_half(self):
        # the start node is observed before any report names it
        assert ObserverState(9, 10).features(9)[INFERRED_RED] == 0.5

    def test_single_statement_passes_trust_through(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        expected = state.trust()[RED, RED]
        assert state.features(1)[INFERRED_RED] == pytest.approx(expected)

    def test_mean_of_two_trust_cells(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED}))
        state.ingest(report(2, Color.BLUE, {0: Color.BLUE, 1: Color.BLUE}))
        # craft the table so red-say-red trust is 0.8 and blue-say-blue is 0.4
        state.verified_counts[...] = 0
        state.verified_counts[RED, RED, RED] = 7
        state.verified_counts[RED, RED, BLUE] = 1
        state.verified_counts[BLUE, BLUE, RED] = 1
        state.verified_counts[BLUE, BLUE, BLUE] = 2
        assert state.trust()[RED, RED] == pytest.approx(0.8)
        assert state.trust()[BLUE, BLUE] == pytest.approx(0.4)
        assert state.features(1)[INFERRED_RED] == pytest.approx(0.6)


class TestFeatures:
    def test_unknown_candidate_all_defaults(self):
        fv = ObserverState(5, 10).features(5)
        assert tuple(fv.tolist()) == (0, 0, 0, 0, 0, 0, 0, 0, 0.5)

    def test_two_red_neighbors_with_shared_edge(self):
        # candidate 3 adjacent to monitored reds 0 and 1; 0-1 edge observed
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED, 3: Color.RED}))
        state.ingest(report(1, Color.RED, {0: Color.RED, 3: Color.RED}))
        fv = named(state.features(3))
        assert fv["red_neighbors"] == 2
        assert fv["blue_neighbors"] == 0
        assert fv["red_triangles"] == 1
        assert fv["red_score"] == 2
        assert fv["red_say_red"] == 2
        assert fv["red_say_blue"] == 0

    def test_statement_partition_sums_to_speaker_count(self):
        world = generate_synthetic(50, 0.25, "homophily", 6)
        start = world.red_ids()[0]
        state = crawl(world, [0.4] * world.n, LyingScenario.LS1, start, 20, seed=3)
        _, _, monitored, statements = brute_knowledge(start, state.reports.values())
        for v in state.candidates():
            fv = named(state.features(v))
            speakers = sum(1 for (s, subj) in statements if subj == v and s in monitored)
            assert fv["red_say_red"] + fv["red_say_blue"] + fv["blue_say_red"] + fv["blue_say_blue"] == speakers
            assert fv["red_say_red"] + fv["red_say_blue"] <= fv["red_neighbors"]
            assert fv["blue_say_red"] + fv["blue_say_blue"] <= fv["blue_neighbors"]

    def test_features_error_cases(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        with pytest.raises(ValueError, match="observed"):
            state.features(42)

    @pytest.mark.parametrize("nodes", [[-1], [0, 10**6], [1, -1], [1, 2], [1.9], [0, 1.0]])
    def test_ids_outside_the_observed_set_rejected(self, nodes):
        match = "must be integers" if isinstance(nodes[-1], float) else "has not been observed"
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        with pytest.raises(ValueError, match=match):
            state.features_matrix(nodes)
        with pytest.raises(ValueError, match=match):
            state.features(nodes[-1])

    def test_no_ids_give_no_rows(self):
        state = ObserverState(0, 10)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        assert state.features_matrix([]).shape == (0, 9)
        assert state.features_matrix(np.array([], dtype=np.intp)).shape == (0, 9)

    def test_triangle_count_never_exceeds_world_count(self):
        world = generate_synthetic(60, 0.3, "homophily", 2)
        state = crawl(world, [0.5] * world.n, LyingScenario.LS1, world.red_ids()[0], 25, seed=9)
        for v in state.candidates():
            fv = named(state.features(v))
            red_nbrs = [
                u for u in world.adjacency[v]
                if world.colors[u] is Color.RED
            ]
            world_triangles = sum(
                1
                for i, u in enumerate(red_nbrs)
                for w in red_nbrs[i + 1:]
                if w in world.adjacency[u]
            )
            assert fv["red_triangles"] <= world_triangles


class TestBruteForceEquivalence:
    def test_state_and_features_match_definitional_recount(self):
        for seed in range(8):
            world = generate_synthetic(50, 0.2, "homophily", seed)
            start = world.red_ids()[0]
            state = crawl(world, [0.45] * world.n, LyingScenario.LS1, start, 20, seed=seed + 100)

            observed, edges, monitored, statements = brute_knowledge(start, state.reports.values())
            assert observed_of(state) == observed
            assert monitored_of(state) == monitored
            verified = brute_verified(monitored, statements)
            assert verified_dict(state.verified_counts) == verified
            for speaker_color in Color:
                for said in Color:
                    assert state.trust()[speaker_color.code, said.code] == pytest.approx(
                        brute_trust(verified, speaker_color, said)
                    )
            cands = state.candidates()
            for v, row in zip(cands, state.features_matrix(cands).tolist()):
                want = brute_features(v, edges, monitored, statements, verified)
                got = tuple(state.features(v).tolist())
                assert got == pytest.approx(want)
                assert tuple(row) == pytest.approx(want)
                assert tuple(row) == got
                assert row[8] == ordered_inferred_red(*want[4:8], verified)

    def test_replay_reproduces_state(self):
        world = generate_synthetic(40, 0.2, "homophily", 4)
        start = world.red_ids()[0]
        state = crawl(world, [0.5] * world.n, LyingScenario.LS2, start, 15, seed=5)
        again = replay(start, world.n, state.reports.values())
        assert observed_of(again) == observed_of(state)
        assert monitored_of(again) == monitored_of(state)
        assert same_arrays(again, state)
        assert np.array_equal(again.verified_counts, state.verified_counts)
        for v in state.candidates():
            assert np.array_equal(again.features(v), state.features(v))


class TestRedTriangles:
    def test_init_stores_only_the_reports_and_counters(self):
        assert set(vars(ObserverState(3, 10))) == {
            "reports", "say", "triangles", "color", "on_frontier", "verified_counts"}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_triangles_match_recount_on_a_red_chasing_crawl(self, seed):
        # mrn chases reds, so red targets meet many monitored red neighbors
        world = generate_synthetic(200, 0.2, "homophily", seed)
        states = []
        run_single(world, "mrn", LyingScenario.LS1, world.red_ids()[0], seed, 30,
                   step_callback=lambda state, _: states.append(state))
        state = states[-1]
        reports = state.reports
        nbrs = {t: set(r.neighbors.tolist()) for t, r in reports.items()}
        reds = [t for t, r in reports.items() if r.color == RED]
        want = np.zeros_like(state.triangles)
        for v in range(len(want)):
            mates = [r for r in reds if v in nbrs[r]]
            want[v] = sum(1 for i, u in enumerate(mates) for w in mates[i + 1:] if w in nbrs[u])
        assert np.array_equal(state.triangles, want)
        monitored = list(reports)
        assert want[monitored].max() >= 3 and want[state.candidates()].max() >= 3


def test_dump_report_log(tmp_path):
    import json

    state = ObserverState(0, 10)
    state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE}))
    path = tmp_path / "reports.jsonl"
    state.dump_report_log(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["target"] == 0
    assert entry["true_color"] == "red"
    assert entry["neighbors"] == [1, 2]
    assert {s["subject"]: s["said"] for s in entry["statements"]} == {1: "red", 2: "blue"}
    assert lines[0] == (
        '{"target": 0, "true_color": "red", "neighbors": [1, 2], '
        '"statements": [{"subject": 1, "said": "red"}, {"subject": 2, "said": "blue"}]}'
    )


def brute_frontier(start, reports):
    observed, _, monitored, _ = brute_knowledge(start, reports)
    return sorted(observed - set(monitored))


class TestIncrementalFrontier:
    @pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
    def test_candidates_match_brute_frontier_after_every_ingest_and_replay(self, scenario):
        for seed in range(4):
            world = generate_synthetic(60, 0.2, "homophily", seed)
            oracle = Oracle(world, [0.45] * world.n, scenario, random.Random(seed))
            start = world.red_ids()[-1]
            state = ObserverState(start, world.n)
            assert state.candidates() == [start]
            rng = random.Random(seed + 50)
            while len(state.reports) < 30 and state.candidates():
                state.ingest(oracle.place_monitor(rng.choice(state.candidates())))
                assert state.candidates() == brute_frontier(start, state.reports.values())
            again = replay(start, world.n, state.reports.values())
            assert again.candidates() == brute_frontier(start, state.reports.values())
            assert same_arrays(again, state)

    def test_ids_up_to_n_minus_one_are_nodes(self):
        state = ObserverState(0, 5001)
        state.ingest(report(0, Color.RED, {3: Color.BLUE, 1000: Color.RED}))
        state.ingest(report(1000, Color.RED, {0: Color.RED, 3: Color.RED, 5000: Color.BLUE}))
        assert state.candidates() == [3, 5000]
        observed, edges, monitored, statements = brute_knowledge(0, state.reports.values())
        verified = brute_verified(monitored, statements)
        for v, row in zip(state.candidates(), state.features_matrix(state.candidates()).tolist()):
            assert tuple(row) == pytest.approx(brute_features(v, edges, monitored, statements, verified))
        assert named(state.features(3))["red_triangles"] == 1
        # the last id has a row before any report names it, and reads as zeros
        far = ObserverState(10**4, 10**4 + 1)
        assert tuple(far.features(10**4).tolist()) == (0, 0, 0, 0, 0, 0, 0, 0, 0.5)
        assert far.candidates() == [10**4]
