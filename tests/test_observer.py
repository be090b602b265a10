"""Observer state bookkeeping, trust table, and feature extraction."""

import random

import pytest

from redcrawl import (
    Color,
    LyingScenario,
    MonitorReport,
    ObserverState,
    Oracle,
    generate_synthetic,
)
from helpers import (
    brute_features,
    brute_knowledge,
    brute_trust,
    brute_verified,
    ordered_inferred_red,
)


def report(target, color, neighbor_colors):
    """Hand-rolled report: {neighbor: said_color}."""
    neighbors = tuple(sorted(neighbor_colors))
    return MonitorReport(
        target=target,
        true_color=color,
        neighbors=neighbors,
        statements=tuple(neighbor_colors[v] for v in neighbors),
    )


def crawl(world, honesty, scenario, start, n_monitors, seed):
    """Random legal crawl; returns the resulting state."""
    oracle = Oracle(world, honesty, scenario, random.Random(seed))
    state = ObserverState(start)
    state.ingest(oracle.place_monitor(start))
    rng = random.Random(seed + 1)
    while len(state.monitored) < n_monitors:
        cands = state.candidates()
        if not cands:
            break
        state.ingest(oracle.place_monitor(rng.choice(cands)))
    return state


class TestIngest:
    def test_start_report_bookkeeping(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE, 3: Color.BLUE}))
        assert state.observed_nodes == {0, 1, 2, 3}
        assert state.observed_edges == {(0, 1), (0, 2), (0, 3)}
        assert state.monitored == {0: Color.RED}
        assert len(state.statements) == 3
        assert state.candidates() == [1, 2, 3]

    def test_double_ingest_rejected(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        with pytest.raises(ValueError, match="already monitored"):
            state.ingest(report(0, Color.RED, {1: Color.BLUE}))

    def test_unobserved_target_rejected(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.BLUE}))
        with pytest.raises(ValueError, match="not been observed"):
            state.ingest(report(9, Color.BLUE, {0: Color.RED}))

    def test_verification_when_subject_monitored_later(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE}))
        assert sum(state.verified_counts.values()) == 0
        # 1 turns out blue, so (red speaker, said red, blue subject) += 1
        state.ingest(report(1, Color.BLUE, {0: Color.BLUE}))
        assert state.verified_counts[(Color.RED, Color.RED, Color.BLUE)] == 1
        # 1's own claim about 0 verifies immediately (0 already monitored)
        assert state.verified_counts[(Color.BLUE, Color.BLUE, Color.RED)] == 1
        assert sum(state.verified_counts.values()) == 2

        # A blue speaker also claims 1 before 1 is monitored, so monitoring
        # 1 verifies claims from a red and a blue speaker at once.
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.BLUE}))
        state.ingest(report(2, Color.BLUE, {0: Color.RED, 1: Color.RED}))
        before = dict(state.verified_counts)
        state.ingest(report(1, Color.BLUE, {0: Color.BLUE, 2: Color.BLUE}))
        gained = {k: n - before[k] for k, n in state.verified_counts.items() if n != before[k]}
        assert gained == {
            (Color.RED, Color.RED, Color.BLUE): 1,  # 0 called 1 red
            (Color.BLUE, Color.RED, Color.BLUE): 1,  # 2 called 1 red
            (Color.BLUE, Color.BLUE, Color.RED): 1,  # 1 called 0 blue
            (Color.BLUE, Color.BLUE, Color.BLUE): 1,  # 1 called 2 blue
        }
        assert state.verified_counts == brute_verified(state.monitored, state.statements)

    def test_monotone_growth(self):
        world = generate_synthetic(50, 0.2, "homophily", 3)
        oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS1, random.Random(0))
        state = ObserverState(0)
        prev_nodes, prev_edges, prev_stmts = 0, 0, 0
        rng = random.Random(1)
        state.ingest(oracle.place_monitor(0))
        for _ in range(15):
            cands = state.candidates()
            if not cands:
                break
            state.ingest(oracle.place_monitor(rng.choice(cands)))
            assert len(state.observed_nodes) >= prev_nodes
            assert len(state.observed_edges) >= prev_edges
            assert len(state.statements) >= prev_stmts
            prev_nodes = len(state.observed_nodes)
            prev_edges = len(state.observed_edges)
            prev_stmts = len(state.statements)


class TestConditionalTrust:
    def test_symmetric_prior_with_no_evidence(self):
        state = ObserverState(0)
        for speaker_color in Color:
            for said in Color:
                assert state.conditional_trust(speaker_color, said) == 0.5

    def test_smoothed_ratio(self):
        state = ObserverState(0)
        state.verified_counts[(Color.RED, Color.RED, Color.RED)] = 3
        state.verified_counts[(Color.RED, Color.RED, Color.BLUE)] = 1
        assert state.conditional_trust(Color.RED, Color.RED) == pytest.approx(2 / 3)

    def test_approaches_raw_ratio(self):
        state = ObserverState(0)
        state.verified_counts[(Color.RED, Color.RED, Color.RED)] = 100
        assert state.conditional_trust(Color.RED, Color.RED) == pytest.approx(101 / 102)
        assert state.conditional_trust(Color.RED, Color.RED) >= 0.99 * (101 / 102)


class TestInferredRedProbability:
    def test_no_statements_gives_half(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        state.observed_nodes.add(9)  # observed via nothing but presence
        assert state.inferred_red_probability(9) == 0.5

    def test_single_statement_passes_trust_through(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        expected = state.conditional_trust(Color.RED, Color.RED)
        assert state.inferred_red_probability(1) == pytest.approx(expected)

    def test_mean_of_two_trust_cells(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 2: Color.RED}))
        state.ingest(report(2, Color.BLUE, {0: Color.BLUE, 1: Color.BLUE}))
        # craft the table so red-say-red trust is 0.8 and blue-say-blue is 0.4
        state.verified_counts = {key: 0 for key in state.verified_counts}
        state.verified_counts[(Color.RED, Color.RED, Color.RED)] = 7
        state.verified_counts[(Color.RED, Color.RED, Color.BLUE)] = 1
        state.verified_counts[(Color.BLUE, Color.BLUE, Color.RED)] = 1
        state.verified_counts[(Color.BLUE, Color.BLUE, Color.BLUE)] = 2
        assert state.conditional_trust(Color.RED, Color.RED) == pytest.approx(0.8)
        assert state.conditional_trust(Color.BLUE, Color.BLUE) == pytest.approx(0.4)
        assert state.inferred_red_probability(1) == pytest.approx(0.6)

    def test_monitored_node_rejected(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        with pytest.raises(ValueError, match="monitored"):
            state.inferred_red_probability(0)


class TestFeatures:
    def test_unknown_candidate_all_defaults(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        state.observed_nodes.add(5)
        fv = state.features(5)
        assert fv.as_tuple() == (0, 0, 0, 0, 0, 0, 0, 0, 0.5)

    def test_two_red_neighbors_with_shared_edge(self):
        # candidate 3 adjacent to monitored reds 0 and 1; 0-1 edge observed
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED, 3: Color.RED}))
        state.ingest(report(1, Color.RED, {0: Color.RED, 3: Color.RED}))
        fv = state.features(3)
        assert fv.red_neighbors == 2
        assert fv.blue_neighbors == 0
        assert fv.red_triangles == 1
        assert fv.red_score == 2
        assert fv.red_say_red == 2
        assert fv.red_say_blue == 0

    def test_statement_partition_sums_to_speaker_count(self):
        world = generate_synthetic(50, 0.25, "homophily", 6)
        state = crawl(world, [0.4] * world.n, LyingScenario.LS1, world.red_ids()[0], 20, seed=3)
        for v in state.candidates():
            fv = state.features(v)
            speakers = sum(1 for (s, subj) in state.statements if subj == v and s in state.monitored)
            assert fv.red_say_red + fv.red_say_blue + fv.blue_say_red + fv.blue_say_blue == speakers
            assert fv.red_say_red + fv.red_say_blue <= fv.red_neighbors
            assert fv.blue_say_red + fv.blue_say_blue <= fv.blue_neighbors

    def test_features_error_cases(self):
        state = ObserverState(0)
        state.ingest(report(0, Color.RED, {1: Color.RED}))
        with pytest.raises(ValueError, match="monitored"):
            state.features(0)
        with pytest.raises(ValueError, match="observed"):
            state.features(42)
        assert state.features(0, allow_monitored=True) is not None

    def test_triangle_count_never_exceeds_world_count(self):
        world = generate_synthetic(60, 0.3, "homophily", 2)
        state = crawl(world, [0.5] * world.n, LyingScenario.LS1, world.red_ids()[0], 25, seed=9)
        for v in state.candidates():
            fv = state.features(v)
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
            assert fv.red_triangles <= world_triangles


class TestBruteForceEquivalence:
    def test_state_and_features_match_definitional_recount(self):
        for seed in range(8):
            world = generate_synthetic(50, 0.2, "homophily", seed)
            start = world.red_ids()[0]
            state = crawl(world, [0.45] * world.n, LyingScenario.LS1, start, 20, seed=seed + 100)

            observed, edges, monitored, statements = brute_knowledge(start, state.report_log)
            assert state.observed_nodes == observed
            assert state.observed_edges == edges
            assert state.monitored == monitored
            assert state.statements == statements
            verified = brute_verified(monitored, statements)
            assert state.verified_counts == verified
            for speaker_color in Color:
                for said in Color:
                    assert state.conditional_trust(speaker_color, said) == pytest.approx(
                        brute_trust(verified, speaker_color, said)
                    )
            cands = state.candidates()
            for v, row in zip(cands, state.features_matrix(cands).tolist()):
                want = brute_features(v, edges, monitored, statements, verified)
                got = state.features(v).as_tuple()
                assert got == pytest.approx(want)
                assert tuple(row) == pytest.approx(want)
                assert tuple(row) == got
                assert row[8] == ordered_inferred_red(*want[4:8], verified)

    def test_replay_reproduces_state(self):
        world = generate_synthetic(40, 0.2, "homophily", 4)
        start = world.red_ids()[0]
        state = crawl(world, [0.5] * world.n, LyingScenario.LS2, start, 15, seed=5)
        again = ObserverState.replay(start, state.report_log)
        assert again.observed_nodes == state.observed_nodes
        assert again.observed_edges == state.observed_edges
        assert again.monitored == state.monitored
        assert again.statements == state.statements
        assert again.verified_counts == state.verified_counts
        for v in state.candidates():
            assert again.features(v) == state.features(v)


def test_dump_report_log(tmp_path):
    import json

    state = ObserverState(0)
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
