"""Lying model: honesty assignment, lie probabilities, monitor reports."""

import math
import random
import statistics

import numpy as np
import pytest

from redcrawl import (
    Color,
    LyingScenario,
    MonitorReport,
    Oracle,
    assign_honesty,
    generate_synthetic,
)
from redcrawl.graph import BLUE, RED
from helpers import degree, flip, force_path, lie_probability, make_world, reference_honesty


def two_node_world(speaker_color, subject_color, h_speaker, l_speaker=1.0, l_subject=1.0):
    """Speaker 0 and subject 1, one edge; returns (world, honesty)."""
    red = set()
    if speaker_color is Color.RED:
        red.add(0)
    if subject_color is Color.RED:
        red.add(1)
    world = make_world(2, [(0, 1)], red=red, hierarchy=[l_speaker, l_subject])
    return world, [h_speaker, 0.5]


class TestAssignHonesty:
    def test_deterministic(self):
        g = generate_synthetic(50, 0.1, "homophily", 0)
        a = assign_honesty(g, random.Random(123))
        b = assign_honesty(g, random.Random(123))
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, n", [(0, 1), (1, 50), (7, 1000), (123, 26220)])
    def test_matches_the_scalar_clamp_value_for_value(self, seed, n):
        # the same gauss calls in the same order, clamped by np.clip instead of min/max
        g = make_world(n, [])
        rng = random.Random(seed)
        want = [min(1.0, max(0.0, rng.gauss(0.5, 0.125))) for _ in range(n)]
        got = assign_honesty(g, random.Random(seed))
        assert got.shape == (n,) and got.tolist() == want

    @pytest.mark.parametrize("n", [10, 11, 500, 5000])
    @pytest.mark.parametrize("pending", [False, True], ids=["fresh", "gauss_next_pending"])
    def test_bulk_draw_matches_one_gauss_call_per_node(self, n, pending):
        # the same bits, and the rng left as the calls leave it: an odd count
        # keeps its last sine in gauss_next, and a pending one is drawn first
        g = make_world(n, [])
        bulk, loop = random.Random(n), random.Random(n)
        if pending:
            bulk.gauss()
            loop.gauss()
            assert bulk.gauss_next is not None
        got = assign_honesty(g, bulk)
        want = reference_honesty(g, loop)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert bulk.getstate() == loop.getstate()
        assert bulk.gauss_next == loop.gauss_next and type(bulk.gauss_next) is type(loop.gauss_next)
        assert bulk.random() == loop.random()

    def test_empty_world_leaves_a_pending_draw(self):
        rng = random.Random(3)
        rng.gauss()
        pending = rng.gauss_next
        assert assign_honesty(make_world(0, []), rng).shape == (0,)
        assert rng.gauss_next == pending

    def test_distribution_moments(self):
        g = make_world(10_000, [(0, 1)])
        h = assign_honesty(g, random.Random(7))
        assert abs(statistics.fmean(h) - 0.5) < 0.01
        assert abs(statistics.pstdev(h) - 0.125) < 0.01

    def test_clamped_tail_is_tiny(self):
        # P(|draw - 0.5| > 0.5) = 2 * Phi(-4), under one in ten thousand
        g = make_world(10_000, [(0, 1)])
        h = assign_honesty(g, random.Random(11))
        assert all(0.0 <= x <= 1.0 for x in h)
        assert sum(1 for x in h if x in (0.0, 1.0)) < 10


class TestLieProbability:
    def test_fully_honest_never_lies_ls1(self):
        for speaker_color in Color:
            for subject_color in Color:
                g, h = two_node_world(speaker_color, subject_color, h_speaker=1.0)
                assert lie_probability(0, 1, g, h, LyingScenario.LS1) == 0.0

    def test_red_about_red_scales_with_rank_and_caps(self):
        # (1 - 0.5) * 4/2 = 1.0 after the cap
        g, h = two_node_world(Color.RED, Color.RED, h_speaker=0.5, l_speaker=2.0, l_subject=4.0)
        assert lie_probability(0, 1, g, h, LyingScenario.LS1) == 1.0
        # (1 - 0.75) * 2/4 = 0.125, no cap
        g, h = two_node_world(Color.RED, Color.RED, h_speaker=0.75, l_speaker=4.0, l_subject=2.0)
        assert lie_probability(0, 1, g, h, LyingScenario.LS1) == pytest.approx(0.125)

    def test_red_about_blue_is_dishonesty(self):
        g, h = two_node_world(Color.RED, Color.BLUE, h_speaker=0.7, l_speaker=1.0, l_subject=9.0)
        for scenario in LyingScenario:
            assert lie_probability(0, 1, g, h, scenario) == pytest.approx(0.3)

    def test_ls1_blue_speaker_follows_same_rules(self):
        g, h = two_node_world(Color.BLUE, Color.RED, h_speaker=0.8, l_speaker=1.0, l_subject=3.0)
        assert lie_probability(0, 1, g, h, LyingScenario.LS1) == pytest.approx(0.6)
        g, h = two_node_world(Color.BLUE, Color.BLUE, h_speaker=0.8)
        assert lie_probability(0, 1, g, h, LyingScenario.LS1) == pytest.approx(0.2)

    def test_ls2_blue_speaker_fixed_rules(self):
        g, h = two_node_world(Color.BLUE, Color.BLUE, h_speaker=0.0)
        assert lie_probability(0, 1, g, h, LyingScenario.LS2) == 0.0
        g, h = two_node_world(Color.BLUE, Color.RED, h_speaker=1.0)
        assert lie_probability(0, 1, g, h, LyingScenario.LS2) == 1.0

    def test_non_adjacent_pair_rejected(self):
        g = make_world(3, [(0, 1)])
        with pytest.raises(ValueError, match="adjacent"):
            lie_probability(0, 2, g, [0.5] * 3, LyingScenario.LS1)


class TestMonitorReport:
    NEIGHBORS = np.array([1, 3], dtype=np.intp)
    SAID = np.array([BLUE, RED], dtype=np.int8)

    @pytest.mark.parametrize("target, color, match", [
        (1.0, RED, "not an integer node id"),
        ("1", RED, "not an integer node id"),
        (None, RED, "not an integer node id"),
        # as an index a bool masks a whole array: ingest would write many nodes, not one
        (True, RED, "not an integer node id"),
        (np.True_, RED, "not an integer node id"),
        (1, 2, "has color 2"),
        (1, -1, "has color -1"),
        (1, 0.0, "has color 0.0"),
        (1, Color.RED, "has color"),
        (1, True, "has color True"),
    ])
    def test_bad_target_or_color_rejected(self, target, color, match):
        with pytest.raises(ValueError, match=match):
            MonitorReport(target, color, self.NEIGHBORS.copy(), self.SAID.copy())

    @pytest.mark.parametrize("neighbors, statements", [
        ([1, 3], SAID),
        (NEIGHBORS, [BLUE, RED]),
        (NEIGHBORS, SAID.astype(bool)),
        (NEIGHBORS, SAID.astype(np.uint8)),
        (NEIGHBORS, SAID.reshape(2, 1)),
    ])
    def test_arrays_of_another_type_or_shape_rejected(self, neighbors, statements):
        with pytest.raises(ValueError, match="needs flat arrays"):
            MonitorReport(1, RED, neighbors, statements)

    def test_numpy_ints_and_empty_arrays_are_a_report(self):
        rep = MonitorReport(np.int64(4), np.int8(BLUE), np.array([], dtype=np.uint32),
                            np.array([], dtype=np.int8))
        assert (rep.target, rep.color, len(rep.neighbors), len(rep.statements)) == (4, BLUE, 0, 0)


class TestPlaceMonitor:
    def test_honest_world_reports_truth(self):
        g = generate_synthetic(60, 0.2, "homophily", 2)
        oracle = Oracle(g, [1.0] * g.n, LyingScenario.LS1, random.Random(0))
        for target in range(g.n):
            report = oracle.place_monitor(target)
            assert report.color == g.codes[target]
            assert report.neighbors.tolist() == sorted(g.adjacency[target])
            assert report.statements.tolist() == [g.colors[v].code for v in report.neighbors]

    def test_report_neighbors_are_the_worlds_csr_slice(self):
        # a placement neither copies nor sorts: it hands out the world's own slice
        g = generate_synthetic(60, 0.2, "homophily", 2)
        for scenario in LyingScenario:
            oracle = Oracle(g, [0.5] * g.n, scenario, random.Random(0))
            for target in range(g.n):
                report = oracle.place_monitor(target)
                if degree(g, target):  # an isolated node's slice is empty and shares nothing
                    assert np.shares_memory(report.neighbors, g.adjacency[target])

    def test_ls2_blue_target_says_all_blue(self):
        g = generate_synthetic(60, 0.2, "homophily", 2)
        # very dishonest, still forced to say blue
        oracle = Oracle(g, [0.1] * g.n, LyingScenario.LS2, random.Random(0))
        for target in range(g.n):
            if g.colors[target] is Color.BLUE:
                report = oracle.place_monitor(target)
                assert (report.statements == BLUE).all()

    def test_statement_alignment_and_speaker(self):
        g = generate_synthetic(30, 0.2, "homophily", 5)
        oracle = Oracle(g, [0.5] * g.n, LyingScenario.LS1, random.Random(1))
        report = oracle.place_monitor(3)
        assert len(report.statements) == len(report.neighbors)
        for said in report.statements.tolist():
            assert said in (RED, BLUE)
        assert oracle.issued == {3}

    def test_repeat_placement_raises(self):
        g = generate_synthetic(40, 0.2, "homophily", 8)
        oracle = Oracle(g, [0.3] * g.n, LyingScenario.LS1, random.Random(4))
        oracle.place_monitor(5)
        # interleave other placements, then re-ask
        oracle.place_monitor(0)
        oracle.place_monitor(1)
        state = oracle.rng.getstate()
        with pytest.raises(ValueError, match="^node 5 is already monitored$"):
            oracle.place_monitor(5)
        assert oracle.rng.getstate() == state
        assert oracle.issued == {5, 0, 1}

    def test_report_arrays_are_read_only(self):
        g = generate_synthetic(40, 0.2, "homophily", 8)
        oracle = Oracle(g, [0.3] * g.n, LyingScenario.LS1, random.Random(4))
        neighbors, said = np.array([1, 3], dtype=np.intp), np.array([BLUE, RED], dtype=np.int8)
        by_hand = MonitorReport(0, RED, neighbors, said)
        # a hand-built report takes its arrays as they are and locks them
        assert by_hand.neighbors is neighbors and by_hand.statements is said
        # an LS2 blue speaker calls every neighbor blue, in a read-only array too
        quiet = Oracle(g, [0.3] * g.n, LyingScenario.LS2, random.Random(4))
        blues = [v for v in range(g.n) if g.codes[v] == BLUE and len(g.adjacency[v]) > 1][:2]
        ls2_blue = [quiet.place_monitor(v) for v in blues]
        for report in (oracle.place_monitor(5), by_hand, *ls2_blue):
            assert len(report.neighbors) > 0
            with pytest.raises(ValueError, match="read-only"):
                report.neighbors[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                report.statements[0] = 1 - report.statements[0]
            with pytest.raises(ValueError, match="read-only"):
                report.statements.fill(RED)
        for report in ls2_blue:
            assert report.statements.tolist() == [BLUE] * len(report.neighbors)

    @pytest.mark.parametrize("target", [17, 2, -1, 1.5, 1.0, "1", True, np.True_])
    def test_unknown_node_rejected(self, target):
        g, h = two_node_world(Color.RED, Color.BLUE, 0.5)
        oracle = Oracle(g, h, LyingScenario.LS1, random.Random(0))
        with pytest.raises(IndexError, match="out of range"):
            oracle.place_monitor(target)
        assert oracle.issued == set()

    def test_oracle_requires_honesty(self):
        g = make_world(2, [(0, 1)])
        with pytest.raises(ValueError, match="honesty"):
            Oracle(g, [0.5], LyingScenario.LS1, random.Random(0))
        with pytest.raises(ValueError, match="honesty"):
            Oracle(g, [0.5, 1.5], LyingScenario.LS1, random.Random(0))

    @pytest.mark.parametrize("honesty", [
        np.full((2, 1), 0.5),  # would broadcast to one value per node
        np.full((2, 2), 0.5),
        np.array([0.5, np.nan]),
        0.5,
        ["a", 0.5],
        [[0.5], 0.5],
    ], ids=["column", "two_columns", "nan", "scalar", "not_a_number", "ragged"])
    def test_honesty_of_another_shape_or_range_rejected(self, honesty):
        g = make_world(2, [(0, 1)])
        with pytest.raises(ValueError, match=r"^honesty needs one value in \[0, 1\] for each of the 2 nodes$"):
            Oracle(g, honesty, LyingScenario.LS1, random.Random(0))

    def test_honesty_is_a_read_only_copy(self):
        g = make_world(3, [(0, 1)])
        honesty = [0.25, 0.5, 1.0]
        oracle = Oracle(g, honesty, LyingScenario.LS1, random.Random(0))
        honesty[0] = 0.75
        assert oracle.honesty.dtype == np.float64
        assert oracle.honesty.tolist() == [0.25, 0.5, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            oracle.honesty[1] = 0.0
        drawn = assign_honesty(g, random.Random(1))
        want = drawn.tolist()
        oracle = Oracle(g, drawn, LyingScenario.LS1, random.Random(0))
        drawn[:] = 0.0
        assert oracle.honesty.tolist() == want

    def test_issued_is_not_a_constructor_argument(self):
        g = make_world(2, [(0, 1)])
        with pytest.raises(TypeError, match="issued"):
            Oracle(g, [0.5, 0.5], LyingScenario.LS1, random.Random(0), issued=set())

    @pytest.mark.parametrize("scenario", ["ls2", "LS2", None])
    def test_oracle_requires_a_lying_scenario(self, scenario):
        # the text "ls2" is not LyingScenario.LS2, and would silently take LS1's path
        g = make_world(2, [(0, 1)])
        with pytest.raises(ValueError, match=r"not a LyingScenario; LyingScenario\.parse"):
            Oracle(g, [0.5, 0.5], scenario, random.Random(0))

    def test_lie_frequency_matches_probability(self):
        # red speaker about blue subject with H=0.5 lies half the time
        flips = 0
        trials = 10_000
        for i in range(trials):
            g, h = two_node_world(Color.RED, Color.BLUE, h_speaker=0.5)
            oracle = Oracle(g, h, LyingScenario.LS1, random.Random(i))
            if oracle.place_monitor(0).statements[0] == RED:
                flips += 1
        assert abs(flips / trials - 0.5) < 0.015

    def test_lie_frequency_tracks_probability_across_cells(self):
        # star worlds give many iid draws of one (speaker, subject) cell
        rng = random.Random(99)
        for _ in range(20):
            speaker_color = rng.choice(list(Color))
            subject_color = rng.choice(list(Color))
            scenario = rng.choice(list(LyingScenario))
            h = rng.random()
            l_speaker = rng.uniform(0.2, 5.0)
            l_subject = rng.uniform(0.2, 5.0)
            leaves = 2000
            red = {0} if speaker_color is Color.RED else set()
            if subject_color is Color.RED:
                red |= set(range(1, leaves + 1))
            g = make_world(
                leaves + 1,
                [(0, v) for v in range(1, leaves + 1)],
                red=red,
                hierarchy=[l_speaker] + [l_subject] * leaves,
            )
            honesty = [h] + [0.5] * leaves
            p = lie_probability(0, 1, g, honesty, scenario)
            oracle = Oracle(g, honesty, scenario, random.Random(rng.getrandbits(32)))
            report = oracle.place_monitor(0)
            lies = int((report.statements != subject_color.code).sum())
            sigma = math.sqrt(p * (1 - p) / leaves)
            assert abs(lies / leaves - p) <= 3 * sigma + 1e-12


def reference_place_monitor(world, honesty, scenario, rng, target):
    """One lie_probability call and one rng.random() per claim, ascending subject order."""
    neighbors = tuple(sorted(world.adjacency[target]))
    statements = []
    for v in neighbors:
        p = lie_probability(target, v, world, honesty, scenario)
        true = world.colors[v]
        statements.append(flip(true) if rng.random() < p else true)
    return neighbors, tuple(statements)


@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
def test_place_monitor_matches_lie_probability_loop(scenario):
    check_place_monitor_against_lie_probability_loop(scenario)


@pytest.mark.parametrize("path", ["array", "scalar"])
@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
def test_each_path_matches_lie_probability_loop(scenario, path, monkeypatch):
    force_path(monkeypatch, path)
    check_place_monitor_against_lie_probability_loop(scenario)


def check_place_monitor_against_lie_probability_loop(scenario):
    """Every node's report, in a shuffled order, equals the scalar reference's, rng state included."""
    world = generate_synthetic(80, 0.3, "homophily", 5)
    honesty = assign_honesty(world, random.Random(1))
    for v in range(0, world.n, 4):
        honesty[v] = 0.0
    # some red-subject claims have p > 1 before clamping
    clamped = [
        (u, v) for u in range(world.n) for v in world.adjacency[u]
        if world.colors[v] is Color.RED
        and (1.0 - honesty[u]) * world.hierarchy[v] / world.hierarchy[u] > 1.0
    ]
    assert any(world.colors[u] is Color.RED for u, _ in clamped)
    assert any(world.colors[u] is Color.BLUE for u, _ in clamped)

    oracle = Oracle(world, honesty, scenario, random.Random(2))
    ref_rng = random.Random()
    ref_rng.setstate(oracle.rng.getstate())
    order = list(range(world.n))
    random.Random(3).shuffle(order)
    for target in order:
        report = oracle.place_monitor(target)
        want = reference_place_monitor(world, honesty, scenario, ref_rng, target)
        got = (tuple(report.neighbors.tolist()), tuple(map(Color.from_code, report.statements.tolist())))
        assert got == want
        assert oracle.rng.getstate() == ref_rng.getstate()
        assert target in oracle.issued
    assert len(oracle.issued) == world.n


@pytest.mark.parametrize("skip", [0, 3])  # odd getrandbits(32) draws put the stream mid-block
def test_ls2_blue_hub_advances_the_stream_as_one_random_per_claim(skip):
    # Blue hubs 0-4 with 0, 311, 312, 313 and 400 neighbors among leaves 5-404,
    # every third leaf red; 312 doubles take one 624-word Mersenne Twister block.
    sizes = [0, 311, 312, 313, 400]
    edges = [(hub, 5 + i) for hub, k in enumerate(sizes) for i in range(k)]
    world = make_world(405, edges, red=range(5, 405, 3))
    oracle = Oracle(world, [0.5] * world.n, LyingScenario.LS2, random.Random(8))
    for _ in range(skip):
        oracle.rng.getrandbits(32)
    looped = random.Random()
    looped.setstate(oracle.rng.getstate())
    for hub, k in enumerate(sizes):
        said = oracle.place_monitor(hub).statements
        for _ in range(k):
            looped.random()
        assert said.dtype == np.int8 and said.tolist() == [BLUE] * k
        assert not said.flags.writeable
        assert oracle.rng.getstate() == looped.getstate()


@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
@pytest.mark.parametrize("mode", ["homophily", "no_homophily", "structural_signal"])
def test_oracle_reports_pass_the_checks_they_skip(mode, scenario):
    # The oracle builds its reports unchecked; rebuilding each through the
    # checked constructor must pass, so the skipped checks could never fail.
    world = generate_synthetic(60, 0.2, mode, 4)
    honesty = assign_honesty(world, random.Random(5))
    oracle = Oracle(world, honesty, scenario, random.Random(6))
    for target in range(world.n):
        r = oracle.place_monitor(target)
        # before the checked rebuild, which would lock the arrays itself
        assert not r.neighbors.flags.writeable and not r.statements.flags.writeable
        MonitorReport(r.target, r.color, r.neighbors, r.statements)
        state = oracle.rng.getstate()
        with pytest.raises(ValueError, match="already monitored"):
            oracle.place_monitor(target)
        assert oracle.rng.getstate() == state
    assert len(oracle.issued) == world.n


class ScriptedRandom:
    """Stands in for an oracle's random.Random: random() returns `values` in order.

    `getrandbits(k)` skips the next k // 64 values, the random() calls whose
    words it would take, and takes only whole 64-bit draws.
    """

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)

    def getrandbits(self, k):
        if k % 64:
            raise ValueError(f"getrandbits({k}) does not take whole random() draws")
        for _ in range(k // 64):
            next(self.values)
        return 0


@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
def test_lie_thresholds_match_lie_probability_bit_for_bit(scenario):
    check_lie_thresholds_bit_for_bit(scenario)


@pytest.mark.parametrize("path", ["array", "scalar"])
@pytest.mark.parametrize("scenario", [LyingScenario.LS1, LyingScenario.LS2])
def test_each_path_draws_at_lie_probability_bit_for_bit(scenario, path, monkeypatch):
    force_path(monkeypatch, path)
    check_lie_thresholds_bit_for_bit(scenario)


def check_lie_thresholds_bit_for_bit(scenario):
    # A draw equal to p is no lie and the float just below p is one, so a
    # probability one rounding step off lie_probability's flips a claim.
    world = generate_synthetic(80, 0.3, "homophily", 5)
    honesty = assign_honesty(world, random.Random(1))
    for v in range(0, world.n, 4):
        honesty[v] = 0.0
    below_one = math.nextafter(1.0, 0.0)
    for offset in (0.0, -math.inf):
        draws, want = [], []
        for target in range(world.n):
            for v in sorted(world.adjacency[target]):
                p = lie_probability(target, v, world, honesty, scenario)
                # random() returns a float in [0, 1)
                draw = min(max(math.nextafter(p, offset), 0.0) if offset else p, below_one)
                draws.append(draw)
                want.append(flip(world.colors[v]) if draw < p else world.colors[v])
        rng = ScriptedRandom(draws)
        oracle = Oracle(world, honesty, scenario, rng)
        got = [Color.from_code(said) for target in range(world.n)
               for said in oracle.place_monitor(target).statements.tolist()]
        assert got == want
        assert next(rng.values, None) is None
