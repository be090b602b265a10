"""Lying model: honesty assignment, lie probabilities, monitor reports."""

import math
import random
import statistics

import pytest

from redcrawl import (
    Color,
    LyingScenario,
    Oracle,
    assign_honesty,
    generate_synthetic,
    lie_probability,
)
from helpers import make_world


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
        assert a == b

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


class TestPlaceMonitor:
    def test_honest_world_reports_truth(self):
        g = generate_synthetic(60, 0.2, "homophily", 2)
        oracle = Oracle(g, [1.0] * g.n, LyingScenario.LS1, random.Random(0))
        for target in range(g.n):
            report = oracle.place_monitor(target)
            assert report.true_color is g.colors[target]
            assert report.neighbors == tuple(sorted(g.adjacency[target]))
            for v, said in zip(report.neighbors, report.statements):
                assert said is g.colors[v]

    def test_ls2_blue_target_says_all_blue(self):
        g = generate_synthetic(60, 0.2, "homophily", 2)
        # very dishonest, still forced to say blue
        oracle = Oracle(g, [0.1] * g.n, LyingScenario.LS2, random.Random(0))
        for target in range(g.n):
            if g.colors[target] is Color.BLUE:
                report = oracle.place_monitor(target)
                assert all(said is Color.BLUE for said in report.statements)

    def test_statement_alignment_and_speaker(self):
        g = generate_synthetic(30, 0.2, "homophily", 5)
        oracle = Oracle(g, [0.5] * g.n, LyingScenario.LS1, random.Random(1))
        report = oracle.place_monitor(3)
        assert len(report.statements) == len(report.neighbors)
        for nbr, said in zip(report.neighbors, report.statements):
            assert oracle.issued[(3, nbr)] is said
            assert said in (g.colors[nbr], g.colors[nbr].flip())
        assert len(oracle.issued) == len(report.neighbors)

    def test_repeat_placement_returns_cached_report(self):
        g = generate_synthetic(40, 0.2, "homophily", 8)
        oracle = Oracle(g, [0.3] * g.n, LyingScenario.LS1, random.Random(4))
        first = oracle.place_monitor(5)
        # interleave other placements, then re-ask
        oracle.place_monitor(0)
        oracle.place_monitor(1)
        assert oracle.place_monitor(5) == first

    def test_unknown_node_rejected(self):
        g, h = two_node_world(Color.RED, Color.BLUE, 0.5)
        oracle = Oracle(g, h, LyingScenario.LS1, random.Random(0))
        with pytest.raises(ValueError, match="unknown"):
            oracle.place_monitor(17)

    def test_oracle_requires_honesty(self):
        g = make_world(2, [(0, 1)])
        with pytest.raises(ValueError, match="honesty"):
            Oracle(g, [0.5], LyingScenario.LS1, random.Random(0))
        with pytest.raises(ValueError, match="honesty"):
            Oracle(g, [0.5, 1.5], LyingScenario.LS1, random.Random(0))

    def test_lie_frequency_matches_probability(self):
        # red speaker about blue subject with H=0.5 lies half the time
        flips = 0
        trials = 10_000
        for i in range(trials):
            g, h = two_node_world(Color.RED, Color.BLUE, h_speaker=0.5)
            oracle = Oracle(g, h, LyingScenario.LS1, random.Random(i))
            if oracle.place_monitor(0).statements[0] is Color.RED:
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
            lies = sum(1 for said in report.statements if said is not subject_color)
            sigma = math.sqrt(p * (1 - p) / leaves)
            assert abs(lies / leaves - p) <= 3 * sigma + 1e-12
