"""Graph model, loaders, transforms, and synthetic generators."""

import logging
import math
import random

import numpy as np
import pytest

from redcrawl import (
    Color,
    GraphLoadError,
    LyingScenario,
    Oracle,
    WorldGraph,
    count_colors,
    generate_synthetic,
    load_graph,
    remove_red_red_edges,
    save_graph,
)
from helpers import have_noordin, have_pokec, make_world, noordin_paths, pokec_paths


def write_graph_files(tmp_path, edge_text, node_text):
    edge_path = tmp_path / "edges.txt"
    node_path = tmp_path / "nodes.csv"
    edge_path.write_text(edge_text)
    node_path.write_text(node_text)
    return edge_path, node_path


class TestLoadGraph:
    def test_minimal_path_graph(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path,
            "a b\nb c\n",
            "id,color,hierarchy\na,red,2\nb,blue,1\nc,blue,1\n",
        )
        g = load_graph(edge_path, node_path)
        assert g.n == 3
        assert g.num_edges() == 2
        assert count_colors(g) == (1, 2)
        assert g.labels == ("a", "b", "c")
        # a-b-c path under the id mapping
        a, b, c = (g.labels.index(x) for x in "abc")
        assert g.adjacency[b].tolist() == sorted([a, c])
        assert g.hierarchy[a] == 2.0

    def test_hierarchy_column_optional(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "x y\n", "id,color\nx,red\ny,blue\n"
        )
        g = load_graph(edge_path, node_path)
        assert g.hierarchy.tolist() == [1.0, 1.0]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path,
            "# full comment line\n\na b  # trailing comment\n",
            "id,color\na,red\nb,blue\n",
        )
        g = load_graph(edge_path, node_path)
        assert g.num_edges() == 1

    @pytest.mark.parametrize("edge_text,dropped", [
        ("a a\na b\n", "1 self-loop(s) and 0 duplicate edge(s)"),
        ("a a\na a\na b\nb a\n", "2 self-loop(s) and 1 duplicate edge(s)"),
    ])
    def test_self_loop_dropped_with_warning(self, tmp_path, caplog, edge_text, dropped):
        edge_path, node_path = write_graph_files(
            tmp_path, edge_text, "id,color\na,red\nb,blue\n"
        )
        with caplog.at_level(logging.WARNING, logger="redcrawl.graph"):
            g = load_graph(edge_path, node_path)
        assert g.num_edges() == 1
        assert f"dropped {dropped}" in caplog.text

    def test_duplicate_edges_dropped_with_warning(self, tmp_path, caplog):
        edge_path, node_path = write_graph_files(
            tmp_path, "a b\nb a\na b\n", "id,color\na,red\nb,blue\n"
        )
        with caplog.at_level(logging.WARNING, logger="redcrawl.graph"):
            g = load_graph(edge_path, node_path)
        assert g.num_edges() == 1
        assert "2 duplicate edge" in caplog.text

    def test_edge_referencing_unknown_node(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "a ghost\n", "id,color\na,red\n"
        )
        with pytest.raises(GraphLoadError, match="ghost"):
            load_graph(edge_path, node_path)

    def test_bad_color_rejected(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "a b\n", "id,color\na,red\nb,green\n"
        )
        with pytest.raises(GraphLoadError, match="color"):
            load_graph(edge_path, node_path)

    def test_color_case_insensitive(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "a b\n", "id,color\na,RED\nb,Blue\n"
        )
        g = load_graph(edge_path, node_path)
        assert count_colors(g) == (1, 1)

    def test_non_positive_hierarchy_rejected(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "a b\n", "id,color,hierarchy\na,red,0\nb,blue,1\n"
        )
        with pytest.raises(GraphLoadError, match="positive"):
            load_graph(edge_path, node_path)

    @pytest.mark.parametrize("score", ["nan", "inf", "Infinity", "-inf"])
    def test_non_finite_hierarchy_rejected(self, tmp_path, score):
        edge_path, node_path = write_graph_files(
            tmp_path, "a b\nb c\n", f"id,color,hierarchy\nb,blue,1\na,red,{score}\nc,blue,1\n"
        )
        with pytest.raises(GraphLoadError, match=r"nodes\.csv:3: hierarchy score must be positive and finite"):
            load_graph(edge_path, node_path)

    def test_duplicate_node_id_rejected(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "", "id,color\na,red\na,blue\n"
        )
        with pytest.raises(GraphLoadError, match="duplicate"):
            load_graph(edge_path, node_path)

    @pytest.mark.parametrize("bad_id", ["a#2", "a 2", '"a\t2"'])
    def test_node_id_the_edge_file_cannot_name_rejected(self, tmp_path, bad_id):
        # "b a#2" would read as the edge b-a, and "b a 2" as a malformed line
        edge_path, node_path = write_graph_files(
            tmp_path, "b a\n", f"id,color\na,red\n{bad_id},blue\nb,blue\n"
        )
        with pytest.raises(GraphLoadError, match=r"nodes\.csv:3: node id .* contains whitespace or '#'"):
            load_graph(edge_path, node_path)

    def test_malformed_edge_line_rejected(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "a b c\n", "id,color\na,red\nb,blue\nc,blue\n"
        )
        with pytest.raises(GraphLoadError, match="two ids"):
            load_graph(edge_path, node_path)

    def test_loader_deterministic(self, tmp_path):
        edge_path, node_path = write_graph_files(
            tmp_path, "n2 n1\nn1 n3\n", "id,color\nn1,red\nn2,blue\nn3,blue\n"
        )
        assert load_graph(edge_path, node_path) == load_graph(edge_path, node_path)

    def test_round_trip(self, tmp_path):
        g = generate_synthetic(40, 0.2, "homophily", 3)
        edge_path = tmp_path / "e.txt"
        node_path = tmp_path / "n.csv"
        save_graph(g, edge_path, node_path)
        g2 = load_graph(edge_path, node_path)
        assert g2.edges() == g.edges()
        assert np.array_equal(g2.codes, g.codes)
        assert g2.hierarchy.tolist() == g.hierarchy.tolist()
        assert g2.labels == g.labels


class TestRemoveRedRedEdges:
    def test_triangle_example(self):
        # r0-r1, r0-b2, r1-b2: only the red-red edge goes
        g = make_world(3, [(0, 1), (0, 2), (1, 2)], red={0, 1})
        out = remove_red_red_edges(g)
        assert out.edges() == [(0, 2), (1, 2)]
        assert g.edges() == [(0, 1), (0, 2), (1, 2)], "input untouched"

    def test_all_blue_graph_identical(self):
        g = make_world(4, [(0, 1), (1, 2), (2, 3)])
        assert remove_red_red_edges(g) == g

    def test_idempotent(self):
        for seed in range(10):
            g = generate_synthetic(60, 0.25, "homophily", seed)
            once = remove_red_red_edges(g)
            assert remove_red_red_edges(once) == once

    def test_preserves_everything_but_red_red_edges(self):
        g = generate_synthetic(80, 0.3, "homophily", 5)
        out = remove_red_red_edges(g)
        assert out.n == g.n
        assert np.array_equal(out.codes, g.codes)
        assert out.hierarchy.tolist() == g.hierarchy.tolist()
        blue_incident = {e for e in g.edges() if Color.BLUE in (g.colors[e[0]], g.colors[e[1]])}
        assert set(out.edges()) == blue_incident

    @pytest.mark.skipif(not have_noordin(4), reason="Noordin fixture not supplied")
    def test_noordin_coms4(self):
        g = load_graph(*noordin_paths(4))
        out = remove_red_red_edges(g)
        red_red = sum(
            1 for u, v in out.edges()
            if out.colors[u] is Color.RED and out.colors[v] is Color.RED
        )
        assert red_red == 0
        assert count_colors(out)[0] == 18


class TestCountColors:
    def test_empty_graph(self):
        g = WorldGraph(codes=[], hierarchy=[], edges=[])
        assert count_colors(g) == (0, 0)

    def test_red_plus_blue_is_n(self):
        g = generate_synthetic(50, 0.3, "homophily", 1)
        red, blue = count_colors(g)
        assert red + blue == g.n

    @pytest.mark.skipif(not have_noordin(2), reason="Noordin fixture not supplied")
    def test_noordin_coms2_reds(self):
        g = load_graph(*noordin_paths(2))
        assert count_colors(g)[0] == 5

    @pytest.mark.skipif(not have_noordin(1), reason="Noordin fixture not supplied")
    def test_noordin_size(self):
        g = load_graph(*noordin_paths(1))
        assert g.n == 139
        assert g.num_edges() == 1042

    @pytest.mark.skipif(not have_pokec("age"), reason="PokeC fixture not supplied")
    def test_pokec_age_reds(self):
        g = load_graph(*pokec_paths("age"))
        assert g.n == 26_220
        assert count_colors(g)[0] == 1736


class TestGenerateSynthetic:
    def test_deterministic_and_byte_identical(self, tmp_path):
        a = generate_synthetic(100, 0.1, "homophily", 7)
        b = generate_synthetic(100, 0.1, "homophily", 7)
        assert a == b
        save_graph(a, tmp_path / "ea.txt", tmp_path / "na.csv")
        save_graph(b, tmp_path / "eb.txt", tmp_path / "nb.csv")
        assert (tmp_path / "ea.txt").read_bytes() == (tmp_path / "eb.txt").read_bytes()
        assert (tmp_path / "na.csv").read_bytes() == (tmp_path / "nb.csv").read_bytes()

    def test_seeds_differ(self):
        assert generate_synthetic(100, 0.1, "homophily", 1) != generate_synthetic(100, 0.1, "homophily", 2)

    def test_no_homophily_has_no_red_red_edges(self):
        g = generate_synthetic(120, 0.2, "no_homophily", 3)
        assert all(
            Color.RED not in (g.colors[u], g.colors[v]) or g.colors[u] is not g.colors[v]
            for u, v in g.edges()
        )

    def test_no_homophily_matches_transform_of_homophily(self):
        stripped = remove_red_red_edges(generate_synthetic(120, 0.2, "homophily", 3))
        g = generate_synthetic(120, 0.2, "no_homophily", 3)
        for a, b in ((g.indptr, stripped.indptr), (g.indices, stripped.indices),
                     (g.codes, stripped.codes), (g.hierarchy, stripped.hierarchy)):
            assert np.array_equal(a, b)

    def test_homophily_mode_has_red_red_edges(self):
        g = generate_synthetic(120, 0.2, "homophily", 3)
        assert any(
            g.colors[u] is Color.RED and g.colors[v] is Color.RED for u, v in g.edges()
        )

    def test_structural_signal_degree_gap(self):
        g = generate_synthetic(500, 0.05, "structural_signal", 1)
        red_deg = [g.degree(v) for v in range(g.n) if g.colors[v] is Color.RED]
        blue_deg = [g.degree(v) for v in range(g.n) if g.colors[v] is Color.BLUE]
        gap = sum(red_deg) / len(red_deg) - sum(blue_deg) / len(blue_deg)
        assert gap >= 10.0
        assert all(
            g.colors[u] is not Color.RED or g.colors[v] is not Color.RED for u, v in g.edges()
        )

    def test_hierarchy_is_degree_floored_at_one(self):
        g = generate_synthetic(200, 0.1, "homophily", 9)
        assert all(g.hierarchy[v] == max(1, g.degree(v)) for v in range(g.n))

    def test_red_count(self):
        g = generate_synthetic(200, 0.1, "homophily", 4)
        assert count_colors(g)[0] == 20

    @pytest.mark.parametrize(
        "n,frac,mode",
        [(5, 0.1, "homophily"), (100, 0.0, "homophily"), (100, 0.5, "homophily"), (100, 0.1, "ring")],
    )
    def test_bad_parameters(self, n, frac, mode):
        with pytest.raises(ValueError):
            generate_synthetic(n, frac, mode, 0)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            make_world(3, [(0, 1), (1, 1)])

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 2), (1, 0)]])
    def test_repeated_pair_rejected(self, edges):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) given more than once"):
            make_world(3, edges)

    @pytest.mark.parametrize("endpoint", [-1, 3, 10**6])
    def test_out_of_range_endpoint_rejected(self, endpoint):
        with pytest.raises(ValueError, match=f"edge endpoint {endpoint} out of range"):
            make_world(3, [(0, 1), (2, endpoint)])

    @pytest.mark.parametrize("score", [0.0, -1.0, math.nan, math.inf])
    def test_bad_hierarchy_rejected(self, score):
        with pytest.raises(ValueError, match="hierarchy score at node 1 must be positive and finite"):
            make_world(3, [(0, 1), (1, 2)], hierarchy=[1.0, score, 1.0])

    @pytest.mark.parametrize("codes", [[0, 2, 1], [Color.RED, Color.BLUE, Color.BLUE], [[0, 1, 1]]])
    def test_bad_color_codes_rejected(self, codes):
        with pytest.raises(ValueError, match="codes"):
            WorldGraph(codes, [1.0] * 3, [(0, 1)])

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="node count"):
            WorldGraph([0, 1, 1], [1.0, 1.0], [(0, 1)])
        with pytest.raises(ValueError, match="node count"):
            WorldGraph([0, 1], [1.0, 1.0], [(0, 1)], labels=["a"])

    def test_arrays_reject_writes(self, tmp_path):
        edge_path, node_path = write_graph_files(tmp_path, "a b\nb c\n", "id,color\na,red\nb,blue\nc,blue\n")
        source = [1.0, 2.0, 3.0]
        made = make_world(3, [(0, 1), (1, 2)], hierarchy=source)
        source[1] = 5.0  # the world keeps its own copy
        assert made.hierarchy[1] == 2.0
        for g in (made, load_graph(edge_path, node_path), generate_synthetic(40, 0.2, "no_homophily", 1)):
            for array in (g.codes, g.hierarchy, g.indptr, g.indices, g.adjacency[1]):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    def test_adjacency_is_the_csr(self):
        g = make_world(5, [(3, 0), (0, 1), (4, 3), (1, 3)])
        assert g.indptr.tolist() == [0, 2, 4, 4, 7, 8]
        assert g.indices.tolist() == [1, 3, 0, 3, 0, 1, 4, 3]
        assert [g.adjacency[v].tolist() for v in range(g.n)] == [[1, 3], [0, 3], [], [0, 1, 4], [3]]
        assert len(g.adjacency) == 5
        assert [g.degree(v) for v in range(g.n)] == [2, 2, 0, 3, 1]
        assert g.edges() == [(0, 1), (0, 3), (1, 3), (3, 4)]
        with pytest.raises(IndexError):
            g.adjacency[5]
        with pytest.raises(IndexError):
            g.adjacency[-1]

    @pytest.mark.parametrize("v", [-1, 3])
    def test_views_check_bounds(self, v):
        g = make_world(3, [(0, 1), (1, 2)], red={2})
        for view in (g.colors.__getitem__, g.degree):
            with pytest.raises(IndexError, match=f"node id {v} out of range"):
                view(v)
        assert [c.value for c in g.colors] == ["blue", "blue", "red"]

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="label 'a' names more than one node"):
            WorldGraph([0, 1, 1], [1.0] * 3, [(0, 1)], labels=["a", "a", "b"])

    def test_honesty_checked_by_the_oracle(self):
        # per-run honesty lives with the Oracle, which checks its range once
        g = make_world(2, [(0, 1)])
        with pytest.raises(ValueError, match="honesty"):
            Oracle(g, [0.5, 1.5], LyingScenario.LS1, random.Random(0))


def test_color_flip_and_parse():
    assert Color.RED.flip() is Color.BLUE
    assert Color.BLUE.flip() is Color.RED
    assert Color.parse(" Red ") is Color.RED
    with pytest.raises(ValueError):
        Color.parse("purple")


def test_random_graphs_stay_valid():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(10, 80)
        mode = rng.choice(["homophily", "no_homophily", "structural_signal"])
        g = generate_synthetic(n, rng.uniform(0.05, 0.45), mode, rng.randint(0, 10**6))
        nbrs = [g.adjacency[v].tolist() for v in range(g.n)]
        for u in range(g.n):
            assert nbrs[u] == sorted(set(nbrs[u])) and u not in nbrs[u]
            assert all(u in nbrs[v] for v in nbrs[u])


def test_save_graph_round_trips_hierarchy_exactly(tmp_path):
    scores = [0.1234567891, 2500000.5, 12.0, 1234567.0, 3e-7, 2500000.0]
    g = make_world(len(scores), [(0, 1), (1, 2), (3, 4), (4, 5)], red={1, 4}, hierarchy=scores)
    edge_path, node_path = tmp_path / "e.txt", tmp_path / "n.csv"
    save_graph(g, edge_path, node_path)
    assert load_graph(edge_path, node_path).hierarchy.tolist() == scores
    assert node_path.read_text().splitlines()[3] == "2,blue,12"
