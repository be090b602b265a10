"""Graph model, loaders, transforms, and synthetic generators."""

import hashlib
import logging
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from redcrawl import (
    Color,
    GraphLoadError,
    LyingScenario,
    Oracle,
    WorldGraph,
    generate_synthetic,
    load_graph,
    remove_red_red_edges,
    run_single,
    save_graph,
)
from redcrawl.graph import (
    BASE_MEAN_DEGREE,
    RED,
    RED_RED_PROB,
    SYNTHETIC_MODES,
    _EDGE_BLOCK_CHARS,
    _read_edges,
    _skip_pairs,
    _skip_table,
    _space_mask,
    _uniforms,
)
from redcrawl import graph
from redcrawl.cli import main as cli_main
from helpers import (
    degree,
    have_noordin,
    have_pokec,
    make_world,
    noordin_paths,
    pokec_paths,
    power_table,
    reference_read_edges,
    reference_synthetic,
    skip_coins,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Environment settings that each select other CPU kernels in a child
# process: numpy's baseline SIMD, generic OpenBLAS kernels, and glibc
# without its AVX and FMA paths.
CPU_SETTINGS = {
    "default": {},
    "baseline_simd": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "generic_blas": {"OPENBLAS_CORETYPE": "Prescott"},
    "no_avx_libc": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-AVX"},
}
# Worlds built under each setting: every mode, and pair passes of one and
# of many uniform blocks.
PORTABLE_WORLDS = [(5000, 0.05, "no_homophily", 1), (500, 0.05, "structural_signal", 1),
                   (2000, 0.3, "homophily", 2), (26220, 0.05, "structural_signal", 1)]
# Counting runs made under each setting on the n=500 structural_signal
# world, from its first red with seed 1 and budget 100: (strategy, scenario).
RUN_WORLD = PORTABLE_WORLDS[1]
PORTABLE_RUNS = [(strategy, scenario) for strategy in ("sr", "rs", "mrsr", "mrn") for scenario in ("ls1", "ls2")]

# sha256 of each world array's bytes, as the geometric skip generator
# writes them: the benchmark's frontier world and its learn world.
WORLD_DIGESTS = {
    (5000, 0.05, "no_homophily", 1): {
        "codes": "7eb9fbdf97211f81b6269e91acd2b63746d3c1b5ddab4d13de881696e43accd8",
        "hierarchy": "a38c52015eef18388f3b0e9df41901d4c88fa934115ace2eacfae0704115a37f",
        "indptr": "c10171c2ab6032304d55a95c67cf30675e18335c47e7177f1e6ccbd135e9efd5",
        "indices": "1324458d3cd5812f1d0f8b79105cd4846eeae3c9be7a4437107fef9ed19048b6",
    },
    (500, 0.05, "structural_signal", 1): {
        "codes": "a1309b80ad51f3d49476c3253a02131e52b5d64d92cd3cbd3299c20f56d3b3cb",
        "hierarchy": "2fdfde7c9bc05387f68762b9b9b14fa9a02f2fb1c3fa6a3a7eeae80be50ad0d8",
        "indptr": "f9bacbc20ad401050d3031899fe2207a22683a6eaf8b542a20d655a8ed681bf8",
        "indices": "7504f46b461c8635d4a06109d80ff7595e3849ee77aebfb5d5a1c7b519d7a1fe",
    },
}


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
        assert g.red_ids() == [0]
        assert g.labels == ("a", "b", "c")
        # a-b-c path under the id mapping
        a, b, c = (g.labels.index(x) for x in "abc")
        assert g.adjacency[b].tolist() == sorted([a, c])
        assert g.hierarchy[a] == 2.0

    @pytest.mark.parametrize("bom_file", ["nodes", "edges", "both"])
    def test_byte_order_mark_ignored(self, tmp_path, bom_file):
        # spreadsheet exports start a UTF-8 CSV with a byte-order mark
        edge_path, node_path = write_graph_files(tmp_path, "a b\nb c\n", "id,color\na,red\nb,blue\nc,blue\n")
        for path, name in ((node_path, "nodes"), (edge_path, "edges")):
            if bom_file in (name, "both"):
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        g = load_graph(edge_path, node_path)
        assert g.labels == ("a", "b", "c")
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.red_ids() == [0]

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

    def test_shuffled_repeats_and_self_loops_dedupe_to_the_sorted_distinct_pairs(self, tmp_path, caplog):
        rng = random.Random(5)
        n = 300
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(2000)]
        lines = pairs + [(v, u) for u, v in rng.sample(pairs, 500)] + [(v, v) for v in rng.choices(range(n), k=40)]
        rng.shuffle(lines)
        edge_path = tmp_path / "edges.txt"
        edge_path.write_text("".join(f"v{u} v{v}\n" for u, v in lines))
        with caplog.at_level(logging.WARNING, logger="redcrawl.graph"):
            edges = _read_edges(edge_path, {f"v{v}": v for v in range(n)})
        distinct = sorted({(min(u, v), max(u, v)) for u, v in lines if u != v})
        assert edges.shape == (len(distinct), 2)
        assert edges.tolist() == [list(pair) for pair in distinct]
        self_loops = sum(u == v for u, v in lines)
        assert self_loops == 40 and len(lines) - self_loops - len(distinct) > 500
        assert (f"dropped {self_loops} self-loop(s) and {len(lines) - self_loops - len(distinct)} duplicate edge(s)"
                in caplog.text)

    @pytest.mark.parametrize("line", ["a ghost", "ghost a"], ids=["second_id", "first_id"])
    def test_edge_referencing_unknown_node(self, tmp_path, line):
        edge_path, node_path = write_graph_files(
            tmp_path, f"# header\na b\n{line}\n", "id,color\na,red\nb,blue\n"
        )
        with pytest.raises(GraphLoadError, match=r"edges\.txt:3: edge references unknown node id 'ghost'$"):
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
        assert g.red_ids() == [0]

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


    @pytest.mark.parametrize("which", ["edges", "nodes"])
    def test_file_that_is_not_utf8_names_itself(self, tmp_path, which):
        edge_path, node_path = write_graph_files(tmp_path, "a b\n", "id,color\na,red\nb,blue\n")
        path = edge_path if which == "edges" else node_path
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(GraphLoadError, match=rf"^{re.escape(str(path))}: not UTF-8 text \(invalid start byte\)$"):
            load_graph(edge_path, node_path)

    def test_cli_names_a_graph_file_that_is_not_utf8(self, tmp_path, capsys):
        edge_path, node_path = write_graph_files(tmp_path, "a b\n", "id,color\na,red\nb,blue\n")
        edge_path.write_bytes(b"a \xffb\n")
        config = tmp_path / "exp.cfg"
        config.write_text(f"edges = {edge_path}\nnodes = {node_path}\nstrategies = mrn\nruns = 1\n"
                          f"output_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"redcrawl: error: {edge_path}: not UTF-8 text (invalid start byte)\n"


# Ids, separators and line breaks for the edge-file fuzz: every separator
# is one `str.split()` splits on, and the breaks are those a text file
# turns into "\n"; U+2028 and U+0085 split ids but break no line.
FUZZ_SPACES = (" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")
FUZZ_BREAKS = ("\n", "\n", "\n", "\r\n", "\r")


def fuzz_edge_text(rng, labels):
    """Edge-file text of up to 30 lines: mostly pairs, with blank, comment, short, long and unknown-id lines."""
    lines = []
    for _ in range(rng.randrange(31)):
        kind = rng.random()
        count = 0 if kind < 0.08 else 1 if kind < 0.1 else 3 if kind < 0.12 else 2
        ids = [rng.choice(labels) if rng.random() > 0.015 else "ghost" for _ in range(count)]
        line = rng.choice(("", " ", "\u3000")) + rng.choice(FUZZ_SPACES).join(ids)
        if rng.random() < 0.15:
            line += rng.choice(("", " ")) + "#" + rng.choice(("", " note", "# a b", "x y z"))
        lines.append(line + rng.choice(("", "", " ", "\t")))
    text = "".join(line + rng.choice(FUZZ_BREAKS) for line in lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no newline at the end of the file
    return ("\ufeff" if rng.random() < 0.1 else "") + text


def edge_outcome(read, edge_path, label_to_id, caplog):
    """What `read(edge_path, label_to_id)` gives: its edge list or its GraphLoadError text, and its warnings."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="redcrawl.graph"):
        try:
            result = read(edge_path, label_to_id).tolist()
        except GraphLoadError as exc:
            result = str(exc)
    return result, caplog.messages


class TestBlockParser:
    """`_read_edges` parses blocks of whole lines as the per-line loop of `reference_read_edges` did."""

    @pytest.mark.parametrize("block_chars", [1, 2, 5, 17, _EDGE_BLOCK_CHARS])
    def test_matches_the_line_loop(self, tmp_path, monkeypatch, caplog, block_chars):
        monkeypatch.setattr(graph, "_EDGE_BLOCK_CHARS", block_chars)
        rng = random.Random(block_chars)
        labels = ["a", "b7", "c\u00e9", "\u4e2d", "d.e", "f\U0001f600", "gh", "ijk"]
        label_to_id = {label: v for v, label in enumerate(labels)}
        edge_path = tmp_path / "edges.txt"
        outcomes = Counter()
        for _ in range(300):
            edge_path.write_bytes(fuzz_edge_text(rng, labels).encode("utf-8"))
            want = edge_outcome(reference_read_edges, edge_path, label_to_id, caplog)
            assert edge_outcome(_read_edges, edge_path, label_to_id, caplog) == want
            outcomes[want[0].split(": ")[1].split(" ")[0] if isinstance(want[0], str) else "loaded"] += 1
        # every outcome is exercised: loaded, malformed ("expected") and unknown ("edge")
        assert set(outcomes) == {"loaded", "expected", "edge"} and min(outcomes.values()) > 30, outcomes

    @pytest.mark.parametrize("block_chars", [4, _EDGE_BLOCK_CHARS])
    @pytest.mark.parametrize("text, error", [
        ("a b\nghost a\na b c\n", "2: edge references unknown node id 'ghost'"),
        ("a b\na b c\nghost a\n", "2: expected two ids per line, got 'a b c'"),
        ("a b\n\n b  ghost # x\na\n", "3: edge references unknown node id 'ghost'"),
        ("a b\n# x\n  a # b\nghost a\n", "3: expected two ids per line, got 'a'"),
        ("a b\nghost a b\n", "2: expected two ids per line, got 'ghost a b'"),
    ], ids=["unknown_first", "malformed_first", "unknown_then_short", "short_then_unknown", "both_on_one_line"])
    def test_first_faulty_line_in_a_block_raises(self, tmp_path, monkeypatch, text, error, block_chars):
        # The whole text is one block by default; at 4 characters a block holds a line or two.
        monkeypatch.setattr(graph, "_EDGE_BLOCK_CHARS", block_chars)
        edge_path = tmp_path / "edges.txt"
        edge_path.write_text(text)
        label_to_id = {"a": 0, "b": 1}
        with pytest.raises(GraphLoadError) as info:
            _read_edges(edge_path, label_to_id)
        assert str(info.value) == f"{edge_path}:{error}"
        with pytest.raises(GraphLoadError, match=f"^{re.escape(str(info.value))}$"):
            reference_read_edges(edge_path, label_to_id)

    def test_no_id_past_the_first_malformed_line_is_looked_up(self, tmp_path):
        class Recording(dict):
            def __getitem__(self, label):
                looked_up.append(label)
                return super().__getitem__(label)

        looked_up = []
        edge_path = tmp_path / "edges.txt"
        edge_path.write_text("a b\nb a\na\nb a\n")
        with pytest.raises(GraphLoadError, match=r"edges\.txt:3: expected two ids per line, got 'a'$"):
            _read_edges(edge_path, Recording(a=0, b=1))
        assert looked_up == ["a", "b", "b", "a"]

    def test_space_table_is_str_isspace(self):
        codes = np.arange(0x110000, dtype=np.uint32)
        assert np.flatnonzero(_space_mask(codes)).tolist() == [c for c in range(0x110000) if chr(c).isspace()]


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
        assert len(out.red_ids()) == 18


class TestCountColors:
    def test_empty_graph(self):
        g = WorldGraph(codes=[], hierarchy=[], edges=[])
        assert g.red_ids() == []

    @pytest.mark.skipif(not have_noordin(2), reason="Noordin fixture not supplied")
    def test_noordin_coms2_reds(self):
        g = load_graph(*noordin_paths(2))
        assert len(g.red_ids()) == 5

    @pytest.mark.skipif(not have_noordin(1), reason="Noordin fixture not supplied")
    def test_noordin_size(self):
        g = load_graph(*noordin_paths(1))
        assert g.n == 139
        assert g.num_edges() == 1042

    @pytest.mark.skipif(not have_pokec("age"), reason="PokeC fixture not supplied")
    def test_pokec_age_reds(self):
        g = load_graph(*pokec_paths("age"))
        assert g.n == 26_220
        assert len(g.red_ids()) == 1736


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
        red_deg = [degree(g, v) for v in range(g.n) if g.colors[v] is Color.RED]
        blue_deg = [degree(g, v) for v in range(g.n) if g.colors[v] is Color.BLUE]
        gap = sum(red_deg) / len(red_deg) - sum(blue_deg) / len(blue_deg)
        assert gap >= 10.0
        assert all(
            g.colors[u] is not Color.RED or g.colors[v] is not Color.RED for u, v in g.edges()
        )

    def test_hierarchy_is_degree_floored_at_one(self):
        g = generate_synthetic(200, 0.1, "homophily", 9)
        assert all(g.hierarchy[v] == max(1, degree(g, v)) for v in range(g.n))

    def test_red_count(self):
        g = generate_synthetic(200, 0.1, "homophily", 4)
        assert len(g.red_ids()) == 20

    @pytest.mark.parametrize(
        "n,frac,mode",
        [(5, 0.1, "homophily"), (20.0, 0.1, "homophily"), (100, 0.0, "homophily"),
         (100, 0.5, "homophily"), (100, 0.1, "ring")],
    )
    def test_bad_parameters(self, n, frac, mode):
        with pytest.raises(ValueError):
            generate_synthetic(n, frac, mode, 0)

    @pytest.mark.parametrize("n", [20.0, True])
    def test_n_must_be_an_integer(self, n):
        # a bool is an int, but it is no node count
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            generate_synthetic(n, 0.1, "homophily", 0)

    @pytest.mark.parametrize("mode", SYNTHETIC_MODES)
    @pytest.mark.parametrize("n", [10, 11, 57, 300, 1000])
    def test_matches_scalar_skip_reference(self, n, mode):
        for frac in (0.05, 0.2, 0.45):
            for seed in range(4):
                g = generate_synthetic(n, frac, mode, seed)
                ref = reference_synthetic(n, frac, mode, seed, coins=skip_coins)
                assert g.name == ref.name
                for key in ("codes", "hierarchy", "indptr", "indices"):
                    assert np.array_equal(getattr(g, key), getattr(ref, key)), (frac, seed, key)

    @pytest.mark.parametrize("mode", SYNTHETIC_MODES)
    def test_every_pair_is_an_edge_at_its_probability(self, mode):
        # Over many seeds, each pair's edge count is within 5 sigma of the sum
        # of its per-seed edge probabilities, which depend on the pair's colors.
        n, frac, seeds = 30, 0.2, 1000
        n_red = round(n * frac)
        p = BASE_MEAN_DEGREE / (n - 1)
        red_red = {"homophily": p + (1 - p) * RED_RED_PROB, "no_homophily": 0.0, "structural_signal": 0.0}[mode]
        red_blue = 18 / (n - n_red) if mode == "structural_signal" else p  # 18 stubs per red
        upper = np.triu_indices(n, 1)
        per_pair = np.zeros((3, len(upper[0])))  # edge count, mean and variance of each pair
        per_class = np.zeros((3, 3))  # the same summed over red-red, red-blue and blue-blue pairs
        for seed in range(seeds):
            g = generate_synthetic(n, frac, mode, seed)
            edge = np.zeros((n, n))
            edge[np.repeat(np.arange(n), np.diff(g.indptr)), g.indices] = 1
            reds = (g.codes == RED).astype(int)
            pair_class = (2 - reds[:, None] - reds[None, :])[upper]
            prob = np.array([red_red, red_blue, p])[pair_class]
            stats = np.array([edge[upper], prob, prob * (1 - prob)])
            per_pair += stats
            per_class += [np.bincount(pair_class, weights=row, minlength=3) for row in stats]
        for count, mean, var in (per_pair, per_class):
            assert np.all(np.abs(count - mean) <= 5 * np.sqrt(var))

    @pytest.mark.parametrize("p", [0.01, RED_RED_PROB, 0.9, 1.0])
    def test_skip_pairs_land_at_p(self, p):
        rng = random.Random(5)
        m, draws = 40, 400
        counts = np.zeros(m * (m - 1) // 2)
        for _ in range(draws):
            i, j = _skip_pairs(rng, m, p)
            assert np.all(i < j) and np.all(np.diff(i * m + j) > 0)
            np.add.at(counts, i * (2 * m - i - 1) // 2 + j - i - 1, 1)
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 5 * sigma)
        assert abs(counts.sum() - draws * p * len(counts)) <= 5 * sigma * math.sqrt(len(counts))

    def test_skip_table_is_a_running_product(self):
        for p in (6 / 4999, RED_RED_PROB, 6 / 9):
            assert _skip_table(p).tobytes() == np.array(power_table(p)[::-1]).tobytes()
        assert len(_skip_table(1.0)) == 0

    @pytest.mark.parametrize("setting", list(CPU_SETTINGS))
    def test_worlds_are_the_same_on_every_cpu_kernel(self, setting):
        # Each setting makes numpy, OpenBLAS or glibc pick other machine code
        # paths in a child process; the worlds and the counting runs' traces
        # must keep every bit.
        code = ("import hashlib, redcrawl\n"
                f"for args in {PORTABLE_WORLDS!r}:\n"
                "    g = redcrawl.generate_synthetic(*args)\n"
                "    print(*(hashlib.sha256(getattr(g, k).tobytes()).hexdigest()"
                " for k in ('codes', 'hierarchy', 'indptr', 'indices')))\n"
                f"g = redcrawl.generate_synthetic(*{RUN_WORLD!r})\n"
                f"for strategy, scenario in {PORTABLE_RUNS!r}:\n"
                "    t = redcrawl.run_single(g, strategy, redcrawl.LyingScenario(scenario), g.red_ids()[0], 1, 100)\n"
                "    print(hashlib.sha256(t.nodes.tobytes()).hexdigest())\n")
        path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, **CPU_SETTINGS[setting]}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        expected = [" ".join(hashlib.sha256(getattr(g, k).tobytes()).hexdigest()
                             for k in ("codes", "hierarchy", "indptr", "indices"))
                    for g in (generate_synthetic(*args) for args in PORTABLE_WORLDS)]
        g = generate_synthetic(*RUN_WORLD)
        expected += [hashlib.sha256(run_single(g, strategy, LyingScenario(scenario), g.red_ids()[0], 1, 100)
                                    .nodes.tobytes()).hexdigest()
                     for strategy, scenario in PORTABLE_RUNS]
        assert result.stdout.splitlines() == expected

    @pytest.mark.parametrize("args", list(WORLD_DIGESTS))
    def test_benchmark_worlds_are_pinned(self, args):
        g = generate_synthetic(*args)
        digests = {key: hashlib.sha256(getattr(g, key).tobytes()).hexdigest() for key in WORLD_DIGESTS[args]}
        assert digests == WORLD_DIGESTS[args]

    def test_does_not_import_numpy_random(self):
        # Importing numpy.random adds about 2.6 MB of resident memory (33.1 ->
        # 35.7 MB in a fresh interpreter, numpy 2.4), about 7% of a learn
        # batch's peak, so the generator uses the standard library's stream.
        code = ("import sys, redcrawl; redcrawl.generate_synthetic(60, 0.1, 'homophily', 1); "
                "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'")
        path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
        result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestUniforms:
    """`_uniforms(rng, k)` is k `rng.random()` calls, drawn in bulk."""

    @pytest.mark.parametrize("k", [0, 1, 311, 312, 313, 4096, 4097])  # 312 doubles use one 624-word block
    @pytest.mark.parametrize("skip", [0, 3])  # odd getrandbits(32) draws put the stream mid-block
    def test_same_doubles_and_state(self, k, skip):
        bulk, loop = random.Random(11), random.Random(11)
        for rng in (bulk, loop):
            for _ in range(skip):
                rng.getrandbits(32)
        drawn = _uniforms(bulk, k)
        expected = [loop.random() for _ in range(k)]
        assert drawn.dtype == np.float64
        assert drawn.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert bulk.getstate() == loop.getstate()
        assert bulk.sample(range(1000), 5) == loop.sample(range(1000), 5)


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
        assert [degree(g, v) for v in range(g.n)] == [2, 2, 0, 3, 1]
        assert g.edges() == [(0, 1), (0, 3), (1, 3), (3, 4)]
        with pytest.raises(IndexError):
            g.adjacency[5]
        with pytest.raises(IndexError):
            g.adjacency[-1]

    @pytest.mark.parametrize("v", [-1, 3, True, False, 1.0])
    def test_views_check_bounds(self, v):
        # a bool is an int, but as an index it would mask the whole array
        g = make_world(3, [(0, 1), (1, 2)], red={2})
        for view in (g.colors.__getitem__, g.adjacency.__getitem__):
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


@pytest.mark.parametrize("labels, bad", [
    (["a b", "c", "#d"], "a b"),
    (["a", "", "c"], ""),
    (["a", "b", "#d"], "#d"),
], ids=["whitespace", "empty", "hash"])
def test_save_graph_rejects_a_label_the_loader_would_reject(tmp_path, labels, bad):
    g = WorldGraph([0, 1, 1], [1, 1, 1], [(0, 1), (1, 2)], labels=labels)
    with pytest.raises(ValueError, match=f"label {bad!r} is empty or contains whitespace or '#'"):
        save_graph(g, tmp_path / "e.txt", tmp_path / "n.csv")
    assert list(tmp_path.iterdir()) == []
