"""Ground-truth colored graph: data model, file loading, transforms, generators.

The world graph is the hidden network a crawl explores. Every node has a
true color (red = node of interest, blue = everything else) and a
positive, finite rank score used by the lying model. How each node lies
varies from run to run, so per-run honesty lives with the run's Oracle,
not here. Node ids are dense integers in [0, n); external string labels
from input files are remapped at load time and the label table is kept
for reporting.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from dataclasses import dataclass, field

import random

logger = logging.getLogger(__name__)

EDGE_COMMENT_CHAR = "#"

SYNTHETIC_MODES = ("homophily", "no_homophily", "structural_signal")
# generate_synthetic's shape: base Erdos-Renyi mean degree, the chance of an
# extra edge per red pair (homophily), and structural_signal's red degree lift.
BASE_MEAN_DEGREE = 6.0
RED_RED_PROB = 0.3
DEGREE_OFFSET = 10.0


class GraphLoadError(ValueError):
    """Raised when an edge/node file pair cannot be turned into a valid graph."""


# The int code of each color wherever colors sit in arrays: a report's
# claims, the observer's counters and the classifier's labels. Color.code
# and Color.from_code convert.
RED, BLUE = 0, 1


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"

    def flip(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED

    @property
    def code(self) -> int:
        return BLUE if self is Color.BLUE else RED

    @classmethod
    def from_code(cls, code: int) -> "Color":
        if code == RED:
            return cls.RED
        if code == BLUE:
            return cls.BLUE
        raise ValueError(f"unknown color code {code!r}: expected {RED} (red) or {BLUE} (blue)")

    @classmethod
    def parse(cls, text: str) -> "Color":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown color {text!r}: expected 'red' or 'blue'") from None

    def __str__(self) -> str:
        return self.value


@dataclass
class WorldGraph:
    """Undirected simple graph with per-node color and rank score.

    `adjacency[u]` is the set of neighbors of `u`; symmetry is an invariant
    (`u in adjacency[v]` iff `v in adjacency[u]`), and there are no
    self-loops. Treat instances as immutable after construction;
    transforms return copies, so a loaded graph can be shared read-only
    across concurrent runs.
    """

    adjacency: list[set[int]]
    colors: list[Color]
    hierarchy: list[float]
    name: str = "world"
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [str(i) for i in range(len(self.adjacency))]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return sorted((u, v) for u in range(self.n) for v in self.adjacency[u] if u < v)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def red_ids(self) -> list[int]:
        return [v for v in range(self.n) if self.colors[v] is Color.RED]

    def copy(self) -> "WorldGraph":
        return WorldGraph(
            adjacency=[set(nbrs) for nbrs in self.adjacency],
            colors=list(self.colors),
            hierarchy=list(self.hierarchy),
            name=self.name,
            labels=list(self.labels),
        )

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is violated."""
        n = self.n
        if not (len(self.colors) == len(self.hierarchy) == len(self.labels) == n):
            raise ValueError("per-node arrays disagree on node count")
        for u in range(n):
            if u in self.adjacency[u]:
                raise ValueError(f"self-loop at node {u}")
            for v in self.adjacency[u]:
                if not 0 <= v < n:
                    raise ValueError(f"edge endpoint {v} out of range")
                if u not in self.adjacency[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")
            if not 0 < self.hierarchy[u] < math.inf:
                raise ValueError(f"hierarchy score at node {u} must be positive and finite")


def load_graph(edge_file, node_file) -> WorldGraph:
    """Load a world graph from an edge list and a node attribute CSV.

    The edge file holds one whitespace-separated id pair per line; text
    after `#` is ignored. The node CSV needs a header with `id` and
    `color` columns; a `hierarchy` column is optional and defaults to 1.
    External ids are remapped to dense integers in node-file row order
    (so the same files always produce the same id assignment) and the
    original labels are retained. Duplicate edges and self-loops are
    dropped with a logged warning count.

    Raises GraphLoadError on: an edge endpoint with no node row, a color
    outside red/blue, a hierarchy score outside (0, inf), or a malformed line.
    """
    labels: list[str] = []
    label_to_id: dict[str, int] = {}
    colors: list[Color] = []
    hierarchy: list[float] = []

    with open(node_file, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames or "color" not in reader.fieldnames:
            raise GraphLoadError(f"{node_file}: node file needs 'id' and 'color' columns")
        has_hierarchy = "hierarchy" in reader.fieldnames
        for row_num, row in enumerate(reader, start=2):
            label = (row["id"] or "").strip()
            if not label:
                raise GraphLoadError(f"{node_file}:{row_num}: empty node id")
            if label in label_to_id:
                raise GraphLoadError(f"{node_file}:{row_num}: duplicate node id {label!r}")
            try:
                color = Color.parse(row["color"] or "")
            except ValueError as exc:
                raise GraphLoadError(f"{node_file}:{row_num}: {exc}") from None
            raw_h = (row.get("hierarchy") or "").strip() if has_hierarchy else ""
            if raw_h:
                try:
                    h = float(raw_h)
                except ValueError:
                    raise GraphLoadError(f"{node_file}:{row_num}: bad hierarchy value {raw_h!r}") from None
            else:
                h = 1.0
            if not 0 < h < math.inf:
                raise GraphLoadError(f"{node_file}:{row_num}: hierarchy score must be positive and finite, got {h}")
            label_to_id[label] = len(labels)
            labels.append(label)
            colors.append(color)
            hierarchy.append(h)

    adjacency: list[set[int]] = [set() for _ in labels]
    self_loops = 0
    duplicates = 0
    with open(edge_file, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.split(EDGE_COMMENT_CHAR, 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphLoadError(f"{edge_file}:{line_num}: expected two ids per line, got {line!r}")
            try:
                u = label_to_id[parts[0]]
            except KeyError:
                raise GraphLoadError(
                    f"{edge_file}:{line_num}: edge references unknown node id {parts[0]!r}"
                ) from None
            try:
                v = label_to_id[parts[1]]
            except KeyError:
                raise GraphLoadError(
                    f"{edge_file}:{line_num}: edge references unknown node id {parts[1]!r}"
                ) from None
            if u == v:
                self_loops += 1
                continue
            if v in adjacency[u]:
                duplicates += 1
                continue
            adjacency[u].add(v)
            adjacency[v].add(u)

    if self_loops or duplicates:
        logger.warning(
            "%s: dropped %d self-loop(s) and %d duplicate edge(s)", edge_file, self_loops, duplicates
        )

    g = WorldGraph(adjacency=adjacency, colors=colors, hierarchy=hierarchy, name=str(node_file), labels=labels)
    g.validate()
    return g


def save_graph(g: WorldGraph, edge_file, node_file) -> None:
    """Write a graph back to the two-file format accepted by load_graph."""
    with open(edge_file, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{g.labels[u]} {g.labels[v]}\n")
    with open(node_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "color", "hierarchy"])
        for v in range(g.n):
            writer.writerow([g.labels[v], g.colors[v].value, _float_text(g.hierarchy[v])])


def _float_text(x: float) -> str:
    """Short text for `x` ("12" for 12.0) that float() reads back exactly."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def remove_red_red_edges(g: WorldGraph) -> WorldGraph:
    """Return a copy of `g` with every edge between two red nodes deleted.

    Models reds concealing their mutual ties. Colors, scores, and all
    blue-incident edges are untouched; the operation is idempotent.
    """
    out = g.copy()
    for u in range(out.n):
        if out.colors[u] is not Color.RED:
            continue
        red_nbrs = [v for v in out.adjacency[u] if out.colors[v] is Color.RED]
        for v in red_nbrs:
            out.adjacency[u].discard(v)
            out.adjacency[v].discard(u)
    return out


def count_colors(g: WorldGraph) -> tuple[int, int]:
    """Return (red_count, blue_count)."""
    red = sum(1 for c in g.colors if c is Color.RED)
    return red, g.n - red


def generate_synthetic(n: int, red_fraction: float, mode: str, seed: int) -> WorldGraph:
    """Build a seeded random world graph for desk-scale experiments.

    Modes:
      homophily          Erdos-Renyi base graph (mean degree 6) plus extra
                         red-red edges drawn with probability 0.3 per red
                         pair, so reds form a visible community.
      no_homophily       The homophily graph with all red-red edges removed.
      structural_signal  No red-red edges at all, but each red node gets
                         6 + 10 + 2 = 18 blue neighbors, so red and blue
                         mean degrees differ by at least 10 and the
                         structure alone identifies reds.

    Hierarchy scores are set to node degree (floored at 1 so isolated
    nodes keep a valid positive score). The same arguments always produce
    the identical graph.
    """
    if n < 10:
        raise ValueError(f"n must be at least 10, got {n}")
    if not 0.0 < red_fraction < 0.5:
        raise ValueError(f"red_fraction must be in (0, 0.5), got {red_fraction}")
    if mode not in SYNTHETIC_MODES:
        raise ValueError(f"unknown mode {mode!r}: expected one of {SYNTHETIC_MODES}")

    rng = random.Random(seed)
    n_red = max(1, round(n * red_fraction))
    red_set = set(rng.sample(range(n), n_red))
    colors = [Color.RED if v in red_set else Color.BLUE for v in range(n)]
    adjacency: list[set[int]] = [set() for _ in range(n)]

    def add_edge(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)

    p_base = min(1.0, BASE_MEAN_DEGREE / (n - 1))

    if mode in ("homophily", "no_homophily"):
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p_base:
                    add_edge(u, v)
        reds = sorted(red_set)
        for i, u in enumerate(reds):
            for v in reds[i + 1:]:
                if v not in adjacency[u] and rng.random() < RED_RED_PROB:
                    add_edge(u, v)
    else:
        blues = [v for v in range(n) if v not in red_set]
        for i, u in enumerate(blues):
            for v in blues[i + 1:]:
                if rng.random() < p_base:
                    add_edge(u, v)
        # +2 absorbs the degree that red stubs add to the blue average.
        red_degree = min(len(blues), round(BASE_MEAN_DEGREE + DEGREE_OFFSET) + 2)
        for u in sorted(red_set):
            for v in rng.sample(blues, red_degree):
                add_edge(u, v)

    hierarchy = [float(max(1, len(adjacency[v]))) for v in range(n)]
    g = WorldGraph(
        adjacency=adjacency,
        colors=colors,
        hierarchy=hierarchy,
        name=f"synthetic-{mode}-n{n}-seed{seed}",
    )
    if mode == "no_homophily":
        # Exactly the homophily graph put through the edge removal; scores
        # keep the pre-removal degrees.
        g = remove_red_red_edges(g)
    g.validate()
    return g
