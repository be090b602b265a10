"""Ground-truth colored graph: data model, file loading, transforms, generators.

The world graph is the hidden network a crawl explores. Every node has a
true color (red = node of interest, blue = everything else) and a
positive, finite rank score used by the lying model. How each node lies
varies from run to run, so per-run honesty lives with the run's Oracle,
not here. Node ids are dense integers in [0, n); external string labels
from input files are remapped at load time and the label table is kept
for reporting.

A world is built once, by one constructor from color codes, rank scores
and an array of undirected edges, into read-only arrays: a CSR of
ascending neighbor ids, an int8 color code per node and a float rank per
node. Nothing can write to it, so every oracle and every run shares the
same world; the loader, the generator and the red-red transform all end
in that constructor.

The synthetic generator draws its random graphs by geometric skips
(Batagelj & Brandes 2005): one `random.Random` uniform per edge sets the
number of node pairs skipped before it, so a world costs O(n + m) rather
than one coin per pair. The skips come from a table of the powers of
1 - p, built by repeated multiplication, and a search of it. No log is
taken, so a seed builds the same world whichever SIMD, BLAS or libc
kernels the CPU selects.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
import random
import re
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

logger = logging.getLogger(__name__)

EDGE_COMMENT_CHAR = "#"
_COMMENT = re.compile(f"{EDGE_COMMENT_CHAR}[^\n]*")
# Characters read from an edge file at a time: large enough that the
# per-block calls cost little, small enough that the block's largest
# array, its UTF-32 code points, stays at 64 KiB. Blocks of 32k and 64k
# characters parsed no faster and left the dense benchmark's peak memory
# 0.7-0.9 MB higher: their freed arrays fragment the heap.
_EDGE_BLOCK_CHARS = 1 << 14
# Whether `str.isspace()`, and so `str.split()`, holds for each code point
# up to U+3000, the last space, and a last False that stands for every
# code point above.
_IS_SPACE = np.array([chr(c).isspace() for c in range(0x3001)] + [False])

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

    @property
    def code(self) -> int:
        return BLUE if self is Color.BLUE else RED

    @classmethod
    def from_code(cls, code: int) -> "Color":
        try:
            return _COLOR_OF_CODE[code]
        except (KeyError, TypeError):
            raise ValueError(f"unknown color code {code!r}: expected {RED} (red) or {BLUE} (blue)") from None

    @classmethod
    def parse(cls, text: str) -> "Color":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown color {text!r}: expected 'red' or 'blue'") from None


_COLOR_OF_CODE = {RED: Color.RED, BLUE: Color.BLUE}


def is_integer(value) -> bool:
    """Whether `value` has a node id's or color code's type: an int or numpy integer, not a bool."""
    # a bool is an int, but as an index it masks a whole array
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _NodeView:
    """`view[v]` for an integer node id `v` in [0, n), read from the world's arrays; IndexError otherwise."""

    __slots__ = ("_n", "_read")

    def __init__(self, n: int, read) -> None:
        self._n = n
        self._read = read

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, v: int):
        if not (is_integer(v) and 0 <= v < self._n):
            raise IndexError(f"node id {v} out of range [0, {self._n})")
        return self._read(v)


_ARRAYS = ("codes", "hierarchy", "indptr", "indices")  # everything a world stores per node or edge


class WorldGraph:
    """Undirected simple graph with per-node color and rank score, as read-only arrays.

    `codes[v]` is node `v`'s color code (RED or BLUE, int8) and
    `hierarchy[v]` its rank score. The edges are a CSR: `v`'s neighbors
    are `indices[indptr[v]:indptr[v + 1]]`, in ascending order, which
    `adjacency[v]` returns. `colors[v]` reads a code back as a `Color`.
    Both views raise IndexError for `v` outside [0, n).

    The constructor is the one way to build a world: color codes, rank
    scores and an array of undirected (u, v) edges, each pair given once
    in either order. It raises ValueError for a self-loop, a repeated
    pair, an endpoint outside [0, n), a color code other than RED or
    BLUE, a rank score that is not positive and finite, or a label that
    names more than one node, so every world is symmetric and simple by
    construction. All four arrays are read-only, so one world is shared
    by every run without copies; transforms build a new world.
    """

    def __init__(self, codes, hierarchy, edges, name: str = "world", labels=None) -> None:
        codes = np.array(codes)
        if codes.ndim != 1 or not ((codes == RED) | (codes == BLUE)).all():
            raise ValueError(f"colors must be a flat array of the codes {RED} (red) and {BLUE} (blue)")
        n = len(codes)
        hierarchy = np.array(hierarchy, dtype=float)
        labels = tuple(map(str, range(n))) if labels is None else tuple(labels)
        if hierarchy.shape != (n,) or len(labels) != n:
            raise ValueError("per-node arrays disagree on node count")
        if len(set(labels)) != n:
            repeated = next(label for label, k in Counter(labels).items() if k > 1)
            raise ValueError(f"label {repeated!r} names more than one node")
        bad = ~((hierarchy > 0) & (hierarchy < math.inf))
        if bad.any():
            raise ValueError(f"hierarchy score at node {bad.argmax()} must be positive and finite")

        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be an array of (u, v) pairs")
        outside = (pairs < 0) | (pairs >= n)
        if outside.any():
            raise ValueError(f"edge endpoint {pairs[outside][0]} out of range [0, {n})")
        u, v = pairs[:, 0], pairs[:, 1]
        loops = u == v
        if loops.any():
            raise ValueError(f"self-loop at node {u[loops.argmax()]}")
        # Both directions of every edge as one key row * n + column; sorted,
        # the keys are the CSR in row order with ascending columns.
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            key = int(keys[repeated.argmax()])
            raise ValueError(f"edge {tuple(sorted(divmod(key, n)))} given more than once")
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        keys %= n

        self.codes = codes.astype(np.int8)
        self.hierarchy = hierarchy
        self.indptr = indptr
        self.indices = keys
        for key in _ARRAYS:
            getattr(self, key).setflags(write=False)
        codes = self.codes
        # v's neighbors, an ascending read-only slice of the CSR, and v's Color.
        self.adjacency = _NodeView(n, lambda v: keys[indptr[v]:indptr[v + 1]])
        self.colors = _NodeView(n, lambda v: _COLOR_OF_CODE[codes[v]])
        self.name = name
        self.labels = labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldGraph):
            return NotImplemented
        return (self.name, self.labels) == (other.name, other.labels) and all(
            np.array_equal(getattr(self, key), getattr(other, key)) for key in _ARRAYS
        )

    @property
    def n(self) -> int:
        return len(self.codes)

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once as aligned (u, v) arrays with u < v, sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return list(zip(*(side.tolist() for side in self._pairs())))

    def num_edges(self) -> int:
        return len(self.indices) // 2

    def red_ids(self) -> list[int]:
        return np.flatnonzero(self.codes == RED).tolist()


def load_graph(edge_file, node_file) -> WorldGraph:
    """Load a world graph from an edge list and a node attribute CSV.

    Both files are UTF-8 text; a leading byte-order mark is skipped. The
    edge file holds one id pair per line, separated by whatever
    `str.split()` treats as whitespace (U+00A0 and U+3000 included); text
    after `#` is ignored. The node CSV needs a header with `id` and
    `color` columns; a `hierarchy` column is optional and defaults to 1.
    External ids are remapped to dense integers in node-file row order
    (so the same files always produce the same id assignment) and the
    original labels are retained. Duplicate edges and self-loops are
    dropped with a logged warning count.

    Raises GraphLoadError on: an edge endpoint with no node row, a color
    outside red/blue, a hierarchy score outside (0, inf), a malformed
    line, or a file that is not UTF-8 text (named by its path).
    """
    labels: list[str] = []
    label_to_id: dict[str, int] = {}
    codes: list[int] = []
    hierarchy: list[float] = []

    with _open_text(node_file, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "id" not in reader.fieldnames or "color" not in reader.fieldnames:
            raise GraphLoadError(f"{node_file}: node file needs 'id' and 'color' columns")
        for row_num, row in enumerate(reader, start=2):
            label = (row["id"] or "").strip()
            if not label:
                raise GraphLoadError(f"{node_file}:{row_num}: empty node id")
            if not _nameable(label):
                raise GraphLoadError(
                    f"{node_file}:{row_num}: node id {label!r} contains whitespace or "
                    f"{EDGE_COMMENT_CHAR!r}, so no edge line can name it"
                )
            if label in label_to_id:
                raise GraphLoadError(f"{node_file}:{row_num}: duplicate node id {label!r}")
            try:
                color = Color.parse(row["color"] or "")
            except ValueError as exc:
                raise GraphLoadError(f"{node_file}:{row_num}: {exc}") from None
            raw_h = (row.get("hierarchy") or "").strip()
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
            codes.append(color.code)
            hierarchy.append(h)

    edges = _read_edges(edge_file, label_to_id)
    return WorldGraph(codes, hierarchy, edges, name=str(node_file), labels=labels)


def _read_edges(edge_file, label_to_id: dict[str, int]) -> np.ndarray:
    """The distinct edges of `edge_file` as an (m, 2) id array.

    The file is read in blocks of whole lines (`_EDGE_BLOCK_CHARS`
    characters, the partial last line carried into the next block), and
    each block is parsed with C-level string calls and a few array
    passes: comments are cut by one regex substitution, one `split()`
    finds the ids, and the code points of the block show which line each
    id starts on, so the ids must pair up line by line. The first faulty
    line in file order raises GraphLoadError with its line number: a line
    that does not hold exactly two ids, or one that names an unknown id.
    On one line the id count is checked first, and no id past the first
    malformed line is looked up.

    Self-loops and repeated pairs are dropped, with one logged warning
    that counts each.
    """
    ends = array("q")  # the endpoint ids of every edge line, two per line
    lines_before = 0  # lines of the file before the current block
    with _open_text(edge_file) as fh:
        for block in _line_blocks(fh):
            text = _COMMENT.sub("", block)
            ids = text.split()
            line = _id_lines(text)
            firsts = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first id
            bad = np.flatnonzero(np.diff(firsts, append=len(ids)) != 2)  # the lines without two ids
            good = firsts[bad[0]] if bad.size else len(ids)  # the ids before the first of them
            try:
                ends.frombytes(np.fromiter(map(label_to_id.__getitem__, ids), dtype=np.int64, count=good).tobytes())
            except KeyError as exc:
                label = exc.args[0]
                raise GraphLoadError(f"{edge_file}:{lines_before + 1 + line[ids.index(label)]}: "
                                     f"edge references unknown node id {label!r}") from None
            if bad.size:
                k = line[good]
                got = text.split("\n")[k].strip()
                raise GraphLoadError(f"{edge_file}:{lines_before + 1 + k}: expected two ids per line, got {got!r}")
            lines_before += block.count("\n")

    n = len(label_to_id)
    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    pairs.sort(axis=1)  # in place, in the buffer of `ends`
    kept = pairs[:, 0] != pairs[:, 1]
    keys = pairs[kept, 0] * n + pairs[kept, 1]
    # Sorted, a repeated pair sits next to its first copy; numpy's
    # `unique` would hash the keys instead, many times slower here.
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    self_loops = len(pairs) - int(kept.sum())
    duplicates = len(pairs) - self_loops - len(keys)
    if self_loops or duplicates:
        logger.warning(
            "%s: dropped %d self-loop(s) and %d duplicate edge(s)", edge_file, self_loops, duplicates
        )
    return np.column_stack(np.divmod(keys, n))


@contextmanager
def _open_text(path, newline=None):
    """`path` open as UTF-8 text, a leading byte-order mark skipped.

    A byte that is not UTF-8, met anywhere in the `with` body, raises
    GraphLoadError naming the file.
    """
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise GraphLoadError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _line_blocks(fh):
    """The text of `fh` in blocks of whole lines, about `_EDGE_BLOCK_CHARS` characters each.

    Each block ends just after a newline, but the file's last block,
    which ends where the file does.
    """
    carry = ""  # the partial line at the end of the text read so far
    while chunk := fh.read(_EDGE_BLOCK_CHARS):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        carry = text[cut:]
    if carry:
        yield carry


def _id_lines(text: str) -> np.ndarray:
    """The line of `text` (0 for the first) on which each id that `text.split()` finds starts."""
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")  # one code point per character
    space = np.concatenate(([True], _space_mask(codes)))  # [0] stands for the line break before `text`
    # The j-th id starts at the j-th character that is not a space and follows one.
    starts = np.flatnonzero(space[:-1] > space[1:])
    return np.searchsorted(np.flatnonzero(codes == ord("\n")), starts)


def _space_mask(codes: np.ndarray) -> np.ndarray:
    """Whether each code point in the integer array `codes` is one that `str.split()` splits on."""
    return _IS_SPACE.take(codes, mode="clip")


def _nameable(label: str) -> bool:
    """Whether an edge line can name `label`: it is non-empty, with no whitespace and no '#'."""
    return label.split() == [label] and EDGE_COMMENT_CHAR not in label


def save_graph(g: WorldGraph, edge_file, node_file) -> None:
    """Write a graph back to the two-file format accepted by load_graph.

    Raises ValueError, before either file is opened, for a label that is
    empty or contains whitespace or '#', which load_graph would reject.
    """
    for label in g.labels:
        if not _nameable(label):
            raise ValueError(f"label {label!r} is empty or contains whitespace or "
                             f"{EDGE_COMMENT_CHAR!r}, so no edge line can name it")
    with open(edge_file, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{g.labels[u]} {g.labels[v]}\n")
    with open(node_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "color", "hierarchy"])
        for v, h in enumerate(g.hierarchy.tolist()):
            writer.writerow([g.labels[v], g.colors[v].value, float_text(h)])


def float_text(x: float) -> str:
    """Short text for `x` ("12" for 12.0) that float() reads back exactly."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def remove_red_red_edges(g: WorldGraph) -> WorldGraph:
    """Return a new world: `g` with every edge between two red nodes deleted.

    Models reds concealing their mutual ties. Colors, scores, and all
    blue-incident edges are untouched; the operation is idempotent.
    """
    pairs = _without_red_red(g.codes, np.column_stack(g._pairs()))
    return WorldGraph(g.codes, g.hierarchy, pairs, name=g.name, labels=g.labels)


def _without_red_red(codes: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The rows of the (m, 2) id array `pairs` with at least one blue end."""
    return pairs[(codes[pairs] != RED).any(axis=1)]


# Uniforms drawn per `_uniforms` call in the pair passes: large enough that
# the per-call overhead vanishes, small enough to leave peak memory unchanged.
_UNIFORM_CHUNK = 4096
# The smallest positive `random()` value: a power of 1 - p at or below it
# lies above the uniform 0 alone, so the skip table stops there.
_TINY = 2.0 ** -53


def _uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The next `k` values of `rng.random()`, as one float array, bit for bit.

    CPython's `random()` takes two 32-bit Mersenne Twister words a, b and
    returns ((a >> 5) * 2**26 + (b >> 6)) / 2**53; `getrandbits(64 * k)`
    draws the same 2k words, least significant first. So the doubles are
    identical and `rng` ends in the state that k `random()` calls leave.
    """
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    a = words[0::2] >> 5
    b = words[1::2] >> 6
    return (a * 67108864.0 + b) / 9007199254740992.0


def _skip_table(p: float) -> np.ndarray:
    """The powers q**k, k = 1, 2, ..., of q = 1 - p that exceed 2**-53, ascending.

    Each power is the one before times q, in order (`multiply.accumulate`
    is a running product), so the table has the same bits under every CPU
    kernel: no log is taken. `p` must be positive.
    """
    q = 1.0 - p
    blocks = []
    power = 1.0
    while power > _TINY:
        block = np.full(_UNIFORM_CHUNK, q)
        block[0] = power * q
        blocks.append(np.multiply.accumulate(block))
        power = blocks[-1][-1]
    powers = np.concatenate(blocks)
    return powers[:np.count_nonzero(powers > _TINY)][::-1]


def _upper_pairs(flat: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Map positions in the row-by-row order of the pairs i < j < m to (i, j)."""
    rows = np.arange(m, dtype=np.int64)
    starts = rows * (2 * m - rows - 1) // 2  # position of (i, i + 1)
    i = np.searchsorted(starts, flat, side="right") - 1
    return i, flat - starts[i] + i + 1


def _skip_pairs(rng: random.Random, m: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The edges of G(m, p) as aligned (i, j) arrays, i < j, by geometric skips.

    In the row-by-row order of the pairs, the number of non-edges before
    the next edge is at least k with probability q**k, q = 1 - p
    (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005). So one uniform
    u of `rng` per edge sets that skip to the count of powers q**k above
    u, and the work is O(m + edges). Uniforms are drawn `_UNIFORM_CHUNK` at
    a time until an edge lands past the last pair.
    """
    total = m * (m - 1) // 2
    table = _skip_table(p)
    hits = [np.zeros(0, dtype=np.int64)]
    last = -1  # position of the last edge drawn
    while last + 1 < total:
        skips = len(table) - np.searchsorted(table, _uniforms(rng, _UNIFORM_CHUNK), side="right")
        hits.append(last + np.cumsum(skips + 1))
        last = int(hits[-1][-1])
    flat = np.concatenate(hits)
    return _upper_pairs(flat[flat < total], m)


def generate_synthetic(n: int, red_fraction: float, mode: str, seed: int) -> WorldGraph:
    """Build a seeded random world graph for desk-scale experiments.

    Modes:
      homophily          Erdos-Renyi base graph (mean degree 6) plus extra
                         red-red edges drawn with probability 0.3 per red
                         pair, so reds form a visible community.
      no_homophily       The homophily graph, its red-red pairs dropped before the build.
      structural_signal  No red-red edges at all, but each red node gets
                         min(blue count, 6 + 10 + 2 = 18) blue neighbors,
                         so at the usual sizes red and blue mean degrees
                         differ by at least 10 and the structure alone
                         identifies reds.

    The G(n, p) base graph, structural_signal's blue-blue pairs and the
    red-red pairs each take geometric skips (`_skip_pairs`): one
    `random.Random(seed)` uniform per edge, drawn in bulk (`_uniforms`),
    so a world costs O(n + m) and an n = 26,220 world builds in well
    under a second. Only IEEE multiplications and comparisons turn the
    uniforms into edges, so the same arguments produce the identical
    graph under every CPU kernel. Hierarchy scores are set to node degree
    (floored at 1 so isolated nodes keep a valid positive score).
    """
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)  # a narrow numpy int would wrap in the pair counts
    if n < 10:
        raise ValueError(f"n must be at least 10, got {n}")
    if not 0.0 < red_fraction < 0.5:
        raise ValueError(f"red_fraction must be in (0, 0.5), got {red_fraction}")
    if mode not in SYNTHETIC_MODES:
        raise ValueError(f"unknown mode {mode!r}: expected one of {SYNTHETIC_MODES}")

    rng = random.Random(seed)
    n_red = max(1, round(n * red_fraction))
    codes = np.full(n, BLUE, dtype=np.int8)
    codes[rng.sample(range(n), n_red)] = RED
    reds = np.flatnonzero(codes == RED)
    p_base = min(1.0, BASE_MEAN_DEGREE / (n - 1))

    if mode in ("homophily", "no_homophily"):
        u, v = _skip_pairs(rng, n, p_base)
        # Every red pair gets a skip position and the base edges among them
        # are dropped, so each other red pair is an edge with probability
        # RED_RED_PROB. The base keys ascend, since positions run in row
        # order; n * n caps them and equals no pair's key, so every lookup
        # lands in range.
        base_keys = np.append(u * n + v, n * n)
        i, j = _skip_pairs(rng, len(reds), RED_RED_PROB)
        keys = reds[i] * n + reds[j]
        fresh = base_keys[np.searchsorted(base_keys, keys)] != keys
        pairs = np.column_stack((np.concatenate((u, reds[i[fresh]])), np.concatenate((v, reds[j[fresh]]))))
    else:
        blues = np.flatnonzero(codes == BLUE)
        i, j = _skip_pairs(rng, len(blues), p_base)
        # +2 absorbs the degree that red stubs add to the blue average.
        red_degree = min(len(blues), round(BASE_MEAN_DEGREE + DEGREE_OFFSET) + 2)
        blue_list = blues.tolist()
        stubs = [(u, v) for u in reds.tolist() for v in rng.sample(blue_list, red_degree)]
        pairs = np.concatenate((np.column_stack((blues[i], blues[j])), np.array(stubs, dtype=np.int64)))

    hierarchy = np.maximum(1, np.bincount(pairs.ravel(), minlength=n)).astype(float)
    if mode == "no_homophily":
        # Exactly the homophily graph put through remove_red_red_edges;
        # scores keep the pre-removal degrees.
        pairs = _without_red_red(codes, pairs)
    return WorldGraph(codes, hierarchy, pairs, name=f"synthetic-{mode}-n{n}-seed{seed}")
