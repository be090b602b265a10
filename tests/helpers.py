"""Shared test utilities: world builders and from-scratch recomputations.

The brute-force functions below rebuild observer knowledge directly from
an ordered report log using the definitions, with none of the package's
incremental bookkeeping, so they can serve as an independent check on
ObserverState.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import random
from array import array
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np

from redcrawl import (
    FEATURE_NAMES,
    Color,
    GraphLoadError,
    LyingScenario,
    MonitorReport,
    ObserverState,
    TrainedModel,
    TrainingSet,
    WorldGraph,
    classifier,
    oracle,
    strategies,
)
from redcrawl.classifier import gradient, hessian
from redcrawl.graph import (
    BASE_MEAN_DEGREE,
    BLUE,
    DEGREE_OFFSET,
    EDGE_COMMENT_CHAR,
    RED,
    RED_RED_PROB,
    SYNTHETIC_MODES,
    _UNIFORM_CHUNK,
    remove_red_red_edges,
    save_graph,
)
from redcrawl.oracle import HONESTY_MEAN, HONESTY_SD

logger = logging.getLogger("redcrawl.graph")  # the loader's own logger, so its warnings read the same

NOORDIN_DIR = Path(os.environ.get(
    "REDCRAWL_NOORDIN_DIR",
    Path(__file__).resolve().parent.parent / "data" / "noordin",
))

POKEC_DIR = Path(os.environ.get(
    "REDCRAWL_POKEC_DIR",
    Path(__file__).resolve().parent.parent / "data" / "pokec",
))


def noordin_paths(variant: int) -> tuple[Path, Path]:
    return NOORDIN_DIR / "edges.txt", NOORDIN_DIR / f"nodes_coms{variant}.csv"


def have_noordin(variant: int) -> bool:
    edge_path, node_path = noordin_paths(variant)
    return edge_path.is_file() and node_path.is_file()


def pokec_paths(attribute: str) -> tuple[Path, Path]:
    return POKEC_DIR / "edges.txt", POKEC_DIR / f"nodes_{attribute}.csv"


def have_pokec(attribute: str) -> bool:
    edge_path, node_path = pokec_paths(attribute)
    return edge_path.is_file() and node_path.is_file()


# The modules that read oracle.SMALL_REPORT, each through its own import of it.
SMALL_REPORT_READERS = (oracle, strategies)
# The constant that sends every report down one path: none is at most -1
# claims, and none is above a million.
PATH_LIMITS = {"array": -1, "scalar": 10**6}


def force_path(monkeypatch, path: str) -> None:
    """Send every report, in the oracle and the kept scores, down `path`."""
    for module in SMALL_REPORT_READERS:
        monkeypatch.setattr(module, "SMALL_REPORT", PATH_LIMITS[path])


def make_world(n, edges, red=(), hierarchy=None, name="test") -> WorldGraph:
    """Hand-build a world graph from an edge list and a red id set."""
    codes = np.full(n, BLUE, dtype=np.int8)
    codes[list(red)] = RED
    return WorldGraph(codes, [1.0] * n if hierarchy is None else hierarchy, edges, name=name)


def per_pair_coins(rng, pairs, p) -> list:
    """The pairs whose own coin `rng.random() < p` lands, one call per pair in order."""
    return [pair for pair in pairs if rng.random() < p]


def power_table(p) -> list[float]:
    """The powers of 1 - p above 2**-53, descending, each the one before times 1 - p."""
    q = 1.0 - p
    table = []
    power = 1.0
    while (power := power * q) > 2.0 ** -53:
        table.append(power)
    return table


def skip_coins(rng, pairs, p) -> list:
    """The pairs that geometric skips with probability `p` land on, one uniform at a time.

    The scalar reference for `_skip_pairs`: each uniform is one
    `rng.random()` call, drawn `_UNIFORM_CHUNK` at a time, and each skip
    is found by walking `power_table(p)` from its start.
    """
    table = power_table(p)
    landed = []
    position = -1
    while position + 1 < len(pairs):
        for u in [rng.random() for _ in range(_UNIFORM_CHUNK)]:
            skip = 0
            while skip < len(table) and table[skip] > u:
                skip += 1
            position += skip + 1
            if position < len(pairs):
                landed.append(pairs[position])
    return landed


def reference_synthetic(n: int, red_fraction: float, mode: str, seed: int, coins=per_pair_coins) -> WorldGraph:
    """`generate_synthetic` as scalar loops over explicit pair lists.

    With `per_pair_coins` (the default) this is the generator as it was
    before geometric skips: one coin per pair, and red pairs that are
    already base edges get none. It is the frozen world that the golden
    output digests were recorded on. With `skip_coins` it is today's
    generator: every red pair is skipped over and landed base edges are
    dropped, so its worlds must equal `generate_synthetic`'s bit for bit.
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
    codes = np.full(n, BLUE, dtype=np.int8)
    codes[list(red_set)] = RED
    p_base = min(1.0, BASE_MEAN_DEGREE / (n - 1))

    if mode in ("homophily", "no_homophily"):
        edges = coins(rng, list(combinations(range(n), 2)), p_base)
        base = set(edges)
        red_pairs = list(combinations(sorted(red_set), 2))
        if coins is per_pair_coins:
            edges += coins(rng, [pair for pair in red_pairs if pair not in base], RED_RED_PROB)
        else:
            edges += [pair for pair in coins(rng, red_pairs, RED_RED_PROB) if pair not in base]
    else:
        blues = [v for v in range(n) if v not in red_set]
        edges = coins(rng, list(combinations(blues, 2)), p_base)
        # +2 absorbs the degree that red stubs add to the blue average.
        red_degree = min(len(blues), round(BASE_MEAN_DEGREE + DEGREE_OFFSET) + 2)
        for u in sorted(red_set):
            for v in rng.sample(blues, red_degree):
                edges.append((u, v))

    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    hierarchy = np.maximum(1, np.bincount(pairs.ravel(), minlength=n)).astype(float)
    g = WorldGraph(codes, hierarchy, pairs, name=f"synthetic-{mode}-n{n}-seed{seed}")
    if mode == "no_homophily":
        # Exactly the homophily graph put through the edge removal; scores
        # keep the pre-removal degrees.
        g = remove_red_red_edges(g)
    return g


def reference_read_edges(edge_file, label_to_id: dict[str, int]) -> np.ndarray:
    """The distinct edges of `edge_file` as an (m, 2) id array, parsed one line at a time.

    The oracle for `graph._read_edges`' block parser: the same arrays,
    warning and GraphLoadError messages from a plain loop over the lines.
    """
    ends = array("q")  # the endpoint ids of every edge line, two per line
    with open(edge_file, encoding="utf-8-sig") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.split(EDGE_COMMENT_CHAR, 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphLoadError(f"{edge_file}:{line_num}: expected two ids per line, got {line!r}")
            try:
                ends.extend((label_to_id[parts[0]], label_to_id[parts[1]]))
            except KeyError as exc:
                raise GraphLoadError(
                    f"{edge_file}:{line_num}: edge references unknown node id {exc.args[0]!r}"
                ) from None

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


def reference_honesty(world: WorldGraph, rng: random.Random) -> np.ndarray:
    """`oracle.assign_honesty` as one `rng.gauss` call per node: the oracle for its bulk draw."""
    return np.clip([rng.gauss(HONESTY_MEAN, HONESTY_SD) for _ in range(world.n)], 0.0, 1.0)


def reference_world_config(tmp_path, n: int, red_fraction: float, mode: str, seed: int) -> dict:
    """ExperimentConfig keys that load the frozen per-pair world from edge/node files in `tmp_path`."""
    edges, nodes = tmp_path / "edges.txt", tmp_path / "nodes.csv"
    save_graph(reference_synthetic(n, red_fraction, mode, seed), edges, nodes)
    return {"edges": str(edges), "nodes": str(nodes), "synthetic_mode": None}


def report(target, color, neighbor_colors) -> MonitorReport:
    """Hand-rolled report from a {neighbor: said Color} dict."""
    neighbors = sorted(neighbor_colors)
    return MonitorReport(
        target=target,
        color=color.code,
        neighbors=np.array(neighbors, dtype=np.intp),
        statements=np.array([neighbor_colors[v].code for v in neighbors], dtype=np.int8),
    )


def degree(world, v) -> int:
    return len(world.adjacency[v])


def flip(color) -> Color:
    return Color.from_code(1 - color.code)


def observed_of(state) -> set[int]:
    """Ids the state has seen: monitored, or on the frontier (the start from step 0)."""
    return set(np.flatnonzero(state.on_frontier | (state.color >= 0)).tolist())


def monitored_of(state) -> dict:
    """Monitored id -> true Color, in monitor order."""
    return {t: Color.from_code(rep.color) for t, rep in state.reports.items()}


def replay(start, n, reports) -> ObserverState:
    """A fresh state over ids [0, n) that ingests `reports` in order."""
    state = ObserverState(start, n)
    for rep in reports:
        state.ingest(rep)
    return state


def same_arrays(a, b) -> bool:
    """Whether two states hold equal per-node arrays."""
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("say", "triangles", "color", "on_frontier"))


def report_fields(rep) -> tuple:
    """A report's fields as plain values; reports have no `==` of their own."""
    return rep.target, rep.color, rep.neighbors.tolist(), rep.statements.tolist()


def lie_probability(speaker: int, subject: int, world: WorldGraph, honesty: list[float],
                    scenario: LyingScenario) -> float:
    """Probability that `speaker` misstates `subject`'s color, one claim at a time.

    The scalar reference for `Oracle.place_monitor`: a pure function of
    the world's colors and hierarchy and the per-node `honesty`; requires
    the pair to be adjacent.
    """
    if subject not in world.adjacency[speaker]:
        raise ValueError(f"lie_probability requires adjacent nodes, got ({speaker}, {subject})")
    speaker_color = world.colors[speaker]
    subject_color = world.colors[subject]
    if speaker_color is Color.BLUE and scenario is LyingScenario.LS2:
        return 1.0 if subject_color is Color.RED else 0.0
    dishonesty = 1.0 - honesty[speaker]
    if subject_color is Color.RED:
        p = dishonesty * world.hierarchy[subject] / world.hierarchy[speaker]
    else:
        p = dishonesty
    return min(p, 1.0)


def scores_of(decision) -> dict:
    """A Decision's scores as a candidate -> score dict, in frontier order."""
    return dict(zip(decision.candidates.tolist(), decision.scores.tolist()))


def identity_model(weights, bias=0.0) -> TrainedModel:
    """Model with pass-through standardization for hand-built score checks."""
    w = np.asarray(weights, dtype=float)
    return TrainedModel(weights=w, bias=bias, mean=np.zeros(9), scale=np.ones(9))


def training_set(pairs) -> TrainingSet:
    """TrainingSet from (nine feature values, Color) pairs."""
    rows = np.array([values for values, _ in pairs], dtype=float).reshape(-1, 9)
    return TrainingSet(rows=rows, labels=np.array([float(c is Color.RED) for _, c in pairs]))


def named(row) -> dict[str, float]:
    """A feature row as a FEATURE_NAMES -> value dict."""
    return dict(zip(FEATURE_NAMES, row.tolist()))


def verified_dict(verified_counts) -> dict:
    """The observer's (2, 2, 2) verified array as brute_verified's Color-keyed dict."""
    return {
        (sp, said, sub): int(verified_counts[sp.code, said.code, sub.code])
        for sp in Color for said in Color for sub in Color
    }


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def brute_knowledge(start, reports):
    """Observed nodes/edges, monitored colors, and statements, by definition.

    Statements come back keyed (speaker, subject) with the said Color.
    """
    observed = {start}
    edges = set()
    monitored = {}
    statements = {}
    for rep in reports:
        monitored[rep.target] = Color.from_code(rep.color)
        observed.add(rep.target)
        neighbors = rep.neighbors.tolist()
        for v in neighbors:
            observed.add(v)
            edges.add(_pair(rep.target, v))
        for v, said in zip(neighbors, rep.statements.tolist()):
            statements[(rep.target, v)] = Color.from_code(said)
    return observed, edges, monitored, statements


def brute_say(n, monitored, statements):
    """Each node's (n, 4) claim counts, columns 2 * speaker code + said code, by definition."""
    counts = np.zeros((n, 4), dtype=np.int64)
    for (speaker, subject), said in statements.items():
        counts[subject, 2 * monitored[speaker].code + said.code] += 1
    return counts


def brute_verified(monitored, statements):
    """Count every statement whose subject's true color is known."""
    counts = {(sp, said, sub): 0 for sp in Color for said in Color for sub in Color}
    for (speaker, subject), said in statements.items():
        if subject in monitored:
            counts[(monitored[speaker], said, monitored[subject])] += 1
    return counts


def brute_trust(verified, speaker_color, said):
    reds = verified[(speaker_color, said, Color.RED)]
    blues = verified[(speaker_color, said, Color.BLUE)]
    return (reds + 1) / (reds + blues + 2)


def brute_features(v, edges, monitored, statements, verified):
    """The nine feature values for `v`, straight from the definitions."""
    mon_nbrs = [u for u in monitored if _pair(u, v) in edges]
    red_nbrs = [u for u in mon_nbrs if monitored[u] is Color.RED]
    blue_nbrs = [u for u in mon_nbrs if monitored[u] is Color.BLUE]
    triangles = sum(
        1
        for i, u in enumerate(red_nbrs)
        for w in red_nbrs[i + 1:]
        if _pair(u, w) in edges
    )
    about = [(u, statements[(u, v)]) for u in mon_nbrs if (u, v) in statements]
    rsr = sum(1 for u, said in about if monitored[u] is Color.RED and said is Color.RED)
    rsb = sum(1 for u, said in about if monitored[u] is Color.RED and said is Color.BLUE)
    bsr = sum(1 for u, said in about if monitored[u] is Color.BLUE and said is Color.RED)
    bsb = sum(1 for u, said in about if monitored[u] is Color.BLUE and said is Color.BLUE)
    if about:
        inferred = sum(brute_trust(verified, monitored[u], said) for u, said in about) / len(about)
    else:
        inferred = 0.5
    return (
        float(len(red_nbrs)),
        float(len(blue_nbrs)),
        float(triangles),
        float(rsr + bsr),
        float(rsr),
        float(rsb),
        float(bsr),
        float(bsb),
        inferred,
    )


def ordered_inferred_red(rsr, rsb, bsr, bsb, verified):
    """inferred_red from a candidate's four claim counts, as scalar floats.

    The same arithmetic as the package in the same order, so the result
    must match its feature rows bit for bit (brute_features averages
    per-claim trust values instead and only matches approximately).
    """
    total = rsr + rsb + bsr + bsb
    if total == 0:
        return 0.5
    return (
        rsr * brute_trust(verified, Color.RED, Color.RED)
        + rsb * brute_trust(verified, Color.RED, Color.BLUE)
        + bsr * brute_trust(verified, Color.BLUE, Color.RED)
        + bsb * brute_trust(verified, Color.BLUE, Color.BLUE)
    ) / total


@contextmanager
def fit_settings(**settings):
    """Every `fit` inside the block uses `DEFAULT_PARAMS` with `settings` replaced."""
    saved = classifier.DEFAULT_PARAMS
    classifier.DEFAULT_PARAMS = dataclasses.replace(saved, **settings)
    try:
        yield
    finally:
        classifier.DEFAULT_PARAMS = saved


def assert_hessian_matches_gradient(X, y, w, b, l2, h=1e-5) -> None:
    """`hessian` against central differences of `gradient`, one column per parameter, bias last."""
    H = hessian(X, w, b, l2)
    d = len(w)
    for j in range(d + 1):
        e = np.zeros(d + 1)
        e[j] = h
        plus = np.append(*gradient(X, y, w + e[:d], b + e[d], l2))
        minus = np.append(*gradient(X, y, w - e[:d], b - e[d], l2))
        fd = (plus - minus) / (2 * h)
        assert np.all(np.abs(H[:, j] - fd) <= 1e-5 * np.maximum(1.0, np.abs(fd))), f"column {j}"


# The learner's arithmetic as first written, expression for expression. The
# package computes the same values with fewer array passes (one preallocated
# feature block, in-place scoring); these references pin that the bits did
# not move.

def reference_trust(state) -> np.ndarray:
    """`ObserverState.trust` as numpy's division of the verified counts."""
    v = state.verified_counts
    return (v[..., RED] + 1) / (v.sum(-1) + 2)


def reference_feature_rows(state, ids) -> np.ndarray:
    """`ObserverState.feature_rows` as nine columns joined by `column_stack`."""
    say = state.say[ids].astype(float)
    rsr, rsb, bsr, bsb = say.T
    X = np.column_stack((rsr + rsb, bsr + bsb, state.triangles[ids], rsr + bsr, say,
                         np.full(len(ids), 0.5)))
    total = rsr + rsb + bsr + bsb
    trust = reference_trust(state)
    acc = rsr * trust[0, 0] + rsb * trust[0, 1] + bsr * trust[1, 0] + bsb * trust[1, 1]
    np.divide(acc, total, out=X[:, 8], where=total > 0)
    return X


def reference_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def reference_predict_many(model, X) -> np.ndarray:
    """`predict_many` as one expression over a standardized copy."""
    return reference_sigmoid(((np.asarray(X, dtype=float) - model.mean) * model.scale) @ model.weights + model.bias)


def reference_loss(X, y, w, b, l2) -> float:
    """`classifier.loss` with `np.mean`."""
    z = X @ w + b
    s = 2.0 * y - 1.0
    return float(np.mean(np.logaddexp(0.0, -s * z))) + 0.5 * l2 * float(w @ w)


def reference_gradient(X, y, w, b, l2):
    """`classifier.gradient` with `np.mean`."""
    p = reference_sigmoid(X @ w + b)
    resid = p - y
    return X.T @ resid / len(y) + l2 * w, float(np.mean(resid))


def reference_hessian(X, w, b, l2) -> np.ndarray:
    """`classifier.hessian` with `[X | 1]` from `column_stack` and a fancy-indexed diagonal."""
    A = np.column_stack([X, np.ones(len(X))])
    p = reference_sigmoid(X @ w + b)
    H = (A.T * (p * (1.0 - p))) @ A / len(X)
    d = len(w)
    H[np.arange(d), np.arange(d)] += l2
    return H
