"""Shared test utilities: world builders and from-scratch recomputations.

The brute-force functions below rebuild observer knowledge directly from
an ordered report log using the definitions, with none of the package's
incremental bookkeeping, so they can serve as an independent check on
ObserverState.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from redcrawl import Color, TrainedModel, WorldGraph

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


def make_world(n, edges, red=(), hierarchy=None, name="test") -> WorldGraph:
    """Hand-build a world graph from an edge list and a red id set."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    red = set(red)
    colors = [Color.RED if v in red else Color.BLUE for v in range(n)]
    g = WorldGraph(
        adjacency=adjacency,
        colors=colors,
        hierarchy=[float(h) for h in hierarchy] if hierarchy else [1.0] * n,
        name=name,
    )
    g.validate()
    return g


def identity_model(weights, bias=0.0) -> TrainedModel:
    """Model with pass-through standardization for hand-built score checks."""
    w = np.asarray(weights, dtype=float)
    return TrainedModel(weights=w, bias=bias, mean=np.zeros(9), scale=np.ones(9), fallback=False)


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def brute_knowledge(start, reports):
    """Observed nodes/edges, monitored colors, and statements, by definition."""
    observed = {start}
    edges = set()
    monitored = {}
    statements = {}
    for rep in reports:
        monitored[rep.target] = rep.true_color
        observed.add(rep.target)
        for v in rep.neighbors:
            observed.add(v)
            edges.add(_pair(rep.target, v))
        for v, said in zip(rep.neighbors, rep.statements):
            statements[(rep.target, v)] = said
    return observed, edges, monitored, statements


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
