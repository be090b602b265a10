"""The sampler's partial view of the world, built from monitor reports.

Only what reports reveal is known: a node is observed once any monitor
names it as a neighbor, an edge is known only when one of its endpoints
has been monitored, and a color is known only for monitored nodes. The
state keeps a (2, 2, 2) int array of verified claims (speaker color x
said color x subject's true color), filled in whenever a claim's subject
gets monitored, and `trust()` smooths it into a 2x2 array. From these it
derives, for any candidate node, the nine-entry feature row the learning
strategy consumes, whose last entry is the trust-weighted probability
that the candidate is red.

The state is one report record plus the counters below; no fact is
stored twice. The record, `reports`, maps each monitored node to its
report, in monitor order: it is the one record of claims, edges and
monitor order. On top of it, ingest keeps per-node counters as int
arrays indexed by node id (`NodeCounters`): each node's four claim
counts by (speaker color, said color), its red triangles, its monitored
color and whether it is on the frontier. The frontier is kept
incrementally, so `frontier()` and `candidates()` read one mask, and the
known red and blue neighbor counts derive from the claim counts, because
every monitored neighbor makes exactly one claim about a node. A red
target's new triangles are read from the record: each monitored red
neighbor's report says which of the target's neighbors it also touches.
Colors are coded graph.RED (0) and graph.BLUE (1) throughout the
arrays, the verified table included; a report's statements arrive in
the same codes, so ingest indexes the counters with a report's two
arrays as they are. `observed_nodes` and `monitored` are read-only
views rebuilt on every read; the step loop never reads them.
`features_matrix` gathers one float row per node from the arrays,
computing the trust table once; `features(v)` is that matrix's single
row. The test suite checks the rows against a
from-scratch recount of the reports.
"""

from __future__ import annotations

import json
from types import MappingProxyType

import numpy as np

from .graph import RED, Color
from .oracle import MonitorReport

FEATURE_NAMES = (
    "red_neighbors",
    "blue_neighbors",
    "red_triangles",
    "red_score",
    "red_say_red",
    "red_say_blue",
    "blue_say_red",
    "blue_say_blue",
    "inferred_red",
)

# Column layout of the per-node claim counts: (speaker color, said color)
# in the RED (0) / BLUE (1) codes, so a claim's column is 2 * speaker + said.
RSR, RSB, BSR, BSB = 0, 1, 2, 3


class NodeCounters:
    """Per-node int arrays indexed by node id, grown as larger ids appear.

      say        (size, 4) claims about each node by monitored speakers,
                 columns in (speaker color, said color) order: rsr, rsb,
                 bsr, bsb.
      triangles  adjacent pairs among each node's monitored red neighbors.
      color      0 (red) or 1 (blue) once the node is monitored, -1 before.
      frontier   True for observed, unmonitored nodes (the candidates).

    An id past the arrays has never been named in a report, so it is not
    observed.
    """

    FIELDS = ("say", "triangles", "color", "frontier")

    def __init__(self, size: int):
        self.say = np.zeros((size, 4), dtype=np.int64)
        self.triangles = np.zeros(size, dtype=np.int64)
        self.color = np.full(size, -1, dtype=np.int8)
        self.frontier = np.zeros(size, dtype=bool)

    def reserve(self, top: int) -> None:
        """Make ids up to `top` indexable."""
        size = len(self.color)
        if top < size:
            return
        grown = NodeCounters(max(top + 1, 2 * size))
        for name in self.FIELDS:
            getattr(grown, name)[:size] = getattr(self, name)
        self.__dict__.update(grown.__dict__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NodeCounters):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.FIELDS)


class ObserverState:
    """Mutable crawl knowledge for one run, keyed by dense node ids.

    Stored, each fact once:
      start            the initially known node.
      reports          monitored node id -> its MonitorReport, in monitor
                       order: the claims and the known edges.
      counts           NodeCounters: per-node claim counts, red triangles,
                       monitored colors and the frontier mask, kept up to
                       date by `ingest`; callers only read them.
      verified_counts  (2, 2, 2) int array indexed [speaker color, said
                       color, subject true color] in the NodeCounters codes
                       (0 = red, 1 = blue): counts of claims whose subject
                       is now monitored.

    Read-only views, rebuilt from the above on every read in time linear
    in the arrays or the reports, so not meant for a step loop:
      observed_nodes   frozenset of ids ever seen (monitored or named as a
                       neighbor); the start node is observed from step 0.
      monitored        node id -> true Color, in monitor order.
    """

    def __init__(self, start: int):
        if start < 0:
            raise ValueError(f"start node {start} is not a node id: ids are non-negative")
        self.start = start
        self.verified_counts = np.zeros((2, 2, 2), dtype=np.int64)
        self.reports: dict[int, MonitorReport] = {}
        self.counts = NodeCounters(start + 1)
        self.counts.frontier[start] = True

    @classmethod
    def replay(cls, start: int, reports) -> "ObserverState":
        """Rebuild a state by ingesting an ordered iterable of reports from scratch."""
        state = cls(start)
        for report in reports:
            state.ingest(report)
        return state

    @property
    def observed_nodes(self) -> frozenset[int]:
        c = self.counts
        return frozenset(np.flatnonzero(c.frontier | (c.color >= 0)).tolist())

    @property
    def monitored(self) -> MappingProxyType:
        return MappingProxyType({t: r.true_color for t, r in self.reports.items()})

    def frontier(self) -> np.ndarray:
        """Observed-but-unmonitored node ids as a new ascending int array."""
        return np.flatnonzero(self.counts.frontier)

    def candidates(self) -> list[int]:
        """Observed-but-unmonitored node ids, ascending (the legal monitor targets)."""
        return self.frontier().tolist()

    def ingest(self, report: MonitorReport) -> "ObserverState":
        """Fold one monitor report into the state.

        The target is recorded with its true color, its neighbors become
        observed, its claims are counted, and the verified-claim table
        picks up both old claims about the target and new claims about
        already-monitored subjects. Ingesting the same target twice is an
        error: a monitor placement spends budget once.
        """
        t = report.target
        c = self.counts
        inside = 0 <= t < len(c.color)
        if inside and c.color[t] >= 0:
            raise ValueError(f"node {t} is already monitored")
        if not (inside and c.frontier[t]):
            raise ValueError(f"node {t} has not been observed; monitors go on observed nodes")
        t_code = report.true_color.code
        nbrs, said = report.neighbors, report.statements
        c.reserve(max(t, nbrs[-1]) if len(nbrs) else t)  # neighbors ascend
        c.color[t] = t_code
        c.frontier[t] = False

        c.say[nbrs, 2 * t_code + said] += 1
        subject = c.color[nbrs]
        if t_code == RED:
            # A monitored red neighbor r closes the red triangle (t, r, v)
            # at every v that both t and r touch; both arrays ascend uniquely.
            for r in nbrs[subject == RED].tolist():
                c.triangles[np.intersect1d(nbrs, self.reports[r].neighbors, assume_unique=True)] += 1
        c.frontier[nbrs[subject < 0]] = True

        verified = self.verified_counts
        seen = subject >= 0
        verified[t_code] += np.bincount(2 * said[seen] + subject[seen], minlength=4).reshape(2, 2)
        # Every claim about t came from an already-monitored speaker, so
        # t's four claim counts are exactly the claims t's color verifies.
        verified[:, :, t_code] += c.say[t].reshape(2, 2)

        self.reports[t] = report
        return self

    def trust(self) -> np.ndarray:
        """P(subject is red | speaker color, said color) as a 2x2 array, from verified claims.

        Indexed [speaker color, said color] in the NodeCounters codes.
        Add-one smoothed: (verified red subjects + 1) / (verified total + 2),
        so each cell is 0.5 before any evidence and approaches the raw
        verified ratio as counts grow.
        """
        v = self.verified_counts
        return (v[..., RED] + 1) / (v.sum(-1) + 2)

    def features(self, v: int, allow_monitored: bool = False) -> np.ndarray:
        """Feature row of node `v` from current knowledge: `features_matrix([v])[0]`.

        By default `v` must be a candidate. Training-set assembly passes
        `allow_monitored=True` to compute the same row for a monitored
        node; nothing a node's own report reveals feeds back into its own
        counts, so the row matches what a candidate in its position
        would show.
        """
        return self.features_matrix([v], allow_monitored)[0]

    def features_matrix(self, nodes, allow_monitored: bool = False) -> np.ndarray:
        """Feature rows of `nodes` as a (len(nodes), 9) float array, in one pass.

        Columns follow FEATURE_NAMES. The first eight are non-negative
        counts over the node's monitored neighbors and their claims about
        it; `inferred_red` is the trust-weighted mean over those claims,
        0.5 with none. The rows are gathered from `counts`, and the trust
        table is computed once per call. An id that is not observed, or
        that is monitored without `allow_monitored`, raises ValueError.
        """
        ids = np.asarray(nodes, dtype=np.intp)
        c = self.counts
        outside = (ids < 0) | (ids >= len(c.color))
        if outside.any():
            raise ValueError(f"node {ids[outside][0]} has not been observed")
        legal = c.frontier[ids] | (allow_monitored & (c.color[ids] >= 0))
        if not legal.all():
            v = ids[~legal][0]
            if c.color[v] >= 0:
                raise ValueError(f"node {v} is monitored; features are for candidates")
            raise ValueError(f"node {v} has not been observed")
        say = c.say[ids].astype(float)
        rsr, rsb, bsr, bsb = say.T
        X = np.column_stack((rsr + rsb, bsr + bsb, c.triangles[ids], rsr + bsr, say,
                             np.full(len(ids), 0.5)))
        total = rsr + rsb + bsr + bsb
        # Elementwise, in this order, so every row rounds exactly as the
        # scalar sum would; a BLAS dot could reorder the additions.
        trust = self.trust()
        acc = rsr * trust[0, 0] + rsb * trust[0, 1] + bsr * trust[1, 0] + bsb * trust[1, 1]
        np.divide(acc, total, out=X[:, 8], where=total > 0)
        return X

    def dump_report_log(self, path) -> None:
        """Write the reports as JSON lines, one report per line, in monitor order."""
        with open(path, "w", encoding="utf-8") as fh:
            for report in self.reports.values():
                neighbors = report.neighbors.tolist()
                fh.write(json.dumps({
                    "target": report.target,
                    "true_color": report.true_color.value,
                    "neighbors": neighbors,
                    "statements": [
                        {"subject": v, "said": Color.from_code(said).value}
                        for v, said in zip(neighbors, report.statements.tolist())
                    ],
                }) + "\n")
