"""The sampler's partial view of the world, built from monitor reports.

Only what reports reveal is known: a node is observed once any monitor
names it as a neighbor, an edge is known only when one of its endpoints
has been monitored, and a color is known only for monitored nodes. The
state keeps a (2, 2, 2) int array of verified claims (speaker color x
said color x subject's true color), filled in whenever a claim's subject
gets monitored, and `trust()` smooths it into a 2x2 array. From these it
derives, for any observed node, the nine-entry feature row the learning
strategy consumes, whose last entry is the trust-weighted probability
that the candidate is red.

The state is one report record plus the counters below. The record,
`reports`, maps each monitored node to its report, in monitor order: it
is the one record of claims, edges and monitor order. On top of it,
ingest keeps four per-node arrays indexed by node id, allocated once
for the world's `n` ids: each node's four
claim counts by (speaker color, said color), its red triangles, its
monitored color and whether it is on the frontier. The frontier is kept
incrementally, so `frontier()` and `candidates()` read one mask, and the
known red and blue neighbor counts derive from the claim counts, because
every monitored neighbor makes exactly one claim about a node. A red
target's new triangles are read from the record: each monitored red
neighbor's report says which of the target's neighbors it also touches.
Colors are coded graph.RED (0) and graph.BLUE (1) throughout the
arrays, the verified table included; a report's color and statements
arrive in the same codes, checked when the report was built, so ingest
indexes the counters with them as they are. One counter restates the
others on purpose: the verified table equals the monitored nodes' claim
counts summed by their color, and is kept as a running total because
`trust()` is read at every feature pass. Recounting it there costs tens
of microseconds per call at n=500 and up to a millisecond at n=26220;
the running total costs about 11 us per ingest. `features_matrix` gathers
one float row per node from the arrays, computing the trust table
once; `features(v)` is that matrix's single row. The test suite checks
the rows against a from-scratch recount of the reports.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import RED, Color, is_integer
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


class ObserverState:
    """Mutable crawl knowledge for one run over the node ids [0, n).

    Stored, each fact once but for `verified_counts`, a running total of
    the monitored nodes' `say` rows summed by `color` (see the module
    docstring):
      reports          monitored node id -> its MonitorReport, in monitor
                       order: the claims and the known edges.
      say              (n, 4) int array: claims about each node by
                       monitored speakers, columns in (speaker color, said
                       color) order: rsr, rsb, bsr, bsb.
      triangles        (n,) int array: adjacent pairs among each node's
                       monitored red neighbors.
      color            (n,) int8 array: 0 (red) or 1 (blue) once the node
                       is monitored, -1 before.
      on_frontier      (n,) bool array: True for observed, unmonitored
                       nodes (the candidates).
      verified_counts  (2, 2, 2) int array indexed [speaker color, said
                       color, subject true color] in the same codes:
                       counts of claims whose subject is now monitored.

    The four per-node arrays are allocated once and kept up to date by
    `ingest`; callers only read them.
    """

    def __init__(self, start: int, n: int):
        if not (is_integer(start) and 0 <= start < n):
            raise ValueError(f"start node {start} is not a node id in [0, {n})")
        self.verified_counts = np.zeros((2, 2, 2), dtype=np.int64)
        self.reports: dict[int, MonitorReport] = {}
        self.say = np.zeros((n, 4), dtype=np.int64)
        self.triangles = np.zeros(n, dtype=np.int64)
        self.color = np.full(n, -1, dtype=np.int8)
        self.on_frontier = np.zeros(n, dtype=bool)
        self.on_frontier[start] = True

    def frontier(self) -> np.ndarray:
        """Observed-but-unmonitored node ids as a new ascending int array."""
        return np.flatnonzero(self.on_frontier)

    def candidates(self) -> list[int]:
        """Observed-but-unmonitored node ids, ascending (the legal monitor targets)."""
        return self.frontier().tolist()

    def ingest(self, report: MonitorReport) -> "ObserverState":
        """Fold one monitor report into the state.

        The target is recorded with its true color, its neighbors become
        observed, its claims are counted, and the verified-claim table
        picks up both old claims about the target and new claims about
        already-monitored subjects. A report is well formed once built;
        ingest checks, before writing anything, only what needs the state:
        the target must be observed and unmonitored (a placement spends
        budget once), and every neighbor must lie in [0, n).
        """
        t = report.target
        n = len(self.color)
        inside = 0 <= t < n
        if inside and self.color[t] >= 0:
            raise ValueError(f"node {t} is already monitored")
        if not (inside and self.on_frontier[t]):
            raise ValueError(f"node {t} has not been observed; monitors go on observed nodes")
        nbrs, said, t_code = report.neighbors, report.statements, report.color
        if len(nbrs) and not (nbrs[0] >= 0 and nbrs[-1] < n):  # they ascend, so the ends bound them
            raise ValueError(f"report on node {t} names a neighbor outside [0, {n})")
        self.color[t] = t_code
        self.on_frontier[t] = False

        self.say[nbrs, 2 * t_code + said] += 1
        subject = self.color[nbrs]
        if t_code == RED:
            # A monitored red neighbor r closes the red triangle (t, r, v)
            # at every v that both t and r touch; both arrays ascend uniquely.
            for r in nbrs[subject == RED].tolist():
                self.triangles[np.intersect1d(nbrs, self.reports[r].neighbors, assume_unique=True)] += 1
        self.on_frontier[nbrs[subject < 0]] = True

        verified = self.verified_counts
        seen = subject >= 0
        verified[t_code] += np.bincount(2 * said[seen] + subject[seen], minlength=4).reshape(2, 2)
        # Every claim about t came from an already-monitored speaker, so
        # t's four claim counts are exactly the claims t's color verifies.
        verified[:, :, t_code] += self.say[t].reshape(2, 2)

        self.reports[t] = report
        return self

    def trust(self) -> np.ndarray:
        """P(subject is red | speaker color, said color) as a 2x2 array, from verified claims.

        Indexed [speaker color, said color], 0 = red and 1 = blue.
        Add-one smoothed: (verified red subjects + 1) / (verified total + 2),
        so each cell is 0.5 before any evidence and approaches the raw
        verified ratio as counts grow.
        """
        v = self.verified_counts
        return (v[..., RED] + 1) / (v.sum(-1) + 2)

    def features(self, v: int) -> np.ndarray:
        """Feature row of the observed node `v` from current knowledge: `features_matrix([v])[0]`."""
        return self.features_matrix([v])[0]

    def features_matrix(self, nodes) -> np.ndarray:
        """Feature rows of `nodes` as a (len(nodes), 9) float array, in one pass.

        Columns follow FEATURE_NAMES. The first eight are non-negative
        counts over the node's monitored neighbors and their claims about
        it; `inferred_red` is the trust-weighted mean over those claims,
        0.5 with none. The rows are gathered from the per-node arrays, and
        the trust table is computed once per call. Every observed node
        has a row, monitored ones too: a node's own report adds nothing to
        its own counts, so its row is what a candidate in its place would
        show. An id that is not an integer or not observed raises ValueError.
        """
        ids = np.asarray(nodes)
        if ids.size and ids.dtype.kind not in "iu":
            raise ValueError(f"node ids must be integers, got {ids.dtype} values")
        ids = ids.astype(np.intp, copy=False)
        outside = (ids < 0) | (ids >= len(self.color))
        if outside.any():
            raise ValueError(f"node {ids[outside][0]} has not been observed")
        observed = self.on_frontier[ids] | (self.color[ids] >= 0)
        if not observed.all():
            raise ValueError(f"node {ids[~observed][0]} has not been observed")
        say = self.say[ids].astype(float)
        rsr, rsb, bsr, bsb = say.T
        X = np.column_stack((rsr + rsb, bsr + bsb, self.triangles[ids], rsr + bsr, say,
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
                    "target": int(report.target),
                    "true_color": Color.from_code(report.color).value,
                    "neighbors": neighbors,
                    "statements": [
                        {"subject": v, "said": Color.from_code(said).value}
                        for v, said in zip(neighbors, report.statements.tolist())
                    ],
                }) + "\n")
