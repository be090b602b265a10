"""The sampler's partial view of the world, built from monitor reports.

Only what reports reveal is known: a node is observed once any monitor
names it as a neighbor, an edge is known only when one of its endpoints
has been monitored, and a color is known only for monitored nodes. The
state keeps a (2, 2, 2) int array of verified claims (speaker color x
said color x subject's true color), counting each claim whose subject
is monitored, and `trust()` smooths it into a 2x2 array. From these it
derives, for any observed node, the nine-entry feature row the learning
strategy consumes, whose last entry is the trust-weighted probability
that the candidate is red.

The state is one report record plus the counters below. The record,
`reports`, maps each monitored node to its report, in monitor order: it
is the one record of claims, edges and monitor order. On top of it,
ingest keeps two per-node arrays indexed by node id, allocated once for
the world's `n` ids: each node's monitored color and whether it is on
the frontier. The frontier is kept incrementally, so `frontier()` and
`candidates()` read one mask. Colors are coded graph.RED (0) and
graph.BLUE (1) throughout the arrays, the verified table included; a
report's color and statements arrive in the same codes, checked when a
report is built by hand and guaranteed by the world for the oracle's
own, so the counters are indexed with them as they are. Ingest marks
a report's neighbors with one array step.

Three counters are folded on read: each node's four claim counts by
(speaker color, said color), the verified table and each node's red
triangles. Ingest leaves them alone, and reading `say`,
`verified_counts` or `triangles` first folds in the reports ingested
since the last read, in monitor order. A counting run reads `say` only
to build its kept scores, before its first report, and keeps its own
scores from the claims after that (see strategies); it never reads the
other two, so it never folds. The learning strategy reads all three.
The known red and blue neighbor counts derive from the claim counts,
because every monitored neighbor makes exactly one claim about a node.
A fold adds a report's claims to the claim counts through one flat
index. A red target's new triangles are read from the record: the
reports of the red neighbors monitored before it say which of the
target's neighbors each also touches, found for all of them by one
`searchsorted` into the target's ascending neighbor array. At a few
hundred red neighbors per red, as in a dense
homophily world, that search is most of the cost of a report. The
verified table restates the others on purpose: it equals the monitored
nodes' claim counts summed by their color, and is kept as a running
total because `trust()` is read at every feature pass. Recounting it
there costs tens of microseconds per call at n=500 and up to a
millisecond at n=26220; folding costs about 10 us per report. Each
counter holds the same integers whether it is read after every ingest
or after many (see `_fold`).

`feature_rows` gathers one float row per node from the arrays,
computing the trust table once, and checks nothing: its callers, the
redlearn pick (the frontier) and `build_training_set` (the keys of
`reports`), hold observed ids by construction. `features(v)` is the one
checked read. The test suite checks the rows against a from-scratch
recount of the reports.
"""

from __future__ import annotations

import json
from itertools import islice

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
      color            (n,) int8 array: 0 (red) or 1 (blue) once the node
                       is monitored, -1 before.
      on_frontier      (n,) bool array: True for observed, unmonitored
                       nodes (the candidates).
    Folded on read, from the reports that no read has yet taken in:
      say              (n, 4) int array: claims about each node by
                       monitored speakers, columns in (speaker color, said
                       color) order: rsr, rsb, bsr, bsb.
      verified_counts  (2, 2, 2) int array indexed [speaker color, said
                       color, subject true color] in the same codes:
                       counts of claims whose subject is now monitored.
      triangles        (n,) int array: adjacent pairs among each node's
                       monitored red neighbors.

    The arrays are allocated once. `ingest` keeps `color` and
    `on_frontier` up to date; the three folded counters are properties
    that fold first and return the live array, so a write into it lands.
    A fold changes no value that a reader can see.
    """

    def __init__(self, start: int, n: int):
        if not (is_integer(start) and 0 <= start < n):
            raise ValueError(f"start node {start} is not a node id in [0, {n})")
        self.reports: dict[int, MonitorReport] = {}
        self.color = np.full(n, -1, dtype=np.int8)
        self.on_frontier = np.zeros(n, dtype=bool)
        self.on_frontier[start] = True
        self._say = np.zeros((n, 4), dtype=np.int64)
        self._verified = np.zeros((2, 2, 2), dtype=np.int64)
        self._triangles = np.zeros(n, dtype=np.int64)
        self._folded_color = np.full(n, -1, dtype=np.int8)
        self._folded = 0

    @property
    def say(self) -> np.ndarray:
        """The (n, 4) claim counts, brought up to date: the live array."""
        self._fold()
        return self._say

    @property
    def verified_counts(self) -> np.ndarray:
        """The (2, 2, 2) verified-claim table, brought up to date: the live array."""
        self._fold()
        return self._verified

    @property
    def triangles(self) -> np.ndarray:
        """The (n,) red-triangle counts, brought up to date: the live array."""
        self._fold()
        return self._triangles

    def frontier(self) -> np.ndarray:
        """Observed-but-unmonitored node ids as a new ascending int array."""
        return np.flatnonzero(self.on_frontier)

    def candidates(self) -> list[int]:
        """Observed-but-unmonitored node ids, ascending (the legal monitor targets)."""
        return self.frontier().tolist()

    def ingest(self, report: MonitorReport) -> None:
        """Record one monitor report.

        The target is recorded with its true color and its neighbors
        become observed; the claim counts, the verified table and the red
        triangles take the report in when they are next read (see
        `_fold`). A report is well formed once built; ingest checks,
        before writing anything, only what needs the state: the target
        must be observed and unmonitored (a placement spends budget
        once), and every neighbor must lie in [0, n).
        """
        t = report.target
        n = len(self.color)
        inside = 0 <= t < n
        if inside and self.color[t] >= 0:
            raise ValueError(f"node {t} is already monitored")
        if not (inside and self.on_frontier[t]):
            raise ValueError(f"node {t} has not been observed; monitors go on observed nodes")
        nbrs = report.neighbors
        if len(nbrs) and not (nbrs[0] >= 0 and nbrs[-1] < n):  # they ascend, so the ends bound them
            raise ValueError(f"report on node {t} names a neighbor outside [0, {n})")
        self.color[t] = report.color
        self.on_frontier[t] = False
        self.on_frontier[nbrs] = self.color[nbrs] < 0  # monitored neighbors are already off it
        self.reports[t] = report

    def _fold(self) -> None:
        """Fold the reports ingested since the last fold into `_say`,
        `_verified` and `_triangles`, one at a time in monitor order, as
        a fold after each ingest would.

        `_folded_color` is `color` as it stood after the first `_folded`
        reports. A claim between two monitored nodes is verified once:
        by its speaker's report if the subject was folded first, and
        otherwise by the subject's `_say` row when the subject's own
        report is folded, which then holds every claim about it by the
        speakers folded so far. So one fold after many ingests gives the
        counts that a fold after every ingest gives.
        """
        pending = len(self.reports) - self._folded
        if not pending:
            return
        reports = list(islice(reversed(self.reports.values()), pending))[::-1]
        say, lagged, verified = self._say, self._folded_color, self._verified
        for report in reports:
            t, nbrs, said, color = report.target, report.neighbors, report.statements, report.color
            # Each claim's flat index into say's buffer, 4 * v + 2 * color + said,
            # formed in intp: 4 * v would wrap in a small neighbor dtype such as uint8.
            flat = np.multiply(nbrs, 4, dtype=np.intp)
            flat += said
            flat += 2 * color
            say.reshape(-1)[flat] += 1
            subject = lagged[nbrs]
            seen = subject >= 0
            verified[color] += np.bincount(2 * said[seen] + subject[seen], minlength=4).reshape(2, 2)
            verified[:, :, color] += say[t].reshape(2, 2)
            if color == RED:
                # A red r monitored before t closes the red triangle (t, r, v)
                # at every v that both t and r touch. All of the red neighbors'
                # neighbors are located at once in t's ascending, unique nbrs;
                # the exact matches, counted per position, are the new triangles.
                reds = nbrs[subject == RED].tolist()
                if reds:
                    touched = np.concatenate([self.reports[r].neighbors for r in reds])
                    at = nbrs.searchsorted(touched)
                    np.minimum(at, len(nbrs) - 1, out=at)  # past the end: no match, but a valid index
                    self._triangles[nbrs] += np.bincount(at[nbrs[at] == touched], minlength=len(nbrs))
            lagged[t] = color
        self._folded = len(self.reports)

    def trust(self) -> np.ndarray:
        """P(subject is red | speaker color, said color) as a 2x2 array, from verified claims.

        Indexed [speaker color, said color], 0 = red and 1 = blue.
        Add-one smoothed: (verified red subjects + 1) / (verified total + 2),
        so each cell is 0.5 before any evidence and approaches the raw
        verified ratio as counts grow. The four cells are divided as
        Python ints: below 2**53, as any count of claims is, that rounds
        exactly as numpy's float64 division of the same counts, at a
        fraction of numpy's per-call cost.
        """
        return np.array([[(red + 1) / (red + blue + 2) for red, blue in by_said]
                         for by_said in self.verified_counts.tolist()])

    def features(self, v: int) -> np.ndarray:
        """Feature row of the observed node `v`: `feature_rows` of `[v]`, after checking `v`.

        An id that is not an integer (a bool included), lies outside
        [0, n) or is not yet observed raises ValueError.
        """
        if not is_integer(v):
            raise ValueError(f"node ids must be integers, got {v!r}")
        if not (0 <= v < len(self.color) and (self.on_frontier[v] or self.color[v] >= 0)):
            raise ValueError(f"node {v} has not been observed")
        return self.feature_rows(np.array([v], dtype=np.intp))[0]

    def feature_rows(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows of `ids` as a (len(ids), 9) float array, in one pass.

        `ids` must be an int array of observed node ids, such as
        `frontier()` or the keys of `reports`; nothing is checked.
        Columns follow FEATURE_NAMES. The first eight are non-negative
        counts over the node's monitored neighbors and their claims about
        it; `inferred_red` is the trust-weighted mean over those claims,
        0.5 with none. Every observed node has a row, monitored ones too:
        a node's own report adds nothing to its own counts, so its row is
        what a candidate in its place would show.

        The columns are written into one preallocated (9, len(ids)) float
        block, one contiguous row per feature, and returned transposed as
        a C-ordered (len(ids), 9) copy: the layout that `fit`'s column
        sums and the BLAS products were always given. The claim counts
        are cast once, into features 4-7, and the other features are
        computed elementwise from them. `inferred_red` weighs the four
        counts by their trust cells and sums them in the fixed order rsr,
        rsb, bsr, bsb, so every row rounds exactly as the scalar sum
        would (a BLAS dot could reorder the additions); the counts are
        whole numbers, so their total is exact in any order.
        """
        cols = np.empty((9, len(ids)))
        say = cols[4:8]
        say[...] = self.say.take(ids, axis=0).T
        rsr, rsb, bsr, bsb = say
        np.add(rsr, rsb, out=cols[0])
        np.add(bsr, bsb, out=cols[1])
        cols[2] = self.triangles.take(ids)
        np.add(rsr, bsr, out=cols[3])
        total = cols[0] + cols[1]
        weighted = say * self.trust().reshape(4, 1)  # cells in rsr, rsb, bsr, bsb order
        acc = weighted[0]
        acc += weighted[1]
        acc += weighted[2]
        acc += weighted[3]
        cols[8] = 0.5
        np.divide(acc, total, out=cols[8], where=total > 0)
        return cols.T.copy()

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
