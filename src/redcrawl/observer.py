"""The sampler's partial view of the world, built from monitor reports.

Only what reports reveal is known: a node is observed once any monitor
names it as a neighbor, an edge is known only when one of its endpoints
has been monitored, and a color is known only for monitored nodes. The
state keeps a 2x2x2 table of verified claims (speaker color x said color
x subject's true color), filled in whenever a claim's subject gets
monitored. From this it derives, for any candidate node, the nine-entry
feature vector the learning strategy consumes and the trust-weighted
probability that the candidate is red.

The report log is the one record of claims and edges. On top of it,
ingest keeps per-node counters as int arrays indexed by node id
(`NodeCounters`): each node's four claim counts by (speaker color, said
color), its red triangles, its monitored color and whether it is on the
frontier. The frontier is kept incrementally, so `frontier()` and
`candidates()` read one mask, and the known red and blue neighbor counts
derive from the claim counts, because every monitored neighbor makes
exactly one claim about a node. `features_matrix` gathers one row per
node from the arrays, reading the trust table once; `features` and
`inferred_red_probability` are that same row code for a single node. The
test suite checks the rows against a from-scratch recount of the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import Color
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

# Column layout of the per-node claim counts: (speaker color, said color),
# with Color 0 = red and 1 = blue, so a claim's column is 2 * speaker + said.
RSR, RSB, BSR, BSB = 0, 1, 2, 3
_COLOR_PAIRS = tuple((a, b) for a in Color for b in Color)


class NodeCounters:
    """Per-node int arrays indexed by node id, grown as larger ids appear.

      say        (size, 4) claims about each node by monitored speakers,
                 columns in (speaker color, said color) order: rsr, rsb,
                 bsr, bsb.
      triangles  adjacent pairs among each node's monitored red neighbors.
      color      0 (red) or 1 (blue) once the node is monitored, -1 before.
      frontier   True for observed, unmonitored nodes (the candidates).

    The arrays always keep at least one spare row past the largest id
    ingested, so an id beyond them can be read as that all-zero row.
    """

    FIELDS = ("say", "triangles", "color", "frontier")

    def __init__(self, size: int):
        self.say = np.zeros((size, 4), dtype=np.int64)
        self.triangles = np.zeros(size, dtype=np.int64)
        self.color = np.full(size, -1, dtype=np.int8)
        self.frontier = np.zeros(size, dtype=bool)

    def reserve(self, top: int) -> None:
        """Make ids up to `top` indexable, keeping a spare row past them."""
        size = len(self.color)
        if top + 1 < size:
            return
        grown = NodeCounters(max(top + 2, 2 * size))
        for name in self.FIELDS:
            getattr(grown, name)[:size] = getattr(self, name)
        self.__dict__.update(grown.__dict__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NodeCounters):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.FIELDS)


@dataclass(frozen=True)
class FeatureVector:
    """Per-candidate classification features.

    The first eight are non-negative counts over the candidate's
    monitored neighbors and their claims about it; `inferred_red` is the
    trust-weighted mean probability in [0, 1].
    """

    red_neighbors: int
    blue_neighbors: int
    red_triangles: int
    red_score: int
    red_say_red: int
    red_say_blue: int
    blue_say_red: int
    blue_say_blue: int
    inferred_red: float

    def as_tuple(self) -> tuple[float, ...]:
        return (
            float(self.red_neighbors),
            float(self.blue_neighbors),
            float(self.red_triangles),
            float(self.red_score),
            float(self.red_say_red),
            float(self.red_say_blue),
            float(self.blue_say_red),
            float(self.blue_say_blue),
            float(self.inferred_red),
        )

    @classmethod
    def from_row(cls, row) -> "FeatureVector":
        """Inverse of `as_tuple`, e.g. for a row of `ObserverState.features_matrix`."""
        *counts, inferred_red = row
        return cls(*map(int, counts), float(inferred_red))


class ObserverState:
    """Mutable crawl knowledge for one run, keyed by dense node ids.

    Public fields:
      observed_nodes   set of node ids ever seen (monitored or named as a
                       neighbor); the start node is observed from step 0.
      monitored        node id -> true Color, in monitor order.
      verified_counts  (speaker color, said color, subject true color) ->
                       count of claims whose subject is now monitored.
      start            the initially known node.
      report_log       ingested reports, in order.
      counts           NodeCounters: per-node claim counts, red triangles,
                       monitored colors and the frontier mask, kept up to
                       date by `ingest`; callers only read them.

    Derived from `report_log` on each read (nothing on the run path reads them):
      observed_edges   set of (u, v) pairs with u < v, only edges incident
                       to a monitored node.
      statements       (speaker, subject) -> said Color.
    """

    def __init__(self, start: int):
        self.start = start
        self.observed_nodes: set[int] = {start}
        self.monitored: dict[int, Color] = {}
        self.verified_counts: dict[tuple[Color, Color, Color], int] = {
            (sp, said, sub): 0 for sp in Color for said in Color for sub in Color
        }
        self.report_log: list[MonitorReport] = []
        self.counts = NodeCounters(start + 2)
        self.counts.frontier[start] = True
        # Monitored red neighbors of each node, for the triangle counts only.
        self._red_mon_nbrs: dict[int, set[int]] = {}

    @classmethod
    def replay(cls, start: int, reports) -> "ObserverState":
        """Rebuild a state by ingesting an ordered report log from scratch."""
        state = cls(start)
        for report in reports:
            state.ingest(report)
        return state

    @property
    def observed_edges(self) -> set[tuple[int, int]]:
        return {
            (r.target, v) if r.target < v else (v, r.target)
            for r in self.report_log for v in r.neighbors
        }

    @property
    def statements(self) -> dict[tuple[int, int], Color]:
        return {
            (r.target, v): said
            for r in self.report_log for v, said in zip(r.neighbors, r.statements)
        }

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
        if t in self.monitored:
            raise ValueError(f"node {t} is already monitored")
        if t not in self.observed_nodes:
            raise ValueError(f"node {t} has not been observed; monitors go on observed nodes")
        t_color = report.true_color
        t_code = int(t_color is Color.BLUE)
        self.monitored[t] = t_color
        self.observed_nodes.update(report.neighbors)
        c = self.counts
        c.reserve(max((t, *report.neighbors)))
        c.color[t] = t_code
        c.frontier[t] = False

        nbrs = np.array(report.neighbors, dtype=np.intp)
        blue = Color.BLUE
        said = np.array([s is blue for s in report.statements], dtype=np.intp)
        c.say[nbrs, 2 * t_code + said] += 1
        if t_color is Color.RED:
            t_nbrs = set(report.neighbors)
            red_sets = [self._red_mon_nbrs.setdefault(v, set()) for v in report.neighbors]
            c.triangles[nbrs] += np.array([len(known & t_nbrs) for known in red_sets], dtype=np.int64)
            for known in red_sets:
                known.add(t)
        subject = c.color[nbrs]
        c.frontier[nbrs[subject < 0]] = True

        verified = self.verified_counts
        seen = subject >= 0
        cells = np.bincount(2 * said[seen] + subject[seen], minlength=4).tolist()
        for (said_color, subject_color), count in zip(_COLOR_PAIRS, cells):
            verified[(t_color, said_color, subject_color)] += count
        # Every claim about t came from an already-monitored speaker, so
        # t's four claim counts are exactly the claims t's color verifies.
        for (speaker_color, said_color), count in zip(_COLOR_PAIRS, c.say[t].tolist()):
            verified[(speaker_color, said_color, t_color)] += count

        self.report_log.append(report)
        return self

    def conditional_trust(self, speaker_color: Color, said: Color) -> float:
        """P(subject is red | a speaker of this color said this), from verified claims.

        Add-one smoothed: (verified red subjects + 1) / (verified total + 2),
        so the value is 0.5 before any evidence and approaches the raw
        verified ratio as counts grow.
        """
        reds = self.verified_counts[(speaker_color, said, Color.RED)]
        blues = self.verified_counts[(speaker_color, said, Color.BLUE)]
        return (reds + 1) / (reds + blues + 2)

    def inferred_red_probability(self, v: int) -> float:
        """Trust-weighted mean over all claims about candidate `v`.

        Each monitored neighbor's claim contributes the trust value for
        its (speaker color, said color) cell; with no claims the neutral
        0.5 is returned. Only candidates have a meaningful inferred
        probability, so monitored nodes are rejected.
        """
        return self.features(v).inferred_red

    def features(self, v: int, allow_monitored: bool = False) -> FeatureVector:
        """Feature vector for node `v` from current knowledge.

        By default `v` must be a candidate. Training-set assembly passes
        `allow_monitored=True` to compute the same vector for a monitored
        node; nothing a node's own report reveals feeds back into its own
        counts, so the vector matches what a candidate in its position
        would show.
        """
        return FeatureVector.from_row(self.features_matrix([v], allow_monitored).tolist()[0])

    def features_matrix(self, nodes, allow_monitored: bool = False) -> np.ndarray:
        """Feature rows of `nodes` as a (len(nodes), 9) float array, in one pass.

        Columns follow FEATURE_NAMES and row i equals
        `features(nodes[i], allow_monitored).as_tuple()`. The rows are
        gathered from `counts`, and the trust table is read once per call.
        """
        ids = np.asarray(nodes, dtype=np.intp)
        for v in ids.tolist():
            if v not in self.observed_nodes:
                raise ValueError(f"node {v} has not been observed")
            if not allow_monitored and v in self.monitored:
                raise ValueError(f"node {v} is monitored; features are for candidates")
        c = self.counts
        # An observed id past the arrays was never named in a report: it
        # reads the spare all-zero row.
        rows = np.minimum(ids, len(c.color) - 1)
        say = c.say[rows].astype(float)
        rsr, rsb, bsr, bsb = say.T
        X = np.column_stack((rsr + rsb, bsr + bsb, c.triangles[rows], rsr + bsr, say,
                             np.full(len(rows), 0.5)))
        total = rsr + rsb + bsr + bsb
        # Elementwise, in this order, so every row rounds exactly as the
        # scalar sum would; a BLAS dot could reorder the additions.
        acc = (
            rsr * self.conditional_trust(Color.RED, Color.RED)
            + rsb * self.conditional_trust(Color.RED, Color.BLUE)
            + bsr * self.conditional_trust(Color.BLUE, Color.RED)
            + bsb * self.conditional_trust(Color.BLUE, Color.BLUE)
        )
        np.divide(acc, total, out=X[:, 8], where=total > 0)
        return X

    def red_neighbor_count(self, v: int) -> int:
        """Monitored red neighbors of `v`: each has made one claim about it."""
        rsr, rsb, _, _ = self.counts.say[min(v, len(self.counts.color) - 1)].tolist()
        return rsr + rsb

    def dump_report_log(self, path) -> None:
        """Write the report log as JSON lines, one report per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for report in self.report_log:
                fh.write(json.dumps({
                    "target": report.target,
                    "true_color": report.true_color.value,
                    "neighbors": list(report.neighbors),
                    "statements": [
                        {"subject": v, "said": said.value}
                        for v, said in zip(report.neighbors, report.statements)
                    ],
                }) + "\n")
