"""The sampler's partial view of the world, built from monitor reports.

Only what reports reveal is known: a node is observed once any monitor
names it as a neighbor, an edge is known only when one of its endpoints
has been monitored, and a color is known only for monitored nodes. The
state keeps a 2x2x2 table of verified claims (speaker color x said color
x subject's true color), filled in whenever a claim's subject gets
monitored. From this it derives, for any candidate node, the nine-entry
feature vector the learning strategy consumes and the trust-weighted
probability that the candidate is red.

The report log is the one record of claims and edges; ingest keeps only
per-node counters on top of it, and the read side turns them into
features in one pass per pick (and per training set): `features_matrix`
returns one row per node, reading the trust table once. `features` and
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

# Index layout of the per-node statement counters: (speaker color, said color).
_RSR, _RSB, _BSR, _BSB = 0, 1, 2, 3
_SAY_CELLS = tuple((speaker, said) for speaker in Color for said in Color)


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
        # Incremental per-node counters backing the feature rows.
        self._red_mon_nbrs: dict[int, set[int]] = {}
        self._blue_mon_count: dict[int, int] = {}
        self._red_tri: dict[int, int] = {}
        self._say: dict[int, list[int]] = {}

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

    def candidates(self) -> list[int]:
        """Observed-but-unmonitored node ids, ascending (the legal monitor targets)."""
        return sorted(v for v in self.observed_nodes if v not in self.monitored)

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
        self.monitored[t] = t_color
        t_red = t_color is Color.RED
        if t_red:
            t_nbrs = set(report.neighbors)
        verified = self.verified_counts

        for v, said in zip(report.neighbors, report.statements):
            self.observed_nodes.add(v)
            counts = self._say.setdefault(v, [0, 0, 0, 0])
            if t_red:
                known_reds = self._red_mon_nbrs.get(v)
                if known_reds:
                    self._red_tri[v] = self._red_tri.get(v, 0) + len(known_reds & t_nbrs)
                self._red_mon_nbrs.setdefault(v, set()).add(t)
                counts[_RSR if said is Color.RED else _RSB] += 1
            else:
                self._blue_mon_count[v] = self._blue_mon_count.get(v, 0) + 1
                counts[_BSR if said is Color.RED else _BSB] += 1
            subject_color = self.monitored.get(v)
            if subject_color is not None:
                verified[(t_color, said, subject_color)] += 1

        # Every claim about t came from an already-monitored speaker, so
        # t's four claim counts are exactly the claims t's color verifies.
        about_t = self._say.get(t)
        if about_t is not None:
            for (speaker_color, said), count in zip(_SAY_CELLS, about_t):
                verified[(speaker_color, said, t_color)] += count

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
        `features(nodes[i], allow_monitored).as_tuple()`; the trust table
        is read once per call.
        """
        for v in nodes:
            if v not in self.observed_nodes:
                raise ValueError(f"node {v} has not been observed")
            if not allow_monitored and v in self.monitored:
                raise ValueError(f"node {v} is monitored; features are for candidates")
        red_nbrs, blue, tri, say = self._red_mon_nbrs, self._blue_mon_count, self._red_tri, self._say
        none = (0, 0, 0, 0)
        # red_score (column 3) and inferred_red (column 8) are filled in below
        X = np.array(
            [(len(red_nbrs.get(v, ())), blue.get(v, 0), tri.get(v, 0), 0, *say.get(v, none), 0.5)
             for v in nodes],
            dtype=float,
        ).reshape(-1, len(FEATURE_NAMES))
        rsr, rsb, bsr, bsb = X[:, 4], X[:, 5], X[:, 6], X[:, 7]
        X[:, 3] = rsr + bsr
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

    # Cheap single-count accessors for the non-learning strategies.

    def red_neighbor_count(self, v: int) -> int:
        return len(self._red_mon_nbrs.get(v, ()))

    def red_score(self, v: int) -> int:
        say = self._say.get(v)
        return say[_RSR] + say[_BSR] if say else 0

    def red_say_red_count(self, v: int) -> int:
        say = self._say.get(v)
        return say[_RSR] if say else 0

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
