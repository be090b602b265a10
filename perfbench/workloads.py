"""The benchmark's workloads and the inputs each one is given.

Every workload is one `run_experiment` config, written as the program's
own `key = value` config file. The workload seed becomes `master_seed`,
so it picks the start nodes, honesty draws, lie draws and tie-breaks.
`dense` also gets its graph from the seed: the benchmark writes it to
edge/node files with its own generator, so the program receives only
files and a change to the program's generators cannot change this input.

Why these three (see BENCHMARK.json for the one-line reasons):
  learn     the paper's headline regime and the only workload that runs
            the classifier and the observer's feature (read) side.
  frontier  a large sparse world where picking over a wide frontier
            dominates; it never touches the classifier.
  dense     a loaded graph with mean degree 200, where claims per monitor
            are high and the oracle and the observer's ingest (write)
            side dominate; the only workload on the LS2 blue-speaker path.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class DenseGraph:
    """Homophily graph: G(n, p) with mean degree `mean_degree`, plus extra
    red-red edges with probability `red_red_prob` per red pair. The rank
    score of each node is its degree, floored at 1."""

    n: int
    mean_degree: float
    red_fraction: float
    red_red_prob: float

    def write(self, seed: int, edge_file: Path, node_file: Path) -> None:
        rng = random.Random(seed)
        n = self.n
        reds = set(rng.sample(range(n), max(1, round(n * self.red_fraction))))
        p = min(1.0, self.mean_degree / (n - 1))
        adjacency = [set() for _ in range(n)]
        rand = rng.random
        for u in range(n - 1):
            for v in range(u + 1, n):
                if rand() < p or (u in reds and v in reds and rand() < self.red_red_prob):
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        with open(edge_file, "w", encoding="utf-8") as fh:
            for u in range(n):
                fh.writelines(f"v{u} v{v}\n" for v in sorted(adjacency[u]) if u < v)
        with open(node_file, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "color", "hierarchy"])
            for v in range(n):
                writer.writerow([f"v{v}", "red" if v in reds else "blue", max(1, len(adjacency[v]))])


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict[str, str]
    graph: DenseGraph | None = None

    def write_config(self, seed: int, work_dir: Path) -> Path:
        """Write this workload's inputs for `seed` into `work_dir`; return the config path."""
        keys = dict(self.config, master_seed=str(seed), output_dir=str(work_dir / "out"))
        if self.graph is not None:
            keys["edges"] = str(work_dir / "edges.txt")
            keys["nodes"] = str(work_dir / "nodes.csv")
            self.graph.write(seed, Path(keys["edges"]), Path(keys["nodes"]))
        path = work_dir / "experiment.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        return path


COUNTING = "sr,rs,mrsr,mrn"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn", {
            "synthetic_mode": "structural_signal",
            "synthetic_n": "500",
            "synthetic_red_fraction": "0.05",
            "synthetic_seed": "1",
            "scenario": "ls1",
            "strategies": "redlearn",
            "runs": "4",
            "budget_fraction": "0.5",
            "budget_tiers": "0.1,0.25,0.5",
            "retrain_every": "10",
        }),
        Workload("frontier", {
            "synthetic_mode": "no_homophily",
            "synthetic_n": "5000",
            "synthetic_red_fraction": "0.05",
            "synthetic_seed": "1",
            "scenario": "ls1",
            "strategies": COUNTING,
            "runs": "1",
            "budget_fraction": "0.5",
            "budget_tiers": "0.1,0.25,0.5",
        }),
        Workload("dense", {
            "scenario": "ls2",
            "strategies": COUNTING,
            "runs": "12",
            "budget_fraction": "0.1",
            "budget_tiers": "0.05,0.1",
        }, DenseGraph(n=1000, mean_degree=200.0, red_fraction=0.05, red_red_prob=0.3)),
    )
}
