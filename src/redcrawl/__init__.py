"""Budgeted exploration of hidden colored networks whose members may lie.

The package simulates crawling an unobserved network to find nodes of
interest (reds) with a fixed monitor budget, where each monitored node
reveals its true color and neighbors but may misreport its neighbors'
colors. It ships five placement strategies, including a learning one
backed by a hand-rolled logistic regression, plus a seeded experiment
harness with paired runs and CSV reporting.
"""

from .classifier import (
    ClassifierParams,
    TrainedModel,
    TrainingSet,
    build_training_set,
    fit,
    predict_many,
)
from .graph import (
    Color,
    GraphLoadError,
    WorldGraph,
    generate_synthetic,
    load_graph,
    remove_red_red_edges,
    save_graph,
)
from .harness import (
    ExperimentConfig,
    RunTrace,
    SummaryRow,
    derive_seed,
    parse_config,
    run_experiment,
    run_single,
    summarize,
)
from .observer import FEATURE_NAMES, ObserverState
from .oracle import (
    LyingScenario,
    MonitorReport,
    Oracle,
    assign_honesty,
)
from .strategies import (
    STRATEGY_NAMES,
    Decision,
    ExplorationExhausted,
    pick,
)

__version__ = "0.1.0"

__all__ = [
    "ClassifierParams",
    "Color",
    "Decision",
    "ExperimentConfig",
    "ExplorationExhausted",
    "FEATURE_NAMES",
    "GraphLoadError",
    "LyingScenario",
    "MonitorReport",
    "ObserverState",
    "Oracle",
    "RunTrace",
    "STRATEGY_NAMES",
    "SummaryRow",
    "TrainedModel",
    "TrainingSet",
    "WorldGraph",
    "assign_honesty",
    "build_training_set",
    "derive_seed",
    "fit",
    "generate_synthetic",
    "load_graph",
    "parse_config",
    "pick",
    "predict_many",
    "remove_red_red_edges",
    "run_experiment",
    "run_single",
    "save_graph",
    "summarize",
]
