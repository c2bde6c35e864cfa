"""Knowledge graph entity alignment with a (weightless) GCN encoder.

The package covers the full pipeline: dataset loading and splitting,
propagation-matrix construction, the encoder with hand-derived
gradients, margin-rank training with negative sampling, closed-world
ranking evaluation, and experiment orchestration (single runs, grid
search, seed-aggregated ablations).
"""

from .adjacency import AdjacencyConfig, RelationWeights, build_adjacency, compute_functionality
from .datasets import (
    DatasetDescriptor,
    DatasetStatistics,
    load,
    split,
    statistics,
    symmetrize_wk3l,
    toy_cycle_pair,
)
from .encoder import EmbeddingState, EncoderConfig, backward, forward, init_state
from .errors import (
    ConfigError,
    DataFormatError,
    GraphValidationError,
    KgalignError,
    NumericError,
)
from .evaluation import MetricsReport, ScoreConfig, evaluate, score
from .graphs import (
    AlignmentSet,
    AttributeTable,
    GraphPair,
    KnowledgeGraph,
    Role,
    validate_pair,
)
from .linalg import degree_normalize
from .runner import RunConfig, enumerate_grid, run_ablation, run_grid, run_single
from .training import (
    OptimizerState,
    TrainConfig,
    margin_rank_loss,
    optimizer_step,
    sample_negatives,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyConfig",
    "AlignmentSet",
    "AttributeTable",
    "ConfigError",
    "DataFormatError",
    "DatasetDescriptor",
    "DatasetStatistics",
    "EmbeddingState",
    "EncoderConfig",
    "GraphPair",
    "GraphValidationError",
    "KgalignError",
    "KnowledgeGraph",
    "MetricsReport",
    "NumericError",
    "OptimizerState",
    "RelationWeights",
    "Role",
    "RunConfig",
    "ScoreConfig",
    "TrainConfig",
    "backward",
    "build_adjacency",
    "compute_functionality",
    "degree_normalize",
    "enumerate_grid",
    "evaluate",
    "forward",
    "init_state",
    "load",
    "margin_rank_loss",
    "optimizer_step",
    "run_ablation",
    "run_grid",
    "run_single",
    "sample_negatives",
    "score",
    "split",
    "statistics",
    "symmetrize_wk3l",
    "toy_cycle_pair",
    "train",
    "validate_pair",
]
