"""Two-model neural uplift modeling boosted by bag-wise ATE regularization.

The package trains dense-network uplift models (TM, TARNet-style, DDR,
SDR) on randomized-experiment data, regularizes them with a multiple-
instance loss over bags of adjacent uplift predictions, and evaluates
with separate-ranking uplift curves and AUUC. A synthetic generator with
known ground-truth effects supports desk-scale verification.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    MiniBatch,
    SynthConfig,
    TableSchema,
    empirical_ate,
    generate_synthetic,
    load_table,
    minibatches,
    save_table,
    split,
)
from .errors import (
    ConfigError,
    MetricError,
    ParseError,
    SchemaError,
    ShapeError,
    TrainingError,
    UpliftError,
)
from .metrics import RunAggregate, UpliftCurve, aggregate_runs, auuc, uplift_curve
from .mil import (
    BagMode,
    BagPartition,
    BagStats,
    LossBreakdown,
    cluster_bags,
    combined_loss_and_grads,
    mil_loss,
)
from .models import (
    ModelKind,
    UpliftModel,
    build,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .trainer import TrainConfig, TrainReport, evaluate, repeat_runs, train

__all__ = [
    "BagMode",
    "BagPartition",
    "BagStats",
    "ConfigError",
    "Dataset",
    "LossBreakdown",
    "MetricError",
    "MiniBatch",
    "ModelKind",
    "ParseError",
    "RunAggregate",
    "SchemaError",
    "ShapeError",
    "SynthConfig",
    "TableSchema",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "UpliftCurve",
    "UpliftError",
    "UpliftModel",
    "aggregate_runs",
    "auuc",
    "build",
    "cluster_bags",
    "combined_loss_and_grads",
    "empirical_ate",
    "evaluate",
    "generate_synthetic",
    "load_checkpoint",
    "load_table",
    "mil_loss",
    "minibatches",
    "predict",
    "repeat_runs",
    "save_checkpoint",
    "save_table",
    "split",
    "train",
    "uplift_curve",
]
