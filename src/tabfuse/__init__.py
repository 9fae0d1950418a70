"""Mixed-type tabular classification toolkit.

Categorical text is tokenized, embedded, and fused with standardized
numeric features in a shared latent space; a from-scratch second-order
gradient-boosted-trees learner and a soft-voting ensemble round out the
model zoo. Everything is numpy float64 and deterministic per seed.
"""

from .bundle import ModelBundle, load_bundle, save_bundle
from .ensemble import soft_vote
from .errors import (
    DataError,
    NumericError,
    SchemaMismatchError,
    ToolkitError,
    UsageError,
)
from .gbdt import GbdtConfig, GbdtModel, train_gbdt
from .metrics import EvalReport, auroc_ovr, confusion_matrix, evaluate
from .models import (
    BaselineMlp,
    EarlyStopper,
    EmbeddingFusionNet,
    FrequencyEncoder,
    TrainConfig,
    TrainLog,
    train,
)
from .pipeline import RunConfig, predict_on_table, run_training
from .preprocess import (
    EncodedDataset,
    PreprocessState,
    stratified_split,
    tokenize,
)
from .schema import (
    ColumnKind,
    ColumnSpec,
    DataTable,
    TableSchema,
    load_csv,
    load_schema,
    save_schema,
    write_csv,
)
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "BaselineMlp",
    "ColumnKind",
    "ColumnSpec",
    "DataError",
    "DataTable",
    "EarlyStopper",
    "EmbeddingFusionNet",
    "EncodedDataset",
    "EvalReport",
    "FrequencyEncoder",
    "GbdtConfig",
    "GbdtModel",
    "ModelBundle",
    "NumericError",
    "PreprocessState",
    "RunConfig",
    "SchemaMismatchError",
    "TableSchema",
    "ToolkitError",
    "TrainConfig",
    "TrainLog",
    "UsageError",
    "auroc_ovr",
    "confusion_matrix",
    "evaluate",
    "generate_synthetic",
    "load_bundle",
    "load_csv",
    "load_schema",
    "predict_on_table",
    "run_training",
    "save_bundle",
    "save_schema",
    "soft_vote",
    "stratified_split",
    "tokenize",
    "train",
    "train_gbdt",
    "write_csv",
]
