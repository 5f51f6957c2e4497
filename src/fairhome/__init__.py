"""Inference-time bias mitigation via higher-order input mutation and output
ensembling, with intersectional fairness evaluation tooling."""

from .data import (
    Dataset,
    EncodingMap,
    Instance,
    ProtectedDomains,
    Schema,
    SubgroupKey,
    build_encoding,
    encode,
    load_dataset,
    protected_domains,
    split,
)
from .ensemble import EnsembleInputs, EnsembleStrategy, aggregate, fairhome_predict
from .errors import (
    DataError,
    MetricUndefinedError,
    SchemaError,
    ShapeError,
    TrainingError,
    UsageError,
)
from .fairea import TradeoffBaseline, TradeoffPoint, TradeoffRegion, build_baseline, classify_case
from .metrics import (
    LabeledPredictions,
    MetricReport,
    average_case_metrics,
    compute_report,
    group_metrics,
    performance_metrics,
    worst_case_metrics,
)
from .model import TrainConfig, fit_logistic, fit_mlp, reweighting_weights
from .mutate import (
    CorrelationModel,
    MutantSet,
    MutationStrategy,
    fit_extrapolation_models,
    generate_mutants,
)
from .runner import ExperimentConfig, RunRecord, emit_report, run_experiment
from .stats import WtlOutcome, mann_whitney_u, win_tie_loss

__version__ = "0.1.0"
