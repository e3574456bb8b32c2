"""HGNAS core: design space, one-shot supernet, evolutionary search.

This package implements the paper's primary contribution: the fine-grained
operation-based design space (Table I), the weight-sharing supernet, the
multi-stage hierarchical evolutionary search (Alg. 1) with the
hardware-constrained objective (Eq. 1-3), and utilities to visualise and
instantiate the searched architectures.
"""

from repro.nas.architecture import Architecture, EffectiveOp
from repro.nas.derived import DerivedModel
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.evolution import EvolutionConfig, EvolutionResult, EvolutionarySearch, HistoryPoint
from repro.nas.latency_eval import (
    EvaluatorRequest,
    LatencyEvaluator,
    MeasurementLatencyEvaluator,
    OracleLatencyEvaluator,
    list_latency_evaluators,
    make_latency_evaluator,
    register_latency_evaluator,
    unregister_latency_evaluator,
)
from repro.nas.objective import ObjectiveConfig, hardware_constrained_score, objective_score
from repro.nas.ops import (
    AGGREGATOR_TYPES,
    COMBINE_DIMS,
    CONNECT_MODES,
    FUNCTION_FIELDS,
    MESSAGE_TYPES,
    SAMPLE_METHODS,
    FunctionSet,
    OperationType,
    function_space_size,
    mutate_function_set,
    random_function_set,
)
from repro.nas.presets import (
    device_acc_architecture,
    device_fast_architecture,
    dgcnn_architecture,
    intel_fast_architecture,
    pi_fast_architecture,
    rtx_fast_architecture,
    tx2_fast_architecture,
)
from repro.nas.search import HGNAS, HGNASConfig, SearchResult
from repro.nas.supernet import Supernet, SupernetConfig
from repro.nas.trainer import (
    EvalMetrics,
    TrainingHistory,
    evaluate_classifier,
    evaluate_path,
    train_classifier,
    train_supernet,
)
from repro.nas.visualize import architecture_summary, render_architecture

__all__ = [
    "Architecture",
    "EffectiveOp",
    "DerivedModel",
    "DesignSpace",
    "DesignSpaceConfig",
    "EvolutionConfig",
    "EvolutionResult",
    "EvolutionarySearch",
    "HistoryPoint",
    "EvaluatorRequest",
    "LatencyEvaluator",
    "MeasurementLatencyEvaluator",
    "OracleLatencyEvaluator",
    "list_latency_evaluators",
    "make_latency_evaluator",
    "register_latency_evaluator",
    "unregister_latency_evaluator",
    "ObjectiveConfig",
    "hardware_constrained_score",
    "objective_score",
    "AGGREGATOR_TYPES",
    "COMBINE_DIMS",
    "CONNECT_MODES",
    "FUNCTION_FIELDS",
    "MESSAGE_TYPES",
    "SAMPLE_METHODS",
    "FunctionSet",
    "OperationType",
    "function_space_size",
    "mutate_function_set",
    "random_function_set",
    "device_acc_architecture",
    "device_fast_architecture",
    "dgcnn_architecture",
    "intel_fast_architecture",
    "pi_fast_architecture",
    "rtx_fast_architecture",
    "tx2_fast_architecture",
    "HGNAS",
    "HGNASConfig",
    "SearchResult",
    "Supernet",
    "SupernetConfig",
    "EvalMetrics",
    "TrainingHistory",
    "evaluate_classifier",
    "evaluate_path",
    "train_classifier",
    "train_supernet",
    "architecture_summary",
    "render_architecture",
]
