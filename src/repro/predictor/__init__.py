"""GNN-based hardware performance predictor (paper Sec. III-D)."""

from repro.predictor.arch_graph import ArchitectureGraph, architecture_to_graph
from repro.predictor.batch import forward_graphs, predict_latencies
from repro.predictor.dataset import PredictorDataset, PredictorSample, generate_predictor_dataset
from repro.predictor.encoding import (
    FEATURE_DIM,
    FUNCTION_DIM,
    NODE_TYPE_DIM,
    NODE_TYPES,
    encode_function,
    encode_global_node,
    encode_node_type,
    encode_operation_node,
    encode_terminal_node,
)
from repro.predictor.evaluator import PredictorLatencyEvaluator
from repro.predictor.metrics import PredictorMetrics, compute_metrics, error_bound_accuracy, mape
from repro.predictor.model import LatencyPredictor, PredictorConfig
from repro.predictor.train import (
    PredictorTrainingConfig,
    PredictorTrainingHistory,
    evaluate_predictor,
    train_predictor,
)

__all__ = [
    "ArchitectureGraph",
    "architecture_to_graph",
    "forward_graphs",
    "predict_latencies",
    "PredictorDataset",
    "PredictorSample",
    "generate_predictor_dataset",
    "FEATURE_DIM",
    "FUNCTION_DIM",
    "NODE_TYPE_DIM",
    "NODE_TYPES",
    "encode_function",
    "encode_global_node",
    "encode_node_type",
    "encode_operation_node",
    "encode_terminal_node",
    "PredictorLatencyEvaluator",
    "PredictorMetrics",
    "compute_metrics",
    "error_bound_accuracy",
    "mape",
    "LatencyPredictor",
    "PredictorConfig",
    "PredictorTrainingConfig",
    "PredictorTrainingHistory",
    "evaluate_predictor",
    "train_predictor",
]
