"""The GNN-based hardware performance predictor (paper Sec. III-D).

Three GCN layers with sum aggregation followed by an MLP regress the
inference latency of a candidate architecture on one target device.  The
paper's dimensions are ``gcn_dims=(256, 512, 512)`` and
``mlp_dims=(256, 128)`` (then the scalar output); the default configuration
is smaller because the architecture graphs only have a couple of dozen
nodes and the pure-numpy substrate favours compact models.

The predictor regresses ``log1p(latency_ms)`` internally — latencies span
four orders of magnitude across devices — and converts back to
milliseconds at the output, which stabilises MAPE training without changing
the reported metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.gcn import DenseGCN
from repro.nas.architecture import Architecture
from repro.nn.layers import MLP, Module
from repro.nn.tensor import Tensor, concatenate
from repro.predictor.arch_graph import ArchitectureGraph, architecture_to_graph
from repro.predictor.batch import predict_latencies
from repro.predictor.encoding import FEATURE_DIM

__all__ = ["PredictorConfig", "LatencyPredictor"]


@dataclass(frozen=True)
class PredictorConfig:
    """Hyper-parameters of the latency predictor."""

    gcn_dims: tuple[int, ...] = (64, 96, 96)
    mlp_dims: tuple[int, ...] = (64, 32)
    include_global_node: bool = True
    num_points: int = 1024
    k: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.gcn_dims) != 3:
            raise ValueError("the predictor uses exactly three GCN layers (paper Sec. III-D)")
        if not self.mlp_dims:
            raise ValueError("mlp_dims must not be empty")
        if self.num_points <= 0 or self.k <= 0:
            raise ValueError("num_points and k must be positive")


class LatencyPredictor(Module):
    """GCN + MLP latency regressor for one target device."""

    def __init__(self, config: PredictorConfig | None = None):
        super().__init__()
        self.config = config or PredictorConfig()
        rng = np.random.default_rng(self.config.seed)
        self.gcn = DenseGCN((FEATURE_DIM, *self.config.gcn_dims), activation="relu", rng=rng)
        pooled_dim = 2 * self.config.gcn_dims[-1]
        self.mlp = MLP(
            [pooled_dim, *self.config.mlp_dims, 1],
            activation="leaky_relu",
            rng=rng,
        )
        # Normalisation of the regression target (log1p latency); set from the
        # training set by the trainer so the network fits a standardised value.
        self.target_mean = 0.0
        self.target_std = 1.0

    # ------------------------------------------------------------------ #
    def set_target_normalization(self, mean: float, std: float) -> None:
        """Set the (log-space) target normalisation constants."""
        if std <= 0:
            raise ValueError("target std must be positive")
        self.target_mean = float(mean)
        self.target_std = float(std)

    def forward_graph(self, graph: ArchitectureGraph) -> Tensor:
        """Predict the standardised log1p-latency for one architecture graph.

        The bit-exact per-graph reference for
        :func:`~repro.predictor.batch.forward_graphs`, which training,
        validation and search scoring run.
        """
        features = Tensor(graph.features)
        aggregation = graph.aggregation_matrix()
        node_embeddings = self.gcn(features, aggregation)
        # Sum pooling mirrors the additive structure of latency (total time is
        # the sum of per-op times); max pooling captures dominating ops.
        pooled = concatenate(
            [
                node_embeddings.sum(axis=0, keepdims=True),
                node_embeddings.max(axis=0, keepdims=True),
            ],
            axis=1,
        )
        return self.mlp(pooled).reshape(1)

    def forward(self, graph: ArchitectureGraph) -> Tensor:
        return self.forward_graph(graph)

    # ------------------------------------------------------------------ #
    def encode(self, architecture: Architecture) -> ArchitectureGraph:
        """Abstract an architecture with this predictor's deployment settings."""
        return architecture_to_graph(
            architecture,
            num_points=self.config.num_points,
            k=self.config.k,
            include_global_node=self.config.include_global_node,
        )

    def denormalize_to_ms(self, standardised: "float | np.ndarray") -> "np.floating | np.ndarray":
        """Map standardised log1p-latency network outputs to milliseconds.

        The single post-processing definition shared by the sequential and
        batched prediction paths — their bit-exact equivalence depends on
        applying the identical denormalisation and clamp.  Latency is
        strictly positive; the log prediction is clamped away from 0 so
        downstream ratios and objective terms stay well defined.
        """
        log_latency = standardised * self.target_std + self.target_mean
        return np.expm1(np.clip(log_latency, 1e-3, 30.0))

    def predict_from_graph(self, graph: ArchitectureGraph) -> float:
        """Predict the latency (in milliseconds) for an encoded graph."""
        return float(self.denormalize_to_ms(self.forward_graph(graph).item()))

    def predict_latency_ms(self, architecture: Architecture) -> float:
        """Predict the latency (in milliseconds) of an architecture."""
        return self.predict_from_graph(self.encode(architecture))

    def predict_many_graphs(self, graphs: list[ArchitectureGraph]) -> np.ndarray:
        """Latency predictions (ms) for several encoded graphs in one forward.

        The graphs are grouped by node count (see
        :mod:`repro.predictor.batch`) and each group is scored with one
        GCN + MLP forward; the result is bit-identical to mapping
        :meth:`predict_from_graph` over ``graphs``.
        """
        return predict_latencies(self, graphs)

    def predict_many(self, architectures: list[Architecture]) -> np.ndarray:
        """Vector of latency predictions for several architectures.

        Encoding stays per-architecture (memoised per operation), but the
        forward passes are fused into one batched evaluation.
        """
        return self.predict_many_graphs([self.encode(arch) for arch in architectures])
