"""Abstraction of GNN architectures into graphs for the latency predictor.

Following the paper's Fig. 5, a candidate architecture becomes a directed
graph whose nodes are the input, the executed operations and the output,
with edges along the dataflow.  Because that chain is very sparse, a
*global node* connected (bidirectionally) to every other node is added to
improve connectivity, and the input point cloud's properties (size,
neighbourhood, density) are encoded into its features.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.graph.adjacency import sum_aggregation_matrix
from repro.hardware.cost_model import lower_op
from repro.nas.architecture import Architecture, effective_op_to_descriptor
from repro.nn.dtype import WIDE_DTYPE, get_default_dtype
from repro.predictor.encoding import (
    COST_FEATURE_DIM,
    FEATURE_DIM,
    encode_cost_features,
    encode_global_node,
    encode_operation_node,
    encode_terminal_node,
)

__all__ = ["ArchitectureGraph", "architecture_to_graph"]


@functools.lru_cache(maxsize=8)
def _terminal_row(kind: str) -> np.ndarray:
    """Constant node-type rows for the input/output terminals."""
    return encode_terminal_node(kind)


@functools.lru_cache(maxsize=8192)
def _op_node_rows(op, num_points: int, k: int) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """Memoised per-operation encoding.

    Population-scale evaluation encodes thousands of architectures drawn from
    a small discrete op space, so the per-op feature row, cost row and cost
    quantities repeat constantly; :class:`EffectiveOp` is frozen/hashable,
    and the encoding is a pure function of ``(op, num_points, k)``.  The
    cached arrays are copied into fresh matrices by ``np.stack`` below and
    must not be mutated by callers.
    """
    quantities = lower_op(effective_op_to_descriptor(op, num_points, k))
    return (
        encode_operation_node(op),
        encode_cost_features(quantities.flops, quantities.irregular_bytes, quantities.knn_pair_dims),
        (quantities.flops, quantities.irregular_bytes, quantities.knn_pair_dims),
    )


@dataclass(frozen=True)
class ArchitectureGraph:
    """Dense graph representation consumed by the predictor."""

    adjacency: np.ndarray
    features: np.ndarray
    node_labels: tuple[str, ...]

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    def aggregation_matrix(self) -> np.ndarray:
        """Sum-aggregation operator ``A + I`` used by the predictor's GCN layers."""
        return sum_aggregation_matrix(self.adjacency, add_self_loops=True)


def architecture_to_graph(
    architecture: Architecture,
    num_points: int = 1024,
    k: int = 20,
    include_global_node: bool = True,
) -> ArchitectureGraph:
    """Abstract an architecture into the predictor's graph representation.

    Args:
        architecture: Candidate architecture.
        num_points: Deployment point-cloud size (encoded in the global node).
        k: Deployment neighbourhood size (encoded in the global node).
        include_global_node: Whether to add the globally connected node; the
            ablation benchmark switches this off to quantify its value.

    Returns:
        The dense adjacency (``A[t, s] = 1`` for dataflow s -> t), node
        feature matrix and node labels.
    """
    ops = architecture.effective_ops()
    num_chain = len(ops) + 2
    num_nodes = num_chain + (1 if include_global_node else 0)
    base_dim = FEATURE_DIM - COST_FEATURE_DIM

    # Rows are written straight into the preallocated matrix (layout:
    # node-type + function columns, then the cost columns) — this is the
    # hottest allocation site of population-scale evaluation.
    feature_matrix = np.zeros((num_nodes, FEATURE_DIM), dtype=get_default_dtype())
    labels: list[str] = ["input"]
    feature_matrix[0, :base_dim] = _terminal_row("input")
    cost_totals = np.zeros(3, dtype=WIDE_DTYPE)
    for row, op in enumerate(ops, start=1):
        labels.append(op.describe())
        feature_row, cost_row, quantities = _op_node_rows(op, num_points, k)
        feature_matrix[row, :base_dim] = feature_row
        feature_matrix[row, base_dim:] = cost_row
        cost_totals += quantities
    labels.append("output")
    feature_matrix[num_chain - 1, :base_dim] = _terminal_row("output")

    adjacency = np.zeros((num_nodes, num_nodes), dtype=feature_matrix.dtype)
    # Dataflow edges along the chain: A[target, source] = 1.
    chain = np.arange(num_chain - 1)
    adjacency[chain + 1, chain] = 1.0

    if include_global_node:
        labels.append("global")
        global_index = num_nodes - 1
        feature_matrix[global_index, :base_dim] = encode_global_node(num_points, k, len(ops))
        feature_matrix[global_index, base_dim:] = encode_cost_features(*cost_totals)
        adjacency[global_index, :num_chain] = 1.0
        adjacency[:num_chain, global_index] = 1.0

    return ArchitectureGraph(
        adjacency=adjacency,
        features=feature_matrix,
        node_labels=tuple(labels),
    )
