"""Dense adjacency utilities for small graphs.

The architecture graphs consumed by the GNN latency predictor contain at
most a few dozen nodes, so dense adjacency matrices are the natural
representation for its GCN layers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import as_float_array

__all__ = ["sum_aggregation_matrix"]


def sum_aggregation_matrix(adj: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Plain sum-aggregation operator ``A + I`` (the paper's predictor uses sum)."""
    adj = as_float_array(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    if add_self_loops:
        return adj + np.eye(adj.shape[0], dtype=adj.dtype)
    return adj.copy()
