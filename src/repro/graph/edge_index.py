"""Edge-index utilities.

Graphs over point clouds are represented PyG-style as an integer array of
shape ``(2, E)`` where row 0 holds *source* (neighbour) indices and row 1
holds *target* (centre) indices; messages flow from source to target.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "validate_edge_index",
    "add_self_loops",
    "degree",
]


def validate_edge_index(edge_index: np.ndarray, num_nodes: int | None = None) -> np.ndarray:
    """Validate and canonicalise an edge-index array.

    Args:
        edge_index: Array of shape ``(2, E)`` with integer node indices.
        num_nodes: If given, indices must fall in ``[0, num_nodes)``.

    Returns:
        The edge index as a contiguous ``int64`` array of shape ``(2, E)``.

    Raises:
        ValueError: If the shape is wrong or indices are out of range.
    """
    edge_index = np.asarray(edge_index)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    if not np.issubdtype(edge_index.dtype, np.integer):
        if not np.allclose(edge_index, np.round(edge_index)):
            raise ValueError("edge_index must contain integers")
    edge_index = edge_index.astype(np.int64)
    if edge_index.size:
        if edge_index.min() < 0:
            raise ValueError("edge_index contains negative node indices")
        if num_nodes is not None and edge_index.max() >= num_nodes:
            raise ValueError(
                f"edge_index references node {int(edge_index.max())} but the graph has {num_nodes} nodes"
            )
    return np.ascontiguousarray(edge_index)


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Append one self-loop per node (existing self-loops are kept)."""
    edge_index = validate_edge_index(edge_index, num_nodes)
    loops = np.arange(num_nodes, dtype=np.int64)
    loops = np.stack([loops, loops], axis=0)
    return np.concatenate([edge_index, loops], axis=1)


def degree(edge_index: np.ndarray, num_nodes: int, kind: str = "in") -> np.ndarray:
    """Node degrees.

    Args:
        edge_index: Edge index of shape ``(2, E)``.
        num_nodes: Number of nodes in the graph.
        kind: ``"in"`` counts incoming edges (per target), ``"out"``
            counts outgoing edges (per source).

    Returns:
        Integer array of shape ``(num_nodes,)``.
    """
    if kind not in ("in", "out"):
        raise ValueError(f"kind must be 'in' or 'out', got {kind!r}")
    edge_index = validate_edge_index(edge_index, num_nodes)
    row = edge_index[1] if kind == "in" else edge_index[0]
    return np.bincount(row, minlength=num_nodes).astype(np.int64)
