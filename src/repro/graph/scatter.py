"""Differentiable scatter (segment) aggregations.

These implement the *aggregate* step of the message-passing paradigm: edge
messages of shape ``(E, F)`` are reduced per target node into an output of
shape ``(num_nodes, F)``.  All four aggregators of the HGNAS function space
(Table I) are supported: ``sum``, ``mean``, ``max`` and ``min``.

Outputs are allocated in the dtype of the incoming messages, so a float32
pipeline aggregates in float32 (see :mod:`repro.nn.dtype`).  The
unbuffered scatter accumulation is the shared kernel of
:mod:`repro.backends`.

Validation of the ``index`` array (1-D, in range) costs a full ``min``/
``max`` scan per call.  Edge indices produced by the repo's own graph
builders (:func:`repro.graph.knn.knn_graph` and friends) are already
validated at construction, and a supernet forward reuses one edge index
across all four aggregator candidates — callers that hold such a
pre-validated index pass ``validated=True`` to skip the redundant scans.
"""

from __future__ import annotations

import numpy as np

from repro.backends import scatter_add, scatter_extreme
from repro.nn.tensor import Tensor, apply_op, as_tensor
from repro.obs.metrics import get_metrics

__all__ = [
    "scatter_sum",
    "scatter_mean",
    "scatter_max",
    "scatter_min",
    "scatter",
    "AGGREGATORS",
    "validate_index",
]


def validate_index(index: np.ndarray, num_segments: int) -> np.ndarray:
    """Validate a scatter index once; the result is safe for ``validated=True``.

    Args:
        index: 1-D array of target segment ids.
        num_segments: Exclusive upper bound on the ids.

    Returns:
        The index as a contiguous int64 array.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError(f"scatter index must be 1-D, got shape {index.shape}")
    if num_segments <= 0:
        raise ValueError(f"num_segments must be positive, got {num_segments}")
    if index.size and (index.min() < 0 or index.max() >= num_segments):
        raise ValueError("scatter index out of range")
    return index


def _check_inputs(
    src: Tensor, index: np.ndarray, dim_size: int, validated: bool
) -> tuple[Tensor, np.ndarray]:
    get_metrics().count("graph.scatter.dispatch")
    src = as_tensor(src)
    if src.ndim != 2:
        raise ValueError(f"scatter expects 2-D messages (E, F), got shape {src.shape}")
    if validated:
        # Fast path: the caller vouches for range and dtype (e.g. the edge
        # index came out of a repo graph builder); only the cheap shape
        # invariant that ties messages to indices is kept.
        index = np.asarray(index, dtype=np.int64)
    else:
        if dim_size <= 0:
            raise ValueError(f"dim_size must be positive, got {dim_size}")
        index = validate_index(index, dim_size)
    if index.ndim != 1 or index.shape[0] != src.shape[0]:
        raise ValueError(
            f"index must be 1-D with one entry per message; got index shape {index.shape} "
            f"for {src.shape[0]} messages"
        )
    return src, index


def scatter_sum(src: Tensor, index: np.ndarray, dim_size: int, validated: bool = False) -> Tensor:
    """Sum messages per target node."""
    src, index = _check_inputs(src, index, dim_size, validated)
    out = np.zeros((dim_size, src.shape[1]), dtype=src.data.dtype)
    scatter_add(out, index, src.data)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        return [grad[index]]

    return apply_op(out, (src,), backward_fn)


def scatter_mean(src: Tensor, index: np.ndarray, dim_size: int, validated: bool = False) -> Tensor:
    """Average messages per target node (empty targets yield zero)."""
    src, index = _check_inputs(src, index, dim_size, validated)
    dtype = src.data.dtype
    counts = np.bincount(index, minlength=dim_size).astype(dtype)
    safe_counts = np.maximum(counts, 1.0)
    out = np.zeros((dim_size, src.shape[1]), dtype=dtype)
    scatter_add(out, index, src.data)
    out /= safe_counts[:, None]

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        return [(grad / safe_counts[:, None])[index]]

    return apply_op(out, (src,), backward_fn)


def _scatter_extreme(
    src: Tensor, index: np.ndarray, dim_size: int, mode: str, validated: bool
) -> Tensor:
    src, index = _check_inputs(src, index, dim_size, validated)
    dtype = src.data.dtype
    fill = -np.inf if mode == "max" else np.inf
    out = np.full((dim_size, src.shape[1]), fill, dtype=dtype)
    scatter_extreme(out, index, src.data, mode)
    empty = ~np.isfinite(out)
    out = np.where(empty, dtype.type(0.0), out)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        # The winners (possibly tied) receive the gradient, split equally.
        # Computed here rather than in the forward pass so inference-only
        # callers (e.g. batched population scoring) never pay for it.
        winner_mask = (src.data == out[index]) & ~empty[index]
        winner_counts = np.zeros((dim_size, src.shape[1]), dtype=dtype)
        scatter_add(winner_counts, index, winner_mask.astype(dtype))
        winner_counts = np.maximum(winner_counts, 1.0)
        return [winner_mask * (grad / winner_counts)[index]]

    return apply_op(out, (src,), backward_fn)


def scatter_max(src: Tensor, index: np.ndarray, dim_size: int, validated: bool = False) -> Tensor:
    """Elementwise maximum of messages per target node (empty targets yield zero)."""
    return _scatter_extreme(src, index, dim_size, "max", validated)


def scatter_min(src: Tensor, index: np.ndarray, dim_size: int, validated: bool = False) -> Tensor:
    """Elementwise minimum of messages per target node (empty targets yield zero)."""
    return _scatter_extreme(src, index, dim_size, "min", validated)


AGGREGATORS = {
    "sum": scatter_sum,
    "mean": scatter_mean,
    "max": scatter_max,
    "min": scatter_min,
}


def scatter(
    src: Tensor, index: np.ndarray, dim_size: int, reduce: str = "sum", validated: bool = False
) -> Tensor:
    """Dispatch to one of the named aggregators (``sum``/``mean``/``max``/``min``)."""
    try:
        fn = AGGREGATORS[reduce]
    except KeyError as exc:
        raise ValueError(f"unknown reduce '{reduce}', expected one of {sorted(AGGREGATORS)}") from exc
    return fn(src, index, dim_size, validated=validated)
