"""Fused gather → message → (MLP) → aggregate kernels.

The materialized message-passing path (:func:`repro.graph.message.build_messages`
followed by an MLP and a :mod:`repro.graph.scatter` aggregation) allocates a
full ``(E, message_dim)`` edge tensor, pushes it through the MLP as one giant
matrix and reduces it with ``np.ufunc.at`` — which is both bandwidth-bound
(every intermediate lives in memory at once) and reduction-bound
(``np.add.at``/``np.maximum.at`` are an order of magnitude slower than
contiguous segment reductions).

This module fuses the whole pipeline over **CSR-sorted edges**:

1. Edges are sorted by target node (KNN/random edge indices are already
   target-major, so this is a cheap verification pass) and turned into
   ``reduceat`` segment offsets.
2. Edges are processed in chunks aligned to segment boundaries: each chunk
   gathers its endpoint features, builds the messages, runs the (optional)
   MLP and reduces per target with ``np.ufunc.reduceat`` — so the peak
   intermediate is ``chunk × width`` instead of ``E × width``.
3. The backward pass is exact: chunks are rematerialized and standard
   backprop runs through the MLP, with max/min tie gradients split equally
   among winners exactly like :func:`repro.graph.scatter.scatter_max`.

The fused path supports the common message types (``source_pos``,
``target_pos``, ``rel_pos``, ``target_rel``) and MLPs made of
``Linear``/``ReLU``/``LeakyReLU`` (+ inert eval-mode ``Dropout``) — which
covers EdgeConv, the derived models and the supernet aggregate.  Everything
runs in the dtype of the node features, so the float32 default policy
(:mod:`repro.nn.dtype`) halves its memory traffic relative to the float64
seed implementation.

:func:`propagate` is the message-passing entry point of
:class:`~repro.models.edgeconv.EdgeConv`, :class:`~repro.nas.derived.DerivedModel`
and the supernet, in training and inference alike.  It falls back to the
materialized path under ``use_backend("materialized")`` and for pairs
:func:`supports_fused` rejects.

The irregular-access primitives (segment reduction, scatter accumulation)
are the shared kernels of :mod:`repro.backends`; this module contributes the
CSR layout, the segment-aligned chunking and the exact rematerializing
backward.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends import fused_kernels_enabled, scatter_add, segment_reduce
from repro.graph.message import build_messages
from repro.graph.scatter import scatter
from repro.nn.layers import MLP, Dropout, Identity, LeakyReLU, Linear, ReLU, Sequential
from repro.nn.tensor import Tensor, apply_op, as_tensor
from repro.obs.metrics import get_metrics

__all__ = [
    "FUSED_MESSAGE_TYPES",
    "linearize_mlp",
    "supports_fused",
    "fused_aggregate",
    "fused_edgeconv",
    "propagate",
]

#: Message types with a fused kernel (the linear-gather family).
FUSED_MESSAGE_TYPES = ("source_pos", "target_pos", "rel_pos", "target_rel")

#: Target number of edges per fused chunk; bounds the peak intermediate to
#: ``chunk × max(message_dim, mlp widths)`` floats while staying large
#: enough that BLAS and reduceat run at full throughput.
_CHUNK_EDGES = 32768


def linearize_mlp(mlp) -> list[tuple] | None:
    """Flatten an MLP into fused-kernel steps, or ``None`` if unsupported.

    Supported modules: :class:`Linear`, :class:`ReLU`, :class:`LeakyReLU`,
    :class:`Identity` and eval-mode / zero-probability :class:`Dropout`.
    Anything else (``BatchNorm1d``, active dropout, custom modules) returns
    ``None`` and the caller falls back to the materialized path.
    """
    if mlp is None:
        return []
    if isinstance(mlp, MLP):
        modules: Sequence = list(mlp.layers)
    elif isinstance(mlp, Sequential):
        modules = list(mlp)
    else:
        return None
    steps: list[tuple] = []
    for module in modules:
        if isinstance(module, Linear):
            steps.append(("linear", module.weight, module.bias))
        elif isinstance(module, ReLU):
            steps.append(("act", 0.0))
        elif isinstance(module, LeakyReLU):
            steps.append(("act", float(module.negative_slope)))
        elif isinstance(module, Identity):
            continue
        elif isinstance(module, Dropout):
            if module.training and module.p > 0:
                return None
        else:
            return None
    return steps


def supports_fused(message_type: str, mlp=None) -> bool:
    """Whether the fused kernel can run this (message type, MLP) pair."""
    return message_type in FUSED_MESSAGE_TYPES and linearize_mlp(mlp) is not None


def _csr_segments(edge_index: np.ndarray):
    """Sort edges by target and compute ``reduceat`` segment offsets.

    Returns ``(sources, targets, seg_nodes, seg_starts, seg_counts)`` where
    the edges are target-sorted and the three segment arrays describe the
    non-empty targets only (``reduceat`` cannot express empty segments).
    """
    sources = np.asarray(edge_index[0], dtype=np.int64)
    targets = np.asarray(edge_index[1], dtype=np.int64)
    if targets.size and np.any(targets[:-1] > targets[1:]):
        order = np.argsort(targets, kind="stable")
        sources = sources[order]
        targets = targets[order]
    # Non-empty segments: boundaries where the sorted target changes.
    if targets.size:
        boundaries = np.flatnonzero(np.diff(targets)) + 1
        seg_starts = np.concatenate([[0], boundaries]).astype(np.int64)
        seg_nodes = targets[seg_starts]
        seg_counts = np.diff(np.concatenate([seg_starts, [targets.size]]))
    else:
        seg_starts = np.zeros(0, dtype=np.int64)
        seg_nodes = np.zeros(0, dtype=np.int64)
        seg_counts = np.zeros(0, dtype=np.int64)
    return sources, targets, seg_nodes, seg_starts, seg_counts


def _chunk_messages(xd, src, tgt, message_type):
    if message_type == "source_pos":
        return xd[src]
    if message_type == "target_pos":
        return xd[tgt]
    if message_type == "rel_pos":
        return xd[src] - xd[tgt]
    # target_rel: [x_i, x_j - x_i]
    x_i = xd[tgt]
    return np.concatenate([x_i, xd[src] - x_i], axis=1)


def _run_steps(h, steps, keep_intermediates: bool):
    """Apply linearized MLP steps; optionally keep per-step inputs for backprop."""
    inputs = [] if keep_intermediates else None
    for step in steps:
        if keep_intermediates:
            inputs.append(h)
        if step[0] == "linear":
            _, weight, bias = step
            h = h @ weight.data
            if bias is not None:
                h = h + bias.data
        else:
            slope = step[1]
            if slope == 0.0:
                h = np.maximum(h, 0.0)
            else:
                h = np.where(h > 0.0, h, slope * h)
    return h, inputs


def _act_derivative(pre, slope, dtype):
    if slope == 0.0:
        return (pre > 0.0).astype(dtype)
    return np.where(pre > 0.0, dtype.type(1.0), dtype.type(slope))


def _scatter_dmsg(dx, dmsg, src, tgt, message_type, feature_dim):
    if message_type == "source_pos":
        scatter_add(dx, src, dmsg)
    elif message_type == "target_pos":
        scatter_add(dx, tgt, dmsg)
    elif message_type == "rel_pos":
        scatter_add(dx, src, dmsg)
        scatter_add(dx, tgt, -dmsg)
    else:  # target_rel
        d_centre = dmsg[:, :feature_dim]
        d_rel = dmsg[:, feature_dim:]
        scatter_add(dx, tgt, d_centre - d_rel)
        scatter_add(dx, src, d_rel)


def fused_edgeconv(
    x: Tensor,
    edge_index: np.ndarray,
    mlp=None,
    message_type: str = "target_rel",
    aggregator: str = "max",
    num_nodes: int | None = None,
    chunk_edges: int = _CHUNK_EDGES,
    validated: bool = False,
) -> Tensor:
    """Fused message → MLP → aggregate, differentiable and chunked.

    Semantically equivalent to ``scatter(mlp(build_messages(x, edge_index,
    message_type)), edge_index[1], num_nodes, aggregator)`` but never
    materializes the full ``(E, F)`` message/activation tensors: edges are
    processed in segment-aligned chunks reduced with ``np.ufunc.reduceat``.

    Args:
        x: Node features ``(N, F)``.
        edge_index: Edge index ``(2, E)`` (targets need not be pre-sorted).
        mlp: Optional per-edge MLP; must satisfy :func:`linearize_mlp`.
        message_type: One of :data:`FUSED_MESSAGE_TYPES`.
        aggregator: ``sum`` / ``mean`` / ``max`` / ``min``.
        num_nodes: Output segment count (defaults to ``x.shape[0]``).
        chunk_edges: Target edges per chunk.
        validated: Skip the edge-index range scan (for indices produced by
            the repo's own — validating — graph builders).

    Returns:
        Aggregated features ``(num_nodes, out_dim)`` wired into autograd:
        gradients are exact (chunks are rematerialized in backward, max/min
        ties split equally among winners like ``scatter_max``).
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"fused kernels expect 2-D node features, got shape {x.shape}")
    if message_type not in FUSED_MESSAGE_TYPES:
        raise ValueError(
            f"message type '{message_type}' has no fused kernel; "
            f"supported: {FUSED_MESSAGE_TYPES}"
        )
    if aggregator not in ("sum", "mean", "max", "min"):
        raise ValueError(f"unknown aggregator '{aggregator}'")
    steps = linearize_mlp(mlp)
    if steps is None:
        raise ValueError("MLP structure unsupported by the fused kernel (see linearize_mlp)")
    if chunk_edges <= 0:
        raise ValueError(f"chunk_edges must be positive, got {chunk_edges}")

    edge_index = np.asarray(edge_index, dtype=np.int64)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    dim_size = x.shape[0] if num_nodes is None else int(num_nodes)
    if dim_size <= 0:
        raise ValueError(f"num_nodes must be positive, got {dim_size}")
    if not validated and edge_index.size:
        if edge_index.min() < 0:
            raise ValueError("edge_index contains negative node indices")
        # Sources always gather from x; targets index the output segments
        # and — for every message type except source_pos — x as well.
        target_bound = dim_size if message_type == "source_pos" else min(dim_size, x.shape[0])
        if edge_index[0].max() >= x.shape[0] or edge_index[1].max() >= target_bound:
            raise ValueError("edge_index references a node outside the graph")

    metrics = get_metrics()
    metrics.count("graph.fused.dispatch")
    metrics.count("graph.fused.edges", int(edge_index.shape[1]))

    xd = x.data
    dtype = xd.dtype
    feature_dim = xd.shape[1]
    sources, targets, seg_nodes, seg_starts, seg_counts = _csr_segments(edge_index)
    num_edges = targets.size

    out_dim = feature_dim * (2 if message_type == "target_rel" else 1)
    for step in steps:
        if step[0] == "linear":
            out_dim = step[1].shape[1]

    out = np.zeros((dim_size, out_dim), dtype=dtype)

    # Chunk boundaries in segment space: each chunk covers whole segments
    # and at most ~chunk_edges edges (a single oversized segment still
    # becomes its own chunk).
    seg_ends = seg_starts + seg_counts
    chunk_bounds: list[tuple[int, int]] = []
    seg = 0
    while seg < seg_nodes.size:
        limit = seg_starts[seg] + chunk_edges
        stop = int(np.searchsorted(seg_ends, limit, side="right"))
        stop = max(stop, seg + 1)
        chunk_bounds.append((seg, stop))
        seg = stop

    for s0, s1 in chunk_bounds:
        e0, e1 = int(seg_starts[s0]), int(seg_ends[s1 - 1])
        h = _chunk_messages(xd, sources[e0:e1], targets[e0:e1], message_type)
        h, _ = _run_steps(h, steps, keep_intermediates=False)
        out[seg_nodes[s0:s1]] = segment_reduce(
            h, seg_starts[s0:s1] - e0, seg_counts[s0:s1], aggregator
        )

    counts = None
    if aggregator == "mean":
        counts = seg_counts.astype(dtype)
        out[seg_nodes] /= counts[:, None]

    params: list[Tensor] = []
    for step in steps:
        if step[0] == "linear":
            params.append(step[1])
            if step[2] is not None:
                params.append(step[2])
    parents = (x, *params)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray | None]:
        grad = np.asarray(grad, dtype=dtype)
        dx = np.zeros_like(xd) if x.requires_grad else None
        linear_steps = [step for step in steps if step[0] == "linear"]
        d_weights = {id(step): np.zeros_like(step[1].data) for step in linear_steps}
        d_biases = {
            id(step): np.zeros_like(step[2].data) for step in linear_steps if step[2] is not None
        }
        if aggregator == "mean":
            scaled = grad[seg_nodes] / counts[:, None]
        elif aggregator == "sum":
            scaled = grad[seg_nodes]
        for s0, s1 in chunk_bounds:
            e0, e1 = int(seg_starts[s0]), int(seg_ends[s1 - 1])
            src = sources[e0:e1]
            tgt = targets[e0:e1]
            h = _chunk_messages(xd, src, tgt, message_type)
            h, inputs = _run_steps(h, steps, keep_intermediates=True)
            local_counts = seg_counts[s0:s1]
            seg_of_edge = np.repeat(np.arange(s1 - s0), local_counts)
            if aggregator in ("sum", "mean"):
                g = scaled[s0:s1][seg_of_edge]
            else:
                winners = (h == out[seg_nodes[s0:s1]][seg_of_edge]).astype(dtype)
                local_starts = seg_starts[s0:s1] - e0
                winner_counts = segment_reduce(winners, local_starts, local_counts, "sum")
                g = winners * (grad[seg_nodes[s0:s1]] / winner_counts)[seg_of_edge]
            for step, layer_in in zip(reversed(steps), reversed(inputs)):
                if step[0] == "linear":
                    _, weight, bias = step
                    d_weights[id(step)] += layer_in.T @ g
                    if bias is not None:
                        d_biases[id(step)] += g.sum(axis=0)
                    g = g @ weight.data.T
                else:
                    g = g * _act_derivative(layer_in, step[1], dtype)
            if dx is not None:
                _scatter_dmsg(dx, g, src, tgt, message_type, feature_dim)
        grads: list[np.ndarray | None] = [dx]
        for step in linear_steps:
            grads.append(d_weights[id(step)])
            if step[2] is not None:
                grads.append(d_biases[id(step)])
        return grads

    if num_edges == 0:
        # No messages: output is all zeros and every input gets a zero
        # gradient, matching the materialized path's accumulation.
        return apply_op(out, parents, lambda grad: [np.zeros_like(p.data) for p in parents])
    return apply_op(out, parents, backward_fn)


def fused_aggregate(
    x: Tensor,
    edge_index: np.ndarray,
    message_type: str,
    aggregator: str,
    num_nodes: int | None = None,
    validated: bool = False,
) -> Tensor:
    """Fused message construction + aggregation without an MLP.

    The MLP-free counterpart of :func:`fused_edgeconv`, used by the derived
    models and the supernet whose aggregate ops reduce raw messages.
    """
    return fused_edgeconv(
        x,
        edge_index,
        mlp=None,
        message_type=message_type,
        aggregator=aggregator,
        num_nodes=num_nodes,
        validated=validated,
    )


def propagate(
    x: Tensor,
    edge_index: np.ndarray,
    message_type: str,
    aggregator: str,
    mlp=None,
    validated: bool = False,
) -> Tensor:
    """``scatter(mlp(build_messages(x, edge_index)))`` onto ``x``'s nodes.

    Runs :func:`fused_edgeconv` when fused kernels are enabled and
    :func:`supports_fused` accepts the pair, else the materialized path
    (counted as ``graph.materialized.dispatch``).  Both are differentiable.
    """
    if fused_kernels_enabled() and supports_fused(message_type, mlp):
        return fused_edgeconv(x, edge_index, mlp, message_type=message_type, aggregator=aggregator, validated=validated)
    get_metrics().count("graph.materialized.dispatch")
    messages = build_messages(x, edge_index, message_type, validated=validated)
    if mlp is not None:
        messages = mlp(messages)
    return scatter(messages, edge_index[1], x.shape[0], aggregator, validated=validated)
