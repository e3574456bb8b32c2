"""Fused message passing: per-node aggregates and the EdgeConv kernel.

The materialized message-passing path (:func:`repro.graph.message.build_messages`
followed by an MLP and a :mod:`repro.graph.scatter` aggregation) builds the
message tensor through autograd gathers and reduces it with ``np.ufunc.at``,
an order of magnitude slower than a contiguous segment reduction.  This
module replaces it, over **CSR-sorted edges** (target-major; KNN and random
edge indices already are, so sorting is a cheap verification pass), with
two kernels:

* :func:`fused_aggregate` — every MLP-free aggregate, for all seven message
  types.  For the five linear in ``x_i`` and ``x_j`` it is per-node work:
  one differentiable gather-reduce ``R = reduce_j x_j`` runs over the
  target-sorted segments, and the centre term ``x_i`` is scaled per node
  (by the in-degree for ``sum``), so ``rel_pos`` is ``R − x_i`` rather than
  a reduction over ``E`` rows of ``x_j − x_i``.  For ``max``/``min`` this is
  bit-identical to the materialized path, because ``fl(a − c)`` is monotone
  in ``a``.  ``distance`` and ``full`` build each edge's message with the
  numpy calls of ``build_messages`` and segment-reduce it: ``sum``/``mean``
  add a target's messages one after another from +0.0, the order of
  ``np.add.at``, so their forward is bit-identical to the materialized path
  under all four aggregators.
* :func:`fused_edgeconv` — the per-edge kernel for EdgeConv's one shape,
  a single ``Linear`` followed by ``ReLU``/``LeakyReLU``, over
  :data:`EDGECONV_MESSAGE_TYPES`.  Edges are processed in segment-aligned
  chunks (build messages, ``msg @ W + b``, activation, segment reduce), so
  the peak intermediate is ``chunk × width`` instead of ``E × width``; the
  backward rematerializes each chunk.

Both backward passes are exact, with max/min gradients split equally among
tied winners like :func:`repro.graph.scatter.scatter_max`; they sum rows
with :func:`~repro.backends.index_sum` and segment sums, never ``ufunc.at``.
Everything runs in the dtype of the node features.

:func:`propagate` is the message-passing entry point of
:class:`~repro.models.edgeconv.EdgeConv`, :class:`~repro.nas.derived.DerivedModel`
and the supernet, in training and inference alike.  The materialized path
remains the test oracle, and the fallback for MLPs other than EdgeConv's
(and for EdgeConv MLPs over ``distance``/``full``, which no model runs);
``use_backend("materialized")`` selects it everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.backends import fused_kernels_enabled, gather_reduce, index_sum, segment_reduce
from repro.graph.edge_index import validate_edge_index
from repro.graph.message import MESSAGE_TYPES, build_messages
from repro.graph.scatter import scatter
from repro.nn.layers import MLP, LeakyReLU, Linear, ReLU
from repro.nn.tensor import Tensor, apply_op, as_tensor, concatenate, leaky_relu_slopes, leaky_relu_values
from repro.obs.metrics import get_metrics

__all__ = ["EDGECONV_MESSAGE_TYPES", "fused_aggregate", "fused_edgeconv", "propagate"]

#: Message types of the fused EdgeConv kernel: the ones linear in ``x_i`` and ``x_j``.
EDGECONV_MESSAGE_TYPES = ("source_pos", "target_pos", "rel_pos", "source_rel", "target_rel")

#: Target number of edges per :func:`fused_edgeconv` chunk; bounds the peak
#: intermediate to ``chunk × max(message_dim, out_dim)`` floats while staying
#: large enough that BLAS and reduceat run at full throughput.
_CHUNK_EDGES = 32768


def _csr_segments(
    x: Tensor, edge_index, message_type: str, aggregator: str, validated: bool, supported=MESSAGE_TYPES
):
    """Check the inputs, count the dispatch and sort the edges by target.

    ``supported`` lists the message types of the calling kernel.

    Returns ``(x, sources, targets, seg_nodes, seg_starts, seg_counts)``:
    target-sorted edges plus the non-empty segments (``reduceat`` cannot
    express empty ones).
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"fused kernels expect 2-D node features, got shape {x.shape}")
    if message_type not in supported:
        raise ValueError(f"message type '{message_type}' has no fused kernel; supported: {supported}")
    if aggregator not in ("sum", "mean", "max", "min"):
        raise ValueError(f"unknown aggregator '{aggregator}'")
    edge_index = np.asarray(edge_index, dtype=np.int64)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise ValueError(f"edge_index must have shape (2, E), got {edge_index.shape}")
    if not validated:
        validate_edge_index(edge_index, x.shape[0])
    metrics = get_metrics()
    metrics.count("graph.fused.dispatch")
    metrics.count("graph.fused.edges", int(edge_index.shape[1]))

    sources, targets = edge_index
    if targets.size and np.any(targets[:-1] > targets[1:]):
        order = np.argsort(targets, kind="stable")
        sources, targets = sources[order], targets[order]
    seg_starts = np.flatnonzero(np.diff(targets, prepend=-1))
    seg_counts = np.diff(np.append(seg_starts, targets.size))
    return x, sources, targets, targets[seg_starts], seg_starts, seg_counts


def _gather_reduce(x: Tensor, sources, seg_nodes, seg_starts, seg_counts, aggregator: str) -> Tensor:
    """Differentiable ``segment_reduce(x[sources])`` onto ``x``'s nodes.

    The forward is :func:`~repro.backends.gather_reduce`.  Nodes without
    in-edges get zero rows.  The backward recomputes the gather; max/min
    gradients go to the winners, split equally among ties.
    """
    xd = x.data
    dtype = xd.dtype
    out = gather_reduce(xd, sources, seg_starts, seg_counts, aggregator)
    if aggregator == "mean":
        out /= seg_counts[:, None].astype(dtype)
    if seg_nodes.size < xd.shape[0]:
        reduced, out = out, np.zeros_like(xd)
        out[seg_nodes] = reduced

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        seg_grad = np.asarray(grad, dtype=dtype)[seg_nodes]
        if aggregator == "mean":
            seg_grad = seg_grad / seg_counts[:, None].astype(dtype)
        if aggregator in ("max", "min"):
            winners = (xd[sources] == np.repeat(out[seg_nodes], seg_counts, axis=0)).astype(dtype)
            winner_counts = segment_reduce(winners, seg_starts, seg_counts, "sum")
            edge_grad = winners * np.repeat(seg_grad / winner_counts, seg_counts, axis=0)
        else:
            edge_grad = np.repeat(seg_grad, seg_counts, axis=0)
        return [index_sum(sources, edge_grad, xd.shape[0])]

    return apply_op(out, (x,), backward_fn)


def _distance_aggregate(x: Tensor, sources, seg_nodes, seg_starts, seg_counts,
                        message_type: str, aggregator: str) -> Tensor:
    """``distance``/``full`` messages of the sorted edges, reduced onto ``x``'s nodes.

    The edges are laid out rank-major: entry ``(j, s)`` is segment ``s``'s
    ``j``-th edge, so every per-edge array is a ``(k, S, ·)`` stack and each
    reduction runs over its outer axis, adding the ranks one after another.
    Each edge's distance is computed with the numpy calls of
    ``build_messages``, so every block of the message ``[x_i, x_j, rel,
    dist]`` has the materialized path's bits; ``sum``/``mean`` start from
    +0.0 and add a target's messages in edge order, as ``np.add.at`` does,
    and ``max``/``min`` do not depend on the order.  The forward is therefore
    bit-identical to the materialized path for all four aggregators.
    Segments shorter than the longest one are padded with the reduction's
    identity (+0.0, -inf or +inf), which leaves those sums and extremes
    unchanged.  The backward maps each edge's message gradient onto its
    source (:func:`~repro.backends.index_sum`) and its target (a sum over
    the ranks), through ``d dist / d rel = rel / dist``.
    """
    xd = x.data
    dtype = xd.dtype
    valid = np.arange(int(seg_counts.max(initial=0)))[:, None] < seg_counts  # (k, S)
    ragged = not valid.all()
    edges = seg_starts + np.arange(valid.shape[0])[:, None]
    src = sources[np.where(valid, edges, seg_starts) if ragged else edges]
    centre = xd[seg_nodes]
    x_j = xd[src]
    rel = x_j - centre
    dist = ((rel**2).sum(axis=2, keepdims=True) + 1e-12) ** 0.5
    blocks = [dist] if message_type == "distance" else [np.broadcast_to(centre, x_j.shape), x_j, rel, dist]
    additive = aggregator in ("sum", "mean")
    reducer = {"max": np.maximum, "min": np.minimum}.get(aggregator, np.add)
    identity = {"max": -np.inf, "min": np.inf}.get(aggregator, 0.0)
    if ragged:
        blocks = [np.where(valid[:, :, None], block, dtype.type(identity)) for block in blocks]
    reduced = np.concatenate([reducer.reduce(block, axis=0, initial=identity) for block in blocks], axis=1)
    if aggregator == "mean":
        reduced /= seg_counts[:, None].astype(dtype)
    out = np.zeros((xd.shape[0], reduced.shape[1]), dtype=dtype)
    out[seg_nodes] = reduced
    bounds = np.cumsum([0] + [block.shape[2] for block in blocks])

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        seg_grad = np.asarray(grad, dtype=dtype)[seg_nodes]
        if aggregator == "mean":
            seg_grad = seg_grad / seg_counts[:, None].astype(dtype)
        g = []
        for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
            if additive:
                g.append(seg_grad[:, lo:hi] * valid[:, :, None] if ragged else seg_grad[:, lo:hi])
            else:
                # The winners of each column share its gradient equally.
                winners = (block == reduced[:, lo:hi]).astype(dtype)
                g.append(winners * (seg_grad[:, lo:hi] / winners.sum(axis=0)))
        d_rel = g[-1] * rel / dist
        if message_type == "distance":
            d_source, d_target = d_rel, -d_rel.sum(axis=0)
        else:  # full: [x_i, x_j, rel, dist]
            d_rel = d_rel + g[2]
            d_source = np.broadcast_to(g[1] + d_rel, rel.shape)
            d_target = (g[0] - d_rel).sum(axis=0)
        dx = index_sum(src.reshape(-1), d_source.reshape(-1, xd.shape[1]), xd.shape[0])
        dx[seg_nodes] += d_target
        return [dx]

    return apply_op(out, (x,), backward_fn)


def fused_aggregate(
    x: Tensor, edge_index: np.ndarray, message_type: str, aggregator: str, validated: bool = False
) -> Tensor:
    """MLP-free ``scatter(build_messages(x, edge_index, message_type))`` without ``ufunc.at``.

    With ``R = reduce_j x_j`` and ``centre = w · x_i`` (``w`` the in-degree
    for ``sum``, 1 otherwise, 0 for nodes without in-edges), the message
    types become ``source_pos → R``, ``target_pos → centre``,
    ``rel_pos → R − centre``, ``source_rel → [R, R − centre]`` and
    ``target_rel → [centre, R − centre]``.  ``distance`` and ``full`` reduce
    per-edge messages (:func:`_distance_aggregate`).

    Args:
        x: Node features ``(N, F)``.
        edge_index: Edge index ``(2, E)`` (targets need not be pre-sorted).
        message_type: One of :data:`~repro.graph.message.MESSAGE_TYPES`.
        aggregator: ``sum`` / ``mean`` / ``max`` / ``min``.
        validated: Skip the edge-index range scan (for indices produced by
            the repo's own — validating — graph builders).
    """
    x, sources, _, seg_nodes, seg_starts, seg_counts = _csr_segments(
        x, edge_index, message_type, aggregator, validated
    )
    if message_type in ("distance", "full"):
        return _distance_aggregate(x, sources, seg_nodes, seg_starts, seg_counts, message_type, aggregator)
    reduced = _gather_reduce(x, sources, seg_nodes, seg_starts, seg_counts, aggregator)
    if message_type == "source_pos":
        return reduced
    if aggregator != "sum" and seg_nodes.size == x.shape[0]:
        # Every node has in-edges, so the weight is all ones.  An identity op
        # rather than ``x`` itself keeps the backward graph of ``x * 1``: the
        # centre's gradients are summed before they reach ``x``, in the same order.
        centre = apply_op(x.data, (x,), lambda grad: [grad])
    else:
        weight = np.zeros((x.shape[0], 1), dtype=x.data.dtype)
        weight[seg_nodes, 0] = seg_counts if aggregator == "sum" else 1
        centre = x * weight
    if message_type == "target_pos":
        return centre
    relative = reduced - centre
    if message_type == "rel_pos":
        return relative
    return concatenate([reduced if message_type == "source_rel" else centre, relative], axis=1)


def _edgeconv_layers(mlp):
    """``(linear, negative_slope)`` if ``mlp`` is one ``Linear`` + ``ReLU``/``LeakyReLU``."""
    layers = list(mlp.layers) if isinstance(mlp, MLP) else []
    if len(layers) == 2 and isinstance(layers[0], Linear) and isinstance(layers[1], (ReLU, LeakyReLU)):
        return layers[0], float(getattr(layers[1], "negative_slope", 0.0))
    return None


def _chunk_messages(xd, src, tgt, message_type):
    if message_type == "source_pos":
        return xd[src]
    if message_type == "target_pos":
        return xd[tgt]
    relative = xd[src] - xd[tgt]
    if message_type == "rel_pos":
        return relative
    return np.concatenate([xd[src] if message_type == "source_rel" else xd[tgt], relative], axis=1)


def _scatter_dmsg(dx, dmsg, src, nodes, starts, counts, message_type, feature_dim):
    """Add a chunk's message gradient to ``dx``: each edge's source row and target row.

    Targets are the chunk's sorted segments (``nodes``/``starts``/``counts``),
    so their part is a segment sum; sources are unordered and go through
    :func:`~repro.backends.index_sum`.
    """
    d_centre, d_rel = dmsg[:, :feature_dim], dmsg[:, feature_dim:]
    if message_type == "source_pos":
        d_source, d_target = dmsg, None
    elif message_type == "target_pos":
        d_source, d_target = None, dmsg
    elif message_type == "rel_pos":
        d_source, d_target = dmsg, -dmsg
    elif message_type == "target_rel":  # [x_i, x_j - x_i]
        d_source, d_target = d_rel, d_centre - d_rel
    else:  # source_rel: [x_j, x_j - x_i]
        d_source, d_target = d_centre + d_rel, -d_rel
    if d_source is not None:
        dx += index_sum(src, d_source, dx.shape[0])
    if d_target is not None:
        dx[nodes] += segment_reduce(d_target, starts, counts, "sum")


def fused_edgeconv(
    x: Tensor,
    edge_index: np.ndarray,
    mlp: MLP,
    message_type: str = "target_rel",
    aggregator: str = "max",
    validated: bool = False,
) -> Tensor:
    """Chunked ``scatter(act(build_messages(x, edge_index) @ W + b))``.

    ``mlp`` must be EdgeConv's shape: one ``Linear`` followed by ``ReLU`` or
    ``LeakyReLU``.  Edges are processed in segment-aligned chunks of about
    ``_CHUNK_EDGES``, so the full ``(E, F)`` message and activation tensors
    never exist; the backward rematerializes each chunk.  Other arguments
    are as in :func:`fused_aggregate`.
    """
    layers = _edgeconv_layers(mlp)
    if layers is None:
        raise ValueError("fused_edgeconv needs an MLP of one Linear followed by ReLU/LeakyReLU")
    linear, slope = layers
    x, sources, targets, seg_nodes, seg_starts, seg_counts = _csr_segments(
        x, edge_index, message_type, aggregator, validated, EDGECONV_MESSAGE_TYPES
    )
    xd = x.data
    dtype = xd.dtype
    weight, bias = linear.weight, linear.bias
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = np.zeros((xd.shape[0], weight.shape[1]), dtype=dtype)
    if not targets.size:
        # No messages: zero output, and every input gets a zero gradient,
        # matching the materialized path's accumulation.
        return apply_op(out, parents, lambda grad: [np.zeros_like(p.data) for p in parents])

    # Chunks cover whole segments and at most ~_CHUNK_EDGES edges (a single
    # oversized segment still becomes its own chunk).
    seg_ends = seg_starts + seg_counts
    chunks: list[tuple[int, int]] = []
    s0 = 0
    while s0 < seg_nodes.size:
        stop = int(np.searchsorted(seg_ends, seg_starts[s0] + _CHUNK_EDGES, side="right"))
        chunks.append((s0, max(stop, s0 + 1)))
        s0 = chunks[-1][1]

    def run_chunk(s0: int, s1: int):
        e0, e1 = int(seg_starts[s0]), int(seg_ends[s1 - 1])
        src, tgt = sources[e0:e1], targets[e0:e1]
        msg = _chunk_messages(xd, src, tgt, message_type)
        pre = msg @ weight.data
        if bias is not None:
            pre = pre + bias.data
        h = np.maximum(pre, 0.0) if slope == 0.0 else leaky_relu_values(pre, slope)
        return src, msg, pre, h, seg_starts[s0:s1] - e0, seg_counts[s0:s1]

    for s0, s1 in chunks:
        *_, h, starts, counts = run_chunk(s0, s1)
        out[seg_nodes[s0:s1]] = segment_reduce(h, starts, counts, aggregator)
    if aggregator == "mean":
        out[seg_nodes] /= seg_counts[:, None].astype(dtype)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray | None]:
        seg_grad = np.asarray(grad, dtype=dtype)[seg_nodes]
        if aggregator == "mean":
            seg_grad = seg_grad / seg_counts[:, None].astype(dtype)
        dx = np.zeros_like(xd) if x.requires_grad else None
        d_weight = np.zeros_like(weight.data)
        d_bias = None if bias is None else np.zeros_like(bias.data)
        for s0, s1 in chunks:
            src, msg, pre, h, starts, counts = run_chunk(s0, s1)
            if aggregator in ("sum", "mean"):
                g = np.repeat(seg_grad[s0:s1], counts, axis=0)
            else:
                winners = (h == np.repeat(out[seg_nodes[s0:s1]], counts, axis=0)).astype(dtype)
                winner_counts = segment_reduce(winners, starts, counts, "sum")
                g = winners * np.repeat(seg_grad[s0:s1] / winner_counts, counts, axis=0)
            g *= leaky_relu_slopes(pre, slope)
            d_weight += msg.T @ g
            if d_bias is not None:
                d_bias += g.sum(axis=0)
            if dx is not None:
                _scatter_dmsg(
                    dx, g @ weight.data.T, src, seg_nodes[s0:s1], starts, counts, message_type, xd.shape[1]
                )
        return [dx, d_weight] if bias is None else [dx, d_weight, d_bias]

    return apply_op(out, parents, backward_fn)


def propagate(
    x: Tensor,
    edge_index: np.ndarray,
    message_type: str,
    aggregator: str,
    mlp=None,
    validated: bool = False,
) -> Tensor:
    """``scatter(mlp(build_messages(x, edge_index)))`` onto ``x``'s nodes.

    With fused kernels enabled, every MLP-free aggregate runs
    :func:`fused_aggregate` and EdgeConv-shaped MLPs over
    :data:`EDGECONV_MESSAGE_TYPES` run :func:`fused_edgeconv`.  Other MLPs
    take the materialized path (counted as ``graph.materialized.dispatch``).
    All paths are differentiable.
    """
    if fused_kernels_enabled():
        if mlp is None:
            return fused_aggregate(x, edge_index, message_type, aggregator, validated=validated)
        if message_type in EDGECONV_MESSAGE_TYPES and _edgeconv_layers(mlp) is not None:
            return fused_edgeconv(x, edge_index, mlp, message_type, aggregator, validated=validated)
    get_metrics().count("graph.materialized.dispatch")
    messages = build_messages(x, edge_index, message_type, validated=validated)
    if mlp is not None:
        messages = mlp(messages)
    return scatter(messages, edge_index[1], x.shape[0], aggregator, validated=validated)
