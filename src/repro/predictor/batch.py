"""Batched forward of the latency predictor over many architecture graphs.

The search scores whole populations of candidate architectures per
generation (paper Alg. 1: population 20 x 1000 iterations), and predictor
training fits minibatches of labelled graphs, so running the predictor one
graph at a time spends most of the wall clock on per-call Python and
autograd overhead.  :func:`forward_graphs` is the one batched forward: it
groups a list of :class:`~repro.predictor.arch_graph.ArchitectureGraph`
objects by node count and runs one GCN + MLP forward per group.  Training
(:func:`~repro.predictor.train.train_predictor`, with autograd on),
validation and search scoring (:func:`predict_latencies`) all run it.

Bit-exactness contract
----------------------
:func:`forward_graphs` produces the **same floats** as running
:meth:`~repro.predictor.model.LatencyPredictor.forward_graph` graph by
graph, with or without autograd, which keeps search results independent of
the evaluation path and training losses equal to the per-graph reference.
Three properties make this hold:

* Each node-count group is stacked *without padding*, so every batched
  matmul slice has exactly the shapes of the per-graph call and BLAS picks
  the same kernel.  (Zero padding is mathematically exact, but changing the
  contraction length can switch BLAS kernels whose different sum
  associations drift in the last ulp — observed in practice when padding
  9-node graphs to 16.)
* Pooling is a per-slice ``sum`` / ``max`` over the node axis, accumulating
  in the same order as the per-graph ``sum(axis=0)`` / ``max(axis=0)``.
* The MLP runs on a ``(B, 1, F)`` stack of row vectors rather than a
  ``(B, F)`` matrix, so BLAS applies the same single-row kernel as the
  per-graph path (a ``(B, F) @ (F, out)`` GEMM may reassociate sums
  differently from the per-row GEMV and drift in the last ulp).

Parameter gradients are sums over the graphs of a group, so they agree
with the per-graph reference to rounding, not bitwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.dtype import WIDE_DTYPE
from repro.nn.tensor import Tensor, concatenate, no_grad
from repro.obs.metrics import get_metrics
from repro.predictor.arch_graph import ArchitectureGraph

__all__ = ["forward_graphs", "predict_latencies"]


def forward_graphs(predictor, graphs: Sequence[ArchitectureGraph]) -> Tensor:
    """Standardised log1p-latency predictions for ``graphs``, in input order.

    Args:
        predictor: A :class:`~repro.predictor.model.LatencyPredictor` (typed
            loosely to avoid a circular import); its GCN must accept batched
            ``(B, M, M)`` aggregation operators.
        graphs: Non-empty sequence of graphs (node counts may differ).

    Returns:
        Tensor of shape ``(len(graphs),)``, differentiable when autograd is
        on, with the same floats as per-graph
        :meth:`~repro.predictor.model.LatencyPredictor.forward_graph` calls.
    """
    if not graphs:
        raise ValueError("cannot run the predictor on an empty list of graphs")
    groups: dict[int, list[int]] = {}
    for index, graph in enumerate(graphs):
        groups.setdefault(graph.num_nodes, []).append(index)
    outputs = []
    for num_nodes, indices in groups.items():
        features = np.stack([graphs[index].features for index in indices])
        aggregation = np.stack([graphs[index].adjacency for index in indices])
        aggregation = aggregation.astype(features.dtype, copy=False)
        # Self-loops (the predictor's A + I sum aggregation) in one bulk write.
        diagonal = np.arange(num_nodes)
        aggregation[:, diagonal, diagonal] += 1.0
        node_embeddings = predictor.gcn(Tensor(features), aggregation)
        pooled = concatenate([node_embeddings.sum(axis=1), node_embeddings.max(axis=1)], axis=1)
        # One row vector per graph: BLAS then uses the same single-row kernel
        # as the per-graph path, keeping the outputs bit-identical.
        out = predictor.mlp(pooled.reshape(len(indices), 1, pooled.shape[1]))
        outputs.append(out.reshape(len(indices)))
    grouped_order = np.concatenate(list(groups.values()))
    return concatenate(outputs, axis=0)[np.argsort(grouped_order)]


def predict_latencies(predictor, graphs: Sequence[ArchitectureGraph]) -> np.ndarray:
    """Predicted latencies (ms) for several encoded graphs, batched.

    Bit-identical to mapping
    :meth:`~repro.predictor.model.LatencyPredictor.predict_from_graph` over
    ``graphs``: :func:`forward_graphs` without autograd, denormalised in
    float64.
    """
    if not graphs:
        return np.zeros(0, dtype=WIDE_DTYPE)  # latency milliseconds: metric bookkeeping
    metrics = get_metrics()
    metrics.count("predictor.batch.calls")
    metrics.count("predictor.batch.graphs", len(graphs))
    metrics.count("predictor.batch.groups", len({graph.num_nodes for graph in graphs}))
    metrics.observe("predictor.batch.size", float(len(graphs)))
    with no_grad():
        standardised = forward_graphs(predictor, graphs).numpy()
    # The per-graph path denormalizes a Python float (``.item()`` upcasts the
    # network output to float64); match it exactly by denormalizing in
    # float64 regardless of the compute dtype.
    return predictor.denormalize_to_ms(standardised.astype(WIDE_DTYPE))
