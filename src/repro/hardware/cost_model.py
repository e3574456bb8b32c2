"""Lowering of workload operations into hardware resource quantities.

Every :class:`~repro.hardware.workload.OpDescriptor` is mapped to an
:class:`OpQuantities` record describing how much of each hardware resource
the op consumes:

* ``knn_pair_dims`` — pairwise-distance work of KNN graph construction,
  ``N^2 * D`` (DGCNN materialises a dense distance matrix and top-k's it).
* ``random_edges`` — index generations for random neighbour sampling.
* ``irregular_bytes`` — gather/scatter traffic of message aggregation
  (reads of neighbour features plus the reduction writes).
* ``flops`` — dense multiply-accumulate work of combines / MLPs.
* ``regular_bytes`` — streaming traffic of dense ops (used by the memory
  model, not the latency model, which treats dense ops as compute bound).
* ``working_set_bytes`` — transient activation footprint of the op.
* ``op_count`` — kernel-launch / framework-dispatch count.

The quantities are device independent; latency and memory are obtained by
multiplying with per-device calibrated coefficients (see
:mod:`repro.hardware.device` and :mod:`repro.hardware.latency`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hardware.workload import OpDescriptor, Workload

__all__ = ["OpQuantities", "WorkloadQuantities", "lower_op", "lower_workload", "BYTES_PER_ELEMENT"]

#: Storage width of activations on the modelled devices (float32).
BYTES_PER_ELEMENT = 4


@dataclass
class OpQuantities:
    """Resource quantities consumed by a single operation."""

    category: str
    knn_pair_dims: float = 0.0
    random_edges: float = 0.0
    irregular_bytes: float = 0.0
    flops: float = 0.0
    regular_bytes: float = 0.0
    working_set_bytes: float = 0.0
    op_count: float = 1.0
    name: str = ""


@dataclass
class WorkloadQuantities:
    """Aggregated quantities for a full workload."""

    per_op: list[OpQuantities] = field(default_factory=list)

    def total(self, attribute: str) -> float:
        """Sum an attribute across all ops."""
        return float(sum(getattr(q, attribute) for q in self.per_op))

    def total_by_category(self, attribute: str) -> dict[str, float]:
        """Sum an attribute per profiling category."""
        totals = {"sample": 0.0, "aggregate": 0.0, "combine": 0.0, "others": 0.0}
        for q in self.per_op:
            totals[q.category] += getattr(q, attribute)
        return totals

    @property
    def total_working_set_bytes(self) -> float:
        """Sum of all transient working sets (upper bound on allocator pressure)."""
        return self.total("working_set_bytes")


def _knn_quantities(op: OpDescriptor) -> OpQuantities:
    n = op.num_points
    dim = max(op.in_dim, 1)
    k = max(op.num_edges // max(n, 1), 1)
    pair_dims = float(n) * n * dim
    # Distance matrix + top-k selection working set.
    working = n * n * BYTES_PER_ELEMENT + n * k * 8
    return OpQuantities(
        category=op.category,
        knn_pair_dims=pair_dims,
        flops=2.0 * pair_dims,
        regular_bytes=2.0 * n * n * BYTES_PER_ELEMENT,
        working_set_bytes=float(working),
        name=op.name or "knn_sample",
    )


def _random_sample_quantities(op: OpDescriptor) -> OpQuantities:
    edges = float(max(op.num_edges, op.num_points))
    return OpQuantities(
        category=op.category,
        random_edges=edges,
        irregular_bytes=edges * 12.0,
        working_set_bytes=edges * 8.0,
        name=op.name or "random_sample",
    )


def _aggregate_quantities(op: OpDescriptor) -> OpQuantities:
    edges = float(max(op.num_edges, 1))
    msg_dim = max(op.message_dim, op.in_dim, 1)
    out_dim = max(op.out_dim, op.in_dim, 1)
    gather_bytes = edges * msg_dim * BYTES_PER_ELEMENT
    scatter_bytes = edges * out_dim * BYTES_PER_ELEMENT
    message_flops = edges * msg_dim * 3.0  # subtraction / concatenation / norm work
    working = (gather_bytes + scatter_bytes) * 2.0
    return OpQuantities(
        category=op.category,
        irregular_bytes=gather_bytes + scatter_bytes,
        flops=message_flops,
        regular_bytes=gather_bytes,
        working_set_bytes=working,
        name=op.name or "aggregate",
    )


def _combine_quantities(op: OpDescriptor) -> OpQuantities:
    rows = float(max(op.num_edges, op.num_points))
    in_dim = max(op.in_dim, 1)
    out_dim = max(op.out_dim, 1)
    flops = 2.0 * rows * in_dim * out_dim
    stream = rows * (in_dim + out_dim) * BYTES_PER_ELEMENT
    return OpQuantities(
        category=op.category,
        flops=flops,
        regular_bytes=stream,
        working_set_bytes=stream,
        name=op.name or "combine",
    )


def _connect_quantities(op: OpDescriptor) -> OpQuantities:
    rows = float(op.num_points)
    dim = max(op.out_dim, op.in_dim, 1)
    flops = rows * dim if op.kind == "connect_skip" else 0.0
    return OpQuantities(
        category=op.category,
        flops=flops,
        regular_bytes=2.0 * rows * dim * BYTES_PER_ELEMENT if op.kind == "connect_skip" else 0.0,
        working_set_bytes=rows * dim * BYTES_PER_ELEMENT,
        op_count=1.0 if op.kind == "connect_skip" else 0.25,
        name=op.name or op.kind,
    )


def _pooling_quantities(op: OpDescriptor) -> OpQuantities:
    rows = float(op.num_points)
    dim = max(op.in_dim, 1)
    return OpQuantities(
        category=op.category,
        flops=rows * dim,
        regular_bytes=rows * dim * BYTES_PER_ELEMENT,
        working_set_bytes=rows * dim * BYTES_PER_ELEMENT,
        name=op.name or "pooling",
    )


def _classifier_quantities(op: OpDescriptor) -> OpQuantities:
    in_dim = max(op.in_dim, 1)
    out_dim = max(op.out_dim, 1)
    hidden = max(int(math.sqrt(in_dim * out_dim)), out_dim)
    flops = 2.0 * (in_dim * hidden + hidden * out_dim)
    return OpQuantities(
        category=op.category,
        flops=flops,
        regular_bytes=(in_dim + hidden + out_dim) * BYTES_PER_ELEMENT,
        working_set_bytes=(in_dim + hidden + out_dim) * BYTES_PER_ELEMENT,
        op_count=3.0,
        name=op.name or "classifier",
    )


_LOWERING = {
    "knn_sample": _knn_quantities,
    "random_sample": _random_sample_quantities,
    "aggregate": _aggregate_quantities,
    "combine": _combine_quantities,
    "connect_skip": _connect_quantities,
    "connect_identity": _connect_quantities,
    "pooling": _pooling_quantities,
    "classifier": _classifier_quantities,
}


def lower_op(op: OpDescriptor) -> OpQuantities:
    """Lower a single op descriptor into resource quantities."""
    return _LOWERING[op.kind](op)


def lower_workload(workload: Workload) -> WorkloadQuantities:
    """Lower every op of a workload."""
    return WorkloadQuantities(per_op=[lower_op(op) for op in workload])
