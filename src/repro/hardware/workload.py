"""Device-independent workload representation.

A :class:`Workload` is an ordered list of :class:`OpDescriptor` records
describing what a GNN inference executes: graph sampling, message
aggregation, dense combines, skip connections and the classifier head.
The cost model (:mod:`repro.hardware.cost_model`) lowers descriptors into
resource quantities (KNN pair-dims, irregular bytes, FLOPs, ...), and the
latency/memory models combine those quantities with per-device calibrated
coefficients.

Architectures from the NAS design space lower themselves to this IR via
:meth:`repro.nas.architecture.Architecture.to_workload`, and the reference
models (DGCNN and the manual baselines) have factory functions in
:mod:`repro.hardware.reference_workloads` — so every latency/memory number
in the experiments flows through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["OpDescriptor", "Workload", "OP_KINDS", "OP_CATEGORY"]

#: Recognised operation kinds.
OP_KINDS = (
    "knn_sample",
    "random_sample",
    "aggregate",
    "combine",
    "connect_skip",
    "connect_identity",
    "pooling",
    "classifier",
)

#: Profiling category of each op kind (matches the paper's Fig. 3 legend).
OP_CATEGORY = {
    "knn_sample": "sample",
    "random_sample": "sample",
    "aggregate": "aggregate",
    "combine": "combine",
    "connect_skip": "others",
    "connect_identity": "others",
    "pooling": "others",
    "classifier": "combine",
}


@dataclass(frozen=True)
class OpDescriptor:
    """One executed operation.

    Attributes:
        kind: One of :data:`OP_KINDS`.
        num_points: Number of points (graph nodes) the op processes.
        num_edges: Number of edges involved (0 for dense ops).
        in_dim: Input feature width.
        out_dim: Output feature width.
        message_dim: Per-edge message width (aggregate ops only).
        name: Free-form label used in reports.
    """

    kind: str
    num_points: int
    num_edges: int = 0
    in_dim: int = 0
    out_dim: int = 0
    message_dim: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind '{self.kind}', expected one of {OP_KINDS}")
        if self.num_points <= 0:
            raise ValueError(f"num_points must be positive, got {self.num_points}")
        if self.num_edges < 0 or self.in_dim < 0 or self.out_dim < 0 or self.message_dim < 0:
            raise ValueError("op dimensions must be non-negative")

    @property
    def category(self) -> str:
        """Profiling category ('sample', 'aggregate', 'combine' or 'others')."""
        return OP_CATEGORY[self.kind]


@dataclass
class Workload:
    """An ordered list of operations plus cloud-level metadata."""

    ops: list[OpDescriptor] = field(default_factory=list)
    num_points: int = 1024
    name: str = "workload"

    def __post_init__(self) -> None:
        if self.num_points <= 0:
            raise ValueError(f"num_points must be positive, got {self.num_points}")

    def add(self, op: OpDescriptor) -> "Workload":
        """Append an operation (returns self for chaining)."""
        self.ops.append(op)
        return self

    def __iter__(self) -> Iterator[OpDescriptor]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def count(self, kind: str) -> int:
        """Number of ops of the given kind."""
        return sum(1 for op in self.ops if op.kind == kind)
