"""Stand-alone models derived from a searched architecture.

After the search, the winning :class:`~repro.nas.architecture.Architecture`
is instantiated as a :class:`DerivedModel` with its *real* feature widths
(the supernet's alignment layers are discarded, as the paper describes) and
trained from scratch for deployment or accuracy evaluation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import Batch
from repro.defaults import DEFAULTS
from repro.graph.batching import batched_knn_graph, batched_random_graph
from repro.graph.fused import propagate
from repro.models.classifier import ClassificationHead
from repro.nas.architecture import Architecture, EffectiveOp
from repro.nn import functional as F
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, concatenate

__all__ = ["DerivedModel", "GraphBuilder"]

#: Pluggable graph construction:
#: ``(method, features, batch, k, *, points, layer) -> edge_index`` where
#: ``method`` is ``"knn"`` or ``"random"``, ``points`` are the request
#: coordinates (``features is points`` while a layer still samples over
#: them) and ``layer`` is the op index.  The serving engine installs a
#: caching, deterministic builder here; ``None`` keeps the default behaviour.
GraphBuilder = Callable[..., np.ndarray]


class DerivedModel(Module):
    """Executable model for a finalised architecture.

    ``k``, ``embed_dim`` and ``seed`` default to the shared
    :data:`~repro.defaults.DEFAULTS`, the scenario every pipeline stage uses.
    """

    def __init__(
        self,
        architecture: Architecture,
        num_classes: int,
        k: int = DEFAULTS.k,
        embed_dim: int = DEFAULTS.embed_dim,
        dropout: float = 0.3,
        seed: int = DEFAULTS.seed,
    ):
        super().__init__()
        if k <= 0:
            raise ValueError("k must be positive")
        self.architecture = architecture
        self.k = k
        rng = np.random.default_rng(seed)
        self.ops: list[EffectiveOp] = architecture.effective_ops()
        self.combines: dict[int, Linear] = {}
        for index, op in enumerate(self.ops):
            if op.kind == "combine":
                layer = Linear(op.in_dim, op.out_dim, rng=rng)
                self.add_module(f"combine{index}", layer)
                self.combines[index] = layer
        self.head = ClassificationHead(
            architecture.output_dim(),
            num_classes,
            embed_dim=embed_dim,
            hidden_dims=(embed_dim, embed_dim // 2),
            dropout=dropout,
            rng=rng,
        )
        self._graph_rng = np.random.default_rng(seed + 1)
        self.graph_builder: GraphBuilder | None = None

    def _build_graph(self, method: str, x: Tensor, inputs: Tensor, batch_vector: np.ndarray, layer: int) -> np.ndarray:
        if self.graph_builder is not None:
            return self.graph_builder(method, x.data, batch_vector, self.k, points=inputs.data, layer=layer)
        if method == "knn":
            return batched_knn_graph(x.data, batch_vector, self.k)
        return batched_random_graph(batch_vector, self.k, self._graph_rng)

    def forward(self, batch: Batch) -> Tensor:
        """Classify a batch of point clouds with the derived architecture."""
        inputs = Tensor(batch.points)
        x = inputs
        edge_index: np.ndarray | None = None
        for index, op in enumerate(self.ops):
            if op.kind == "sample":
                edge_index = self._build_graph(op.sample_method, x, inputs, batch.batch, index)
            elif op.kind == "aggregate":
                if edge_index is None:
                    edge_index = self._build_graph("knn", x, inputs, batch.batch, index)
                # The edge index came out of a validating graph builder.
                x = propagate(x, edge_index, op.message_type, op.aggregator, validated=True)
            elif op.kind == "combine":
                x = F.leaky_relu(self.combines[index](x), 0.2)
            elif op.kind == "connect_skip":
                x = concatenate([x, inputs], axis=1)
            else:  # pragma: no cover - effective ops are exhaustive
                raise ValueError(f"unhandled effective op '{op.kind}'")
        return self.head(x, batch.batch, batch.num_graphs)
