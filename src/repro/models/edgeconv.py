"""EdgeConv layer (Wang et al., DGCNN).

EdgeConv builds per-edge messages ``[x_i, x_j - x_i]`` (centre feature and
relative neighbour feature), transforms them with a shared MLP and reduces
them per centre node with a max aggregator.  The message type and
aggregator are configurable because the HGNAS design space treats them as
searchable *functions* (Table I).
"""

from __future__ import annotations

import numpy as np

from repro.graph.edge_index import validate_edge_index
from repro.graph.fused import propagate
from repro.graph.message import MESSAGE_TYPES, message_dim
from repro.graph.scatter import AGGREGATORS
from repro.nn.layers import MLP, Module
from repro.nn.tensor import Tensor

__all__ = ["EdgeConv"]


class EdgeConv(Module):
    """A single EdgeConv block: message -> shared MLP -> aggregation."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        aggregator: str = "max",
        message_type: str = "target_rel",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator '{aggregator}', expected one of {sorted(AGGREGATORS)}")
        if message_type not in MESSAGE_TYPES:
            raise ValueError(f"unknown message type '{message_type}'")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.aggregator = aggregator
        self.message_type = message_type
        msg_dim = message_dim(message_type, in_dim)
        # One Linear + LeakyReLU: the shape the fused EdgeConv kernel runs.
        self.mlp = MLP([msg_dim, out_dim], activation="leaky_relu", final_activation=True, rng=rng)

    def forward(self, x: Tensor, edge_index: np.ndarray) -> Tensor:
        """Apply the layer.

        Args:
            x: Node features of shape ``(N, in_dim)``.
            edge_index: Edge index of shape ``(2, E)``.

        Returns:
            Aggregated node features of shape ``(N, out_dim)``.
        """
        if x.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        # Validate the caller's edge index exactly once per forward; the
        # message-passing path then skips its redundant range scans.
        edge_index = validate_edge_index(edge_index, x.shape[0])
        return propagate(x, edge_index, self.message_type, self.aggregator, mlp=self.mlp, validated=True)

    def __repr__(self) -> str:
        return (
            f"EdgeConv(in={self.in_dim}, out={self.out_dim}, "
            f"message={self.message_type}, aggr={self.aggregator})"
        )
