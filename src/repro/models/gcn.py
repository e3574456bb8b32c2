"""Dense GCN layers used by the hardware performance predictor.

The architecture graphs fed to the predictor contain only a few dozen
nodes, so a dense formulation ``act(A_hat X W + b)`` is the simplest and
fastest representation.  The paper's predictor uses *sum* aggregation, which
corresponds to ``A_hat = A + I``; symmetric GCN normalisation is available
as an option.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.dtype import as_float_array
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor

__all__ = ["DenseGCNLayer", "DenseGCN"]


class DenseGCNLayer(Module):
    """One dense graph-convolution layer ``act(A x W + b)``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if activation not in ("relu", "leaky_relu", "none"):
            raise ValueError(f"unsupported activation '{activation}'")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, adj: np.ndarray) -> Tensor:
        """Apply the layer.

        Args:
            x: Node features ``(N, in_dim)``, or a stacked batch
                ``(B, M, in_dim)``.
            adj: Dense aggregation operator ``(N, N)`` (e.g. ``A + I``), or a
                stacked batch ``(B, M, M)`` applied graph-by-graph.
        """
        adj = as_float_array(adj)
        if adj.ndim == 3:
            if x.ndim != 3 or adj.shape != (x.shape[0], x.shape[1], x.shape[1]):
                raise ValueError(
                    f"batched adjacency shape {adj.shape} incompatible with features {x.shape}"
                )
        elif adj.shape != (x.shape[0], x.shape[0]):
            raise ValueError(f"adjacency shape {adj.shape} incompatible with {x.shape[0]} nodes")
        aggregated = Tensor(adj) @ x
        out = self.linear(aggregated)
        if self.activation == "relu":
            return F.relu(out)
        if self.activation == "leaky_relu":
            return F.leaky_relu(out, 0.2)
        return out


class DenseGCN(Module):
    """A stack of dense GCN layers."""

    def __init__(
        self,
        dims: tuple[int, ...],
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("DenseGCN requires at least input and output dimensions")
        self.dims = tuple(dims)
        self.layers: list[DenseGCNLayer] = []
        for i in range(len(dims) - 1):
            layer = DenseGCNLayer(dims[i], dims[i + 1], activation=activation, rng=rng)
            self.add_module(f"gcn{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor, adj: np.ndarray) -> Tensor:
        for layer in self.layers:
            x = layer(x, adj)
        return x
