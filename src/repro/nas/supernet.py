"""Single-path one-shot GNN supernet with weight sharing (paper Sec. III-B/C).

The supernet holds one set of weights per (position, operation type) and is
trained by sampling a random single path per step.  Because the hidden
width of a position's output must not depend on which operation the path
chose, operations that would change the width (aggregate, combine, skip
connect) carry *alignment* linear transformations back to the shared hidden
dimension, exactly as described in the paper; these alignment layers exist
only inside the supernet and are discarded in the finalised architectures
(:mod:`repro.nas.derived`).

Weight sharing across *function* choices uses weight slicing: the combine
projection is parameterised at the maximum candidate width and sliced to
the width requested by the active function set, and the aggregate alignment
is parameterised at the widest possible message and sliced to the active
message width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Batch
from repro.graph.batching import batched_knn_graph, batched_random_graph
from repro.graph.fused import propagate
from repro.graph.message import message_dim
from repro.models.classifier import ClassificationHead
from repro.nas.architecture import Architecture
from repro.nas.ops import COMBINE_DIMS, FunctionSet, OperationType
from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor, concatenate

__all__ = ["SupernetConfig", "Supernet"]


@dataclass(frozen=True)
class SupernetConfig:
    """Supernet hyper-parameters.

    Attributes:
        num_positions: Number of searchable positions.
        hidden_dim: Shared hidden width of every position.
        k: Neighbourhood size for graph construction during supernet runs.
        num_classes: Classification classes.
        input_dim: Raw input feature width (3 for xyz).
        dropout: Dropout of the classification head.
        seed: Weight-initialisation seed.
    """

    num_positions: int = 12
    hidden_dim: int = 32
    k: int = 8
    num_classes: int = 10
    input_dim: int = 3
    dropout: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_positions < 2 or self.num_positions % 2 != 0:
            raise ValueError("num_positions must be an even number >= 2")
        if self.hidden_dim <= 0 or self.k <= 0 or self.input_dim <= 0:
            raise ValueError("hidden_dim, k and input_dim must be positive")
        if self.num_classes <= 1:
            raise ValueError("num_classes must be > 1")


class _PositionBlock(Module):
    """Shared weights of one supernet position (all four operations)."""

    def __init__(self, hidden_dim: int, input_dim: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_dim = hidden_dim
        max_combine = max(COMBINE_DIMS)
        # Combine: project to the widest candidate and slice; align back.
        self.combine_proj = Linear(hidden_dim, max_combine, rng=rng)
        self.combine_align = Linear(max_combine, hidden_dim, rng=rng)
        # Aggregate: widest possible message is the 'full' type (3F + 1).
        self.aggregate_align = Linear(3 * hidden_dim + 1, hidden_dim, rng=rng)
        # Skip connect concatenates the raw input features.
        self.skip_align = Linear(hidden_dim + input_dim, hidden_dim, rng=rng)

    def combine(self, x: Tensor, combine_dim: int) -> Tensor:
        """Sliced combine projection followed by alignment back to hidden."""
        weight = self.combine_proj.weight[:, :combine_dim]
        bias = self.combine_proj.bias[:combine_dim]
        projected = F.leaky_relu(x @ weight + bias, 0.2)
        align_weight = self.combine_align.weight[:combine_dim, :]
        return F.leaky_relu(projected @ align_weight + self.combine_align.bias, 0.2)

    def aggregate(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        aggregator: str,
        message_type: str,
    ) -> Tensor:
        """Message construction, reduction and alignment back to hidden."""
        # repro-lint: allow[unvalidated-index] edge index produced by Supernet._build_graph (validating) one call level up
        reduced = propagate(x, edge_index, message_type, aggregator, validated=True)
        width = message_dim(message_type, self.hidden_dim)
        align_weight = self.aggregate_align.weight[:width, :]
        return F.leaky_relu(reduced @ align_weight + self.aggregate_align.bias, 0.2)

    def skip(self, x: Tensor, inputs: Tensor) -> Tensor:
        """Skip connect: concatenate raw inputs and align back to hidden."""
        combined = concatenate([x, inputs], axis=1)
        return F.leaky_relu(self.skip_align(combined), 0.2)


class Supernet(Module):
    """Weight-sharing supernet over the fine-grained design space."""

    def __init__(self, config: SupernetConfig | None = None):
        super().__init__()
        self.config = config or SupernetConfig()
        rng = np.random.default_rng(self.config.seed)
        self.stem = Linear(self.config.input_dim, self.config.hidden_dim, rng=rng)
        self.blocks: list[_PositionBlock] = []
        for position in range(self.config.num_positions):
            block = _PositionBlock(self.config.hidden_dim, self.config.input_dim, rng)
            self.add_module(f"position{position}", block)
            self.blocks.append(block)
        self.head = ClassificationHead(
            self.config.hidden_dim,
            self.config.num_classes,
            embed_dim=self.config.hidden_dim,
            hidden_dims=(self.config.hidden_dim,),
            dropout=self.config.dropout,
            rng=rng,
        )
        self._graph_rng = np.random.default_rng(self.config.seed + 1)

    def _check_architecture(self, architecture: Architecture) -> None:
        if architecture.num_positions != self.config.num_positions:
            raise ValueError(
                f"architecture has {architecture.num_positions} positions, "
                f"supernet expects {self.config.num_positions}"
            )

    def forward(self, batch: Batch, architecture: Architecture) -> Tensor:
        """Run the single path selected by ``architecture`` on a batch.

        Args:
            batch: Stacked point clouds.
            architecture: Path through the supernet (one op per position).

        Returns:
            Logits of shape ``(batch.num_graphs, num_classes)``.
        """
        self._check_architecture(architecture)
        inputs = Tensor(batch.points)
        x = F.leaky_relu(self.stem(inputs), 0.2)
        edge_index: np.ndarray | None = None
        needs_rebuild = True
        pending_method: str | None = None
        for position, operation in enumerate(architecture.operations):
            functions = architecture.functions_at(position)
            block = self.blocks[position]
            if operation is OperationType.SAMPLE:
                # Merged with any directly preceding sample: just mark dirty.
                needs_rebuild = True
                pending_method = functions.sample_method
            elif operation is OperationType.AGGREGATE:
                if needs_rebuild or edge_index is None:
                    method = pending_method or functions.sample_method
                    edge_index = self._build_graph(x, batch.batch, method)
                    needs_rebuild = False
                x = block.aggregate(x, edge_index, functions.aggregator, functions.message_type)
            elif operation is OperationType.COMBINE:
                x = block.combine(x, functions.combine_dim)
            elif operation is OperationType.CONNECT:
                if functions.connect_mode == "skip":
                    x = block.skip(x, inputs)
            else:  # pragma: no cover - enum exhaustive
                raise ValueError(f"unhandled operation {operation}")
        return self.head(x, batch.batch, batch.num_graphs)

    def _build_graph(self, x: Tensor, batch: np.ndarray, method: str) -> np.ndarray:
        if method == "knn":
            return batched_knn_graph(x.data, batch, self.config.k)
        return batched_random_graph(batch, self.config.k, self._graph_rng)

    # ------------------------------------------------------------------ #
    # Internal generator state (checkpoint support)
    # ------------------------------------------------------------------ #
    def rng_state(self) -> dict:
        """State of the supernet's internal generators.

        ``state_dict`` covers only learnable parameters, but the supernet
        also holds two stochastic pieces: the random-graph sampler
        (:attr:`_graph_rng`, advanced by every forward pass through a
        ``random``-sampled position, in train *and* eval mode) and the
        dropout mask generator shared by the classification head.  A
        checkpoint that rebuilds the supernet from ``state_dict`` alone
        would silently reset both streams; this pair of methods makes them
        resumable.
        """
        return {
            "graph": self._graph_rng.bit_generator.state,
            "dropout": [
                module.rng.bit_generator.state
                for module in self.modules()
                if isinstance(module, Dropout)
            ],
        }

    def set_rng_state(self, state: dict) -> None:
        """Restore a :meth:`rng_state` snapshot."""
        self._graph_rng.bit_generator.state = state["graph"]
        dropouts = [module for module in self.modules() if isinstance(module, Dropout)]
        if len(dropouts) != len(state["dropout"]):
            raise ValueError(
                f"snapshot has {len(state['dropout'])} dropout states, supernet has {len(dropouts)}"
            )
        for module, rng_state in zip(dropouts, state["dropout"]):
            module.rng.bit_generator.state = rng_state

    # ------------------------------------------------------------------ #
    # Path sampling helpers
    # ------------------------------------------------------------------ #
    def random_path(
        self,
        rng: np.random.Generator,
        upper_functions: FunctionSet | None = None,
        lower_functions: FunctionSet | None = None,
    ) -> Architecture:
        """Sample a uniform random single path (optionally with fixed functions)."""
        return Architecture.random(
            self.config.num_positions,
            rng,
            upper_functions=upper_functions,
            lower_functions=lower_functions,
            input_dim=self.config.input_dim,
        )
