"""Graph and point-cloud operations used by the GNN models and the NAS space."""

from repro.graph.adjacency import sum_aggregation_matrix
from repro.graph.batching import (
    batched_knn_graph,
    batched_random_graph,
    global_max_pool,
    global_mean_pool,
    pack_clouds,
)
from repro.graph.fused import (
    EDGECONV_MESSAGE_TYPES,
    fused_aggregate,
    fused_edgeconv,
    propagate,
)
from repro.graph.edge_index import (
    add_self_loops,
    degree,
    validate_edge_index,
)
from repro.graph.knn import knn_graph, knn_indices
from repro.graph.message import MESSAGE_TYPES, build_messages, message_dim
from repro.graph.sampling import random_graph
from repro.graph.scatter import (
    AGGREGATORS,
    scatter,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_sum,
    validate_index,
)

__all__ = [
    "batched_knn_graph",
    "batched_random_graph",
    "global_max_pool",
    "global_mean_pool",
    "pack_clouds",
    "sum_aggregation_matrix",
    "validate_edge_index",
    "add_self_loops",
    "degree",
    "knn_graph",
    "knn_indices",
    "MESSAGE_TYPES",
    "build_messages",
    "message_dim",
    "random_graph",
    "AGGREGATORS",
    "scatter",
    "scatter_sum",
    "scatter_mean",
    "scatter_max",
    "scatter_min",
    "validate_index",
    "EDGECONV_MESSAGE_TYPES",
    "fused_aggregate",
    "fused_edgeconv",
    "propagate",
]
