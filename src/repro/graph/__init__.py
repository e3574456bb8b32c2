"""Graph and point-cloud operations used by the GNN models and the NAS space."""

from repro.graph.adjacency import edges_to_dense, gcn_normalize, sum_aggregation_matrix
from repro.graph.batching import (
    batched_knn_graph,
    batched_random_graph,
    global_max_pool,
    global_mean_pool,
    global_sum_pool,
    pack_clouds,
    unpack_clouds,
)
from repro.graph.fused import (
    FUSED_MESSAGE_TYPES,
    fused_aggregate,
    fused_edgeconv,
    propagate,
)
from repro.graph.edge_index import (
    add_self_loops,
    coalesce,
    degree,
    remove_self_loops,
    sort_by_target,
    to_undirected,
    validate_edge_index,
)
from repro.graph.knn import knn_graph, knn_indices, pairwise_sq_dists, radius_graph
from repro.graph.message import MESSAGE_TYPES, build_messages, message_dim
from repro.graph.sampling import farthest_point_sampling, random_graph, subsample_points
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
    "global_sum_pool",
    "pack_clouds",
    "unpack_clouds",
    "edges_to_dense",
    "gcn_normalize",
    "sum_aggregation_matrix",
    "validate_edge_index",
    "coalesce",
    "add_self_loops",
    "remove_self_loops",
    "to_undirected",
    "degree",
    "sort_by_target",
    "knn_graph",
    "knn_indices",
    "radius_graph",
    "pairwise_sq_dists",
    "MESSAGE_TYPES",
    "build_messages",
    "message_dim",
    "random_graph",
    "farthest_point_sampling",
    "subsample_points",
    "AGGREGATORS",
    "scatter",
    "scatter_sum",
    "scatter_mean",
    "scatter_max",
    "scatter_min",
    "validate_index",
    "FUSED_MESSAGE_TYPES",
    "fused_aggregate",
    "fused_edgeconv",
    "propagate",
]
