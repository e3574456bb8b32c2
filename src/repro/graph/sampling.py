"""Graph sampling operations.

The HGNAS design space offers two *sample* functions (Table I): ``KNN`` and
``Random``.  Random sampling draws a fixed number of random neighbours per
point, which is dramatically cheaper than KNN on edge devices; farthest
point sampling is provided as a utility for point-cloud down-sampling.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edge_index import validate_edge_index
from repro.nn.dtype import as_float_array

__all__ = ["SAMPLER_VERSION", "random_graph", "farthest_point_sampling", "subsample_points"]

#: Names :func:`random_graph`'s draw.  Its RNG stream differs from the
#: per-node loop it replaced, so every artifact and edge-cache key that
#: depends on random graphs carries it: entries drawn from another stream
#: are rebuilt, never served as current.
SAMPLER_VERSION = "floyd"


def _uniform_subsets(rows: int, pool: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` independent uniform ``k``-subsets of ``range(pool)``, shape ``(rows, k)``.

    Floyd's algorithm, run for all rows at once: column ``j`` draws from
    ``range(pool - k + j + 1)`` and takes its top value instead where the
    draw is already in the row.  The work is ``k`` vectorized steps
    whatever ``k`` is, with no rejection.
    """
    tops = np.arange(pool - k, pool)
    draws = rng.integers(0, tops + 1, size=(rows, k))
    picked = np.zeros(rows * pool, dtype=bool)
    offsets = np.arange(rows) * pool
    for column, top in zip(draws.T, tops):
        column[picked[offsets + column]] = top
        picked[offsets + column] = True
    return draws


def random_graph(
    num_nodes: int,
    k: int,
    rng: np.random.Generator,
    include_self: bool = False,
) -> np.ndarray:
    """Connect every node to ``k`` uniformly random distinct other nodes.

    Every node's sources are a uniform ``k_eff``-subset of the other nodes
    (of all nodes with ``include_self``), drawn for all nodes at once.  A
    single node gets its self-loop, the only edge it can have.

    Args:
        num_nodes: Number of nodes in the cloud.
        k: Number of random neighbours per node.
        rng: Random generator.
        include_self: Whether a node may sample itself.

    Returns:
        Edge index of shape ``(2, num_nodes * k_eff)``.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if include_self or num_nodes == 1:
        k_eff = min(k, num_nodes)
        sources = _uniform_subsets(num_nodes, num_nodes, k_eff, rng)
    else:
        k_eff = min(k, num_nodes - 1)
        sources = _uniform_subsets(num_nodes, num_nodes - 1, k_eff, rng)
        # Shift each row's draw from range(n - 1) past its own node.
        sources += sources >= np.arange(num_nodes)[:, None]
    targets = np.repeat(np.arange(num_nodes, dtype=np.int64), k_eff)
    edge_index = np.stack([sources.reshape(-1), targets], axis=0)
    return validate_edge_index(edge_index, num_nodes)


def farthest_point_sampling(points: np.ndarray, num_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Iterative farthest point sampling.

    Args:
        points: Array of shape ``(N, D)``.
        num_samples: Number of points to keep (``1 <= num_samples <= N``).
        rng: Random generator (chooses the starting point).

    Returns:
        Integer indices of the selected points, shape ``(num_samples,)``.
    """
    points = as_float_array(points)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (N, D) array, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= num_samples <= n:
        raise ValueError(f"num_samples must be in [1, {n}], got {num_samples}")
    selected = np.empty(num_samples, dtype=np.int64)
    selected[0] = rng.integers(0, n)
    min_dist = ((points - points[selected[0]]) ** 2).sum(axis=1)
    for i in range(1, num_samples):
        selected[i] = int(np.argmax(min_dist))
        new_dist = ((points - points[selected[i]]) ** 2).sum(axis=1)
        min_dist = np.minimum(min_dist, new_dist)
    return selected


def subsample_points(points: np.ndarray, num_points: int, rng: np.random.Generator) -> np.ndarray:
    """Randomly subsample (or pad by repetition) a cloud to ``num_points`` points."""
    points = as_float_array(points)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (N, D) array, got shape {points.shape}")
    n = points.shape[0]
    if num_points <= 0:
        raise ValueError(f"num_points must be positive, got {num_points}")
    if num_points <= n:
        idx = rng.choice(n, size=num_points, replace=False)
    else:
        idx = np.concatenate([np.arange(n), rng.choice(n, size=num_points - n, replace=True)])
    return points[idx]
