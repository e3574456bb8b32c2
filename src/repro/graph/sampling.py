"""Graph sampling operations.

The HGNAS design space offers two *sample* functions (Table I): ``KNN`` and
``Random``.  Random sampling draws a fixed number of random neighbours per
point, which is dramatically cheaper than KNN on edge devices.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edge_index import validate_edge_index

__all__ = ["SAMPLER_VERSION", "random_graph"]

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


def _cloud_sources(
    num_clouds: int, n: int, k: int, rng: np.random.Generator, include_self: bool = False
) -> np.ndarray:
    """Local source indices of ``num_clouds`` random graphs on ``n`` nodes, one draw.

    Returns shape ``(num_clouds, n, k_eff)``: every node's uniform
    ``k_eff``-subset of its cloud's other nodes, ``k_eff = min(k, n - 1)``
    (of all nodes with ``include_self``, ``k_eff = min(k, n)``).  A single
    node gets its self-loop, the only edge it can have.  One
    :func:`_uniform_subsets` call draws every row of every cloud.
    """
    if include_self or n == 1:
        k_eff = min(k, n)
        return _uniform_subsets(num_clouds * n, n, k_eff, rng).reshape(num_clouds, n, k_eff)
    k_eff = min(k, n - 1)
    sources = _uniform_subsets(num_clouds * n, n - 1, k_eff, rng).reshape(num_clouds, n, k_eff)
    # Shift each row's draw from range(n - 1) past its own node.
    sources += sources >= np.arange(n)[:, None]
    return sources


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
    sources = _cloud_sources(1, num_nodes, k, rng, include_self)[0]
    targets = np.repeat(np.arange(num_nodes, dtype=np.int64), sources.shape[1])
    edge_index = np.stack([sources.reshape(-1), targets], axis=0)
    return validate_edge_index(edge_index, num_nodes)
