"""K-nearest-neighbour graph construction.

DGCNN rebuilds a KNN graph in the feature space of every layer ("dynamic"
graph CNN); HGNAS's design space keeps KNN as one of the candidate sample
functions (Table I).  :func:`knn_indices` picks one of two searches:

* **Dense** — every input with at least 16 dims, or at most 256 points.
  Candidates are ranked by the float64 key ``‖x_j‖² − 2·x_i·x_j``, the
  squared distance without its per-row constant ``‖x_i‖²``, built over
  blocks of 256 rows from a Gram product.  ``argpartition`` selects each
  row's ``k`` smallest keys, which are returned nearest first in
  **(key, index)** order: equal keys (duplicate rows, all-zero ReLU rows)
  list the lower index first, and a tie straddling the ``k``-th place
  keeps the lowest indices.  A KD-tree degrades towards a linear scan in
  wide feature spaces, where one matrix product is several times faster.
  An input of more than one block runs its blocks on a process-wide thread
  pool, one thread per usable CPU, created on first use and again in a
  forked child; each thread writes its keys into a buffer it reuses.  The
  blocks make the same numpy calls on any thread, so the neighbour lists
  are bit-identical to a serial loop over the blocks.  One-block inputs
  run inline and never create the pool.
* **KD-tree** — large low-dimensional clouds, such as DGCNN's 3-D
  coordinate layer.  A multi-threaded :class:`scipy.spatial.cKDTree`
  query ranks by exact distance; exact ties come back in tree order.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.graph.edge_index import validate_edge_index
from repro.nn.dtype import WIDE_DTYPE, as_float_array

__all__ = ["knn_graph", "knn_indices", "stacked_knn_indices"]

# Dispatch crossovers, measured at k=20 on a 2-core host with one BLAS
# thread, the dense search running its blocks on both cores: it wins from
# 16 dims up at 1024 points (7.9 vs 25 ms at 64 dims), and at any width for
# small clouds (0.20 vs 0.62 ms at 64 points x 3 dims); the KD-tree keeps
# large 3-D clouds (3.2 vs 5.2 ms at 1024 x 3).  At 8 dims the dense search
# now wins too (5.4 vs 7.9 ms); moving the boundary would change the tie
# order of those inputs, so it stays at 16.
_DENSE_MIN_DIMS = 16
_DENSE_MAX_POINTS = 256
#: Rows per Gram block: bounds each thread's key buffer at 256 x N float64.
_BLOCK_ROWS = 256


def _as_points(points: np.ndarray) -> np.ndarray:
    points = as_float_array(points)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D array (N, D), got shape {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("cannot build a graph over an empty point set")
    return points


def knn_indices(points: np.ndarray, k: int, include_self: bool = False) -> np.ndarray:
    """Return the indices of the ``k`` nearest neighbours of every point.

    Args:
        points: Array of shape ``(N, D)``.
        k: Number of neighbours per point.  Clamped to ``N - 1`` (or ``N``
            when ``include_self``) if the cloud is smaller than requested.
        include_self: Whether a point may be its own neighbour.

    Returns:
        Integer array of shape ``(N, k_eff)``, nearest first; ``k_eff`` may
        be smaller than ``k`` for tiny clouds.  Without ``include_self`` the
        result never contains a point's own index.  On the dense path (see
        the module docstring) rows are in (key, index) order.

    Raises:
        ValueError: If ``include_self`` is false and the cloud has a single
            point — it has no valid neighbour, and silently emitting a
            self-loop would break the no-self-loop contract.
    """
    points = _as_points(points)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n, dims = points.shape
    if not include_self and n == 1:
        raise ValueError(
            "cannot build a self-loop-free neighbour list for a single-point cloud "
            "(pass include_self=True to allow the point as its own neighbour)"
        )
    k_eff = min(k, n if include_self else n - 1)
    search = _dense_knn if dims >= _DENSE_MIN_DIMS or n <= _DENSE_MAX_POINTS else _kd_tree_knn
    return search(points, k_eff, include_self)


def _kd_tree_knn(points: np.ndarray, k: int, include_self: bool) -> np.ndarray:
    """Multi-threaded KD-tree KNN, nearest first; exact ties in tree order."""
    # Imported here: scipy.spatial costs about 0.4 s to import, and only
    # large low-dimensional clouds reach this search.
    from scipy.spatial import cKDTree

    n = points.shape[0]
    tree = cKDTree(points)
    if include_self:
        _, idx = tree.query(points, k=k, workers=-1)
        # scipy returns a 1-D array for k=1; reshape covers both layouts.
        return np.asarray(idx, dtype=np.int64).reshape(n, k)
    # Query one extra neighbour so each row keeps k candidates after the
    # point itself is dropped.  k + 1 <= n always holds here, so scipy never
    # pads rows with the out-of-range sentinel index n.
    _, idx = tree.query(points, k=k + 1, workers=-1)
    idx = np.asarray(idx, dtype=np.int64).reshape(n, k + 1)
    # Drop each point from its own neighbour list (it is almost always the
    # first hit, but duplicate coordinates can shuffle or even evict it): a
    # stable argsort on the self-mask moves the valid entries to the front
    # while preserving their nearest-first order.
    not_self = idx != np.arange(n, dtype=np.int64)[:, None]
    order = np.argsort(~not_self, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)[:, :k]


def _dense_knn(points: np.ndarray, k: int, include_self: bool) -> np.ndarray:
    """Blocked Gram-matrix KNN: each row's ``k`` smallest (key, index) pairs.

    The 256-row blocks are independent and each writes its own rows of the
    result, so an input of more than one block runs them on the block pool;
    numpy releases the GIL in the product, the add and the partition.
    Every block makes the same numpy calls whichever thread runs it, so the
    result does not depend on the pool.
    """
    x = np.asarray(points, dtype=WIDE_DTYPE)
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    out = np.empty((n, k), dtype=np.int64)

    def search_block(start: int) -> None:
        stop = min(start + _BLOCK_ROWS, n)
        keys = _key_block(stop - start, n)
        # Scaling by -2 is exact, so folding it into the block is free.
        np.matmul(-2.0 * x[start:stop], x.T, out=keys)
        keys += sq_norms
        if not include_self:
            np.fill_diagonal(keys[:, start:stop], np.inf)
        out[start:stop] = _smallest_k(keys, k)

    blocks = range(0, n, _BLOCK_ROWS)
    if len(blocks) == 1:
        # One block runs inline: a thread hop would only add latency.
        search_block(0)
    else:
        # list() waits for every block and re-raises a block's exception.
        list(_block_pool().map(search_block, blocks))
    return out


def _key_block(rows: int, n: int) -> np.ndarray:
    """A ``(rows, n)`` float64 key block owned by the calling thread.

    Each thread reuses one buffer, grown to the largest block it has seen.
    glibc returns a pool thread's freed 2 MB block to the OS, so a fresh
    block per call faulted in all its pages again: at 1024 x 64 that was
    4,096 page faults per search and slower than running the blocks on
    one thread.
    """
    buffer = getattr(_thread_keys, "buffer", None)
    if buffer is None or buffer.size < rows * n:
        buffer = _thread_keys.buffer = np.empty(rows * n, dtype=WIDE_DTYPE)
    return buffer[: rows * n].reshape(rows, n)


def _block_pool() -> ThreadPoolExecutor:
    """The process's block pool, created on first use with one thread per usable CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                # The CPUs this process may run on, as the KD-tree's workers=-1.
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity masks on this platform
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-knn")
        return _pool


def _forget_pool_after_fork() -> None:
    # A forked child has only the forking thread: the pool's threads, and a
    # lock some other thread may have held, did not survive the fork.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_thread_keys = threading.local()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def stacked_knn_indices(clouds: np.ndarray, k: int) -> np.ndarray:
    """:func:`knn_indices` of every cloud in a stack of equal-size clouds.

    Args:
        clouds: Array of shape ``(G, n, D)`` with ``1 < n <= 256``, the
            sizes the dense search takes.
        k: Number of neighbours per point, clamped to ``n - 1``.

    Returns:
        Local neighbour indices of shape ``(G, n, k_eff)``, equal to
        ``knn_indices(clouds[g], k)`` for every ``g``: one batched Gram
        product replaces ``G`` small ones and the selection runs once over
        all ``G * n`` rows.
    """
    x = np.asarray(clouds, dtype=WIDE_DTYPE)
    g, n, dims = x.shape
    if not 1 < n <= _DENSE_MAX_POINTS:
        raise ValueError(f"stacked KNN takes clouds of 2 to {_DENSE_MAX_POINTS} points, got {n}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k_eff = min(k, n - 1)
    flat = x.reshape(g * n, dims)
    sq_norms = np.einsum("ij,ij->i", flat, flat).reshape(g, 1, n)
    keys = (-2.0 * x) @ np.swapaxes(x, 1, 2)
    keys += sq_norms
    diagonal = np.arange(n)
    keys[:, diagonal, diagonal] = np.inf
    return _smallest_k(keys.reshape(g * n, n), k_eff).reshape(g, n, k_eff)


def _smallest_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` smallest keys, in (key, index) order."""
    rows, n = keys.shape
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1 : k]
    kept = keys <= kth
    # A row keeps exactly k keys unless a tie straddles the k-th place.
    exact = np.count_nonzero(kept, axis=1) == k
    picked = np.empty((rows, k), dtype=np.intp)
    if exact.all():
        # flatnonzero walks the rows in order: each row's k columns, in index order.
        picked[:] = (np.flatnonzero(kept) % n).reshape(rows, k)
    else:
        picked[exact] = (np.flatnonzero(kept[exact]) % n).reshape(-1, k)
        for row in np.flatnonzero(~exact):
            # The lowest tied indices win, as in a full stable sort.
            picked[row] = np.argsort(keys[row], kind="stable")[:k]
    # Index order first, then a stable sort by key: (key, index) order.
    picked_keys = np.take_along_axis(keys, picked, axis=1)
    order = np.argsort(picked_keys, axis=1, kind="stable")
    return np.take_along_axis(picked, order, axis=1)


def knn_graph(points: np.ndarray, k: int, include_self: bool = False) -> np.ndarray:
    """Build a directed KNN graph.

    Each point receives edges from its ``k`` nearest neighbours, i.e. the
    neighbour is the *source* and the point is the *target*.

    Args:
        points: Array of shape ``(N, D)``.
        k: Number of neighbours.
        include_self: Whether to allow self-loops.

    Returns:
        Edge index of shape ``(2, N * k_eff)``.
    """
    idx = knn_indices(points, k, include_self=include_self)
    n, k_eff = idx.shape
    targets = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    sources = idx.reshape(-1)
    edge_index = np.stack([sources, targets], axis=0)
    return validate_edge_index(edge_index, n)
