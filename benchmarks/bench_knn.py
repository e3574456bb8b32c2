"""KNN dispatch: the dense Gram-matrix search for wide features, the KD-tree for 3-D clouds.

``knn_indices`` sends inputs with at least 16 dims (or at most 256 points)
to a blocked Gram-matrix search and keeps the multi-threaded KD-tree for
large low-dimensional clouds.  This gate checks the two crossovers that
rule rests on, at DGCNN's serving shape (1024 points, k=20):

* at 256 dims (DGCNN's widest dynamic layer) the dense search is at least
  2x faster than the KD-tree;
* at 3 dims (the coordinate layer) the KD-tree is faster than the dense
  search;
* both searches return the same neighbour sets at both shapes.

A third gate covers ``batched_knn_graph`` at the search's batch shape
(8 clouds x 64 points x 32 dims): one stacked search over the equal-size
clouds is at least 1.2x faster than the per-cloud loop and returns the
same edges.

The searches alternate round by round after a warm-up round (the
``ab_medians`` timer) and the gate compares medians, so a transient load
spike hits both alike.
"""

from __future__ import annotations

import numpy as np

from repro.graph import knn
from repro.graph.batching import batched_knn_graph

NUM_POINTS = 1024
K = 20
ROUNDS = 7
MIN_DENSE_SPEEDUP_WIDE = 2.0
#: (clouds, points per cloud, dims) of the stacked-search gate.
STACKED_SHAPE = (8, 64, 32)
MIN_STACKED_SPEEDUP = 1.2
#: Calls per timed round of the stacked gate: one call takes about a millisecond.
STACKED_CALLS = 10
SEARCHES = {"dense": knn._dense_knn, "kd_tree": knn._kd_tree_knn}


def _median_ms(ab_medians, points: np.ndarray) -> dict[str, float]:
    """Median wall time of each search over alternating rounds."""
    runs = {name: (lambda search=search: search(points, K, False)) for name, search in SEARCHES.items()}
    medians, _ = ab_medians(runs, rounds=ROUNDS)
    return {name: seconds * 1e3 for name, seconds in medians.items()}


def _points(dims: int) -> np.ndarray:
    rng = np.random.default_rng(dims)
    return rng.standard_normal((NUM_POINTS, dims)).astype(np.float32)


def _same_neighbour_sets(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.sort(a, axis=1), np.sort(b, axis=1))


def test_dense_wins_on_wide_features(benchmark, ab_medians):
    points = _points(256)
    ms = _median_ms(ab_medians, points)
    benchmark.pedantic(lambda: knn.knn_indices(points, K), rounds=1, iterations=1)
    benchmark.extra_info.update({f"{name}_ms": round(value, 2) for name, value in ms.items()})

    dense, kd_tree = knn._dense_knn(points, K, False), knn._kd_tree_knn(points, K, False)
    assert _same_neighbour_sets(dense, kd_tree)
    assert np.array_equal(knn.knn_indices(points, K), dense)  # dispatched to the dense search
    assert ms["kd_tree"] >= MIN_DENSE_SPEEDUP_WIDE * ms["dense"], ms


def test_kd_tree_wins_on_3d_clouds(benchmark, ab_medians):
    points = _points(3)
    ms = _median_ms(ab_medians, points)
    benchmark.pedantic(lambda: knn.knn_indices(points, K), rounds=1, iterations=1)
    benchmark.extra_info.update({f"{name}_ms": round(value, 2) for name, value in ms.items()})

    dense, kd_tree = knn._dense_knn(points, K, False), knn._kd_tree_knn(points, K, False)
    assert _same_neighbour_sets(dense, kd_tree)
    assert np.array_equal(knn.knn_indices(points, K), kd_tree)  # dispatched to the KD-tree
    assert ms["kd_tree"] < ms["dense"], ms


def test_stacked_knn_beats_per_cloud_loop(benchmark, ab_medians):
    clouds, n, dims = STACKED_SHAPE
    points = np.random.default_rng(5).standard_normal((clouds * n, dims)).astype(np.float32)
    batch = np.repeat(np.arange(clouds), n)

    def per_cloud_loop():
        return np.concatenate(
            [knn.knn_graph(points[g * n:(g + 1) * n], K) + g * n for g in range(clouds)], axis=1
        )

    def repeated(build):
        return lambda: [build() for _ in range(STACKED_CALLS)][-1]

    medians, last = ab_medians(
        {"stacked": repeated(lambda: batched_knn_graph(points, batch, K)), "loop": repeated(per_cloud_loop)},
        rounds=3 * ROUNDS,
    )
    ms = {name: seconds * 1e3 / STACKED_CALLS for name, seconds in medians.items()}
    benchmark.pedantic(lambda: batched_knn_graph(points, batch, K), rounds=1, iterations=1)
    benchmark.extra_info.update({f"{name}_ms": round(value, 3) for name, value in ms.items()})

    assert np.array_equal(last["stacked"], last["loop"])
    assert ms["loop"] >= MIN_STACKED_SPEEDUP * ms["stacked"], ms
