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

The two searches alternate round by round after a warm-up round (the
``ab_medians`` timer) and the gate compares medians, so a transient load
spike hits both alike.
"""

from __future__ import annotations

import numpy as np

from repro.graph import knn

NUM_POINTS = 1024
K = 20
ROUNDS = 7
MIN_DENSE_SPEEDUP_WIDE = 2.0
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
