"""Tests for graph operations: edge index, KNN, sampling, scatter, messages."""

import numpy as np
import pytest

from repro.backends import use_backend
from repro.graph import (
    add_self_loops,
    batched_knn_graph,
    batched_random_graph,
    build_messages,
    degree,
    global_max_pool,
    global_mean_pool,
    knn_graph,
    knn_indices,
    message_dim,
    pack_clouds,
    random_graph,
    scatter,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_sum,
    sum_aggregation_matrix,
    validate_edge_index,
)
from repro.graph import (
    EDGECONV_MESSAGE_TYPES,
    MESSAGE_TYPES,
    fused_aggregate,
    fused_edgeconv,
    propagate,
    validate_index,
)
from repro.graph.batching import _global_pool
from repro.graph.sampling import _uniform_subsets
from repro.models.edgeconv import EdgeConv
from repro.nn import MLP, BatchNorm1d, Linear, Sequential, Tensor, default_dtype, no_grad
from repro.obs.metrics import MetricsRegistry, use_metrics
from helpers import finite_difference_grad


class TestEdgeIndex:
    def test_validate_shape(self):
        with pytest.raises(ValueError):
            validate_edge_index(np.zeros((3, 4)))

    def test_validate_range(self):
        with pytest.raises(ValueError):
            validate_edge_index(np.array([[0, 5], [1, 2]]), num_nodes=3)

    def test_validate_negative(self):
        with pytest.raises(ValueError):
            validate_edge_index(np.array([[-1], [0]]))

    def test_self_loop_helpers(self):
        ei = np.array([[0, 1], [1, 1]])
        with_loops = add_self_loops(ei, 3)
        assert with_loops.shape[1] == 5
        without = with_loops[:, with_loops[0] != with_loops[1]]
        assert not np.any(without[0] == without[1])

    def test_degree(self):
        ei = np.array([[0, 1, 2], [1, 1, 0]])
        np.testing.assert_array_equal(degree(ei, 3, "in"), [1, 2, 0])
        np.testing.assert_array_equal(degree(ei, 3, "out"), [1, 1, 1])
        with pytest.raises(ValueError):
            degree(ei, 3, "both")

    def test_validate_accepts_integral_floats(self):
        out = validate_edge_index(np.array([[0.0, 2.0], [1.0, 0.0]]), num_nodes=3)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [[0, 2], [1, 0]])
        with pytest.raises(ValueError, match="integers"):
            validate_edge_index(np.array([[0.5], [1.0]]))

    def test_degree_of_empty_edge_index(self):
        np.testing.assert_array_equal(degree(np.zeros((2, 0), dtype=np.int64), 4), np.zeros(4))


class TestKNN:
    def test_knn_graph_degrees(self, rng):
        pts = rng.normal(size=(30, 3))
        ei = knn_graph(pts, 5)
        assert ei.shape == (2, 150)
        np.testing.assert_array_equal(degree(ei, 30, "in"), 5)

    def test_knn_no_self_loops(self, rng):
        ei = knn_graph(rng.normal(size=(20, 3)), 4)
        assert not np.any(ei[0] == ei[1])

    def test_knn_neighbours_are_nearest(self, rng):
        pts = rng.normal(size=(15, 3))
        idx = knn_indices(pts, 3)
        nearest = _brute_force_knn(pts, 3, include_self=False)
        for i in range(15):
            assert set(idx[i]) == set(nearest[i])

    @pytest.mark.parametrize("n", [20, 300], ids=["dense", "kd_tree"])
    def test_knn_include_self_lists_self_first(self, n, rng):
        pts = rng.normal(size=(n, 3))
        idx = knn_indices(pts, 4, include_self=True)
        assert idx.shape == (n, 4)
        np.testing.assert_array_equal(idx[:, 0], np.arange(n))
        np.testing.assert_array_equal(idx[:, 1:], knn_indices(pts, 3))

    def test_knn_graph_edges_run_neighbour_to_centre(self, rng):
        pts = rng.normal(size=(12, 3))
        ei = knn_graph(pts, 3)
        np.testing.assert_array_equal(ei[0], knn_indices(pts, 3).reshape(-1))
        np.testing.assert_array_equal(ei[1], np.repeat(np.arange(12), 3))

    def test_knn_k_larger_than_cloud(self, rng):
        ei = knn_graph(rng.normal(size=(4, 3)), 10)
        assert ei.shape[1] == 4 * 3

    def test_knn_invalid(self, rng):
        with pytest.raises(ValueError):
            knn_graph(rng.normal(size=(5, 3)), 0)
        with pytest.raises(ValueError):
            knn_graph(np.zeros((0, 3)), 2)


def _brute_force_knn(points: np.ndarray, k: int, include_self: bool) -> np.ndarray:
    """Each row's ``k`` nearest points in (squared distance, index) order."""
    n = points.shape[0]
    k_eff = min(k, n if include_self else n - 1)
    rows = []
    for i in range(n):
        candidates = np.arange(n) if include_self else np.delete(np.arange(n), i)
        sq_dist = ((points[candidates] - points[i]) ** 2).sum(axis=1)
        rows.append(candidates[np.lexsort((candidates, sq_dist))][:k_eff])
    return np.array(rows)


def _kd_tree_knn(points: np.ndarray, k: int) -> np.ndarray:
    """``cKDTree``'s k nearest neighbours of every point, self excluded."""
    from scipy.spatial import cKDTree

    _, idx = cKDTree(points).query(points, k=k + 1)
    return np.array([[j for j in row if j != i][:k] for i, row in enumerate(idx)])


class TestDenseKNN:
    """Wide or small inputs take the blocked Gram-matrix path."""

    @staticmethod
    def _tied_features(rng, n: int, dims: int) -> np.ndarray:
        # Small integers keep every float64 Gram entry exact, so exact ties
        # (duplicate rows, an all-zero block) really are ties in the key.
        points = rng.integers(-2, 3, size=(n, dims)).astype(np.float32)
        points[n // 4 : n // 4 + min(n // 3, 40)] = 0.0
        duplicates = rng.integers(0, n, size=n // 5)
        points[duplicates] = points[rng.integers(0, n, size=duplicates.size)]
        return points

    @pytest.mark.parametrize("dims", [16, 64])
    @pytest.mark.parametrize("n,k", [(2, 1), (2, 5), (7, 20), (60, 8), (300, 20), (600, 12)])
    @pytest.mark.parametrize("include_self", [False, True])
    def test_matches_brute_force_tie_order(self, rng, dims, n, k, include_self):
        points = self._tied_features(rng, n, dims)
        np.testing.assert_array_equal(
            knn_indices(points, k, include_self=include_self),
            _brute_force_knn(points.astype(np.float64), k, include_self),
        )

    def test_all_zero_rows_list_lowest_indices_first(self):
        points = np.zeros((40, 16), dtype=np.float32)
        points[:5] = np.arange(1, 6, dtype=np.float32)[:, None]
        idx = knn_indices(points, 4)
        np.testing.assert_array_equal(idx[10], [5, 6, 7, 8])
        np.testing.assert_array_equal(idx[5], [6, 7, 8, 9])

    @pytest.mark.parametrize("dims", [16, 64, 256])
    @pytest.mark.parametrize("relu", [False, True])
    def test_matches_kd_tree_on_float32_features(self, rng, dims, relu):
        points = rng.standard_normal((1024, dims)).astype(np.float32)
        if relu:
            points = np.maximum(points, 0.0)
        np.testing.assert_array_equal(knn_indices(points, 20), _kd_tree_knn(points, 20))

    def test_small_low_dimensional_clouds_match_kd_tree(self, rng):
        points = rng.standard_normal((64, 3))
        np.testing.assert_array_equal(knn_indices(points, 20), _kd_tree_knn(points, 20))


class TestKDTreeKNN:
    """Large low-dimensional clouds take the KD-tree search."""

    @pytest.mark.parametrize("include_self", [False, True])
    def test_large_3d_cloud_takes_kd_tree_and_matches_brute_force(self, rng, monkeypatch, include_self):
        import repro.graph.knn as knn_module

        def refuse(points, k, include_self):
            raise AssertionError("dense search")

        monkeypatch.setattr(knn_module, "_dense_knn", refuse)
        points = rng.standard_normal((300, 3))  # continuous draws: no distance ties
        np.testing.assert_array_equal(
            knn_indices(points, 8, include_self=include_self),
            _brute_force_knn(points, 8, include_self),
        )


class TestSampling:
    def test_random_graph_shape(self, rng):
        ei = random_graph(10, 3, rng)
        assert ei.shape == (2, 30)
        assert not np.any(ei[0] == ei[1])

    def test_random_graph_self_allowed(self, rng):
        ei = random_graph(5, 2, rng, include_self=True)
        assert ei.shape == (2, 10)

    @staticmethod
    def _rows(edge_index: np.ndarray, n: int) -> np.ndarray:
        """Each node's sampled sources, one row per node."""
        assert np.array_equal(edge_index[1], np.repeat(np.arange(n), edge_index.shape[1] // n))
        return edge_index[0].reshape(n, -1)

    @pytest.mark.parametrize("n, k", [(64, 6), (64, 20), (64, 40), (300, 8), (9, 7)])
    def test_random_graph_rows_are_distinct_non_self(self, rng, n, k):
        rows = self._rows(random_graph(n, k, rng), n)
        assert rows.shape == (n, k)
        assert not np.any(rows == np.arange(n)[:, None])
        assert all(len(np.unique(row)) == k for row in rows)
        assert rows.min() >= 0 and rows.max() < n

    def test_random_graph_full_neighbourhood(self, rng):
        for k in (9, 50):  # k_eff clamps to n - 1
            rows = self._rows(random_graph(10, k, rng), 10)
            for node, row in enumerate(rows):
                assert np.array_equal(np.sort(row), np.delete(np.arange(10), node))

    def test_random_graph_one_and_two_nodes(self, rng):
        # A lone node keeps its self-loop, the only edge it can have.
        assert np.array_equal(random_graph(1, 5, rng), [[0], [0]])
        assert np.array_equal(random_graph(2, 5, rng), [[1, 0], [0, 1]])

    def test_random_graph_include_self_draws_subsets_of_all_nodes(self, rng):
        rows = self._rows(random_graph(6, 4, rng, include_self=True), 6)
        assert all(len(np.unique(row)) == 4 for row in rows)
        rows = self._rows(random_graph(6, 10, rng, include_self=True), 6)
        assert all(np.array_equal(np.sort(row), np.arange(6)) for row in rows)
        # A node samples itself at rate k / n.
        rows = np.concatenate([self._rows(random_graph(10, 4, rng, include_self=True), 10) for _ in range(2000)])
        nodes = np.tile(np.arange(10), 2000)
        assert np.mean(np.any(rows == nodes[:, None], axis=1)) == pytest.approx(0.4, abs=0.02)

    def test_random_graph_dense_draw_completes(self, rng):
        rows = self._rows(random_graph(512, 511, rng), 512)
        others = np.arange(511)[None, :] + (np.arange(511)[None, :] >= np.arange(512)[:, None])
        assert np.array_equal(np.sort(rows, axis=1), others)

    @pytest.mark.parametrize("n, k", [(8, 3), (8, 6), (40, 5)])
    def test_random_graph_pairs_are_uniform(self, n, k):
        """Chi-square smoke: each (node, other) pair appears at rate k / (n - 1)."""
        rng = np.random.default_rng(1234)
        draws = 4000
        counts = np.zeros((n, n))
        for _ in range(draws):
            edge_index = random_graph(n, k, rng)
            np.add.at(counts, (edge_index[1], edge_index[0]), 1)
        assert np.all(np.diag(counts) == 0)
        rate = k / (n - 1)
        observed = counts[~np.eye(n, dtype=bool)]
        assert np.allclose(observed / draws, rate, atol=0.05)
        # Normalised by the without-replacement variance, the statistic has
        # mean n * (n - 1) and variance about twice that.
        statistic = float(np.sum((observed - draws * rate) ** 2) / (draws * rate * (1 - rate)))
        mean = n * (n - 1)
        assert statistic < mean + 5 * np.sqrt(2 * mean), (statistic, mean)

    def test_random_graph_invalid(self, rng):
        with pytest.raises(ValueError):
            random_graph(0, 2, rng)
        with pytest.raises(ValueError):
            random_graph(5, 0, rng)


class TestScatter:
    def test_scatter_sum_values(self):
        src = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = scatter_sum(src, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_scatter_mean_empty_segment(self):
        src = Tensor(np.array([[4.0], [2.0]]))
        out = scatter_mean(src, np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [0.0]])

    def test_scatter_max_min(self):
        src = Tensor(np.array([[1.0, -5.0], [3.0, 2.0], [0.0, 0.0]]))
        index = np.array([0, 0, 1])
        np.testing.assert_allclose(scatter_max(src, index, 2).data, [[3.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(scatter_min(src, index, 2).data, [[1.0, -5.0], [0.0, 0.0]])

    def test_scatter_dispatch_and_errors(self):
        src = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            scatter(src, np.array([0, 1]), 2, reduce="median")
        with pytest.raises(ValueError):
            scatter_sum(src, np.array([0]), 2)
        with pytest.raises(ValueError):
            scatter_sum(src, np.array([0, 5]), 2)

    @pytest.mark.parametrize("reduce", ["sum", "mean", "max", "min"])
    def test_scatter_gradients(self, reduce, rng):
        src0 = rng.normal(size=(6, 3))
        index = np.array([0, 1, 1, 2, 2, 2])

        def numeric(x):
            return float(scatter(Tensor(x), index, 3, reduce).data.sum())

        src = Tensor(src0.copy(), requires_grad=True)
        scatter(src, index, 3, reduce).sum().backward()
        expected = finite_difference_grad(numeric, src0.copy())
        np.testing.assert_allclose(src.grad, expected, rtol=1e-5, atol=1e-7)


class TestMessages:
    @pytest.mark.parametrize(
        "message_type,expected_dim",
        [
            ("source_pos", 4),
            ("target_pos", 4),
            ("rel_pos", 4),
            ("distance", 1),
            ("source_rel", 8),
            ("target_rel", 8),
            ("full", 13),
        ],
    )
    def test_message_dims(self, message_type, expected_dim, rng):
        assert message_dim(message_type, 4) == expected_dim
        features = Tensor(rng.normal(size=(6, 4)))
        ei = np.array([[0, 1, 2], [3, 4, 5]])
        assert build_messages(features, ei, message_type).shape == (3, expected_dim)

    def test_message_values_target_rel(self, rng):
        features = Tensor(rng.normal(size=(4, 2)))
        ei = np.array([[2], [0]])
        msg = build_messages(features, ei, "target_rel").data
        np.testing.assert_allclose(msg[0, :2], features.data[0])
        np.testing.assert_allclose(msg[0, 2:], features.data[2] - features.data[0])

    def test_message_unknown_type(self, rng):
        with pytest.raises(ValueError):
            build_messages(Tensor(rng.normal(size=(3, 2))), np.array([[0], [1]]), "bogus")
        with pytest.raises(ValueError):
            message_dim("bogus", 3)

    def test_message_gradients(self, rng):
        x0 = rng.normal(size=(5, 3))
        ei = np.array([[0, 1, 4], [1, 2, 3]])

        def numeric(x):
            return float(build_messages(Tensor(x), ei, "full").data.sum())

        x = Tensor(x0.copy(), requires_grad=True)
        build_messages(x, ei, "full").sum().backward()
        np.testing.assert_allclose(x.grad, finite_difference_grad(numeric, x0.copy()), rtol=1e-5, atol=1e-7)


class TestAdjacency:
    def test_sum_aggregation_matrix(self):
        adj = np.zeros((2, 2))
        np.testing.assert_allclose(sum_aggregation_matrix(adj), np.eye(2))

    def test_sum_aggregation_matrix_adds_identity_to_edges(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        out = sum_aggregation_matrix(adj)
        assert np.issubdtype(out.dtype, np.floating)
        np.testing.assert_array_equal(out, adj + np.eye(3))

    def test_sum_aggregation_matrix_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sum_aggregation_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            sum_aggregation_matrix(np.zeros(4))


class TestBatching:
    def test_batched_knn_no_cross_edges(self, rng):
        pts = rng.normal(size=(20, 3))
        batch = np.repeat([0, 1], 10)
        ei = batched_knn_graph(pts, batch, 3)
        assert np.all(batch[ei[0]] == batch[ei[1]])

    def test_batched_random_no_cross_edges(self, rng):
        batch = np.repeat([0, 1, 2], 5)
        ei = batched_random_graph(batch, 2, rng)
        assert np.all(batch[ei[0]] == batch[ei[1]])

    def test_batched_random_graph_degrees(self, rng):
        batch = np.repeat([0, 1, 2], [6, 4, 5])
        ei = batched_random_graph(batch, 3, rng)
        np.testing.assert_array_equal(degree(ei, batch.size, "in"), 3)
        assert not np.any(ei[0] == ei[1])

    def test_batch_vector_must_be_sorted(self, rng):
        with pytest.raises(ValueError):
            batched_knn_graph(rng.normal(size=(4, 3)), np.array([1, 0, 0, 1]), 2)

    @staticmethod
    def _random_rows(edge_index, batch, k):
        """Check one batched random graph per cloud; return each node's sorted sources.

        Every node of an n-point cloud gets min(k, n - 1) distinct sources from
        its own cloud and never itself, except a lone node, which gets its
        self-loop.  Edges are target-major.
        """
        assert np.all(np.diff(edge_index[1]) >= 0)
        sources, targets = edge_index
        assert np.all(batch[sources] == batch[targets])
        sizes = np.bincount(batch)[batch]
        k_eff = np.where(sizes > 1, np.minimum(k, sizes - 1), 1)
        np.testing.assert_array_equal(degree(edge_index, batch.size, "in"), k_eff)
        loops = sources == targets
        np.testing.assert_array_equal(np.unique(targets[loops]), np.flatnonzero(sizes == 1))
        rows = np.split(sources, np.cumsum(k_eff)[:-1])
        assert all(len(np.unique(row)) == len(row) for row in rows)
        return rows

    @pytest.mark.parametrize("sizes", [[64] * 8, [6, 4, 5], [1, 2, 3, 7, 7, 1], [1], [2, 9, 2, 9, 30]])
    @pytest.mark.parametrize("k", [1, 3, 6, 40])
    def test_batched_random_graph_per_cloud_invariants(self, rng, sizes, k):
        """Equal-size, ragged and n <= k clouds keep random_graph's per-cloud rules."""
        batch = np.repeat(np.arange(len(sizes)), sizes)
        rows = self._random_rows(batched_random_graph(batch, k, rng), batch, k)
        for node, row in enumerate(rows):
            cloud = np.flatnonzero(batch == batch[node])
            if cloud.size - 1 <= k:  # k_eff = n - 1: the whole rest of the cloud
                expected = cloud if cloud.size == 1 else np.delete(cloud, np.searchsorted(cloud, node))
                np.testing.assert_array_equal(np.sort(row), expected)

    def test_batched_random_graph_is_one_draw_per_size(self, monkeypatch, rng):
        from repro.graph import sampling

        calls = []

        def counting(rows, pool, k, generator):
            calls.append((rows, pool, k))
            return _uniform_subsets(rows, pool, k, generator)

        monkeypatch.setattr(sampling, "_uniform_subsets", counting)
        batched_random_graph(np.repeat(np.arange(8), 64), 6, rng)
        assert calls == [(8 * 64, 63, 6)]
        calls.clear()
        batched_random_graph(np.repeat(np.arange(5), [3, 10, 3, 10, 1]), 6, rng)
        assert calls == [(1, 1, 1), (6, 2, 2), (20, 9, 6)]

    def test_batched_random_graph_seeded(self):
        batch = np.repeat(np.arange(4), [5, 12, 12, 2])
        first = batched_random_graph(batch, 4, np.random.default_rng(11))
        np.testing.assert_array_equal(first, batched_random_graph(batch, 4, np.random.default_rng(11)))
        assert not np.array_equal(first, batched_random_graph(batch, 4, np.random.default_rng(12)))

    @pytest.mark.parametrize("sizes, k", [([8, 8, 8], 3), ([8, 5, 8], 2), ([12, 12], 6)])
    def test_batched_random_graph_pairs_are_uniform(self, sizes, k):
        """Chi-square smoke: every other node of a cloud is picked at rate k / (n - 1)."""
        rng = np.random.default_rng(4321)
        batch = np.repeat(np.arange(len(sizes)), sizes)
        draws = 3000
        counts = np.zeros((batch.size, batch.size))
        for _ in range(draws):
            edge_index = batched_random_graph(batch, k, rng)
            np.add.at(counts, (edge_index[1], edge_index[0]), 1)
        same_cloud = batch[:, None] == batch[None, :]
        assert np.all(counts[~same_cloud] == 0) and np.all(np.diag(counts) == 0)
        for cloud, n in enumerate(sizes):
            nodes = np.flatnonzero(batch == cloud)
            block = counts[np.ix_(nodes, nodes)]
            rate = k / (n - 1)
            observed = block[~np.eye(n, dtype=bool)]
            assert np.allclose(observed / draws, rate, atol=0.05)
            # Normalised by the without-replacement variance, the statistic has
            # mean n * (n - 1) and variance about twice that.
            statistic = float(np.sum((observed - draws * rate) ** 2) / (draws * rate * (1 - rate)))
            mean = n * (n - 1)
            assert statistic < mean + 5 * np.sqrt(2 * mean), (cloud, statistic, mean)

    def test_batched_random_graph_validation(self, rng):
        with pytest.raises(ValueError):
            batched_random_graph(np.array([1, 0, 0, 1]), 2, rng)
        with pytest.raises(ValueError):
            batched_random_graph(np.zeros((2, 2), dtype=np.int64), 2, rng)
        with pytest.raises(ValueError):
            batched_random_graph(np.zeros(4, dtype=np.int64), 0, rng)
        assert batched_random_graph(np.zeros(0, dtype=np.int64), 3, rng).shape == (2, 0)

    def test_global_pools(self):
        x = Tensor(np.array([[1.0], [3.0], [10.0], [20.0]]))
        batch = np.array([0, 0, 1, 1])
        np.testing.assert_allclose(global_max_pool(x, batch, 2).data, [[3.0], [20.0]])
        np.testing.assert_allclose(global_mean_pool(x, batch, 2).data, [[2.0], [15.0]])

    @pytest.mark.parametrize("pool", [global_max_pool, global_mean_pool], ids=["max", "mean"])
    def test_empty_trailing_cloud_pools_to_zero(self, pool):
        x = Tensor(np.array([[-4.0, 1.0], [-2.0, 3.0]]), requires_grad=True)
        out = pool(x, np.array([0, 0]), 2)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])
        (out * np.array([[1.0, 1.0], [5.0, 5.0]])).sum().backward()
        assert x.grad.sum() == pytest.approx(2.0)

    def test_global_pool_validates(self):
        x = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError, match="positive"):
            global_max_pool(x, np.zeros(3, dtype=np.int64), 0)
        with pytest.raises(ValueError, match="outside"):
            global_mean_pool(x, np.array([0, 1, 2]), 2)
        with pytest.raises(ValueError, match="1-D"):
            global_mean_pool(x, np.zeros(2, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="2-D"):
            global_max_pool(Tensor(np.ones(3)), np.zeros(3, dtype=np.int64), 1)

    @pytest.mark.parametrize("aggregator", ["max", "min", "mean"])
    @pytest.mark.parametrize("sizes", [(4, 4, 4), (3, 1, 5, 0)], ids=["uniform", "ragged"])
    def test_global_pool_grad_check(self, aggregator, sizes, rng):
        """Float64 central differences; the ragged batch ends in an empty cloud."""
        batch = np.repeat(np.arange(len(sizes)), sizes)
        points = rng.normal(size=(batch.size, 3))  # continuous draws: no ties
        weights = rng.normal(size=(len(sizes), 3))

        def loss(values):
            return float((_global_pool(Tensor(values), batch, len(sizes), aggregator).data * weights).sum())

        x = Tensor(points.copy(), requires_grad=True)
        (_global_pool(x, batch, len(sizes), aggregator) * weights).sum().backward()
        np.testing.assert_allclose(x.grad, finite_difference_grad(loss, points.copy()), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("aggregator", ["max", "min"])
    def test_tied_extremes_split_gradient(self, aggregator):
        """Two-way ties: central differences give each winner half, the equal split."""
        points = np.array([[1.0, 2.0], [3.0, 2.0], [3.0, 0.5], [-1.0, 4.0], [0.0, 4.0]])
        points = points if aggregator == "max" else -points
        batch = np.array([0, 0, 0, 1, 1])

        def loss(values):
            return float(_global_pool(Tensor(values), batch, 2, aggregator).data.sum())

        x = Tensor(points.copy(), requires_grad=True)
        _global_pool(x, batch, 2, aggregator).sum().backward()
        expected = [[0.0, 0.5], [0.5, 0.5], [0.5, 0.0], [0.0, 0.5], [1.0, 0.5]]
        np.testing.assert_array_equal(x.grad, expected)
        np.testing.assert_allclose(x.grad, finite_difference_grad(loss, points.copy()), rtol=1e-6)

    @pytest.mark.parametrize("channels", [1, 5])
    def test_ragged_pooling_matches_one_cloud_at_a_time(self, channels, rng):
        sizes = (7, 30, 1, 12)
        offsets = np.cumsum((0,) + sizes)
        batch = np.repeat(np.arange(len(sizes)), sizes)
        # Magnitudes spread over six decades make float32 sums order-sensitive.
        x = (rng.normal(size=(batch.size, channels)) * 10.0 ** rng.uniform(-3, 3, (batch.size, 1)))
        x = x.astype(np.float32)
        for pool in (global_max_pool, global_mean_pool):
            batched = pool(Tensor(x), batch, len(sizes)).data
            alone = [pool(Tensor(x[a:b]), np.zeros(b - a, dtype=np.int64), 1).data for a, b in zip(offsets, offsets[1:])]
            assert np.array_equal(batched, np.concatenate(alone)), pool.__name__

    @staticmethod
    def _per_cloud_knn(points, batch, k):
        edges = []
        for graph_id in np.unique(batch):
            node_ids = np.flatnonzero(batch == graph_id)
            edges.append(node_ids[knn_graph(points[node_ids], k)])
        return np.concatenate(edges, axis=1)

    @pytest.mark.parametrize("case", ["duplicates", "zeros", "fewer_points_than_k", "k_plus_one_points"])
    def test_stacked_knn_matches_per_cloud_loop(self, case, rng):
        n = {"fewer_points_than_k": 5, "k_plus_one_points": 7}.get(case, 24)
        k = 6
        points = rng.normal(size=(4 * n, 8)).astype(np.float32)
        if case == "duplicates":
            points[1::3] = points[0]  # equal keys inside and across clouds
        elif case == "zeros":
            points[: 2 * n + 3] = 0.0  # all-zero rows, as after a ReLU
        batch = np.repeat(np.arange(4), n)
        expected = self._per_cloud_knn(points, batch, k)
        assert np.array_equal(batched_knn_graph(points, batch, k), expected)

    def test_ragged_knn_batch_takes_the_loop(self, rng, monkeypatch):
        import repro.graph.batching as batching_module

        def refuse(clouds, k):
            raise AssertionError("stacked search")

        monkeypatch.setattr(batching_module, "stacked_knn_indices", refuse)
        points = rng.normal(size=(32, 3)).astype(np.float32)
        ragged = np.repeat([0, 1, 2], [10, 12, 10])
        assert np.array_equal(batched_knn_graph(points, ragged, 4), self._per_cloud_knn(points, ragged, 4))
        with pytest.raises(AssertionError, match="stacked search"):
            batched_knn_graph(points, np.repeat([0, 1], 16), 4)


def _split_by_cloud(points: np.ndarray, batch: np.ndarray) -> list[np.ndarray]:
    """The rows of every cloud that ``batch`` names, in cloud order."""
    return [points[batch == graph] for graph in np.unique(batch)]


class TestPackUnpack:
    def test_empty_batch(self):
        points, batch = pack_clouds([])
        assert points.shape == (0, 3)
        assert batch.shape == (0,)
        assert _split_by_cloud(points, batch) == []

    def test_empty_batch_uses_dim(self):
        points, batch = pack_clouds([], dim=5)
        assert points.shape == (0, 5)
        assert batch.shape == (0,)

    def test_batch_of_one(self, rng):
        cloud = rng.normal(size=(7, 3))
        points, batch = pack_clouds([cloud])
        assert points.shape == (7, 3)
        np.testing.assert_array_equal(batch, np.zeros(7, dtype=np.int64))
        (restored,) = _split_by_cloud(points, batch)
        np.testing.assert_array_equal(restored, cloud)

    def test_ragged_round_trip_identity(self, rng):
        clouds = [rng.normal(size=(n, 3)) for n in (5, 1, 12, 3)]
        points, batch = pack_clouds(clouds)
        assert points.shape == (21, 3)
        np.testing.assert_array_equal(batch, np.repeat([0, 1, 2, 3], [5, 1, 12, 3]))
        restored = _split_by_cloud(points, batch)
        assert len(restored) == len(clouds)
        for original, back in zip(clouds, restored):
            np.testing.assert_array_equal(back, original)

    def test_pack_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            pack_clouds([rng.normal(size=(4, 3)), rng.normal(size=(4, 2))])  # mixed dims
        with pytest.raises(ValueError):
            pack_clouds([np.zeros((0, 3))])  # empty cloud
        with pytest.raises(ValueError):
            pack_clouds([np.zeros(5)])  # not 2-D

    def test_pack_feeds_batched_knn(self, rng):
        clouds = [rng.normal(size=(6, 3)), rng.normal(size=(9, 3))]
        points, batch = pack_clouds(clouds)
        edge_index = batched_knn_graph(points, batch, 3)
        assert np.all(batch[edge_index[0]] == batch[edge_index[1]])


class TestScatterDtype:
    """Scatter outputs and gradients follow the message dtype (PR 5)."""

    @pytest.mark.parametrize("reduce", ["sum", "mean", "max", "min"])
    def test_scatter_preserves_float32(self, reduce, rng):
        src = Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
        index = np.array([0, 1, 1, 2, 2, 2])
        out = scatter(src, index, 4, reduce)
        assert out.dtype == np.float32
        out.sum().backward()
        assert src.grad.dtype == np.float32

    @pytest.mark.parametrize("reduce", ["sum", "mean", "max", "min"])
    def test_scatter_preserves_float64(self, reduce, rng):
        src = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        out = scatter(src, np.array([0, 0, 1, 1, 1]), 2, reduce)
        assert out.dtype == np.float64
        out.sum().backward()
        assert src.grad.dtype == np.float64

    def test_validated_fast_path_matches(self, rng):
        src = Tensor(rng.normal(size=(6, 3)).astype(np.float32))
        index = validate_index(np.array([0, 1, 1, 2, 2, 2]), 3)
        for reduce in ("sum", "mean", "max", "min"):
            checked = scatter(src, index, 3, reduce)
            fast = scatter(src, index, 3, reduce, validated=True)
            np.testing.assert_array_equal(checked.data, fast.data)

    def test_validate_index_errors(self):
        with pytest.raises(ValueError):
            validate_index(np.array([[0, 1]]), 2)
        with pytest.raises(ValueError):
            validate_index(np.array([0, 5]), 2)
        with pytest.raises(ValueError):
            validate_index(np.array([-1]), 2)
        with pytest.raises(ValueError):
            validate_index(np.array([0]), 0)

    def test_validated_still_checks_length(self):
        src = Tensor(np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            scatter_sum(src, np.array([0, 1]), 2, validated=True)


class TestFusedKernels:
    """Fused gather-reduce and EdgeConv kernels match the materialized message path."""

    def _materialized(self, x, edge_index, mlp, message_type, aggregator):
        messages = build_messages(x, edge_index, message_type)
        transformed = mlp(messages) if mlp is not None else messages
        return scatter(transformed, edge_index[1], x.shape[0], aggregator)

    @staticmethod
    def _edgeconv_mlp(message_type, seed):
        """EdgeConv's MLP shape: one Linear + LeakyReLU."""
        return MLP([message_dim(message_type, 3), 6], activation="leaky_relu", final_activation=True,
                   rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("message_type", EDGECONV_MESSAGE_TYPES)
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max", "min"])
    def test_forward_matches_materialized(self, message_type, aggregator, rng):
        with default_dtype("float64"):
            points = rng.normal(size=(40, 3))
            edge_index = knn_graph(points, 5)
            mlp = self._edgeconv_mlp(message_type, 3)
            x = Tensor(points)
            expected = self._materialized(x, edge_index, mlp, message_type, aggregator)
            with use_metrics(MetricsRegistry()) as metrics:
                fused = propagate(x, edge_index, message_type, aggregator, mlp=mlp)
        assert metrics.counter("graph.fused.dispatch").value == 1
        assert fused.shape == expected.shape
        np.testing.assert_allclose(fused.data, expected.data, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("message_type", EDGECONV_MESSAGE_TYPES)
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max", "min"])
    def test_backward_matches_materialized(self, message_type, aggregator, rng):
        with default_dtype("float64"):
            points = rng.normal(size=(30, 3))
            edge_index = knn_graph(points, 4)
            mlp = self._edgeconv_mlp(message_type, 5)
            x_ref = Tensor(points.copy(), requires_grad=True)
            self._materialized(x_ref, edge_index, mlp, message_type, aggregator).sum().backward()
            ref_grads = {name: p.grad.copy() for name, p in mlp.named_parameters()}
            mlp.zero_grad()
            x = Tensor(points.copy(), requires_grad=True)
            propagate(x, edge_index, message_type, aggregator, mlp=mlp).sum().backward()
        np.testing.assert_allclose(x.grad, x_ref.grad, rtol=1e-9, atol=1e-11)
        for name, param in mlp.named_parameters():
            assert param.grad.shape == param.data.shape
            np.testing.assert_allclose(param.grad, ref_grads[name], rtol=1e-9, atol=1e-11)
        mlp.zero_grad()

    def test_fused_aggregate_no_mlp(self, rng):
        points = rng.normal(size=(25, 3)).astype(np.float32)
        edge_index = knn_graph(points, 3)
        x = Tensor(points, requires_grad=True)
        out = fused_aggregate(x, edge_index, "rel_pos", "mean")
        expected = self._materialized(Tensor(points), edge_index, None, "rel_pos", "mean")
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-5, atol=1e-6)
        out.sum().backward()
        assert x.grad.dtype == np.float32 and x.grad.shape == points.shape

    def test_unsorted_edges(self, rng):
        points = rng.normal(size=(20, 3)).astype(np.float32)
        edge_index = knn_graph(points, 4)
        shuffled = edge_index[:, rng.permutation(edge_index.shape[1])]
        a = fused_aggregate(Tensor(points), shuffled, "target_rel", "max")
        b = self._materialized(Tensor(points), shuffled, None, "target_rel", "max")
        np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-6)

    def test_ragged_degrees(self, rng):
        # Non-uniform segment sizes exercise the reduceat (non-reshape) path,
        # including nodes with no incoming edges at the start/middle/end.
        sources = np.array([1, 2, 3, 0, 0, 4, 4, 4, 4])
        targets = np.array([1, 1, 1, 2, 4, 4, 4, 4, 4])
        edge_index = np.stack([sources, targets])
        points = rng.normal(size=(6, 3)).astype(np.float32)
        for aggregator in ("sum", "mean", "max", "min"):
            fused = fused_aggregate(Tensor(points), edge_index, "rel_pos", aggregator)
            expected = self._materialized(Tensor(points), edge_index, None, "rel_pos", aggregator)
            np.testing.assert_allclose(fused.data, expected.data, rtol=1e-5, atol=1e-6)

    def test_empty_edge_index(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        out = fused_aggregate(x, np.zeros((2, 0), dtype=np.int64), "rel_pos", "sum")
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out.data, 0.0)
        for message_type in ("distance", "full"):
            for aggregator in ("sum", "mean", "max", "min"):
                x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
                out = fused_aggregate(x, np.zeros((2, 0), dtype=np.int64), message_type, aggregator)
                out.sum().backward()
                assert out.shape == (4, message_dim(message_type, 3))
                np.testing.assert_array_equal(out.data, 0.0)
                np.testing.assert_array_equal(x.grad, 0.0)

    def test_unsupported_inputs(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        edge_index = np.array([[0, 1], [1, 0]])
        # Every message type has an MLP-free kernel, bit-identical to the reference.
        np.testing.assert_array_equal(
            fused_aggregate(x, edge_index, "full", "sum").data,
            self._materialized(x, edge_index, None, "full", "sum").data,
        )
        with pytest.raises(ValueError):
            fused_aggregate(x, edge_index, "rel_pos", "median")
        with pytest.raises(ValueError):
            fused_edgeconv(x, edge_index, self._edgeconv_mlp("full", 0), message_type="full")
        # Only EdgeConv's one Linear + activation has a per-edge kernel.
        for mlp in (None, Sequential(Linear(3, 3), BatchNorm1d(3)),
                    MLP([3, 4, 2], activation="relu", rng=np.random.default_rng(0))):
            with pytest.raises(ValueError):
                fused_edgeconv(x, edge_index, mlp, message_type="rel_pos", aggregator="sum")

    def test_dropout_mlp_takes_materialized_path(self, rng):
        dropout_mlp = MLP([3, 4], activation="relu", final_activation=True, dropout=0.5,
                          rng=np.random.default_rng(0)).eval()
        points = rng.normal(size=(12, 3)).astype(np.float32)
        edge_index = knn_graph(points, 3)
        with use_metrics(MetricsRegistry()) as metrics:
            out = propagate(Tensor(points), edge_index, "rel_pos", "max", mlp=dropout_mlp)
        assert metrics.counter("graph.fused.dispatch").value == 0
        assert metrics.counter("graph.materialized.dispatch").value == 1
        expected = self._materialized(Tensor(points), edge_index, dropout_mlp, "rel_pos", "max")
        np.testing.assert_array_equal(out.data, expected.data)

    def test_edgeconv_dispatches_fused_with_and_without_grad(self, rng):
        conv = EdgeConv(3, 8, aggregator="max", message_type="target_rel",
                        rng=np.random.default_rng(2)).eval()
        points = rng.normal(size=(30, 3)).astype(np.float32)
        edge_index = knn_graph(points, 5)
        with no_grad():
            fused = conv(Tensor(points), edge_index)
            with use_backend("materialized"):
                materialized = conv(Tensor(points), edge_index)
        assert fused.dtype == np.float32
        np.testing.assert_allclose(fused.data, materialized.data, rtol=1e-5, atol=1e-6)
        # Grad-enabled forwards run the same fused kernel as inference.
        with use_metrics(MetricsRegistry()) as metrics:
            trained = conv(Tensor(points), edge_index)
        assert metrics.counter("graph.fused.dispatch").value == 1
        assert metrics.counter("graph.materialized.dispatch").value == 0
        np.testing.assert_array_equal(trained.data, fused.data)

    def test_fused_validates_edge_index(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            fused_aggregate(x, np.array([[0, 9], [1, 0]]), "rel_pos", "sum")
        with pytest.raises(ValueError):
            fused_aggregate(x, np.array([[0, -1], [1, 0]]), "rel_pos", "sum")

    @pytest.mark.parametrize("message_type", MESSAGE_TYPES)
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max", "min"])
    def test_fused_aggregate_grad_check(self, message_type, aggregator, rng):
        """Float64 central differences on a ragged, unsorted graph with empty targets."""
        # In-degrees 3, 1, 0, 4, 0, 2, 0 (nodes 2, 4 and 6 receive nothing).
        sources = np.array([2, 4, 6, 3, 0, 1, 5, 6, 2, 1])
        targets = np.array([0, 0, 0, 1, 3, 3, 3, 3, 5, 5])
        edge_index = np.stack([sources, targets])[:, rng.permutation(10)]
        points = rng.normal(size=(7, 2))  # continuous draws: no ties in any segment
        points[3] = points[1]  # edges 3 -> 1 and 1 -> 3 have distance sqrt(1e-12) = 1e-6
        weights = rng.normal(size=(7, message_dim(message_type, 2)))

        def loss(values):
            out = fused_aggregate(Tensor(values), edge_index, message_type, aggregator)
            return float((out.data * weights).sum())

        x = Tensor(points.copy(), requires_grad=True)
        with default_dtype("float64"):
            (fused_aggregate(x, edge_index, message_type, aggregator) * weights).sum().backward()
        expected = finite_difference_grad(loss, points.copy())
        np.testing.assert_allclose(x.grad, expected, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    @pytest.mark.parametrize("message_type", EDGECONV_MESSAGE_TYPES)
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max", "min"])
    def test_fused_edgeconv_grad_check(self, slope, message_type, aggregator, rng):
        """Float64 central differences of the per-edge kernel for x, W and b."""
        points = rng.normal(size=(9, 2))
        edge_index = knn_graph(points, 3)
        with default_dtype("float64"):
            mlp = MLP([message_dim(message_type, 2), 4], activation="relu" if slope == 0.0 else "leaky_relu",
                      final_activation=True, rng=np.random.default_rng(1))
        linear = mlp.layers[0]
        weights = rng.normal(size=(9, 4))
        state = {"x": points.copy()}

        def loss(_):
            return float((fused_edgeconv(Tensor(state["x"]), edge_index, mlp, message_type, aggregator).data
                          * weights).sum())

        x = Tensor(state["x"].copy(), requires_grad=True)
        (fused_edgeconv(x, edge_index, mlp, message_type, aggregator) * weights).sum().backward()
        np.testing.assert_allclose(x.grad, finite_difference_grad(loss, state["x"]), rtol=1e-6, atol=1e-8)
        for param in (linear.weight, linear.bias):
            np.testing.assert_allclose(param.grad, finite_difference_grad(loss, param.data), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("aggregator", ["max", "min"])
    def test_tied_sources_split_gradient_equally(self, aggregator):
        """Duplicate points tie in every channel; each gets half, as in ``scatter_max``."""
        points = np.array([[0.0, 1.0], [2.0, -1.0], [2.0, -1.0], [0.5, -2.0]])
        points = points if aggregator == "max" else -points
        edge_index = np.array([[1, 2, 3, 0], [0, 0, 0, 3]])
        for message_type in ("source_pos", "rel_pos"):
            x = Tensor(points.copy(), requires_grad=True)
            fused_aggregate(x, edge_index, message_type, aggregator).sum().backward()
            x_ref = Tensor(points.copy(), requires_grad=True)
            self._materialized(x_ref, edge_index, None, message_type, aggregator).sum().backward()
            np.testing.assert_allclose(x.grad, x_ref.grad, rtol=1e-12)
            np.testing.assert_array_equal(x.grad[1], x.grad[2])
            np.testing.assert_array_equal(x.grad[1], 0.5)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("graph", ["knn", "random", "unsorted", "ragged"])
    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max", "min"])
    @pytest.mark.parametrize("message_type", ["distance", "full"])
    def test_distance_full_match_materialized(self, message_type, aggregator, graph, dtype, rng):
        """Forward bit-identical to the materialized path; gradients within float32 tolerance."""
        points = rng.normal(size=(48, 7)).astype(dtype)
        batch = np.repeat(np.arange(4), 12)
        edge_index = {
            "knn": lambda: batched_knn_graph(points, batch, 5),
            "random": lambda: batched_random_graph(batch, 5, rng),
            # Nodes 40..47 receive no messages.
            "unsorted": lambda: knn_graph(points[:40], 5)[:, rng.permutation(200)],
            "ragged": lambda: np.stack([rng.integers(0, 48, 150), rng.integers(0, 44, 150)]),
        }[graph]()
        weights = rng.normal(size=(48, message_dim(message_type, 7))).astype(dtype)
        results = []
        with default_dtype(dtype):
            for backend in ("numpy", "materialized"):
                x = Tensor(points.copy(), requires_grad=True)
                with use_backend(backend), use_metrics(MetricsRegistry()) as metrics:
                    out = propagate(x, edge_index, message_type, aggregator)
                (out * weights).sum().backward()
                results.append((out.data, x.grad, metrics.counter("graph.materialized.dispatch").value))
        (out, grad, materialized), (ref_out, ref_grad, _) = results
        assert materialized == 0
        assert out.dtype == ref_out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out.view(np.uint8), ref_out.view(np.uint8))
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-4, atol=1e-5)
