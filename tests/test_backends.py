"""Tests for ``repro.backends``: the shared kernels and the path switch.

Covers the segment-reduction and scatter kernels against naive loops, the
fused kernels against the ``materialized`` gather -> scatter reference
path, the ``use_backend`` scoping rules, and the path name's plumbing
through the serving engine and the workspace.  Kernel-level tests run under
both path settings: the kernels are shared, so the setting must not change
what they compute.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    active_backend_name,
    fused_kernels_enabled,
    gather_reduce,
    scatter_add,
    scatter_extreme,
    segment_reduce,
    use_backend,
)
from repro.data import collate
from repro.graph import (
    EDGECONV_MESSAGE_TYPES,
    MESSAGE_TYPES,
    build_messages,
    fused_aggregate,
    fused_edgeconv,
    knn_graph,
    message_dim,
    propagate,
    scatter,
)
from repro.graph.fused import _CHUNK_EDGES, _csr_segments, _gather_reduce
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.models.edgeconv import EdgeConv
from repro.nas.architecture import Architecture
from repro.nas.derived import DerivedModel
from repro.nas.ops import FunctionSet, OperationType
from repro.nas.presets import device_fast_architecture
from repro.nas.supernet import Supernet, SupernetConfig
from repro.nn import MLP, Tensor, concatenate, default_dtype, no_grad
from repro.nn.loss import cross_entropy
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.nn.functional import matmul
from repro.serving.engine import EngineConfig, InferenceEngine
from repro.workspace import Workspace

AGGREGATORS = ["sum", "mean", "max", "min"]

_NAIVE_REDUCE = {"sum": np.sum, "mean": np.sum, "max": np.max, "min": np.min}


def _naive_segment_reduce(values, starts, counts, aggregator):
    return np.stack(
        [_NAIVE_REDUCE[aggregator](values[s : s + c], axis=0) for s, c in zip(starts, counts)]
    )


def _naive_scatter(values, index, num_segments, aggregator):
    """Per-target loop over the messages; empty targets yield zero."""
    out = np.zeros((num_segments, values.shape[1]), dtype=values.dtype)
    for target in range(num_segments):
        rows = values[index == target]
        if rows.size:
            reduced = _NAIVE_REDUCE[aggregator](rows, axis=0)
            out[target] = reduced / rows.shape[0] if aggregator == "mean" else reduced
    return out


def _materialized_reference(x, edge_index, mlp, message_type, aggregator):
    """gather -> message -> MLP -> scatter, built explicitly from the graph ops."""
    messages = build_messages(x, edge_index, message_type)
    if mlp is not None:
        messages = mlp(messages)
    return scatter(messages, edge_index[1], x.shape[0], aggregator)


class TestRegistry:
    """The two-value path setting and its scoping rules."""

    def test_shipped_backends_registered(self):
        assert BACKENDS == ("numpy", "materialized")
        assert active_backend_name() == "numpy"
        assert fused_kernels_enabled()

    def test_use_backend_nests_and_restores_on_error(self):
        with use_backend("materialized") as outer:
            assert outer == "materialized"
            assert active_backend_name() == "materialized"
            assert not fused_kernels_enabled()
            with use_backend("numpy"):
                assert active_backend_name() == "numpy"
                assert fused_kernels_enabled()
            assert active_backend_name() == "materialized"
        assert active_backend_name() == "numpy"
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("materialized"):
                raise RuntimeError("boom")
        assert active_backend_name() == "numpy"

    @pytest.mark.parametrize("name", ["cuda", "blocked", "NumPy", ""])
    def test_unknown_names_rejected(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend(name):
                pass
        assert active_backend_name() == "numpy"


class TestPrimitiveEquivalence:
    """Each shared kernel matches a naive loop."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_matmul(self, backend_name, rng):
        x2 = Tensor(rng.normal(size=(9, 20)).astype(np.float32), requires_grad=True)
        x3 = Tensor(rng.normal(size=(2, 5, 20)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(20, 6)).astype(np.float32), requires_grad=True)
        with use_backend(backend_name):
            out2 = matmul(x2, w)
            out3 = matmul(x3, w)
            (out2.sum() + out3.sum()).backward()
        np.testing.assert_array_equal(out2.data, x2.data @ w.data)
        np.testing.assert_array_equal(out3.data, x3.data @ w.data)
        ones2 = np.ones((9, 6), dtype=np.float32)
        ones3 = np.ones((2, 5, 6), dtype=np.float32)
        np.testing.assert_allclose(x2.grad, ones2 @ w.data.T, rtol=1e-6)
        np.testing.assert_allclose(x3.grad, ones3 @ w.data.T, rtol=1e-6)
        want_w = x2.data.T @ ones2 + sum(x3.data[b].T @ ones3[b] for b in range(2))
        np.testing.assert_allclose(w.grad, want_w, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_segment_reduce(self, backend_name, aggregator, rng):
        counts = np.array([3, 1, 7, 2, 5], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        values = rng.normal(size=(int(counts.sum()), 50)).astype(np.float32)
        with use_backend(backend_name):
            got = segment_reduce(values, starts, counts, aggregator)
        want = _naive_segment_reduce(values, starts, counts, aggregator)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_uniform_degree_segment_reduce(self, backend_name, rng):
        counts = np.full(6, 4, dtype=np.int64)
        starts = np.arange(6, dtype=np.int64) * 4
        values = rng.normal(size=(24, 40)).astype(np.float32)
        for aggregator in AGGREGATORS:
            with use_backend(backend_name):
                got = segment_reduce(values, starts, counts, aggregator)
            want = _naive_segment_reduce(values, starts, counts, aggregator)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_segment_reduce_rejects_unknown_aggregator(self):
        counts = np.array([2], dtype=np.int64)
        with pytest.raises(ValueError, match="unknown aggregator"):
            segment_reduce(np.ones((2, 3)), np.array([0]), counts, "median")

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_scatter_primitives(self, backend_name, rng):
        index = rng.integers(0, 5, size=40)
        values = rng.normal(size=(40, 7)).astype(np.float32)
        summed = np.zeros((5, 7), dtype=np.float32)
        with use_backend(backend_name):
            scatter_add(summed, index, values)
        want = np.zeros((5, 7), dtype=np.float32)
        for row, target in enumerate(index):
            want[target] += values[row]
        np.testing.assert_allclose(summed, want, rtol=1e-6, atol=1e-6)
        for mode, fill, pick in (("max", -np.inf, np.maximum), ("min", np.inf, np.minimum)):
            extreme = np.full((5, 7), fill, dtype=np.float32)
            with use_backend(backend_name):
                scatter_extreme(extreme, index, values, mode)
            want = np.full((5, 7), fill, dtype=np.float32)
            for row, target in enumerate(index):
                want[target] = pick(want[target], values[row])
            np.testing.assert_array_equal(extreme, want)

    def test_scatter_extreme_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            scatter_extreme(np.zeros((2, 2)), np.array([0, 1]), np.ones((2, 2)), "median")


def _assert_same_bits(got, want):
    """Equal bit for bit, signed zeros included; NaN entries only need to be NaN in both.

    A NaN's sign and payload bits follow the ufunc loop that produced it,
    which differs between a binary ufunc and an axis reduction.
    """
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _uniform_segments(degree, num_segments):
    counts = np.full(num_segments, degree, dtype=np.int64)
    return np.arange(num_segments, dtype=np.int64) * degree, counts


class TestGatherReduce:
    """``gather_reduce`` equals ``segment_reduce(values[index])`` bit for bit."""

    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("degree", [1, 2, 5, 20])
    @pytest.mark.parametrize("width", [3, 33])
    def test_uniform_degree_matches_gathered_reduction(self, dtype, aggregator, degree, width, rng):
        values = rng.normal(size=(50, width))
        special = rng.random(values.shape) < 0.5
        values[special] = rng.choice(self.SPECIALS, size=int(special.sum()))
        values = values.astype(dtype)
        index = rng.integers(0, 50, size=40 * degree)
        starts, counts = _uniform_segments(degree, 40)
        with np.errstate(invalid="ignore"):
            got = gather_reduce(values, index, starts, counts, aggregator)
            want = segment_reduce(values[index], starts, counts, aggregator)
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_signed_zero_ties(self, aggregator, rng):
        values = rng.choice(np.array([0.0, -0.0], dtype=np.float32), size=(30, 8))
        index = rng.integers(0, 30, size=30 * 4)
        starts, counts = _uniform_segments(4, 30)
        got = gather_reduce(values, index, starts, counts, aggregator)
        _assert_same_bits(got, segment_reduce(values[index], starts, counts, aggregator))
        # An all -0.0 segment sums to +0.0, as the axis sum does.
        zeros = np.full((4, 8), -0.0, dtype=np.float32)
        starts, counts = _uniform_segments(3, 2)
        summed = gather_reduce(zeros, np.arange(6) % 4, starts, counts, aggregator)
        assert np.signbit(summed).all() == (aggregator in ("max", "min"))

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_ragged_segments_and_single_column_fall_back(self, aggregator, rng):
        values = rng.normal(size=(20, 6)).astype(np.float32)
        counts = np.array([3, 1, 7, 2, 5], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        index = rng.integers(0, 20, size=int(counts.sum()))
        _assert_same_bits(
            gather_reduce(values, index, starts, counts, aggregator),
            segment_reduce(values[index], starts, counts, aggregator),
        )
        # One column at k >= 8: numpy's axis sum is pairwise there, not j = 0..k-1.
        column = values[:, :1]
        index = rng.integers(0, 20, size=10 * 20)
        starts, counts = _uniform_segments(20, 10)
        _assert_same_bits(
            gather_reduce(column, index, starts, counts, aggregator),
            segment_reduce(column[index], starts, counts, aggregator),
        )

    def test_rejects_unknown_aggregator(self):
        starts, counts = _uniform_segments(2, 1)
        with pytest.raises(ValueError, match="unknown aggregator"):
            gather_reduce(np.ones((2, 3)), np.array([0, 1]), starts, counts, "median")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("isolated", [0, 3], ids=["all_targets", "isolated_nodes"])
    def test_fused_gather_reduce_matches_the_scattered_reduction(self, dtype, aggregator, isolated, rng):
        """``_gather_reduce`` against zeros with ``segment_reduce(x[sources])`` written into the
        target rows, the form it replaces; nodes without in-edges keep zero rows."""
        points = rng.normal(size=(24, 5)).astype(dtype)
        edge_index = knn_graph(points[: 24 - isolated], 4)
        x = Tensor(points)
        x, sources, _, seg_nodes, starts, counts = _csr_segments(x, edge_index, "source_pos", aggregator, True)
        got = _gather_reduce(x, sources, seg_nodes, starts, counts, aggregator).data
        want = np.zeros_like(points)
        want[seg_nodes] = segment_reduce(points[sources], starts, counts, aggregator)
        if aggregator == "mean":
            want[seg_nodes] /= counts[:, None].astype(dtype)
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("aggregator", ["mean", "max", "min"])
    @pytest.mark.parametrize("message_type", ["target_pos", "rel_pos", "target_rel"])
    def test_centre_without_the_ones_multiply(self, message_type, aggregator, rng):
        """Every node has in-edges: the centre term is ``x`` itself, as exact as ``x * 1``,
        with the same gradients."""
        points = rng.normal(size=(16, 4)).astype(np.float32)
        edge_index = knn_graph(points, 3)
        x = Tensor(points.copy(), requires_grad=True)
        out = fused_aggregate(x, edge_index, message_type, aggregator)
        (out * out).sum().backward()
        x_ref = Tensor(points.copy(), requires_grad=True)
        reduced = fused_aggregate(x_ref, edge_index, "source_pos", aggregator)
        centre = x_ref * np.ones((16, 1), dtype=np.float32)
        relative = reduced - centre
        if message_type == "target_pos":
            expected = centre
        elif message_type == "rel_pos":
            expected = relative
        else:
            expected = concatenate([centre, relative], axis=1)
        (expected * expected).sum().backward()
        _assert_same_bits(out.data, expected.data)
        _assert_same_bits(x.grad, x_ref.grad)


class TestKernelEquivalence:
    """The fused kernels match the materialized reference path."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("message_type", EDGECONV_MESSAGE_TYPES)
    def test_fused_edgeconv_matches_reference(self, backend_name, dtype, message_type, rng):
        """The EdgeConv kernel (one Linear + LeakyReLU) computes the same under either path setting."""
        points = rng.normal(size=(40, 3)).astype(dtype)
        edge_index = knn_graph(points, 5)
        tol = dict(rtol=1e-4, atol=1e-5) if dtype == "float32" else dict(rtol=1e-9, atol=1e-11)
        for aggregator in AGGREGATORS:
            with default_dtype(dtype):
                mlp = MLP([message_dim(message_type, 3), 8], activation="leaky_relu",
                          final_activation=True, rng=np.random.default_rng(3))
                x_ref = Tensor(points.copy(), requires_grad=True)
                expected = _materialized_reference(x_ref, edge_index, mlp, message_type, aggregator)
                expected.sum().backward()
                w_grads = {name: p.grad.copy() for name, p in mlp.named_parameters()}
                mlp.zero_grad()
                with use_backend(backend_name):
                    x = Tensor(points.copy(), requires_grad=True)
                    out = fused_edgeconv(x, edge_index, mlp, message_type=message_type, aggregator=aggregator)
                    out.sum().backward()
            assert out.dtype == np.dtype(dtype)
            np.testing.assert_allclose(out.data, expected.data, **tol)
            np.testing.assert_allclose(x.grad, x_ref.grad, **tol)
            for name, param in mlp.named_parameters():
                np.testing.assert_allclose(param.grad, w_grads[name], **tol)
            mlp.zero_grad()

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("message_type", MESSAGE_TYPES)
    def test_fused_aggregate_matches_reference(self, message_type, aggregator, rng):
        """MLP-free aggregation, forward and gradient, on an unsorted graph with empty targets."""
        points = rng.normal(size=(12, 3))
        edge_index = knn_graph(points[:9], 3)  # nodes 9..11 receive no messages
        edge_index = edge_index[:, rng.permutation(edge_index.shape[1])]
        with default_dtype("float64"):
            x_ref = Tensor(points.copy(), requires_grad=True)
            expected = _materialized_reference(x_ref, edge_index, None, message_type, aggregator)
            (expected * expected).sum().backward()
            x = Tensor(points.copy(), requires_grad=True)
            out = fused_aggregate(x, edge_index, message_type, aggregator)
            (out * out).sum().backward()
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-12, atol=1e-12)
        if aggregator in ("max", "min") or message_type in ("distance", "full"):
            # fl(a - c) is monotone in a, so reducing x_j first is exact; distance
            # and full messages are reduced per edge, sums in np.add.at's order.
            np.testing.assert_array_equal(out.data, expected.data)
        np.testing.assert_array_equal(out.data[9:], 0.0)
        np.testing.assert_allclose(x.grad, x_ref.grad, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("message_type", MESSAGE_TYPES)
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("mlp_dims", [None, (6,), (7, 5)], ids=["no_mlp", "edgeconv_mlp", "two_layer_mlp"])
    def test_propagate_matches_materialized(self, mlp_dims, aggregator, message_type, rng):
        """Every (message type, aggregator, MLP) case of ``propagate``, forward and all gradients."""
        points = rng.normal(size=(30, 3))
        edge_index = knn_graph(points[:26], 4)  # nodes 26..29 receive no messages
        edge_index = edge_index[:, rng.permutation(edge_index.shape[1])]
        results = {}
        with default_dtype("float64"):
            mlp = None if mlp_dims is None else MLP(
                [message_dim(message_type, 3), *mlp_dims], activation="leaky_relu",
                final_activation=True, rng=np.random.default_rng(4))
            for backend_name in BACKENDS:
                if mlp is not None:
                    mlp.zero_grad()
                x = Tensor(points.copy(), requires_grad=True)
                with use_backend(backend_name):
                    out = propagate(x, edge_index, message_type, aggregator, mlp=mlp)
                (out * out).sum().backward()
                params = {} if mlp is None else {name: p.grad.copy() for name, p in mlp.named_parameters()}
                results[backend_name] = out.data, x.grad, params
        (out, x_grad, params), (ref_out, ref_x_grad, ref_params) = results["numpy"], results["materialized"]
        tol = dict(rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out, ref_out, **tol)
        if mlp is None and (aggregator in ("max", "min") or message_type in ("distance", "full")):
            np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_allclose(x_grad, ref_x_grad, **tol)
        assert params.keys() == ref_params.keys()
        for name, grad in params.items():
            np.testing.assert_allclose(grad, ref_params[name], **tol, err_msg=name)

    @pytest.mark.parametrize("aggregator", ["max", "mean"])
    def test_edgeconv_spans_several_chunks(self, aggregator, rng):
        """An EdgeConv over more than one chunk of edges matches the materialized path."""
        points = rng.normal(size=(1700, 3))
        edge_index = knn_graph(points, 20)
        assert edge_index.shape[1] > _CHUNK_EDGES
        grads = {}
        with default_dtype("float64"):
            conv = EdgeConv(3, 8, aggregator=aggregator, rng=np.random.default_rng(6))
            for backend_name in BACKENDS:
                conv.zero_grad()
                x = Tensor(points.copy(), requires_grad=True)
                with use_backend(backend_name):
                    out = conv(x, edge_index)
                (out * out).sum().backward()
                grads[backend_name] = out.data, x.grad, {n: p.grad.copy() for n, p in conv.named_parameters()}
        (out, x_grad, params), (ref_out, ref_x_grad, ref_params) = grads["numpy"], grads["materialized"]
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(x_grad, ref_x_grad, rtol=1e-10, atol=1e-12)
        for name, grad in params.items():
            np.testing.assert_allclose(grad, ref_params[name], rtol=1e-10, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_ragged_and_unsorted_graphs(self, backend_name, rng):
        sources = np.array([1, 2, 3, 0, 0, 4, 4, 4, 4])
        targets = np.array([1, 1, 1, 2, 4, 4, 4, 4, 4])
        ragged = np.stack([sources, targets])
        points = rng.normal(size=(6, 3)).astype(np.float32)
        shuffled = ragged[:, rng.permutation(ragged.shape[1])]
        for edge_index in (ragged, shuffled):
            for aggregator in AGGREGATORS:
                want = _materialized_reference(Tensor(points), edge_index, None, "rel_pos", aggregator)
                with use_backend(backend_name):
                    got = fused_aggregate(Tensor(points), edge_index, "rel_pos", aggregator)
                np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_empty_graph(self, backend_name):
        with use_backend(backend_name):
            x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
            out = fused_aggregate(x, np.zeros((2, 0), dtype=np.int64), "rel_pos", "sum")
            out.sum().backward()
        assert out.shape == (4, 3)
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(x.grad, 0.0)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_materialized_scatter_path(self, backend_name, rng):
        points = rng.normal(size=(20, 3)).astype(np.float32)
        edge_index = knn_graph(points, 4)
        src, tgt = edge_index
        naive_messages = points[src] - points[tgt]
        for aggregator in AGGREGATORS:
            with use_backend(backend_name):
                x = Tensor(points.copy(), requires_grad=True)
                got = _materialized_reference(x, edge_index, None, "rel_pos", aggregator)
                got.sum().backward()
            want = _naive_scatter(naive_messages, tgt, 20, aggregator)
            np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)
            if aggregator == "sum":
                # d/dx of sum(x_j - x_i): +1 per outgoing edge, -1 per incoming.
                degree_diff = np.bincount(src, minlength=20) - np.bincount(tgt, minlength=20)
                np.testing.assert_allclose(x.grad, np.repeat(degree_diff[:, None], 3, axis=1))

    def test_numpy_backend_is_bit_identical_default(self, rng):
        """use_backend('numpy') must not change a single bit vs the ambient default."""
        points = rng.normal(size=(30, 3)).astype(np.float32)
        edge_index = knn_graph(points, 5)
        baseline = fused_aggregate(Tensor(points), edge_index, "target_rel", "mean")
        with use_backend("numpy"):
            pinned = fused_aggregate(Tensor(points), edge_index, "target_rel", "mean")
        np.testing.assert_array_equal(baseline.data, pinned.data)


class TestFusedToggleShims:
    """Model-level dispatch follows the fused/materialized switch."""

    def test_materialized_backend_disables_model_dispatch(self, rng):
        conv = EdgeConv(3, 8, aggregator="max", message_type="target_rel",
                        rng=np.random.default_rng(2)).eval()
        points = rng.normal(size=(30, 3)).astype(np.float32)
        edge_index = knn_graph(points, 5)
        with no_grad():
            fused = conv(Tensor(points), edge_index)
            with use_backend("materialized"):
                materialized = conv(Tensor(points), edge_index)
        np.testing.assert_allclose(fused.data, materialized.data, rtol=1e-5, atol=1e-6)

    def test_supernet_paths_agree(self, tiny_train, rng):
        supernet = Supernet(SupernetConfig(num_positions=6, hidden_dim=12, k=4, num_classes=4)).eval()
        batch = collate([tiny_train[i] for i in range(3)])
        # KNN sampling keeps the graph deterministic across the two forwards.
        for aggregator, message_type in (("max", "target_rel"), ("mean", "rel_pos"), ("sum", "source_pos")):
            functions = FunctionSet(aggregator=aggregator, message_type=message_type, sample_method="knn")
            path = supernet.random_path(rng, functions, functions)
            with no_grad():
                fused = supernet(batch, path)
                with use_backend("materialized"):
                    materialized = supernet(batch, path)
            np.testing.assert_allclose(fused.data, materialized.data, rtol=1e-4, atol=1e-5)


class TestTrainingParity:
    """Grad-enabled forwards take the fused path and match the reference.

    Float64 with the models in ``eval()`` (no dropout masks) and grad on:
    the loss and every parameter gradient under ``numpy`` must agree with
    the ``materialized`` path, and the dispatch counters show which path ran.
    """

    def _batch(self, tiny_train):
        batch = collate([tiny_train[i] for i in range(4)])
        return dataclasses.replace(batch, points=batch.points.astype(np.float64))

    def _step(self, model, forward, labels, backend):
        model.zero_grad()
        with use_backend(backend), use_metrics(MetricsRegistry()) as metrics:
            loss = cross_entropy(forward(), labels)
            loss.backward()
        grads = {name: param.grad for name, param in model.named_parameters()
                 if param.grad is not None}
        dispatch = {path: metrics.counter(f"graph.{path}.dispatch").value
                    for path in ("fused", "materialized")}
        return loss.item(), grads, dispatch

    def _assert_parity(self, model, forward, labels):
        loss, grads, dispatch = self._step(model, forward, labels, "numpy")
        ref_loss, ref_grads, _ = self._step(model, forward, labels, "materialized")
        assert dispatch["fused"] > 0 and dispatch["materialized"] == 0
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-9)
        assert grads.keys() == ref_grads.keys() and grads
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-7, atol=1e-10, err_msg=name)

    def test_dgcnn(self, tiny_train):
        batch = self._batch(tiny_train)
        with default_dtype("float64"):
            model = DGCNN(DGCNNConfig(num_classes=4, k=4, layer_dims=(8, 8),
                                      embed_dim=16, classifier_hidden=(8,))).eval()
        self._assert_parity(model, lambda: model(batch), batch.labels)

    def test_derived_model(self, tiny_train):
        batch = self._batch(tiny_train)
        with default_dtype("float64"):
            model = DerivedModel(device_fast_architecture("jetson-tx2"), num_classes=4, k=4).eval()
        self._assert_parity(model, lambda: model(batch), batch.labels)

    def _supernet_path(self, message_type):
        functions = FunctionSet(aggregator="max", message_type=message_type, sample_method="knn")
        ops = (OperationType.SAMPLE, OperationType.AGGREGATE, OperationType.COMBINE)
        return Architecture(ops + ops, upper_functions=functions,
                            lower_functions=dataclasses.replace(functions, aggregator="mean"))

    def test_supernet(self, tiny_train):
        batch = self._batch(tiny_train)
        with default_dtype("float64"):
            supernet = Supernet(SupernetConfig(num_positions=6, hidden_dim=12, k=4, num_classes=4)).eval()
        for message_type in ("target_rel", "rel_pos", "source_rel"):
            path = self._supernet_path(message_type)
            self._assert_parity(supernet, lambda: supernet(batch, path), batch.labels)

    def test_supernet_full_message_type_runs_fused(self, tiny_train):
        batch = self._batch(tiny_train)
        with default_dtype("float64"):
            supernet = Supernet(SupernetConfig(num_positions=6, hidden_dim=12, k=4, num_classes=4)).eval()
        path = self._supernet_path("full")
        _, _, dispatch = self._step(supernet, lambda: supernet(batch, path), batch.labels, "numpy")
        assert dispatch == {"fused": 2, "materialized": 0}
        self._assert_parity(supernet, lambda: supernet(batch, path), batch.labels)

    @pytest.mark.parametrize("sample_method", ["knn", "random"])
    def test_supernet_never_materializes(self, tiny_train, sample_method):
        """A training step over every message type and aggregator runs no materialized aggregate."""
        batch = collate([tiny_train[i] for i in range(4)])
        supernet = Supernet(SupernetConfig(num_positions=6, hidden_dim=12, k=4, num_classes=4))
        ops = (OperationType.SAMPLE, OperationType.AGGREGATE, OperationType.COMBINE)
        for index, message_type in enumerate(MESSAGE_TYPES):
            upper = FunctionSet(aggregator=AGGREGATORS[index % 4], message_type=message_type,
                                sample_method=sample_method)
            lower = dataclasses.replace(upper, aggregator=AGGREGATORS[(index + 1) % 4])
            path = Architecture(ops + ops, upper_functions=upper, lower_functions=lower)
            _, grads, dispatch = self._step(supernet, lambda: supernet(batch, path), batch.labels, "numpy")
            assert dispatch == {"fused": 2, "materialized": 0}, message_type
            assert grads and all(np.all(np.isfinite(grad)) for grad in grads.values())


class TestBackendPlumbing:
    def _clouds(self, rng, n=6):
        return [rng.standard_normal((24, 3)) for _ in range(n)]

    def _workspace_with_model(self):
        from repro.nas.presets import device_fast_architecture

        workspace = Workspace(device="jetson-tx2")
        architecture = device_fast_architecture(workspace.device.name)
        deployed = workspace.deploy(architecture, num_classes=4, name="m", k=4)
        return workspace, deployed

    def test_engine_config_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="not-a-backend")
        for name in BACKENDS:
            assert EngineConfig(backend=name).backend == name

    def test_engine_results_equivalent_across_backends(self, rng):
        workspace, deployed = self._workspace_with_model()
        clouds = self._clouds(rng)
        fused = InferenceEngine(workspace.registry, EngineConfig(max_batch_size=4))
        materialized = InferenceEngine(
            workspace.registry, EngineConfig(max_batch_size=4, backend="materialized")
        )
        want = fused.submit_many(deployed.name, clouds)
        got = materialized.submit_many(deployed.name, clouds)
        for a, b in zip(got, want):
            assert a.label == b.label
            np.testing.assert_allclose(a.logits, b.logits, rtol=1e-4, atol=1e-5)
        # The path is part of the deployment's cache identity.
        entry = workspace.registry.get(deployed.name)
        assert fused._content_key(entry) != materialized._content_key(entry)

    def test_workspace_records_backend_in_spans(self, rng):
        from repro.obs import get_tracer, reset_observability

        reset_observability()
        with use_backend("materialized"):
            workspace, deployed = self._workspace_with_model()
            workspace.serve(self._clouds(rng, 2), name=deployed.name)
        spans = {span.name: span for span in get_tracer().spans}
        assert spans["workspace.serve"].attributes["backend"] == "materialized"
        assert spans["workspace.deploy"].attributes["backend"] == "materialized"
        reset_observability()
