"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import degree, knn_graph, scatter_mean, scatter_sum, validate_edge_index
from repro.hardware import estimate_latency, estimate_peak_memory, get_device
from repro.nas import Architecture, DesignSpace, DesignSpaceConfig, OperationType
from repro.nas.ops import FunctionSet, random_function_set
from repro.nn import Tensor
from repro.nn import functional as F
from repro.predictor import FEATURE_DIM, architecture_to_graph
from repro.serving import EngineConfig, InferenceEngine, ModelRegistry

_DEVICES = ("rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi")


@st.composite
def architectures(draw):
    """Random architectures over the full operation/function space."""
    num_positions = draw(st.integers(min_value=2, max_value=12).filter(lambda n: n % 2 == 0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return Architecture.random(num_positions, rng)


class TestTensorProperties:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_exponentiates_to_a_distribution(self, values):
        probs = np.exp(F.log_softmax(Tensor(np.array(values))).data)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-9)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_backward_is_ones(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((rows, cols)))


class TestScatterProperties:
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scatter_sum_conserves_mass(self, num_edges, dim_size, seed):
        rng = np.random.default_rng(seed)
        src = Tensor(rng.normal(size=(num_edges, 3)))
        index = rng.integers(0, dim_size, size=num_edges)
        out = scatter_sum(src, index, dim_size)
        np.testing.assert_allclose(out.data.sum(axis=0), src.data.sum(axis=0), atol=1e-9)

    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scatter_mean_bounded_by_extremes(self, num_edges, dim_size, seed):
        rng = np.random.default_rng(seed)
        src = Tensor(rng.normal(size=(num_edges, 2)))
        index = rng.integers(0, dim_size, size=num_edges)
        out = scatter_mean(src, index, dim_size).data
        # Empty segments are defined to be zero; only check populated ones.
        populated = np.bincount(index, minlength=dim_size) > 0
        assert out[populated].min() >= src.data.min() - 1e-9
        assert out[populated].max() <= src.data.max() + 1e-9


class TestGraphProperties:
    @given(st.integers(5, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_knn_graph_in_degree_constant(self, num_points, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(num_points, 3))
        edge_index = knn_graph(points, k)
        validate_edge_index(edge_index, num_points)
        k_eff = min(k, num_points - 1)
        assert np.all(degree(edge_index, num_points, "in") == k_eff)
        assert not np.any(edge_index[0] == edge_index[1])


class TestArchitectureProperties:
    @given(architectures())
    @settings(max_examples=50, deadline=None)
    def test_serialisation_roundtrip(self, architecture):
        clone = Architecture.from_dict(architecture.to_dict())
        assert clone.key() == architecture.key()
        assert clone.output_dim() == architecture.output_dim()

    @given(architectures())
    @settings(max_examples=50, deadline=None)
    def test_effective_ops_invariants(self, architecture):
        ops = architecture.effective_ops()
        # No two consecutive samples survive merging, and dims chain correctly.
        previous_kind = None
        dim = architecture.input_dim
        for op in ops:
            assert not (op.kind == "sample" and previous_kind == "sample")
            assert op.in_dim == dim
            dim = op.out_dim
            previous_kind = op.kind
        assert architecture.output_dim() == dim

    @given(architectures())
    @settings(max_examples=30, deadline=None)
    def test_workload_latency_memory_positive(self, architecture):
        workload = architecture.to_workload(256, 8, 10)
        for device_name in _DEVICES:
            device = get_device(device_name)
            assert estimate_latency(workload, device).total_ms > 0
            assert estimate_peak_memory(workload, device).peak_mb >= device.base_memory_mb

    @given(architectures())
    @settings(max_examples=30, deadline=None)
    def test_predictor_graph_well_formed(self, architecture):
        graph = architecture_to_graph(architecture, num_points=256, k=8)
        assert graph.features.shape == (graph.num_nodes, FEATURE_DIM)
        assert graph.adjacency.shape == (graph.num_nodes, graph.num_nodes)
        assert np.all((graph.adjacency == 0) | (graph.adjacency == 1))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_mutation_preserves_length(self, seed, num_mutations):
        rng = np.random.default_rng(seed)
        space = DesignSpace(DesignSpaceConfig(num_positions=8))
        arch = space.random_architecture(rng)
        mutated = space.mutate_operations(arch, rng, num_mutations)
        assert mutated.num_positions == arch.num_positions
        diffs = sum(a is not b for a, b in zip(arch.operations, mutated.operations))
        assert 1 <= diffs <= num_mutations

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_function_set_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        functions = random_function_set(rng)
        assert isinstance(functions, FunctionSet)
        # Construction validates every field; re-build from dict to be sure.
        assert FunctionSet.from_dict(functions.to_dict()) == functions


class TestHardwareProperties:
    @given(st.sampled_from(_DEVICES), st.integers(64, 2048))
    @settings(max_examples=40, deadline=None)
    def test_latency_monotone_in_points(self, device_name, num_points):
        from repro.hardware import dgcnn_workload

        device = get_device(device_name)
        smaller = estimate_latency(dgcnn_workload(num_points), device).total_ms
        larger = estimate_latency(dgcnn_workload(num_points * 2), device).total_ms
        assert larger > smaller

    @given(architectures())
    @settings(max_examples=30, deadline=None)
    def test_workload_mirrors_effective_ops(self, architecture):
        """The lowered workload is the effective op chain plus pooling+classifier."""
        ops = architecture.effective_ops()
        workload = architecture.to_workload(256, 8, 10)
        assert len(workload) == len(ops) + 2
        sample_ops = workload.count("knn_sample") + workload.count("random_sample")
        assert sample_ops == architecture.num_valid_samples()
        _ = OperationType  # imported for other tests in this module


@pytest.fixture(scope="module")
def deployment():
    """One deployment and a small pool of ragged clouds, shared by every example."""
    from repro.nas.presets import device_fast_architecture

    registry = ModelRegistry()
    registry.register("model", device_fast_architecture("raspberry-pi"), get_device("pi"), num_classes=5, k=6)
    rng = np.random.default_rng(3)
    return registry, tuple(rng.standard_normal((n, 3)) for n in (12, 17, 9, 23, 14))


class TestServingContract:
    """One ``submit_many`` call on fresh engines: batches are the in-order
    chunks of the call's misses, and caching never changes a bit."""

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12), st.integers(1, 5))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_batches_are_in_order_chunks_and_caching_changes_no_bits(self, deployment, picks, max_batch_size):
        registry, pool = deployment
        stream = [pool[pick] for pick in picks]
        cached = InferenceEngine(registry, EngineConfig(max_batch_size=max_batch_size))
        uncached = InferenceEngine(
            registry,
            EngineConfig(max_batch_size=max_batch_size, result_cache_capacity=0, edge_cache_capacity=0),
        )
        first = cached.submit_many("model", stream)
        plain = uncached.submit_many("model", stream)

        n = len(picks)
        for results in (first, plain):
            assert [result.request_id for result in results] == list(range(n))
            for index, result in enumerate(results):
                start = index - index % max_batch_size
                chunk = picks[start : start + max_batch_size]
                # A repeat inside its chunk is computed once and fanned out.
                assert result.batch_size == len(set(chunk)) <= max_batch_size
                assert result.from_cache == (picks[index] in picks[start:index])
        for a, b in zip(first, plain):
            assert np.array_equal(a.logits, b.logits)

        # Every cloud of a second call is a repeat: answered at admission
        # with the bits of its first computation.
        first_of = {}
        for pick, result in zip(picks, first):
            first_of.setdefault(pick, result)
        again = cached.submit_many("model", stream)
        assert [result.request_id for result in again] == list(range(n, 2 * n))
        for pick, result in zip(picks, again):
            assert result.from_cache and result.batch_size == 0
            assert np.array_equal(result.logits, first_of[pick].logits)
