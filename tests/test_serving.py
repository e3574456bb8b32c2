"""Tests for the inference-serving subsystem (repro.serving)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.hardware.device import get_device
from repro.nas.presets import device_fast_architecture, tx2_fast_architecture
from repro.serving import (
    AdmissionError,
    CachingGraphBuilder,
    EngineConfig,
    InferenceEngine,
    LRUCache,
    ModelRegistry,
    cloud_fingerprint,
)
from repro.serving.engine import AdmissionControl
from repro.serving.telemetry import ModelTelemetry, TelemetryStore
from repro.workspace import Workspace


def _make_registry(name="model", device="raspberry-pi", num_classes=6, k=6, slo_ms=None):
    registry = ModelRegistry()
    registry.register(
        name,
        device_fast_architecture(device),
        get_device(device),
        num_classes=num_classes,
        k=k,
        slo_ms=slo_ms,
    )
    return registry


def _clouds(rng, count, num_points=20):
    return [rng.standard_normal((num_points, 3)) for _ in range(count)]


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh 'a'; 'b' becomes the eviction candidate
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestCloudFingerprint:
    def test_stable_under_sub_precision_jitter(self, rng):
        points = rng.standard_normal((16, 3))
        jittered = points + rng.uniform(-1e-9, 1e-9, points.shape)
        assert cloud_fingerprint(points, decimals=6) == cloud_fingerprint(jittered, decimals=6)

    def test_sensitive_to_real_differences(self, rng):
        points = rng.standard_normal((16, 3))
        assert cloud_fingerprint(points) != cloud_fingerprint(points + 0.01)
        assert cloud_fingerprint(points) != cloud_fingerprint(points[:-1])

    def test_extra_context_changes_key(self, rng):
        points = rng.standard_normal((16, 3))
        assert cloud_fingerprint(points, extra=("knn", 8)) != cloud_fingerprint(points, extra=("knn", 12))


class TestCachingGraphBuilder:
    def test_matches_uncached_and_counts_hits(self, rng):
        from repro.graph.batching import batched_knn_graph, pack_clouds

        clouds = _clouds(rng, 3, num_points=12)
        points, batch = pack_clouds(clouds)
        cache = LRUCache(16)
        cached_builder = CachingGraphBuilder(cache)
        plain_builder = CachingGraphBuilder(None)
        first = cached_builder("knn", points, batch, 4, points=points, layer=0)
        again = cached_builder("knn", points, batch, 4, points=points, layer=0)
        plain = plain_builder("knn", points, batch, 4, points=points, layer=0)
        assert np.array_equal(first, again)
        assert np.array_equal(first, plain)
        assert cache.stats().hits == 3  # second pass hits all three clouds
        # Entries are stored as int32; the stacked edges stay int64 and
        # equal the plain batched KNN graph.
        assert all(entry.dtype == np.int32 for entry in cache._entries.values())
        assert first.dtype == again.dtype == np.int64
        assert np.array_equal(first, batched_knn_graph(points, batch, 4))

    def test_random_sampling_is_deterministic_per_cloud(self, rng):
        from repro.graph.batching import pack_clouds

        clouds = _clouds(rng, 2, num_points=10)
        points, batch = pack_clouds(clouds)
        builder = CachingGraphBuilder(None)
        assert np.array_equal(
            builder("random", points, batch, 3, points=points, layer=1),
            builder("random", points, batch, 3, points=points, layer=1),
        )

    def test_random_graphs_do_not_depend_on_the_batch(self, rng):
        from repro.graph.batching import pack_clouds

        clouds = _clouds(rng, 3, num_points=12)
        points, batch = pack_clouds(clouds)
        builder = CachingGraphBuilder(None)
        together = builder("random", points, batch, 3, points=points, layer=1)
        alone = []
        for index, cloud in enumerate(clouds):
            cloud = points[batch == index]
            edges = builder("random", cloud, np.zeros(len(cloud), dtype=np.int64), 3, points=cloud, layer=1)
            alone.append(edges + 12 * index)
        assert np.array_equal(together, np.concatenate(alone, axis=1))

    def test_feature_space_knn_is_built_uncached(self, rng):
        from repro.graph.batching import batched_knn_graph, pack_clouds

        points, batch = pack_clouds(_clouds(rng, 2, num_points=12))
        features = rng.standard_normal((points.shape[0], 8)).astype(points.dtype)
        builder = CachingGraphBuilder(LRUCache(16))
        edges = builder("knn", features, batch, 4, points=points, layer=3)
        assert np.array_equal(edges, batched_knn_graph(features, batch, 4))
        assert len(builder.cache) == 0 and builder.cache.stats().misses == 0

    def test_random_graphs_are_seeded_from_coordinates_and_layer(self, rng):
        from repro.graph.batching import pack_clouds

        points, batch = pack_clouds(_clouds(rng, 2, num_points=12))
        features = rng.standard_normal((points.shape[0], 8))
        cached = CachingGraphBuilder(LRUCache(16))
        on_points = cached("random", points, batch, 3, points=points, layer=2)
        # The layer's features do not enter the seed, the layer index does.
        assert np.array_equal(cached("random", features, batch, 3, points=points, layer=2), on_points)
        assert cached.cache.stats().hits == 2
        assert not np.array_equal(cached("random", points, batch, 3, points=points, layer=5), on_points)
        uncached = CachingGraphBuilder(None)
        assert np.array_equal(uncached("random", features, batch, 3, points=points, layer=2), on_points)

    def test_unknown_method_rejected(self, rng):
        builder = CachingGraphBuilder(None)
        points = rng.standard_normal((5, 3))
        with pytest.raises(ValueError):
            builder("fps", points, np.zeros(5, dtype=np.int64), 2, points=points, layer=0)


class TestModelRegistry:
    def test_register_get_list(self):
        registry = _make_registry("pi-fast")
        assert registry.list() == ["pi-fast"]
        assert "pi-fast" in registry and len(registry) == 1
        entry = registry.get("pi-fast")
        assert entry.device.name == "raspberry-pi"
        assert registry.entries() == [entry]
        with pytest.raises(KeyError):
            registry.get("pi-slow")

    def test_duplicate_name_requires_replace(self):
        registry = _make_registry("m")
        with pytest.raises(ValueError):
            registry.register("m", tx2_fast_architecture(), get_device("tx2"), num_classes=4)
        registry.register("m", tx2_fast_architecture(), get_device("tx2"), num_classes=4, replace=True)
        assert registry.get("m").device.name == "jetson-tx2"

    def test_invalid_names_and_classes(self):
        registry = ModelRegistry()
        with pytest.raises(ValueError):
            registry.register("bad name!", tx2_fast_architecture(), get_device("tx2"), num_classes=4)
        with pytest.raises(ValueError):
            registry.register("ok", tx2_fast_architecture(), get_device("tx2"), num_classes=1)

    def test_save_load_round_trip(self, rng, tmp_path):
        registry = _make_registry("served", device="jetson-tx2", num_classes=5, k=5, slo_ms=500.0)
        registry.save(tmp_path / "reg")
        restored = ModelRegistry.load(tmp_path / "reg")
        assert restored.list() == ["served"]
        original = registry.get("served")
        loaded = restored.get("served")
        assert loaded.slo_ms == original.slo_ms
        assert loaded.device == original.device
        assert loaded.architecture.key() == original.architecture.key()
        # Same weights -> same predictions through the engine.
        clouds = _clouds(rng, 3)
        first = InferenceEngine(registry).submit_many("served", clouds)
        second = InferenceEngine(restored).submit_many("served", clouds)
        for a, b in zip(first, second):
            assert np.array_equal(a.logits, b.logits)


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_batch_size": -4},
            {"max_queue_depth": 0},
            {"result_cache_capacity": -1},
            {"edge_cache_capacity": -1},
            {"backend": "no-such-backend"},
            {"backend": ""},  # empty is a name, not "follow the ambient path"
        ],
    )
    def test_invalid_rejected_at_construction(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            EngineConfig(**kwargs)

    def test_defaults_and_edge_values_accepted(self):
        EngineConfig()
        EngineConfig(result_cache_capacity=0, edge_cache_capacity=0)


class TestAdmissionControl:
    """The admission helper shared by the engine and the pool frontend."""

    def _admission(self, enabled=True, max_depth=4, depth_text="queue depth {depth}"):
        return AdmissionControl(TelemetryStore(16), enabled, max_depth, depth_text)

    def test_estimate_is_memoized_per_model_and_size(self, monkeypatch):
        import repro.serving.engine as engine_module

        calls = []
        real = engine_module.estimate_latency

        def counting(workload, device):
            calls.append(workload)
            return real(workload, device)

        monkeypatch.setattr(engine_module, "estimate_latency", counting)
        admission = self._admission()
        entry = _make_registry().get("model")
        first = admission.estimate_request_ms(entry, 32)
        assert admission.admit(entry, 32, depth=0) == first
        assert len(calls) == 1
        admission.estimate_request_ms(entry, 64)
        assert len(calls) == 2
        assert first > 0

    def test_slo_rejection_is_recorded(self):
        admission = self._admission()
        entry = _make_registry(slo_ms=1e-6).get("model")
        with pytest.raises(AdmissionError, match=r"exceeds the 0\.00 ms SLO of model 'model'"):
            admission.admit(entry, 32, depth=0)
        assert admission.telemetry.model("model").rejected == 1

    @pytest.mark.parametrize(
        "depth_text, expected",
        [
            ("queue depth {depth}", "queue depth 4 at capacity (4)"),
            ("{depth} requests in flight", "4 requests in flight at capacity (4)"),
        ],
    )
    def test_capacity_rejection_formats_depth(self, depth_text, expected):
        admission = self._admission(depth_text=depth_text)
        entry = _make_registry().get("model")
        admission.admit(entry, 32, depth=3)
        with pytest.raises(AdmissionError) as excinfo:
            admission.admit(entry, 32, depth=4)
        assert str(excinfo.value) == f"request rejected: {expected}"
        assert admission.telemetry.model("model").rejected == 1

    def test_disabled_admits_but_still_estimates(self):
        admission = self._admission(enabled=False, max_depth=1)
        entry = _make_registry(slo_ms=1e-6).get("model")
        assert admission.admit(entry, 32, depth=10) == admission.estimate_request_ms(entry, 32)
        assert admission.telemetry.model("model").rejected == 0


class TestInferenceEngine:
    def test_submit_single(self, rng):
        engine = InferenceEngine(_make_registry())
        result = engine.submit("model", rng.standard_normal((16, 3)))
        assert 0 <= result.label < 6
        assert result.logits.shape == (6,)
        assert result.probabilities.shape == (6,)
        assert np.isclose(result.probabilities.sum(), 1.0)
        assert result.estimated_device_ms > 0

    def test_submit_many_matches_sequential_labels(self, rng):
        clouds = _clouds(rng, 7)
        batched = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=3))
        sequential = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=1))
        batched_results = batched.submit_many("model", clouds)
        sequential_results = [sequential.submit("model", cloud) for cloud in clouds]
        assert [r.label for r in batched_results] == [r.label for r in sequential_results]
        assert [r.request_id for r in batched_results] == list(range(len(clouds)))

    def test_dgcnn_ragged_batches_give_the_same_logits(self, rng):
        """Mixed-size clouds: one batch of six and three batches of two agree bit for bit.

        Pooling reduces each cloud alone, so a cloud's logits do not depend
        on its neighbours in the batch: the two 64-point clouds pool through
        the equal-size path as a pair and the ragged one in the batch of
        six.  (Batches of one are left out: the
        classifier head's one-row product takes BLAS's matrix-vector kernel,
        which rounds differently from the matrix-matrix one.)
        """
        from repro.nas.presets import dgcnn_architecture

        def engine(max_batch_size):
            registry = ModelRegistry()
            registry.register("dgcnn", dgcnn_architecture(), get_device("jetson-tx2"), num_classes=40, k=20, seed=0)
            config = EngineConfig(max_batch_size=max_batch_size, result_cache_capacity=0, edge_cache_capacity=0)
            return InferenceEngine(registry, config)

        clouds = [rng.standard_normal((n, 3)).astype(np.float32) for n in (40, 33, 64, 64, 100, 21)]
        together = engine(6).submit_many("dgcnn", clouds)
        in_pairs = engine(2).submit_many("dgcnn", clouds)
        for a, b in zip(together, in_pairs):
            assert np.array_equal(a.logits, b.logits)

    def test_cached_and_uncached_bit_identical(self, rng):
        clouds = _clouds(rng, 6)
        stream = clouds + [clouds[0], clouds[2]]
        cached = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=4))
        uncached = InferenceEngine(
            _make_registry(),
            EngineConfig(max_batch_size=4, result_cache_capacity=0, edge_cache_capacity=0),
        )
        cached_results = cached.submit_many("model", stream)
        uncached_results = uncached.submit_many("model", stream)
        for a, b in zip(cached_results, uncached_results):
            assert np.array_equal(a.logits, b.logits)

    def test_repeated_inputs_hit_result_cache(self, rng):
        engine = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=2))
        cloud = rng.standard_normal((16, 3))
        first = engine.submit("model", cloud)
        second = engine.submit("model", cloud)
        assert not first.from_cache
        assert second.from_cache
        assert np.array_equal(first.logits, second.logits)
        assert engine.result_cache.stats().hits >= 1
        # Sub-precision jitter maps onto the same cache entry.
        third = engine.submit("model", cloud + 1e-10)
        assert third.from_cache

    def test_a_hit_replays_the_computed_answer_bit_for_bit(self, rng, monkeypatch):
        """A tier entry keeps the label and probabilities computed with its logits:
        a hit recomputes neither, and its arrays equal the first computation's bits."""
        from repro.serving import engine as engine_module

        engine = InferenceEngine(_make_registry())
        cloud = rng.standard_normal((16, 3))
        first = engine.submit("model", cloud)

        def no_softmax(logits):
            raise AssertionError("a hit recomputed its probabilities")

        monkeypatch.setattr(engine_module, "_softmax", no_softmax)
        hits = [engine.submit("model", cloud) for _ in range(2)]
        for hit in hits:
            assert hit.from_cache and hit.label == first.label
            assert hit.logits.tobytes() == first.logits.tobytes()
            assert hit.probabilities.tobytes() == first.probabilities.tobytes()
        (entry,) = engine.result_cache.cache._entries.values()
        assert not entry.logits.flags.writeable and not entry.probabilities.flags.writeable

    def test_mutating_a_result_leaves_later_hits_unchanged(self, rng):
        engine = InferenceEngine(_make_registry())
        cloud = rng.standard_normal((16, 3))
        first = engine.submit("model", cloud)
        logits, probabilities = first.logits.copy(), first.probabilities.copy()
        for result in (first, engine.submit("model", cloud)):
            result.logits[:] = 99.0
            result.probabilities[:] = 0.0
        again = engine.submit("model", cloud)
        assert again.from_cache
        assert again.logits.tobytes() == logits.tobytes()
        assert again.probabilities.tobytes() == probabilities.tobytes()

    def test_a_disk_tier_promotion_yields_the_same_answer(self, rng, tmp_path):
        config = EngineConfig(shared_cache_dir=str(tmp_path))
        cloud = rng.standard_normal((16, 3))
        first = InferenceEngine(_make_registry(), config).submit("model", cloud)
        engine = InferenceEngine(_make_registry(), config)  # empty in-memory tier
        promoted, again = engine.submit("model", cloud), engine.submit("model", cloud)
        assert engine.shared_cache.stats().hits == 1  # the second hit is the promoted entry
        for hit in (promoted, again):
            assert hit.from_cache and hit.label == first.label
            assert hit.logits.tobytes() == first.logits.tobytes()
            assert hit.probabilities.tobytes() == first.probabilities.tobytes()

    def test_edge_cache_reuses_knn_across_batches(self, rng):
        engine = InferenceEngine(
            _make_registry(),
            EngineConfig(max_batch_size=1, result_cache_capacity=0, edge_cache_capacity=64),
        )
        cloud = rng.standard_normal((16, 3))
        engine.submit("model", cloud)
        misses_after_first = engine.edge_cache.stats().misses
        engine.submit("model", cloud)  # result cache disabled -> recompute, edges cached
        stats = engine.edge_cache.stats()
        assert stats.hits >= 1
        assert stats.misses == misses_after_first

    def test_edge_cache_keeps_only_the_coordinate_layer(self, rng):
        """DGCNN samples KNN four times; only the one over the request's
        coordinates can repeat, and deployments with the same k share it."""
        from repro.nas.presets import dgcnn_architecture

        registry = ModelRegistry()
        for name in ("dgcnn", "dgcnn_again"):
            registry.register(name, dgcnn_architecture(), get_device("tx2"), num_classes=4, k=6, seed=len(name))
        engine = InferenceEngine(registry, EngineConfig(result_cache_capacity=0))
        cloud = rng.standard_normal((24, 3))
        engine.submit("dgcnn", cloud)
        assert len(engine.edge_cache) == 1
        engine.submit("dgcnn_again", cloud)
        stats = engine.edge_cache.stats()
        assert (stats.size, stats.hits, stats.misses) == (1, 1, 1)

    def test_slo_admission_rejects(self, rng):
        registry = _make_registry(slo_ms=1e-6)
        engine = InferenceEngine(registry)
        with pytest.raises(AdmissionError):
            engine.submit("model", rng.standard_normal((64, 3)))
        assert engine.telemetry.model("model").rejected == 1

    def test_queue_capacity_rejects(self, rng):
        engine = InferenceEngine(_make_registry(), EngineConfig(max_queue_depth=2))
        with pytest.raises(AdmissionError):
            engine.submit_many("model", _clouds(rng, 4))

    def test_admission_control_can_be_disabled(self, rng):
        registry = _make_registry(slo_ms=1e-6)
        engine = InferenceEngine(registry, EngineConfig(admission_control=False))
        result = engine.submit("model", rng.standard_normal((16, 3)))
        assert result.logits.shape == (6,)

    def test_unknown_model_and_bad_input(self, rng):
        engine = InferenceEngine(_make_registry())
        with pytest.raises(KeyError):
            engine.submit("nope", rng.standard_normal((8, 3)))
        with pytest.raises(ValueError):
            engine.submit("model", np.zeros((0, 3)))
        with pytest.raises(ValueError):
            engine.submit("model", np.full((8, 3), np.nan))

    def test_wrong_feature_dim_rejected_upfront(self, rng):
        engine = InferenceEngine(_make_registry())
        with pytest.raises(ValueError, match="3-D point features"):
            engine.submit("model", rng.standard_normal((12, 2)))
        # The next call's batch holds its own clouds only.
        assert [result.batch_size for result in engine.submit_many("model", _clouds(rng, 3))] == [3, 3, 3]

    def test_execution_failure_leaves_engine_clean(self, rng, monkeypatch):
        engine = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=2))
        entry = engine.registry.get("model")
        calls = {"n": 0}
        original_forward = type(entry.model).forward

        def flaky_forward(self, batch):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated kernel failure")
            return original_forward(self, batch)

        monkeypatch.setattr(type(entry.model), "forward", flaky_forward)
        with pytest.raises(RuntimeError, match="simulated kernel failure"):
            engine.submit_many("model", _clouds(rng, 4))  # two batches; second dies
        # The next call runs its own clouds only, in batches of two.
        assert [result.batch_size for result in engine.submit_many("model", _clouds(rng, 3))] == [2, 2, 1]

    def test_replace_does_not_serve_stale_cache(self, rng):
        engine = InferenceEngine(_make_registry())
        registry = engine.registry
        cloud = rng.standard_normal((16, 3))
        before = engine.submit("model", cloud)
        old_entry = registry.get("model")
        registry.register(
            "model",
            old_entry.architecture,
            old_entry.device,
            num_classes=old_entry.num_classes,
            k=old_entry.k,
            seed=99,  # different weights
            replace=True,
        )
        after = engine.submit("model", cloud)
        assert not after.from_cache
        assert not np.array_equal(before.logits, after.logits)

    def test_cancelled_admission_hits_not_counted_as_served(self, rng):
        registry = _make_registry(device="jetson-tx2", slo_ms=15.0)
        engine = InferenceEngine(registry)
        cloud = rng.standard_normal((16, 3))
        engine.submit("model", cloud)
        assert engine.telemetry.model("model").served == 1
        with pytest.raises(AdmissionError):
            # The repeat would be an admission-time cache hit, but the second
            # request fails admission and cancels the whole call.
            engine.submit_many("model", [cloud, rng.standard_normal((4096, 3))])
        assert engine.telemetry.model("model").served == 1

    def test_rejected_submit_many_leaves_engine_clean(self, rng):
        registry = _make_registry(device="jetson-tx2", slo_ms=15.0)
        engine = InferenceEngine(registry, EngineConfig(max_batch_size=4))
        small = [rng.standard_normal((16, 3)) for _ in range(3)]
        stream = small + [rng.standard_normal((4096, 3))]  # last one blows the SLO
        with pytest.raises(AdmissionError):
            engine.submit_many("model", stream)
        # No request of the failed call joins the next call's batch.
        assert [result.batch_size for result in engine.submit_many("model", small[:2])] == [2, 2]
        assert engine.submit("model", small[2]).batch_size == 1

    def test_throughput_spans_cache_hits(self, rng):
        """Hits served after the last batch stretch the window: the rate is the stream's wall rate."""
        engine = InferenceEngine(_make_registry())
        clouds = _clouds(rng, 8)
        hits, gap_s = 50, 0.002
        started = time.perf_counter()
        engine.submit_many("model", clouds)
        for index in range(hits):
            time.sleep(gap_s)
            assert engine.submit("model", clouds[index % len(clouds)]).from_cache
        wall_s = time.perf_counter() - started
        telemetry = engine.telemetry.model("model")
        served = len(clouds) + hits
        assert telemetry.served == served
        # The window holds every sleep between the batch and the last hit, and
        # lies inside the measured wall time.
        assert served / wall_s <= telemetry.throughput_rps <= served / (hits * gap_s)

    def test_telemetry_report_structure(self, rng):
        engine = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=4))
        engine.submit_many("model", _clouds(rng, 5))
        report = engine.report()
        stats = report["models"]["model"]
        assert stats["served"] == 5
        latency = stats["latency_ms"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert report["peak_queue_depth"] >= 1
        assert set(report["caches"]) == {"result", "edge"}
        assert "model" in engine.format_report()


class TestCallBatching:
    """One engine call runs its admitted misses in order, ``max_batch_size`` at a time."""

    def test_misses_run_in_full_batches_of_max_batch_size(self, rng):
        engine = InferenceEngine(_make_registry(), EngineConfig(max_batch_size=2))
        results = engine.submit_many("model", _clouds(rng, 4))
        assert [result.batch_size for result in results] == [2, 2, 2, 2]
        assert not any(result.from_cache for result in results)
        assert engine.telemetry.model("model").batches == 2

    def test_last_partial_batch_runs_and_results_keep_submission_order(self, rng):
        clouds = _clouds(rng, 5)
        config = EngineConfig(max_batch_size=2, result_cache_capacity=0, edge_cache_capacity=0)
        results = InferenceEngine(_make_registry(), config).submit_many("model", clouds)
        assert [result.batch_size for result in results] == [2, 2, 2, 2, 1]
        assert [result.request_id for result in results] == [0, 1, 2, 3, 4]
        # Each chunk served alone gives the same bits, row for row.
        chunks = [clouds[0:2], clouds[2:4], clouds[4:5]]
        expected = [r for chunk in chunks for r in InferenceEngine(_make_registry(), config).submit_many("model", chunk)]
        for got, want in zip(results, expected):
            assert np.array_equal(got.logits, want.logits)

    def test_calls_on_two_models_batch_separately(self, rng):
        registry = _make_registry("a")
        registry.register("b", device_fast_architecture("raspberry-pi"), get_device("raspberry-pi"), num_classes=4, k=6)
        engine = InferenceEngine(registry, EngineConfig(max_batch_size=4))
        assert [result.batch_size for result in engine.submit_many("a", _clouds(rng, 3))] == [3, 3, 3]
        results_b = engine.submit_many("b", _clouds(rng, 2))
        assert [(result.model, result.batch_size) for result in results_b] == [("b", 2), ("b", 2)]
        assert results_b[0].logits.shape == (4,)
        assert (engine.telemetry.model("a").batches, engine.telemetry.model("b").batches) == (1, 1)

    def test_hits_do_not_count_toward_queue_depth(self, rng):
        engine = InferenceEngine(_make_registry(), EngineConfig(max_queue_depth=2))
        seen = _clouds(rng, 2)
        engine.submit_many("model", seen)
        # Two repeats answered at admission plus two misses fit a depth of two.
        results = engine.submit_many("model", seen + _clouds(rng, 2))
        assert [result.from_cache for result in results] == [True, True, False, False]
        assert [result.batch_size for result in results] == [0, 0, 2, 2]
        assert engine.telemetry.peak_queue_depth == 2
        with pytest.raises(AdmissionError, match=r"queue depth 2 at capacity \(2\)"):
            engine.submit_many("model", _clouds(rng, 3))

    def test_repeat_is_computed_once_per_batch(self, rng):
        a, b, c = _clouds(rng, 3)
        uncached = EngineConfig(result_cache_capacity=0, edge_cache_capacity=0)
        one_batch = InferenceEngine(_make_registry(), uncached).submit_many("model", [a, b, a, c])
        assert [result.batch_size for result in one_batch] == [3, 3, 3, 3]
        assert [result.from_cache for result in one_batch] == [False, False, True, False]
        assert np.array_equal(one_batch[0].logits, one_batch[2].logits)
        # Split across two batches, the repeat is computed again in its own.
        config = EngineConfig(max_batch_size=2, result_cache_capacity=0, edge_cache_capacity=0)
        two_batches = InferenceEngine(_make_registry(), config).submit_many("model", [a, b, a, c])
        assert [result.batch_size for result in two_batches] == [2, 2, 2, 2]
        assert not any(result.from_cache for result in two_batches)


class TestModelTelemetry:
    def test_percentiles_and_window(self):
        telemetry = ModelTelemetry(window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            telemetry.record_request(latency_ms=value, queue_ms=0.0, from_cache=False)
        # Window of 4 dropped the first sample.
        percentiles = telemetry.latency_percentiles()
        assert percentiles["p50"] >= 2.0
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        assert telemetry.served == 5

    def test_empty_percentiles_zero(self):
        telemetry = ModelTelemetry()
        assert telemetry.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert telemetry.throughput_rps == 0.0

    def test_throughput_window_covers_hits_and_merges_exactly(self):
        worker = ModelTelemetry()
        worker.record_request(latency_ms=1.0, queue_ms=0.0, from_cache=False)
        worker.busy.first_started_at, worker.busy.last_stopped_at = 10.0, 10.5
        for at in (11.0, 12.0):
            worker.record_request(latency_ms=0.0, queue_ms=0.0, from_cache=True, at=at)
        assert worker.throughput_rps == pytest.approx(3 / 2.0)
        # A frontend that only answered a hit: the merged window is the min
        # of the starts to the max of the ends.
        frontend = ModelTelemetry()
        frontend.record_request(latency_ms=0.0, queue_ms=0.0, from_cache=True, at=9.0)
        assert frontend.throughput_rps == 0.0  # one instant is no window
        frontend.merge(worker.snapshot())
        assert frontend.served == 4 and frontend.cache_hits == 3
        assert frontend.throughput_rps == pytest.approx(4 / 3.0)


class TestWorkspaceServing:
    def test_deploy_and_serve_end_to_end(self, rng, tiny_train):
        architecture = device_fast_architecture("raspberry-pi")
        ws = Workspace(device="pi")
        ws.deploy(
            architecture,
            num_classes=tiny_train.num_classes,
            name="e2e",
            k=4,
            embed_dim=16,
            train_dataset=tiny_train,
            train_epochs=1,
        )
        stream = [sample.points for sample in tiny_train][:6]
        report = ws.serve(stream, name="e2e", config=EngineConfig(max_batch_size=3))
        assert len(report.results) == 6
        assert all(0 <= r.label < tiny_train.num_classes for r in report.results)
        assert report.telemetry["models"]["e2e"]["served"] == 6
        # The engine stays usable for follow-up warm traffic.
        warm = report.engine.submit("e2e", stream[0])
        assert warm.from_cache

    def test_deploy_into_existing_registry(self):
        registry = ModelRegistry()
        Workspace(device="tx2", registry=registry).deploy(tx2_fast_architecture(), num_classes=4)
        assert registry.list() == ["tx2_fast"]
