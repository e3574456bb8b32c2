"""Serving-engine throughput: sequential vs micro-batched vs batched+cached.

The serving claim of the subsystem, quantified: micro-batching amortises
the per-forward dispatch overhead so a batched engine serves the same
request stream at strictly higher throughput than one-by-one ``submit()``,
and the content-addressed caches serve repeated inputs without recomputing
— bit-identically to the uncached engine.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import get_device
from repro.nas import device_fast_architecture
from repro.serving import EngineConfig, InferenceEngine, ModelRegistry

NUM_REQUESTS = 48
NUM_POINTS = 32
NUM_UNIQUE = 12
K = 8
NUM_CLASSES = 10
BATCH_SIZE = 16
ROUNDS = 5


def _make_engine(max_batch_size: int, cache_capacity: int) -> InferenceEngine:
    registry = ModelRegistry()
    registry.register(
        "bench",
        device_fast_architecture("jetson-tx2"),
        get_device("jetson-tx2"),
        num_classes=NUM_CLASSES,
        k=K,
    )
    return InferenceEngine(
        registry,
        EngineConfig(
            max_batch_size=max_batch_size,
            result_cache_capacity=cache_capacity,
            edge_cache_capacity=cache_capacity,
        ),
    )


def _unique_stream(count: int = NUM_REQUESTS) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.standard_normal((NUM_POINTS, 3)) for _ in range(count)]


def _repeated_stream() -> list[np.ndarray]:
    unique = _unique_stream(NUM_UNIQUE)
    rng = np.random.default_rng(1)
    return [unique[int(i)] for i in rng.integers(0, NUM_UNIQUE, size=NUM_REQUESTS)]


def test_batched_beats_sequential(benchmark, ab_medians):
    """Micro-batching must strictly out-serve one-by-one submission."""
    stream = _unique_stream()

    def sequential_run():
        engine = _make_engine(max_batch_size=1, cache_capacity=0)
        return lambda: [engine.submit("bench", cloud) for cloud in stream]

    def batched_run():
        engine = _make_engine(max_batch_size=BATCH_SIZE, cache_capacity=0)
        return lambda: engine.submit_many("bench", stream)

    # Alternate the two modes round by round, each round on fresh engines
    # built outside the timing, after one warm-up round (numpy/scipy lazy
    # initialisation), and compare medians, so a transient load spike hits
    # both modes alike.
    medians, results = ab_medians(
        {"sequential": sequential_run, "batched": batched_run}, rounds=ROUNDS, fresh=True
    )
    sequential_rps = len(stream) / medians["sequential"]
    batched_rps = len(stream) / medians["batched"]
    # Benchmark timing on a fresh engine so pytest-benchmark reports the
    # batched serving path without warm-process effects from above.
    bench_engine = _make_engine(max_batch_size=BATCH_SIZE, cache_capacity=0)
    benchmark.pedantic(lambda: bench_engine.submit_many("bench", stream), rounds=1, iterations=1)

    benchmark.extra_info["sequential_rps"] = round(sequential_rps, 1)
    benchmark.extra_info["batched_rps"] = round(batched_rps, 1)
    benchmark.extra_info["speedup"] = round(batched_rps / sequential_rps, 2)

    assert len(results["batched"]) == len(stream)
    # Same inputs, same labels, regardless of batch composition.
    assert [r.label for r in results["batched"]] == [r.label for r in results["sequential"]]
    assert batched_rps > sequential_rps


def test_cache_hit_rate_and_bit_identity(benchmark):
    """Repeated inputs hit the caches; results match the uncached engine bit-for-bit.

    Bit-identity is asserted in the two regimes where cache state cannot
    change which batch compositions get computed (BLAS kernels are not
    bitwise stable across compositions): a single micro-batched wave, where
    in-batch deduplication is symmetric in both engines, and sequential
    warm-cache serving, where every computation is a canonical batch of one.
    """
    stream = _repeated_stream()

    # (a) One micro-batched wave: identical compute batches with cache on/off.
    cached_engine = _make_engine(max_batch_size=BATCH_SIZE, cache_capacity=256)
    cached_results = benchmark.pedantic(
        lambda: cached_engine.submit_many("bench", stream), rounds=1, iterations=1
    )
    uncached_engine = _make_engine(max_batch_size=BATCH_SIZE, cache_capacity=0)
    uncached_results = uncached_engine.submit_many("bench", stream)
    assert sum(r.from_cache for r in cached_results) > 0  # in-batch dedup served repeats
    for cached, uncached in zip(cached_results, uncached_results):
        assert np.array_equal(cached.logits, uncached.logits)

    # (b) Sequential warm-cache serving: genuine LRU hits, still bit-identical.
    seq_cached = _make_engine(max_batch_size=1, cache_capacity=256)
    seq_uncached = _make_engine(max_batch_size=1, cache_capacity=0)
    seq_cached_results = [seq_cached.submit("bench", cloud) for cloud in stream]
    seq_uncached_results = [seq_uncached.submit("bench", cloud) for cloud in stream]
    for cached, uncached in zip(seq_cached_results, seq_uncached_results):
        assert np.array_equal(cached.logits, uncached.logits)
    stats = seq_cached.cache_stats()
    assert stats["result"].hit_rate > 0
    # Cached serving must skip model executions the uncached engine performs.
    assert (
        seq_cached.telemetry.model("bench").batches
        < seq_uncached.telemetry.model("bench").batches
    )

    # (c) Warm second batched wave: throughput-only measurement (cache hits
    # at admission change batch compositions, so bits are compared above).
    warm_busy_before = cached_engine.telemetry.model("bench").busy.elapsed
    warm_results = cached_engine.submit_many("bench", stream)
    warm_busy = cached_engine.telemetry.model("bench").busy.elapsed - warm_busy_before
    assert all(r.from_cache for r in warm_results)

    benchmark.extra_info["result_cache_hit_rate_sequential"] = round(stats["result"].hit_rate, 3)
    benchmark.extra_info["dedup_served_batched"] = sum(r.from_cache for r in cached_results)
    benchmark.extra_info["warm_wave_model_busy_s"] = round(warm_busy, 6)
    benchmark.extra_info["model_batches_seq_cached"] = seq_cached.telemetry.model("bench").batches
    benchmark.extra_info["model_batches_seq_uncached"] = seq_uncached.telemetry.model("bench").batches
