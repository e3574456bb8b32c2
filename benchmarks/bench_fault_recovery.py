"""Fault-recovery gates: chaos serving and search resume, both bit-identical.

Gate 1 (serving): a 3-worker pool runs under an injected fault plan — one
worker crash, one worker stall (killed by the heartbeat supervisor) and
one corrupted shared-cache entry (quarantined and recomputed) — and must
still serve 100% of the request stream with logits bit-identical to a
fault-free run, restart the dead slots, and never hang a caller past the
request deadline.

Gate 2 (search): a multi-stage search killed at a checkpoint commit and
resumed from disk (``Workspace.search(resume=True)``) must reproduce the
uninterrupted run exactly — genotype, score, virtual-clock search time
and the full best-so-far history.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.data import make_synthetic_modelnet
from repro.faults import FaultPlan, FaultSpec, InjectedFault, use_faults
from repro.hardware import get_device
from repro.nas import HGNASConfig, device_fast_architecture
from repro.serving import EngineConfig, InferenceEngine, ModelRegistry, PoolConfig, WorkerPoolEngine
from repro.workspace import Workspace

NUM_REQUESTS = 18
NUM_POINTS = 48
K = 6
NUM_CLASSES = 6
CHAOS_WALL_LIMIT_S = 30.0


def _make_registry() -> ModelRegistry:
    registry = ModelRegistry()
    registry.register(
        "bench",
        device_fast_architecture("jetson-tx2"),
        get_device("jetson-tx2"),
        num_classes=NUM_CLASSES,
        k=K,
    )
    return registry


def _unique_stream(count: int = NUM_REQUESTS, num_points: int = NUM_POINTS) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.standard_normal((num_points, 3)) for _ in range(count)]


def _chaos_pool_config() -> PoolConfig:
    return PoolConfig(
        workers=3,
        request_timeout_s=60.0,
        max_retries=3,  # a request may be orphaned by the crash *and* the stall
        restart_backoff_s=0.05,
        heartbeat_interval_s=0.3,
        heartbeat_timeout_s=1.0,  # the 3s stall below is killed, not waited out
    )


def test_chaos_pool_serves_everything_bit_identical(benchmark, tmp_path):
    """Gate 1: crash + stall + corrupt cache entry; 100% served, bit-identical."""
    registry = _make_registry()
    stream = _unique_stream()
    # max_batch_size=1 pins every computation to a canonical batch of one,
    # the regime where bitwise comparison across serving runs is defined.
    engine_config = EngineConfig(max_batch_size=1)
    expected = [InferenceEngine(registry, engine_config).submit("bench", cloud).logits for cloud in stream]

    # Fault-free pool pass over the same root: populates the shared cache
    # tier the chaos pass will read (and have one entry of corrupted).
    with WorkerPoolEngine(registry, engine_config, _chaos_pool_config(), root=tmp_path) as pool:
        warm = pool.submit_many("bench", stream)
    for logits, result in zip(expected, warm):
        assert np.array_equal(logits, result.logits)
    cache_entries = sorted((tmp_path / "serving_cache" / "results").glob("*/*.npy"))
    assert cache_entries, "the fault-free pass must populate the shared cache"
    corrupt_key = cache_entries[0].stem
    # Garble the committed bytes directly (bit rot): whichever worker reads
    # this key must quarantine the entry and recompute.  The plan's corrupt
    # spec covers the same key for workers that carry the injector.
    cache_entries[0].write_bytes(b"\x00corrupt\x00")

    plan = FaultPlan.of(
        # Worker 1 hard-crashes on its third request (os._exit, no cleanup).
        FaultSpec(point="serving.worker.serve", action="crash", after=2, times=1, match={"worker": 1}),
        # Worker 2 wedges for 3s on its first request; the supervisor's 1s
        # heartbeat timeout kills and restarts it instead of waiting.
        FaultSpec(point="serving.worker.serve", action="delay", delay_s=3.0, times=1, match={"worker": 2}),
        # One shared-cache entry is garbled on read: quarantined + recomputed.
        FaultSpec(point="serving.diskcache.get", action="corrupt", times=1, match={"key": corrupt_key}),
    )
    with use_faults(plan):
        pool = WorkerPoolEngine(registry, engine_config, _chaos_pool_config(), root=tmp_path)
    try:
        start = time.perf_counter()
        results = benchmark.pedantic(lambda: pool.submit_many("bench", stream), rounds=1, iterations=1)
        elapsed = time.perf_counter() - start
        # 100% of the stream served, every response bit-identical.
        assert len(results) == len(stream)
        for logits, result in zip(expected, results):
            assert np.array_equal(logits, result.logits)
        # The injected faults actually happened and were recovered from.
        assert pool.worker_crashes >= 2  # the crash and the stall-kill
        assert pool.stalls >= 1
        deadline = time.monotonic() + 10.0
        while pool.restarts < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.restarts >= 2, "both dead slots must be restarted"
        # No caller waited past the request deadline (nothing hung).
        assert elapsed < CHAOS_WALL_LIMIT_S
        benchmark.extra_info["served"] = len(results)
        benchmark.extra_info["worker_crashes"] = pool.worker_crashes
        benchmark.extra_info["stalls"] = pool.stalls
        benchmark.extra_info["restarts"] = pool.restarts
        benchmark.extra_info["chaos_wall_s"] = round(elapsed, 2)
    finally:
        pool.shutdown()
    quarantined = sorted((tmp_path / "serving_cache" / "results").glob("*/*.npy.corrupt"))
    assert len(quarantined) == 1 and quarantined[0].stem.startswith(corrupt_key)


def _search_config(num_classes: int) -> HGNASConfig:
    return HGNASConfig(
        num_positions=6,
        hidden_dim=12,
        supernet_k=4,
        num_classes=num_classes,
        population_size=4,
        function_iterations=2,
        operation_iterations=2,
        function_epochs=1,
        operation_epochs=1,
        batch_size=5,
        eval_max_batches=1,
        paths_per_function_eval=1,
        seed=0,
    )


def test_search_resume_bit_identical(benchmark, tmp_path):
    """Gate 2: a search killed at a checkpoint resumes to the same result."""
    train, test = make_synthetic_modelnet(num_classes=4, samples_per_class=5, num_points=24, seed=0)
    config = _search_config(train.num_classes)

    baseline = Workspace(device="jetson-tx2", root=tmp_path / "baseline").search(train, test, config=config)

    # The error spec at the checkpoint fault point simulates a SIGKILL
    # landing right after the fourth commit; the committed entry survives.
    interrupted_root = tmp_path / "interrupted"
    plan = FaultPlan.of(FaultSpec(point="nas.search.checkpoint", action="error", after=3, times=1))
    with use_faults(plan):
        with pytest.raises(InjectedFault):
            Workspace(device="jetson-tx2", root=interrupted_root).search(train, test, config=config)

    resumed = benchmark.pedantic(
        lambda: Workspace(device="jetson-tx2", root=interrupted_root).search(
            train, test, config=config, resume=True
        ),
        rounds=1,
        iterations=1,
    )

    assert resumed.best_architecture.to_dict() == baseline.best_architecture.to_dict()
    assert resumed.best_score == baseline.best_score
    assert resumed.best_accuracy == baseline.best_accuracy
    assert resumed.best_latency_ms == baseline.best_latency_ms
    assert resumed.search_time_s == baseline.search_time_s
    assert [(p.iteration, p.best_score, p.clock_s) for p in resumed.history] == [
        (p.iteration, p.best_score, p.clock_s) for p in baseline.history
    ]
    benchmark.extra_info["best_score"] = round(baseline.best_score, 6)
    benchmark.extra_info["search_time_s"] = round(baseline.search_time_s, 3)
