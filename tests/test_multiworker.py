"""Tests for multi-process serving (repro.serving.pool / frontend / diskcache)."""

from __future__ import annotations

import asyncio
import errno
import json
import logging
import os
import signal
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.hardware.device import get_device
from repro.nas.architecture import Architecture
from repro.nas.presets import dgcnn_architecture, device_fast_architecture
from repro.nn.dtype import default_dtype
from repro.serving import (
    AdmissionError,
    CircuitBreaker,
    DeadlineExceededError,
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    PoolConfig,
    SharedArrayCache,
    WorkerCrashError,
    WorkerPoolEngine,
    deployment_fingerprint,
)
from repro.serving import frontend as frontend_module
from repro.serving.engine import InferenceResult
from repro.serving.frontend import AsyncServingFrontend, _result_message, request_over_tcp
from repro.serving.telemetry import TelemetryStore


def _make_registry(name="model", device="raspberry-pi", num_classes=6, k=6, slo_ms=None, seed=0):
    registry = ModelRegistry()
    registry.register(
        name,
        device_fast_architecture(device),
        get_device(device),
        num_classes=num_classes,
        k=k,
        slo_ms=slo_ms,
        seed=seed,
    )
    return registry


def _clouds(rng, count, num_points=20):
    return [rng.standard_normal((num_points, 3)) for _ in range(count)]


def _line(cloud, model="model"):
    return json.dumps({"model": model, "points": cloud.tolist()}).encode() + b"\n"


async def _exchange(host, port, lines):
    """Send raw request lines over one connection; returns the raw reply lines."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            replies.append(await asyncio.wait_for(reader.readline(), timeout=60))
    finally:
        writer.close()
    return replies


def _serve_lines(pool, lines, frontend=None):
    """Serve raw lines through a TCP frontend over ``pool``; returns ``(replies, frontend)``."""
    frontend = frontend or AsyncServingFrontend(pool)

    async def scenario():
        host, port = await frontend.start(port=0)
        try:
            return await _exchange(host, port, lines)
        finally:
            await frontend.stop()

    return asyncio.run(scenario()), frontend


class _CountingLoads:
    """Counts ``json.loads`` calls by argument, so a request line's decodes can be counted."""

    def __init__(self, monkeypatch):
        self.calls = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            self.calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(frontend_module.json, "loads", counting)

    def count(self, line):
        return sum(call == line for call in self.calls)


class _TornPipe:
    """A worker's result pipe closed under the collector by a racing thread.

    ``recv`` fails as a read on the closed descriptor does, and the first
    ``close`` closes the real pipe and then fails as the second ``os.close``
    of one descriptor does.
    """

    def __init__(self, connection):
        self._connection = connection
        self.close_calls = 0

    def fileno(self):
        return self._connection.fileno()

    @property
    def closed(self):
        return self._connection.closed

    def poll(self, timeout=0.0):
        return self._connection.poll(timeout)

    def recv(self):
        raise OSError(errno.EBADF, "Bad file descriptor")

    def close(self):
        self.close_calls += 1
        was_open = not self._connection.closed
        self._connection.close()
        if was_open:
            raise OSError(errno.EBADF, "Bad file descriptor")


class TestSharedArrayCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        value = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert cache.get("k1") is None
        assert cache.put_if_absent("k1", value)
        np.testing.assert_array_equal(cache.get("k1"), value)
        assert "k1" in cache and len(cache) == 1

    def test_first_write_wins(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.put_if_absent("k", np.array([1.0]))
        assert not cache.put_if_absent("k", np.array([2.0]))
        np.testing.assert_array_equal(cache.get("k"), [1.0])

    def test_two_instances_share_entries(self, tmp_path):
        writer = SharedArrayCache(tmp_path)
        reader = SharedArrayCache(tmp_path)
        writer.put_if_absent("k", np.array([3.0, 4.0]))
        np.testing.assert_array_equal(reader.get("k"), [3.0, 4.0])
        assert reader.stats().hits == 1

    def test_clear_and_stats(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.put_if_absent("a", np.array([1.0]))
        cache.put_if_absent("b", np.array([2.0]))
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.writes == 2


class TestDeploymentFingerprint:
    def test_stable_across_save_load(self, tmp_path):
        registry = _make_registry()
        registry.save(tmp_path / "reg")
        reloaded = ModelRegistry.load(tmp_path / "reg")
        assert deployment_fingerprint(registry.get("model"), "numpy") == deployment_fingerprint(
            reloaded.get("model"), "numpy"
        )

    def test_sensitive_to_weights_and_backend(self):
        entry_a = _make_registry(seed=0).get("model")
        entry_b = _make_registry(seed=99).get("model")
        assert deployment_fingerprint(entry_a, "numpy") != deployment_fingerprint(entry_b, "numpy")
        assert deployment_fingerprint(entry_a, "numpy") != deployment_fingerprint(entry_a, "materialized")


class TestPoolConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -2},
            {"request_timeout_s": 0.0},
            {"request_timeout_s": -1.0},
            {"max_retries": -1},
            {"max_restarts": -1},
            {"restart_backoff_s": -0.5},
            {"heartbeat_interval_s": 0.0},
            {"heartbeat_timeout_s": -1.0},
            {"heartbeat_interval_s": 1.0, "heartbeat_timeout_s": 1.0},  # must exceed the interval
        ],
    )
    def test_invalid_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            PoolConfig(**kwargs)

    def test_defaults_valid(self):
        assert PoolConfig().workers == 2


class TestWorkerPoolEngine:
    def test_serves_across_workers(self, rng):
        registry = _make_registry()
        with WorkerPoolEngine(registry, EngineConfig(max_batch_size=4), PoolConfig(workers=2)) as pool:
            results = pool.submit_many("model", _clouds(rng, 12))
            assert len(results) == 12
            assert all(result.logits.shape == (6,) for result in results)
            assert {result.worker for result in results} <= {0, 1}

    def test_bit_identical_to_in_process_engine(self, rng):
        registry = _make_registry()
        clouds = _clouds(rng, 8)
        # max_batch_size=1 pins the batch composition, the only source of
        # bitwise drift between engines (BLAS is not batch-shape stable).
        engine = InferenceEngine(registry, EngineConfig(max_batch_size=1))
        expected = [engine.submit("model", cloud).logits for cloud in clouds]
        with WorkerPoolEngine(registry, EngineConfig(max_batch_size=1), PoolConfig(workers=2)) as pool:
            results = pool.submit_many("model", clouds)
        for logits, result in zip(expected, results):
            np.testing.assert_array_equal(logits, result.logits)

    def test_serves_the_ambient_float64(self, rng):
        """Workers serve the default dtype in force when the pool is built."""
        clouds = _clouds(rng, 4)
        with default_dtype("float64"):
            registry = _make_registry()
            engine = InferenceEngine(registry, EngineConfig(max_batch_size=1))
            expected = [engine.submit("model", cloud).logits for cloud in clouds]
            with WorkerPoolEngine(registry, EngineConfig(max_batch_size=1), PoolConfig(workers=1)) as pool:
                results = pool.submit_many("model", clouds)
        for logits, result in zip(expected, results):
            assert result.worker == 0
            assert logits.dtype == result.logits.dtype == np.float64
            np.testing.assert_array_equal(logits, result.logits)

    def test_random_sampling_is_bit_identical_across_serving_modes(self, rng, tmp_path):
        """Random graphs at a coordinate layer and a feature layer, seeded from
        the cloud's coordinates and the layer index: cached = uncached = shared
        tier, batched or not, and pooled = in-process."""
        dgcnn = dgcnn_architecture(6)
        architecture = Architecture(
            operations=dgcnn.operations,
            upper_functions=dgcnn.upper_functions.replace(sample_method="random", combine_dim=16),
            lower_functions=dgcnn.lower_functions.replace(sample_method="random", combine_dim=32),
            name="random_dgcnn",
        )
        registry = ModelRegistry()
        registry.register("model", architecture, get_device("tx2"), num_classes=5, k=4)
        clouds = _clouds(rng, 6)

        def serve(batch_size, edge_cache=64, **config):
            config = EngineConfig(
                max_batch_size=batch_size, result_cache_capacity=0, edge_cache_capacity=edge_cache, **config
            )
            return [result.logits for result in InferenceEngine(registry, config).submit_many("model", clouds)]

        # BLAS is not bitwise stable across batch shapes, so each batch size
        # is compared with itself (and across sizes only to a tolerance).
        sequential, batched = serve(1), serve(6)
        for batch_size, expected in ((1, sequential), (6, batched)):
            shared = str(tmp_path / f"batch{batch_size}")
            for other in (
                serve(batch_size, edge_cache=0),
                serve(batch_size, shared_cache_dir=shared),
                serve(batch_size, shared_cache_dir=shared),  # edges read back from the shared tier
            ):
                for want, got in zip(expected, other):
                    np.testing.assert_array_equal(want, got)
        for want, got in zip(sequential, batched):
            np.testing.assert_allclose(want, got, rtol=1e-4, atol=1e-5)
        with WorkerPoolEngine(registry, EngineConfig(max_batch_size=1), PoolConfig(workers=2)) as pool:
            pooled = pool.submit_many("model", clouds)
        for want, result in zip(sequential, pooled):
            np.testing.assert_array_equal(want, result.logits)

    def test_frontend_admission_rejects_before_dispatch(self, rng):
        from repro.obs import get_metrics

        registry = _make_registry(slo_ms=1e-9)
        rejected_before = get_metrics().counter("serving.pool.rejected").value
        with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1)) as pool:
            with pytest.raises(AdmissionError, match="SLO"):
                pool.request("model", _clouds(rng, 1)[0])
            assert pool.submitted == 0  # rejected before any IPC
            assert pool.telemetry.model("model").rejected == 1
        assert get_metrics().counter("serving.pool.rejected").value == rejected_before + 1

    def test_submit_many_return_exceptions(self, rng):
        registry = _make_registry()
        good = _clouds(rng, 2)
        bad = np.full((20, 3), np.nan)
        with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1)) as pool:
            outcomes = pool.submit_many("model", [good[0], bad, good[1]], return_exceptions=True)
        assert outcomes[0].label >= 0 and outcomes[2].label >= 0
        assert isinstance(outcomes[1], ValueError)

    def test_deadline_expires_in_queue(self, rng):
        registry = _make_registry()
        with WorkerPoolEngine(
            registry, EngineConfig(), PoolConfig(workers=1, request_timeout_s=1e-6)
        ) as pool:
            with pytest.raises(DeadlineExceededError):
                pool.request("model", _clouds(rng, 1)[0])

    def test_crash_requeues_to_surviving_worker(self, rng):
        registry = _make_registry()
        pool = WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=2, max_retries=1))
        try:
            # Warm both workers so they are live, then force every new
            # request onto worker 0 by inflating worker 1's load.  Worker 0
            # is paused first, so all three requests are in flight on it,
            # unserved, when it dies.
            pool.submit_many("model", _clouds(rng, 2))
            doomed = pool._workers[0].process
            os.kill(doomed.pid, signal.SIGSTOP)
            pool._workers[1].inflight += 1000
            futures = [pool.submit("model", cloud) for cloud in _clouds(rng, 3)]
            pool._workers[1].inflight -= 1000
            assert [slot.worker_id for slot in pool._inflight.values()] == [0, 0, 0]
            doomed.kill()
            results = [future.result(timeout=60) for future in futures]
            assert all(result.worker == 1 for result in results)
            assert pool.worker_crashes == 1
            assert pool.requeued == 3
        finally:
            pool.shutdown()

    def test_crash_with_no_survivor_fails_future(self, rng):
        registry = _make_registry()
        pool = WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1, max_retries=1))
        try:
            pool.request("model", _clouds(rng, 1)[0])
            pool._workers[0].task_queue.put(("crash",))
            future = pool.submit("model", _clouds(rng, 1)[0])
            with pytest.raises(WorkerCrashError):
                future.result(timeout=60)
        finally:
            pool.shutdown()

    def test_crash_racing_shutdown_resolves_future(self, rng):
        """A worker dying while shutdown() drains must never strand a future."""
        registry = _make_registry()
        pool = WorkerPoolEngine(
            registry,
            EngineConfig(),
            PoolConfig(workers=1, max_retries=0, max_restarts=0, request_timeout_s=10.0),
        )
        pool.request("model", _clouds(rng, 1)[0])  # worker warm and live
        pool._workers[0].task_queue.put(("crash",))
        future = pool.submit("model", _clouds(rng, 1)[0])
        pool.shutdown(timeout=30)
        # The future resolved one way or the other: served before the crash
        # landed, failed by crash detection, or failed by the shutdown sweep.
        assert future.done()
        try:
            result = future.result(timeout=0)
            assert result.logits.shape == (6,)
        except (WorkerCrashError, DeadlineExceededError):
            pass

    def test_deadline_expiry_while_queued_resolves_future(self, rng, monkeypatch):
        """A request a wedged worker never dequeues fails at deadline+grace."""
        from repro.faults import FaultPlan, FaultSpec, use_faults

        # The frontend's sweep reads the grace at call time, in this process.
        monkeypatch.setattr("repro.serving.pool._DEADLINE_GRACE_S", 0.1)
        registry = _make_registry()
        plan = FaultPlan.of(
            FaultSpec(point="serving.worker.serve", action="delay", delay_s=2.0, times=1)
        )
        with use_faults(plan):
            pool = WorkerPoolEngine(
                registry,
                EngineConfig(),
                PoolConfig(
                    workers=1,
                    request_timeout_s=0.3,
                    heartbeat_timeout_s=0.0,  # keep the worker wedged, not restarted
                    max_retries=0,
                ),
            )
        try:
            start = time.monotonic()
            first = pool.submit("model", _clouds(rng, 1)[0])  # trips the 2s stall
            queued = pool.submit("model", _clouds(rng, 1)[0])  # sits behind it
            for future in (first, queued):
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=5)
            # Both futures resolved from the frontend sweep, well before the
            # stalled worker would have gotten to them.
            assert time.monotonic() - start < 1.5
        finally:
            pool.shutdown()

    def test_supervisor_restarts_crashed_worker(self, rng):
        """A fault-plan crash is requeued transparently and the slot restarted."""
        from repro.faults import FaultPlan, FaultSpec, use_faults

        registry = _make_registry()
        plan = FaultPlan.of(
            FaultSpec(point="serving.worker.serve", action="crash", times=1, match={"worker": 0})
        )
        with use_faults(plan):
            pool = WorkerPoolEngine(
                registry,
                EngineConfig(),
                PoolConfig(workers=2, max_retries=1, restart_backoff_s=0.05),
            )
        try:
            results = pool.submit_many("model", _clouds(rng, 8))
            assert len(results) == 8  # the crashed worker's request was requeued
            assert pool.worker_crashes == 1
            deadline = time.monotonic() + 10.0
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.restarts == 1
            # The restarted slot serves again (no fault left in the plan).
            assert len(pool.submit_many("model", _clouds(rng, 6))) == 6
        finally:
            pool.shutdown()

    def test_restart_racing_shutdown_still_stops_the_worker(self):
        """A slot restarted after shutdown sent its stop messages still gets one and exits."""
        pool = WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1))
        worker = pool._workers[0]
        try:
            # Shutdown has begun while the slot was dead, so no stop went to it;
            # the supervisor then restarts the slot.
            pool._shutdown = True
            worker.process.kill()
            worker.process.join(timeout=5.0)
            pool._restart_worker(worker)
            worker.process.join(timeout=10.0)
            assert not worker.process.is_alive()
        finally:
            pool._shutdown = False
            pool.shutdown()

    def test_collector_survives_a_result_pipe_closed_under_it(self, rng):
        """The collector outlives a pipe whose recv and close both fail: the
        slot goes silent and is restarted, requests still resolve and the pool
        shuts down."""
        pool = WorkerPoolEngine(
            _make_registry(),
            EngineConfig(result_cache_capacity=0),
            PoolConfig(workers=2, heartbeat_interval_s=0.05, heartbeat_timeout_s=1.0, restart_backoff_s=0.0),
        )
        try:
            pool.submit_many("model", _clouds(rng, 2))
            torn = _TornPipe(pool._workers[0].results)
            pool._workers[0].results = torn  # ready at the worker's next heartbeat
            deadline = time.monotonic() + 10.0
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert torn.close_calls >= 1
            assert pool._collector.is_alive()
            assert pool.restarts >= 1
            futures = [pool.submit("model", cloud) for cloud in _clouds(rng, 4)]
            assert all(future.result(timeout=10).logits.shape == (6,) for future in futures)
        finally:
            pool.shutdown(timeout=10)
        assert not pool._collector.is_alive()
        assert not any(worker.process.is_alive() for worker in pool._workers)

    def test_worker_whose_pipe_the_frontend_closed_exits_and_is_restarted(self, rng):
        """With the default stall timeout (10 s), a closed result pipe still
        restarts its slot within seconds: the worker holds no read end of its
        own pipe, so its next heartbeat fails and it exits."""
        pool = WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=2))
        try:
            assert pool.pool_config.heartbeat_timeout_s == 10.0
            pool.submit_many("model", _clouds(rng, 2))
            pool._workers[0].results.close()
            deadline = time.monotonic() + 3.0
            while pool.restarts < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.restarts == 1
            assert pool.stalls == 0
            futures = [pool.submit("model", cloud) for cloud in _clouds(rng, 4)]
            assert all(future.result(timeout=10).logits.shape == (6,) for future in futures)
        finally:
            pool.shutdown(timeout=10)
        assert not any(worker.process.is_alive() for worker in pool._workers)

    def test_a_worker_busy_past_the_heartbeat_timeout_is_not_stalled(self, rng):
        """A worker sends no heartbeat while it serves batches back to back; its
        replies are its beats, so the supervisor never declares it stalled."""
        from repro.faults import FaultPlan, FaultSpec, use_faults

        timeout_s, delay_s, count = 1.0, 0.2, 8
        plan = FaultPlan.of(FaultSpec(point="serving.worker.serve", action="delay", delay_s=delay_s, times=0))
        config = EngineConfig(max_batch_size=1, result_cache_capacity=0)
        with use_faults(plan):
            pool = WorkerPoolEngine(
                _make_registry(),
                config,
                PoolConfig(workers=1, heartbeat_interval_s=0.5, heartbeat_timeout_s=timeout_s),
            )
        try:
            pool.request("model", _clouds(rng, 1)[0])  # the worker is up
            started = time.monotonic()
            results = pool.submit_many("model", _clouds(rng, count))
            busy_s = time.monotonic() - started
        finally:
            pool.shutdown()
        assert busy_s > timeout_s
        assert all(result.worker == 0 for result in results)
        assert (pool.stalls, pool.worker_crashes, pool.restarts) == (0, 0, 0)

    def test_in_flight_cap_is_the_engine_queue_depth(self, rng):
        """The frontend admits at most ``EngineConfig.max_queue_depth`` requests in flight."""
        from repro.faults import FaultPlan, FaultSpec, use_faults

        plan = FaultPlan.of(FaultSpec(point="serving.worker.serve", action="delay", delay_s=1.0, times=1))
        with use_faults(plan):
            pool = WorkerPoolEngine(_make_registry(), EngineConfig(max_queue_depth=1), PoolConfig(workers=1))
        try:
            assert pool.admission.max_depth == 1
            held = pool.submit("model", _clouds(rng, 1)[0])  # the worker sleeps 1 s on it
            with pytest.raises(AdmissionError, match="1 requests in flight"):
                pool.submit("model", _clouds(rng, 1)[0])
            assert held.result(timeout=30).logits.shape == (6,)
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_rejected(self, rng):
        registry = _make_registry()
        pool = WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1))
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit("model", _clouds(rng, 1)[0])
        pool.shutdown()  # idempotent

    def test_shared_cache_spans_sequential_pools(self, rng, tmp_path):
        registry = _make_registry()
        clouds = _clouds(rng, 6)
        config = EngineConfig(max_batch_size=2)
        with WorkerPoolEngine(registry, config, PoolConfig(workers=2), root=tmp_path) as pool:
            first = pool.submit_many("model", clouds)
        # A fresh pool over the same root: every request is a disk hit.
        with WorkerPoolEngine(registry, config, PoolConfig(workers=2), root=tmp_path) as pool:
            second = pool.submit_many("model", clouds)
            assert all(result.from_cache for result in second)
        # Worker cache counters arrive with the shutdown snapshots.
        stats = pool.fleet_cache_stats()
        assert stats["shared"].hits >= len(clouds)
        for before, after in zip(first, second):
            np.testing.assert_array_equal(before.logits, after.logits)


class TestFrontendResultTier:
    """The pool frontend answers repeated clouds from its own result tier, before IPC."""

    def test_repeat_answered_in_the_frontend(self, rng):
        registry = _make_registry()
        cloud = _clouds(rng, 1)[0]
        expected = InferenceEngine(registry, EngineConfig(max_batch_size=1)).submit("model", cloud).logits
        with WorkerPoolEngine(registry, EngineConfig(max_batch_size=1), PoolConfig(workers=1)) as pool:
            first = pool.request("model", cloud)
            future = pool.submit("model", cloud)
            assert future.done()  # no dispatch, no wait
            repeat = future.result(timeout=0)
            assert pool.submitted == 1
            pool.shutdown()
        assert first.worker == 0 and not first.from_cache
        assert repeat.from_cache and repeat.worker is None
        assert repeat.latency_ms == 0.0 and repeat.batch_size == 0
        np.testing.assert_array_equal(repeat.logits, first.logits)
        np.testing.assert_array_equal(repeat.logits, expected)
        assert int(pool.fleet_metrics["serving.worker.served"]["value"]) == 1
        assert pool.worker_snapshots[0]["telemetry"]["models"]["model"]["served"]["value"] == 1
        assert pool.fleet_telemetry().model("model").served == 2

    def test_capacity_zero_dispatches_every_request(self, rng):
        cloud = _clouds(rng, 1)[0]
        config = EngineConfig(max_batch_size=1, result_cache_capacity=0)
        with WorkerPoolEngine(_make_registry(), config, PoolConfig(workers=1)) as pool:
            results = [pool.request("model", cloud) for _ in range(3)]
            assert pool.submitted == 3
        assert all(result.worker == 0 for result in results)
        assert [result.from_cache for result in results] == [False, True, True]  # the shared disk tier
        first = results[0]
        for result in results[1:]:
            assert result.label == first.label
            assert result.logits.tobytes() == first.logits.tobytes()
            assert result.probabilities.tobytes() == first.probabilities.tobytes()

    def test_a_hit_is_the_workers_answer_bit_for_bit(self, rng):
        """Hits replay the logits, label and probabilities the worker sent, whatever
        a caller does to a returned result; only a miss makes a future."""
        cloud, other = _clouds(rng, 2)
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            first = pool.request("model", cloud)
            expected = (first.label, first.logits.tobytes(), first.probabilities.tobytes())
            prepared = pool.prepare("model", cloud)
            futures = [pool.submit("model", cloud), pool.submit_prepared(prepared)]
            assert all(isinstance(future, Future) and future.done() for future in futures)
            direct = pool._hit_or_dispatch(prepared)
            assert isinstance(direct, InferenceResult)
            hits = [future.result(timeout=0) for future in futures] + [direct]
            for result in [first] + hits:
                assert result is first or result.worker is None
                assert (result.label, result.logits.tobytes(), result.probabilities.tobytes()) == expected
                result.logits[:] = 99.0
                result.probabilities[:] = 0.0
            again = pool.request("model", cloud)
            miss = pool._hit_or_dispatch(pool.prepare("model", other))
            assert isinstance(miss, Future) and miss.result(timeout=30).worker == 0
        assert again.worker is None
        assert (again.label, again.logits.tobytes(), again.probabilities.tobytes()) == expected

    def test_one_count_per_admitted_request(self, rng):
        clouds = _clouds(rng, 4)
        stream = clouds + [clouds[index % 4] for index in range(6)]
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=2)) as pool:
            results = [pool.request("model", cloud) for cloud in stream]
            pool.shutdown()
        assert [result.from_cache for result in results] == [False] * 4 + [True] * 6
        assert pool.fleet_telemetry().model("model").served == len(stream)
        lookups = pool.fleet_cache_stats()["result"]
        assert (lookups.hits, lookups.misses) == (6, 4)
        assert pool.report()["fleet"]["caches"]["result"]["hits"] == 6

    def test_concurrent_submits_are_bit_identical(self, rng):
        registry = _make_registry()
        clouds = _clouds(rng, 4)
        engine = InferenceEngine(registry, EngineConfig(max_batch_size=1))
        expected = [engine.submit("model", cloud).logits for cloud in clouds]
        replies: list[tuple[int, np.ndarray]] = []
        errors: list[BaseException] = []
        start = threading.Barrier(4)
        with WorkerPoolEngine(registry, EngineConfig(max_batch_size=1), PoolConfig(workers=1)) as pool:

            def client(offset: int) -> None:
                try:
                    start.wait()
                    for index in range(50):
                        which = (index + offset) % len(clouds)
                        replies.append((which, pool.submit("model", clouds[which]).result(timeout=60).logits))
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            pool.shutdown()
        assert errors == []
        assert len(replies) == 200
        for which, logits in replies:
            np.testing.assert_array_equal(logits, expected[which])
        assert pool.fleet_telemetry().model("model").served == 200
        lookups = pool.fleet_cache_stats()["result"]
        assert lookups.hits + lookups.misses == 200

    def test_fleet_throughput_counts_frontend_hits(self, rng):
        cloud = _clouds(rng, 1)[0]
        hits, gap_s = 30, 0.002
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            started = time.perf_counter()
            pool.request("model", cloud)
            for _ in range(hits):
                time.sleep(gap_s)
                assert pool.request("model", cloud).worker is None
            wall_s = time.perf_counter() - started
            pool.shutdown()
        fleet = pool.fleet_telemetry().model("model")
        served = hits + 1
        assert fleet.served == served
        assert served / wall_s <= fleet.throughput_rps <= served / (hits * gap_s)

    def test_replace_on_the_frontend_registry_keeps_snapshot_keys(self, rng):
        """Workers serve the snapshot taken at construction; a later replace=True on the
        frontend's registry object must not key their logits under the new weights."""
        registry = _make_registry()
        cloud = _clouds(rng, 1)[0]
        with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1)) as pool:
            first = pool.request("model", cloud)
            old = registry.get("model")
            registry.register(
                "model", old.architecture, old.device, num_classes=old.num_classes, k=old.k, seed=99, replace=True
            )
            repeat = pool.request("model", cloud)
        assert repeat.worker is None
        np.testing.assert_array_equal(repeat.logits, first.logits)
        assert pool._content_keys["model"] == deployment_fingerprint(old, "numpy")


class TestFleetTelemetry:
    def test_three_worker_merge_sums_and_percentiles(self, rng):
        """Satellite: N-way merge through ≥3 real worker processes."""
        registry = _make_registry()
        pool = WorkerPoolEngine(registry, EngineConfig(max_batch_size=2), PoolConfig(workers=3))
        try:
            results = pool.submit_many("model", _clouds(rng, 18))
            assert len({result.worker for result in results}) >= 2
        finally:
            pool.shutdown()
        assert sorted(pool.worker_snapshots) == [0, 1, 2]
        per_worker_served = []
        latencies: list[float] = []
        for snapshot in pool.worker_snapshots.values():
            models = snapshot["telemetry"]["models"]
            if "model" in models:
                per_worker_served.append(int(models["model"]["served"]["value"]))
                latencies.extend(models["model"]["latency"]["window"])
        fleet = pool.fleet_telemetry().model("model")
        # Counter sums: fleet served equals the sum of per-worker counts,
        # which equals the number of requests (nothing double-counted).
        assert fleet.served == sum(per_worker_served) == 18
        # Histogram coherence: the merged window is the concatenation of the
        # worker windows, so percentiles match a direct computation.
        assert len(latencies) == 18
        merged = fleet.latency_percentiles()
        for key, rank in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            assert merged[key] == pytest.approx(float(np.percentile(latencies, rank)))

    def test_fleet_window_keeps_every_process(self):
        """Merged full windows all survive, not only the last-merged process's."""
        fast, slow = TelemetryStore(), TelemetryStore()
        for _ in range(1024):
            fast.model("model").record_request(latency_ms=1.0, queue_ms=0.0, from_cache=False)
            slow.model("model").record_request(latency_ms=100.0, queue_ms=0.0, from_cache=False)
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            pool.shutdown()
        pool.worker_snapshots = {0: {"telemetry": fast.snapshot()}, 1: {"telemetry": slow.snapshot()}}
        fleet = pool.fleet_telemetry().model("model")
        assert fleet.served == 2048
        assert fleet.latency_percentiles((25.0, 75.0)) == {"p25": 1.0, "p75": 100.0}

    def test_report_includes_per_worker_breakdown(self, rng):
        registry = _make_registry()
        with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=2)) as pool:
            pool.submit_many("model", _clouds(rng, 8))
            pool.shutdown()
            report = pool.report()
        assert set(report["workers"]) == {0, 1}
        assert report["frontend"]["submitted"] == 8
        total = sum(
            worker_report["models"]["model"]["served"]
            for worker_report in report["workers"].values()
            if "model" in worker_report["models"]
        )
        assert total == 8
        assert "fleet telemetry" in pool.format_report()

    def test_shutdown_reads_snapshots_of_workers_that_already_exited(self, rng, monkeypatch):
        """A worker may exit before the collector reads its shutdown snapshot:
        that is neither a crash nor the end of the pool."""
        on_bye = WorkerPoolEngine._on_bye

        def slow_on_bye(pool, worker_id, snapshot):
            on_bye(pool, worker_id, snapshot)
            time.sleep(0.3)  # the other worker sends its snapshot and exits meanwhile

        monkeypatch.setattr(WorkerPoolEngine, "_on_bye", slow_on_bye)
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=2)) as pool:
            pool.submit_many("model", _clouds(rng, 4))
            pool.shutdown()
        assert sorted(pool.worker_snapshots) == [0, 1]
        assert pool.worker_crashes == 0

    def test_fleet_metrics_merge_worker_counters(self, rng):
        registry = _make_registry()
        with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=2)) as pool:
            pool.submit_many("model", _clouds(rng, 6))
            pool.shutdown()
        merged = pool.fleet_metrics
        assert merged, "worker metrics snapshots should merge into a fleet view"
        served = merged.get("serving.worker.served")
        assert served is not None and int(served["value"]) == 6


class TestAsyncFrontend:
    def test_tcp_round_trip_and_errors(self, rng):
        registry = _make_registry()

        async def scenario():
            with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=2)) as pool:
                frontend = AsyncServingFrontend(pool)
                host, port = await frontend.start(port=0)
                requests = [
                    {"model": "model", "points": cloud.tolist()} for cloud in _clouds(rng, 4)
                ]
                requests.append({"model": "missing", "points": requests[0]["points"]})
                requests.append({"points": "not-a-cloud"})
                responses = await request_over_tcp(host, port, requests)
                await frontend.stop()
                return responses, frontend

        responses, frontend = asyncio.run(scenario())
        served = [response for response in responses if response["ok"]]
        failed = [response for response in responses if not response["ok"]]
        assert len(served) == 4 and frontend.requests_served == 4
        assert all(len(response["logits"]) == 6 for response in served)
        assert {response["error"] for response in failed} == {"KeyError", "BadRequest"}

    def test_tcp_hot_repeat_equals_first_reply(self, rng):
        registry = _make_registry()
        line = {"model": "model", "points": _clouds(rng, 1)[0].tolist()}

        async def scenario():
            with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1)) as pool:
                frontend = AsyncServingFrontend(pool)
                host, port = await frontend.start(port=0)
                responses = await request_over_tcp(host, port, [line, line])
                await frontend.stop()
                return responses, pool.submitted

        (first, repeat), dispatched = asyncio.run(scenario())
        assert first["ok"] and repeat["ok"] and dispatched == 1
        assert first["worker"] == 0 and not first["from_cache"]
        assert repeat["worker"] is None and repeat["from_cache"]
        assert repeat["logits"] == first["logits"]

    def test_tcp_admission_and_breaker_with_frontend_hits(self, rng):
        """A full frontend and an open breaker refuse a hot cloud as before; a hit
        probe leaves a half-open breaker half-open, a served miss closes it."""
        hot, cold = ({"model": "model", "points": cloud.tolist()} for cloud in _clouds(rng, 2))
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=lambda: now[0])

        async def scenario():
            with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
                frontend = AsyncServingFrontend(pool, circuit_breaker=breaker)
                host, port = await frontend.start(port=0)
                replies = await request_over_tcp(host, port, [hot, hot])
                pool.admission.max_depth = 0  # at capacity
                replies += await request_over_tcp(host, port, [hot])
                pool.admission.max_depth = pool.config.max_queue_depth
                breaker.record_failure()  # open
                replies += await request_over_tcp(host, port, [hot])
                now[0] = 5.0  # half-open
                replies += await request_over_tcp(host, port, [hot, hot])
                states = [breaker.state]
                replies += await request_over_tcp(host, port, [cold])
                states.append(breaker.state)
                await frontend.stop()
            return replies, states

        replies, states = asyncio.run(scenario())
        assert [reply.get("error") for reply in replies] == [
            None, None, "AdmissionError", "CircuitOpenError", None, None, None
        ]
        assert [reply.get("worker") for reply in replies] == [0, None, None, None, None, None, 0]
        assert states == ["half-open", "closed"]

    @pytest.mark.parametrize(
        "error",
        [AdmissionError("full"), DeadlineExceededError("late"), ValueError("bad cloud"), KeyError("missing")],
        ids=["admission", "deadline", "value", "key"],
    )
    def test_rejected_probe_hands_the_slot_back(self, error):
        """A half-open probe that fails without reaching a worker leaves the breaker half-open."""
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=lambda: now[0])
        served = InferenceResult(
            request_id=0, model="model", label=0, logits=np.zeros(2), probabilities=np.full(2, 0.5),
            latency_ms=1.0, queue_ms=0.0, batch_size=1, from_cache=False, estimated_device_ms=1.0, worker=0,
        )

        class FakePool:
            def __init__(self):
                self.outcome = error

            def submit(self, model, points):
                if self.outcome is not None:
                    raise self.outcome
                future = Future()
                future.set_result(served)
                return future

        pool = FakePool()
        frontend = AsyncServingFrontend(pool, circuit_breaker=breaker)
        breaker.record_failure()  # open
        now[0] = 5.0  # half-open: the next request probes and is rejected
        with pytest.raises(type(error)):
            asyncio.run(frontend.submit("model", np.zeros((4, 3))))
        assert breaker.state == "half-open"
        now[0] = 100.0
        pool.outcome = None
        assert asyncio.run(frontend.submit("model", np.zeros((4, 3)))) is served
        assert breaker.state == "closed"

    def test_repeated_hot_line_is_decoded_once(self, rng, monkeypatch):
        """Once the result tier answers a line, its decode is reused and the replies stay bit-identical."""
        from repro.obs import get_metrics

        line = _line(_clouds(rng, 1)[0])
        loads = _CountingLoads(monkeypatch)
        reused_before = get_metrics().counter("serving.frontend.decoded_reused").value
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            replies, frontend = _serve_lines(pool, [line] * 5)
            assert pool.submitted == 1
        # The miss and the first result-tier hit decode; every later repeat reuses.
        assert loads.count(line) == 2
        assert get_metrics().counter("serving.frontend.decoded_reused").value == reused_before + 3
        assert json.loads(replies[0])["worker"] == 0
        assert json.loads(replies[1])["worker"] is None
        assert replies[2:] == [replies[1]] * 3
        assert json.loads(replies[1])["logits"] == json.loads(replies[0])["logits"]
        assert frontend.requests_served == 5 and list(frontend._hot) == [(line, np.dtype(np.float32))]

    def test_failed_lines_are_never_stored(self, rng, monkeypatch):
        cloud = _clouds(rng, 1)[0]
        nan_cloud = cloud.copy()
        nan_cloud[0, 0] = np.nan
        bad = [b"not json\n", _line(nan_cloud), _line(cloud, model="missing")]
        loads = _CountingLoads(monkeypatch)
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            replies, frontend = _serve_lines(pool, [line for line in bad for _ in range(2)])
            assert pool.submitted == 0
        errors = [json.loads(reply)["error"] for reply in replies]
        assert errors == ["BadRequest", "BadRequest", "ValueError", "ValueError", "KeyError", "KeyError"]
        assert replies[0::2] == replies[1::2]
        assert all(loads.count(line) == 2 for line in bad)
        assert not frontend._hot and frontend.requests_failed == 6

    def test_capacity_zero_stores_nothing(self, rng):
        line = _line(_clouds(rng, 1)[0])
        config = EngineConfig(result_cache_capacity=0)
        with WorkerPoolEngine(_make_registry(), config, PoolConfig(workers=1)) as pool:
            replies, frontend = _serve_lines(pool, [line] * 3)
        assert [json.loads(reply)["worker"] for reply in replies] == [0, 0, 0]
        assert not frontend._hot

    def test_memo_is_bounded_and_evicts_the_oldest(self, rng):
        a, b, c = (_line(cloud) for cloud in _clouds(rng, 3))
        float32 = np.dtype(np.float32)
        config = EngineConfig(result_cache_capacity=2)
        with WorkerPoolEngine(_make_registry(), config, PoolConfig(workers=1)) as pool:
            frontend = AsyncServingFrontend(pool)
            sizes = []
            for lines in ([a, a], [b, b], [a], [c, c]):
                _serve_lines(pool, lines, frontend)
                sizes.append(len(frontend._hot))
            # A reuse refreshes a's place, so c evicts b, the least recently used.
            assert list(frontend._hot) == [(a, float32), (c, float32)]
        assert sizes == [1, 2, 2, 2]
        assert all(not hot.request.points.flags.writeable for hot in frontend._hot.values())

    def test_a_line_is_decoded_again_under_another_dtype(self, rng, monkeypatch):
        line = _line(_clouds(rng, 1)[0])
        loads = _CountingLoads(monkeypatch)
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            frontend = AsyncServingFrontend(pool)

            async def handle(times):
                return [json.loads(await frontend._handle_line(line)) for _ in range(times)]

            float32_replies = asyncio.run(handle(3))
            with default_dtype("float64"):
                float64_replies = asyncio.run(handle(3))
        assert all(reply["ok"] for reply in float32_replies + float64_replies)
        assert loads.count(line) == 4
        stored = {dtype: hot.request.points for (_, dtype), hot in frontend._hot.items()}
        assert set(stored) == {np.dtype(np.float32), np.dtype(np.float64)}
        assert all(points.dtype == dtype and not points.flags.writeable for dtype, points in stored.items())

    def test_reused_reply_is_the_fresh_encoding_and_the_cloud_is_hashed_per_decode(self, rng, monkeypatch):
        """A hot line's reply bytes are replayed, byte-equal to a fresh ``json.dumps``,
        and its cloud is fingerprinted when decoded, not on every request."""
        from repro.obs import get_metrics
        from repro.serving import engine as engine_module

        cloud = _clouds(rng, 1)[0]
        line = _line(cloud)
        hashed = []
        fingerprint = engine_module.cloud_fingerprint

        def counting(points, *args, **kwargs):
            hashed.append(points.shape)
            return fingerprint(points, *args, **kwargs)

        monkeypatch.setattr(engine_module, "cloud_fingerprint", counting)
        reused_before = get_metrics().counter("serving.frontend.reply_reused").value
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            replies, _ = _serve_lines(pool, [line] * 5)
            # The miss and the first result-tier hit decode and hash; the three repeats reuse both.
            assert len(hashed) == 2
            fresh = pool.request("model", cloud)
        assert get_metrics().counter("serving.frontend.reply_reused").value == reused_before + 3
        assert fresh.worker is None
        assert replies[1:] == [json.dumps(_result_message(fresh)).encode() + b"\n"] * 4

    @pytest.mark.parametrize("replacement", ["other_bits", "nan"])
    def test_a_replaced_tier_entry_gets_a_fresh_encoding(self, rng, replacement):
        """A tier entry replaced by other logits is encoded afresh; NaN logits are never replayed."""
        from repro.obs import get_metrics

        line = _line(_clouds(rng, 1)[0])
        metric = get_metrics().counter("serving.frontend.reply_reused")
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            frontend = AsyncServingFrontend(pool)
            first, _ = _serve_lines(pool, [line] * 3, frontend)
            (hot,) = frontend._hot.values()
            old = pool.result_cache.cache.get(hot.request.key).logits
            new = old + np.float32(1.0) if replacement == "other_bits" else np.full_like(old, np.nan)
            pool.result_cache.cache.clear()
            pool.result_cache.store(hot.request.key, new)
            reused_before = metric.value
            second, _ = _serve_lines(pool, [line] * 3, frontend)
            fresh = pool.request("model", hot.request.points)
        expected = json.dumps(_result_message(fresh)).encode() + b"\n"
        assert first[1] == first[2] != expected
        assert second == [expected] * 3
        assert np.asarray(fresh.logits).tobytes() == new.tobytes()
        if replacement == "other_bits":
            assert metric.value == reused_before + 2 and hot.reply == expected
        else:
            assert metric.value == reused_before and hot.reply is None

    def test_a_hot_line_is_admitted_against_the_current_registry_entry(self, rng):
        """A hot line prepared before a ``replace=True`` is admitted as a fresh decode would be."""
        registry = _make_registry()
        line = _line(_clouds(rng, 1)[0])
        with WorkerPoolEngine(registry, EngineConfig(), PoolConfig(workers=1)) as pool:
            frontend = AsyncServingFrontend(pool)
            before, _ = _serve_lines(pool, [line] * 3, frontend)
            old = registry.get("model")
            registry.register(
                "model", old.architecture, old.device, num_classes=old.num_classes, k=old.k, slo_ms=1e-9, replace=True
            )
            after, _ = _serve_lines(pool, [line], frontend)
        assert [json.loads(reply)["ok"] for reply in before] == [True] * 3
        assert json.loads(after[0])["error"] == "AdmissionError"

    def test_stop_closes_a_connection_left_open(self, rng, caplog):
        """Stopping the server ends the handler of a connection the client left
        open, so asyncio logs no cancelled-callback error when the loop closes."""
        line = _line(_clouds(rng, 1)[0])

        async def scenario(pool):
            frontend = AsyncServingFrontend(pool)
            host, port = await frontend.start(port=0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(line)
                await writer.drain()
                reply = await asyncio.wait_for(reader.readline(), timeout=60)
                await frontend.stop()
                return reply
            finally:
                writer.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
                reply = asyncio.run(scenario(pool))
        assert json.loads(reply)["ok"]
        assert [record.getMessage() for record in caplog.records if record.levelno >= logging.ERROR] == []

    def test_stop_returns_while_a_peer_is_not_reading(self, rng):
        """A peer that sends requests but reads no replies blocks its handler on a
        full send buffer; stop drops those replies instead of waiting for it."""
        import socket

        line, count = _line(_clouds(rng, 1)[0]), 30_000

        async def scenario(pool):
            frontend = AsyncServingFrontend(pool)
            host, port = await frontend.start(port=0)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            _, writer = await asyncio.open_connection(sock=sock)
            try:
                writer.write(line * count)
                served = -1
                for _ in range(100):  # until the handler blocks
                    if served == frontend.requests_served > 0:
                        break
                    served = frontend.requests_served
                    await asyncio.sleep(0.2)
                await asyncio.wait_for(frontend.stop(), timeout=10)
                return served
            finally:
                writer.transport.abort()

        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            served = asyncio.run(scenario(pool))
        assert 0 < served < count

    def test_paper_sized_cloud_over_tcp(self, rng):
        """A 1024-point line is past asyncio's 64 KiB default ``StreamReader`` limit."""
        cloud = rng.standard_normal((1024, 3)) * 1e-2
        line = _line(cloud)
        assert len(line) > 64 * 1024
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            (reply,), _ = _serve_lines(pool, [line])
            expected = pool.request("model", cloud)
        reply = json.loads(reply)
        assert reply["ok"] and reply["worker"] == 0
        assert expected.worker is None  # the decoded cloud keyed the same result-tier entry
        assert reply["logits"] == np.asarray(expected.logits).tolist()

    @pytest.mark.parametrize("margin", [2, 60_000], ids=["line-buffered", "line-in-pieces"])
    def test_over_limit_line_gets_bad_request_and_the_connection_goes_on(self, rng, monkeypatch, margin):
        big, small = _line(rng.standard_normal((1024, 3))), _line(_clouds(rng, 1)[0])
        monkeypatch.setattr(frontend_module, "MAX_LINE_BYTES", len(big) - margin)
        with WorkerPoolEngine(_make_registry(), EngineConfig(), PoolConfig(workers=1)) as pool:
            replies, frontend = _serve_lines(pool, [big, small, big])
            assert pool.submitted == 1
        over, served, again = (json.loads(reply) for reply in replies)
        assert over["error"] == "BadRequest" and "longer than" in over["message"]
        assert served["ok"] and again == over
        assert frontend.requests_served == 1 and frontend.requests_failed == 2

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_reply_logits_match_the_per_element_construction(self, rng, dtype):
        logits = rng.standard_normal(40).astype(dtype)
        logits[:3] = [0.0, -0.0, 1e-40]
        result = InferenceResult(
            request_id=0, model="model", label=0, logits=logits, probabilities=logits,
            latency_ms=1.0, queue_ms=0.0, batch_size=1, from_cache=False, estimated_device_ms=1.0, worker=0,
        )
        message = _result_message(result)
        reference = dict(message, logits=[float(value) for value in logits])
        assert json.dumps(message).encode() == json.dumps(reference).encode()

    def test_async_submit_matches_sync(self, rng):
        registry = _make_registry()
        cloud = _clouds(rng, 1)[0]

        async def scenario(pool):
            frontend = AsyncServingFrontend(pool)
            return await frontend.submit("model", cloud)

        engine = InferenceEngine(registry, EngineConfig(max_batch_size=1))
        expected = engine.submit("model", cloud)
        with WorkerPoolEngine(registry, EngineConfig(max_batch_size=1), PoolConfig(workers=1)) as pool:
            result = asyncio.run(scenario(pool))
        np.testing.assert_array_equal(expected.logits, result.logits)


class TestWorkspacePoolServing:
    def test_serve_pool_reports_fleet_view(self, rng, tmp_path):
        from repro.workspace import Workspace

        workspace = Workspace(device="raspberry-pi", root=tmp_path)
        workspace.deploy(device_fast_architecture("raspberry-pi"), num_classes=6, name="demo")
        report = workspace.serve_pool(
            _clouds(rng, 6), name="demo", pool_config=PoolConfig(workers=2)
        )
        assert len(report.results) == 6
        assert report.workers == 2
        assert report.telemetry["frontend"]["submitted"] == 6
        # The shared tier lives under the workspace root and survives the pool.
        assert (tmp_path / "serving_cache").is_dir()
