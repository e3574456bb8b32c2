"""Tests for the deterministic fault-injection harness and the recovery
paths it drives: plan semantics, activation, corrupt-store quarantine,
client-side resilience policies and checkpoint/resume of the search."""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

import repro.faults.injector as injector_module
import repro.workspace.store as store_module
from repro.faults import (
    ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_point,
    get_injector,
    reset_faults,
    use_faults,
)
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.hardware import get_device
from repro.nas import HGNAS, HGNASConfig, MeasurementLatencyEvaluator, OracleLatencyEvaluator
from repro.nas.checkpoint import CHECKPOINT_STAGE, SearchCheckpointer
from repro.serving import CircuitBreaker, CircuitOpenError, RetryPolicy, SharedArrayCache
from repro.serving.frontend import AsyncServingFrontend, FrontendTimeoutError, request_over_tcp
from repro.utils.serialization import to_jsonable
from repro.workspace.store import ArtifactStore


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Every test starts and ends with no plan active and no env leakage."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_faults()
    yield
    reset_faults()


# ---------------------------------------------------------------------- #
# Plan data model
# ---------------------------------------------------------------------- #
class TestFaultSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point": "", "action": "error"},
            {"point": "p", "action": "segfault"},
            {"point": "p", "action": "error", "after": -1},
            {"point": "p", "action": "error", "times": -1},
            {"point": "p", "action": "delay", "delay_s": -0.5},
            {"point": "p", "action": "error", "probability": 0.0},
            {"point": "p", "action": "error", "probability": 1.5},
        ],
    )
    def test_invalid_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_match_requires_every_item(self):
        spec = FaultSpec(point="p", action="drop", match={"worker": 1, "model": "m"})
        assert spec.matches({"worker": 1, "model": "m", "extra": 0})
        assert not spec.matches({"worker": 1})
        assert not spec.matches({"worker": 2, "model": "m"})
        assert FaultSpec(point="p", action="drop").matches({})

    def test_plan_json_round_trip(self):
        plan = FaultPlan.of(
            FaultSpec(point="a.b", action="crash", after=3, times=1, match={"worker": 0}),
            FaultSpec(point="c.d", action="delay", delay_s=0.25, probability=0.5, seed=7),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


# ---------------------------------------------------------------------- #
# Injector semantics
# ---------------------------------------------------------------------- #
class TestFaultInjector:
    def test_after_and_times_window(self):
        injector = FaultInjector(FaultPlan.of(FaultSpec(point="p", action="drop", after=2, times=2)))
        fired = [injector.fire("p") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert injector.history == [("p", "drop"), ("p", "drop")]

    def test_times_zero_is_unlimited(self):
        injector = FaultInjector(FaultPlan.of(FaultSpec(point="p", action="drop", times=0)))
        assert all(injector.fire("p") is not None for _ in range(5))

    def test_match_scopes_hit_counting(self):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(point="p", action="drop", after=1, times=1, match={"worker": 1}))
        )
        # Non-matching visits never consume the 'after' window.
        assert injector.fire("p", worker=0) is None
        assert injector.fire("p", worker=0) is None
        assert injector.fire("p", worker=1) is None  # first matching visit: skipped by after=1
        assert injector.fire("p", worker=1) is not None
        assert injector.fire("p", worker=1) is None  # times exhausted

    def test_first_matching_spec_wins_then_falls_through(self):
        injector = FaultInjector(
            FaultPlan.of(
                FaultSpec(point="p", action="drop", times=1),
                FaultSpec(point="p", action="corrupt", times=1),
            )
        )
        assert injector.fire("p").action == "drop"
        assert injector.fire("p").action == "corrupt"
        assert injector.fire("p") is None

    def test_probability_is_seeded_and_replayable(self):
        spec = FaultSpec(point="p", action="drop", times=0, probability=0.4, seed=11)
        injector_a = FaultInjector(FaultPlan.of(spec))
        injector_b = FaultInjector(FaultPlan.of(spec))
        pattern_a = [injector_a.fire("p") is not None for _ in range(40)]
        pattern_b = [injector_b.fire("p") is not None for _ in range(40)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_error_action_raises_injected_fault(self):
        injector = FaultInjector(FaultPlan.of(FaultSpec(point="p.q", action="error", message="boom")))
        with pytest.raises(InjectedFault) as excinfo:
            injector.fire("p.q")
        assert excinfo.value.point == "p.q"
        assert "boom" in str(excinfo.value)

    def test_delay_action_sleeps(self):
        injector = FaultInjector(FaultPlan.of(FaultSpec(point="p", action="delay", delay_s=0.05)))
        start = time.perf_counter()
        assert injector.fire("p").action == "delay"
        assert time.perf_counter() - start >= 0.05


# ---------------------------------------------------------------------- #
# Activation: context manager and environment
# ---------------------------------------------------------------------- #
class TestActivation:
    def test_fault_point_is_noop_without_plan(self):
        assert fault_point("anything.here", worker=3) is None

    def test_use_faults_activates_and_restores(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(point="p", action="drop", times=0))
        assert get_injector() is None
        with use_faults(plan) as injector:
            assert get_injector() is injector
            assert fault_point("p") is not None
            # Children spawned inside the context inherit the plan via env.
            assert FaultPlan.from_json(injector_module.os.environ[ENV_VAR]) == plan
        assert get_injector() is None
        assert ENV_VAR not in injector_module.os.environ

    def test_use_faults_nests(self):
        outer = FaultPlan.of(FaultSpec(point="outer", action="drop", times=0))
        inner = FaultPlan.of(FaultSpec(point="inner", action="drop", times=0))
        with use_faults(outer):
            with use_faults(inner):
                assert fault_point("inner") is not None
                assert fault_point("outer") is None
            assert fault_point("outer") is not None
            assert FaultPlan.from_json(injector_module.os.environ[ENV_VAR]) == outer

    def test_env_var_builds_injector_lazily(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(point="p", action="drop", times=2))
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        # Simulate a fresh child process: no injector, env not yet checked.
        monkeypatch.setattr(injector_module, "_INJECTOR", None)
        monkeypatch.setattr(injector_module, "_ENV_CHECKED", False)
        injector = get_injector()
        assert injector is not None and injector.plan == plan
        assert fault_point("p") is not None

    def test_reset_faults_deactivates(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(point="p", action="drop", times=0))
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        monkeypatch.setattr(injector_module, "_INJECTOR", None)
        monkeypatch.setattr(injector_module, "_ENV_CHECKED", False)
        assert fault_point("p") is not None
        reset_faults()
        # Deactivation sticks even though the env var is still set.
        assert fault_point("p") is None


# ---------------------------------------------------------------------- #
# Corrupt-entry recovery: shared cache and artifact store
# ---------------------------------------------------------------------- #
class TestSharedCacheQuarantine:
    def test_garbled_entry_reads_as_miss_and_is_quarantined(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.put_if_absent("k1", np.arange(4.0))
        path = cache._path("k1")
        path.write_bytes(b"\x00not-an-npy\x00")
        assert cache.get("k1") is None
        assert cache.quarantined == 1 and cache.misses == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        # The key is free again: recompute, re-store, and read back cleanly.
        assert cache.put_if_absent("k1", np.arange(4.0))
        np.testing.assert_array_equal(cache.get("k1"), np.arange(4.0))
        assert cache.quarantined == 1

    def test_fault_plan_drives_the_real_corruption_path(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.put_if_absent("bad0", np.ones(3))
        cache.put_if_absent("good", np.full(3, 2.0))
        plan = FaultPlan.of(
            FaultSpec(point="serving.diskcache.get", action="corrupt", match={"key": "bad0"})
        )
        with use_faults(plan):
            assert cache.get("bad0") is None  # garbled in place, quarantined
            np.testing.assert_array_equal(cache.get("good"), np.full(3, 2.0))
        assert cache.quarantined == 1

    def test_truncated_entry_quarantined(self, tmp_path):
        cache = SharedArrayCache(tmp_path)
        cache.put_if_absent("k", np.arange(100.0))
        path = cache._path("k")
        path.write_bytes(path.read_bytes()[:40])  # torn write: valid magic, short payload
        assert cache.get("k") is None
        assert cache.quarantined == 1


class TestArtifactStoreIntegrity:
    def _save_entry(self, root):
        store = ArtifactStore(root)
        store.save("stage", "key", {"value": 7}, {"w": np.arange(6.0)})
        return store._entry_dir("stage", "key")

    def test_checksum_stamped_and_verified(self, tmp_path):
        directory = self._save_entry(tmp_path)
        document = json.loads((directory / "meta.json").read_text())
        assert document["checksum"]
        # Flip bytes inside the committed arrays file; a fresh store (no
        # memory layer) must detect the mismatch and discard the entry.
        arrays_path = directory / "arrays.bin"
        blob = bytearray(arrays_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays_path.write_bytes(bytes(blob))
        fresh = ArtifactStore(tmp_path)
        assert fresh.load("stage", "key") is None
        assert fresh.corrupt == 1 and fresh.stats()["corrupt"] == 1
        assert not fresh.contains("stage", "key")
        # The slot is reusable: a recompute + save round-trips again.
        fresh.save("stage", "key", {"value": 7}, {"w": np.arange(6.0)})
        np.testing.assert_array_equal(ArtifactStore(tmp_path).load("stage", "key").arrays["w"], np.arange(6.0))

    def test_older_format_entry_reads_as_a_miss(self, tmp_path):
        directory = tmp_path / "stage" / "key"
        directory.mkdir(parents=True)
        np.savez(directory / "arrays.npz", w=np.arange(6.0))
        document = {"format": "repro.workspace.artifact/v1", "stage": "stage", "key": "key",
                    "meta": {"value": 7}, "arrays": True, "checksum": "0" * 32}
        (directory / "meta.json").write_text(json.dumps(document))
        store = ArtifactStore(tmp_path)
        assert store.load("stage", "key") is None
        assert store.misses == 1 and store.corrupt == 0
        # The recompute's save replaces the entry with the current format.
        store.save("stage", "key", {"value": 8}, {"w": np.arange(6.0) + 1})
        loaded = ArtifactStore(tmp_path).load("stage", "key")
        assert loaded.meta == {"value": 8}
        np.testing.assert_array_equal(loaded.arrays["w"], np.arange(6.0) + 1)

    def test_truncated_arrays_file_dropped_as_corrupt(self, tmp_path):
        arrays_path = self._save_entry(tmp_path) / "arrays.bin"
        arrays_path.write_bytes(arrays_path.read_bytes()[:-8])
        fresh = ArtifactStore(tmp_path)
        assert fresh.load("stage", "key") is None
        assert fresh.corrupt == 1 and not fresh.contains("stage", "key")

    def test_arrays_file_from_another_entry_dropped_as_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("stage", "a", {"value": 1}, {"w": np.arange(6.0)})
        store.save("stage", "b", {"value": 2}, {"w": np.arange(6.0) + 1})
        # Same manifest, well-formed bytes: only the checksum tells them apart.
        (tmp_path / "stage" / "b" / "arrays.bin").write_bytes((tmp_path / "stage" / "a" / "arrays.bin").read_bytes())
        fresh = ArtifactStore(tmp_path)
        assert fresh.load("stage", "b") is None
        assert fresh.corrupt == 1 and not fresh.contains("stage", "b")
        np.testing.assert_array_equal(fresh.load("stage", "a").arrays["w"], np.arange(6.0))

    def test_fault_plan_truncates_arrays_on_load(self, tmp_path):
        self._save_entry(tmp_path)
        plan = FaultPlan.of(FaultSpec(point="workspace.store.load", action="corrupt"))
        fresh = ArtifactStore(tmp_path)
        with use_faults(plan):
            assert fresh.load("stage", "key") is None
        assert fresh.corrupt == 1

    def test_unreadable_meta_discarded(self, tmp_path):
        directory = self._save_entry(tmp_path)
        (directory / "meta.json").write_text("{not json")
        fresh = ArtifactStore(tmp_path)
        assert fresh.load("stage", "key") is None
        assert fresh.corrupt == 1


# ---------------------------------------------------------------------- #
# Client-side resilience policies
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_schedule_is_bounded_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1, multiplier=2.0, max_backoff_s=0.5)
        assert [policy.backoff(attempt) for attempt in (1, 2, 3, 4, 5)] == [0.1, 0.2, 0.4, 0.5, 0.5]

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_attempts": 0}, {"backoff_s": -1.0}, {"multiplier": 0.5}, {"max_backoff_s": -0.1}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def test_state_machine(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0, clock=lambda: now[0])
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        now[0] = 10.0
        assert breaker.state == "half-open"
        breaker.allow()  # the single probe is admitted...
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # ...concurrent requests keep failing fast
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()

    def test_failed_probe_reopens_for_full_timeout(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 5.0
        breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 9.9
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        now[0] = 10.0
        breaker.allow()

    def test_released_probe_gives_no_verdict(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 5.0
        breaker.allow()  # probe
        breaker.release()
        assert breaker.state == "half-open"
        breaker.allow()  # the slot was handed back: the next request probes
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)


# ---------------------------------------------------------------------- #
# TCP timeouts surface as typed errors, never hangs
# ---------------------------------------------------------------------- #
class TestTcpTimeouts:
    def test_read_timeout_against_mute_server(self):
        async def scenario():
            async def mute(reader, writer):
                await reader.readline()  # swallow the request, never answer

            server = await asyncio.start_server(mute, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(FrontendTimeoutError):
                    await request_over_tcp(
                        host, port, [{"model": "m", "points": [[0.0, 0.0, 0.0]]}], read_timeout_s=0.2
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_idle_connection_told_why_then_dropped(self):
        async def scenario():
            # The idle-timeout path runs before any pool interaction, so the
            # frontend does not need a live pool behind it.
            frontend = AsyncServingFrontend(pool=None, idle_timeout_s=0.1)
            host, port = await frontend.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                message = json.loads(line)
                assert message["ok"] is False
                assert message["error"] == "FrontendTimeoutError"
                writer.close()
            finally:
                await frontend.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# Search checkpointing and resume
# ---------------------------------------------------------------------- #
class TestSearchCheckpointer:
    def test_save_load_clear_round_trip(self, tmp_path):
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        assert checkpointer.load() is None
        checkpointer.save({"phase": "stage1_supernet", "progress": 2}, {"w": np.arange(3.0)})
        assert checkpointer.saves == 1
        # A later meta-only save overwrites the single slot's meta and keeps
        # its committed arrays.
        checkpointer.save({"phase": "stage1_functions", "progress": 0})
        for reader in (checkpointer, SearchCheckpointer(ArtifactStore(tmp_path), "key")):
            meta, arrays = reader.load()
            assert meta["phase"] == "stage1_functions"
            assert arrays.keys() == {"w"} and np.array_equal(arrays["w"], np.arange(3.0))
        checkpointer.clear()
        assert checkpointer.load() is None
        # A meta-only save on an empty slot commits no arrays.
        checkpointer.save({"phase": "stage1_functions", "progress": 1})
        checkpointer.flush()  # another store reads published commits only
        meta, arrays = SearchCheckpointer(ArtifactStore(tmp_path), "key").load()
        assert meta["progress"] == 1 and arrays == {}

    def test_meta_only_commit_still_verifies_the_kept_arrays(self, tmp_path):
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        checkpointer.save({"phase": "stage1_supernet", "progress": 0}, {"w": np.arange(3.0)})
        checkpointer.save({"phase": "stage1_functions", "progress": 0})
        checkpointer.flush()
        # Swap in a well-formed file with other weights (same manifest, same
        # size): only the checksum the meta-only commit kept can tell.
        (tmp_path / CHECKPOINT_STAGE / "key" / "arrays.bin").write_bytes(np.zeros(3).tobytes())
        store = ArtifactStore(tmp_path)
        assert SearchCheckpointer(store, "key").load() is None
        assert store.corrupt == 1

    def test_kill_at_checkpoint_leaves_committed_entry(self, tmp_path):
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        plan = FaultPlan.of(FaultSpec(point="nas.search.checkpoint", action="error", times=1))
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                checkpointer.save({"phase": "stage1_supernet", "progress": 0})
        # The fault fires *after* the commit — the entry survives the kill.
        meta, _ = SearchCheckpointer(ArtifactStore(tmp_path), "key").load()
        assert meta["progress"] == 0


#: Base search for the resume tests.  Its commit count per strategy is the
#: number of ``FaultSpec(after=n)`` kill points, so every commit is covered:
#: multi-stage 1 + 3 + 1 + 4 (epoch, generations, epoch, generations) and
#: one-stage 2 + 6.
_RESUME_CONFIG = dict(
    num_positions=6,
    hidden_dim=8,
    supernet_k=4,
    num_classes=4,
    population_size=3,
    function_iterations=2,
    operation_iterations=3,
    function_epochs=1,
    operation_epochs=1,
    batch_size=12,
    eval_max_batches=1,
    paths_per_function_eval=1,
    seed=0,
)
_RESUME_COMMITS = {"run": 9, "run_one_stage": 8}


def _result_fields(result) -> tuple:
    """Every :class:`SearchResult` field, in a form ``==`` compares bit-exactly."""
    return (
        result.best_architecture.to_dict(),
        result.best_score,
        result.best_accuracy,
        result.best_latency_ms,
        result.upper_functions.to_dict(),
        result.lower_functions.to_dict(),
        [(p.iteration, p.evaluations, p.best_score, p.clock_s) for p in result.stage1_history],
        [(p.iteration, p.evaluations, p.best_score, p.clock_s) for p in result.stage2_history],
        result.search_time_s,
        result.evaluations,
        result.strategy,
    )


@pytest.fixture(scope="module")
def resume_data():
    return make_synthetic_modelnet(num_classes=4, samples_per_class=3, num_points=16, seed=0)


@pytest.fixture(scope="module")
def uninterrupted(resume_data):
    """Memoized uninterrupted result per (strategy, evaluator)."""
    results: dict = {}

    def get(strategy: str, evaluator: str):
        if (strategy, evaluator) not in results:
            checkpointer = SearchCheckpointer(ArtifactStore(), "run")
            search = TestSearchResume.make_search(resume_data, evaluator)
            results[strategy, evaluator] = getattr(search, strategy)(checkpointer=checkpointer)
            assert checkpointer.saves == _RESUME_COMMITS[strategy]
        return results[strategy, evaluator]

    return get


class TestSearchResume:
    @staticmethod
    def make_search(data, evaluator: str = "oracle", **overrides):
        device = get_device("jetson-tx2")
        if evaluator == "oracle":
            latency = OracleLatencyEvaluator(device, num_points=256, k=10, num_classes=4)
        else:
            latency = MeasurementLatencyEvaluator(
                device, num_points=256, k=10, num_classes=4, rng=np.random.default_rng(0)
            )
        config = HGNASConfig(**{**_RESUME_CONFIG, **overrides})
        return HGNAS(config, *data, latency, rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "strategy, evaluator, commit",
        [
            (strategy, evaluator, commit)
            for strategy, commits in _RESUME_COMMITS.items()
            for evaluator in ("oracle", "measurement")
            for commit in range(commits)
        ],
    )
    def test_kill_and_resume_is_bit_identical(self, resume_data, uninterrupted, strategy, evaluator, commit):
        # Interrupted run: an error spec at the checkpoint fault point
        # simulates a kill landing right after commit ``commit``.
        store = ArtifactStore()
        killed = getattr(self.make_search(resume_data, evaluator), strategy)
        plan = FaultPlan.of(FaultSpec(point="nas.search.checkpoint", action="error", after=commit, times=1))
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                killed(checkpointer=SearchCheckpointer(store, "run"))
        # Resume with a fresh search object from what a store on disk would
        # hand back: the meta document after a JSON round trip.
        meta, arrays = SearchCheckpointer(store, "run").load()
        resumed_store = ArtifactStore()
        resumed_store.save(CHECKPOINT_STAGE, "run", json.loads(json.dumps(to_jsonable(meta))), arrays)
        checkpointer = SearchCheckpointer(resumed_store, "run")
        resumed = getattr(self.make_search(resume_data, evaluator), strategy)(checkpointer=checkpointer)
        assert _result_fields(resumed) == _result_fields(uninterrupted(strategy, evaluator))
        # The checkpoint slot is cleared once the search completes.
        assert checkpointer.load() is None
        assert resumed_store.keys(CHECKPOINT_STAGE) == []

    @pytest.mark.parametrize(
        "strategy, resume_strategy, overrides, resume_kwargs",
        [
            pytest.param("run", "run_one_stage", {}, {}, id="strategy"),
            pytest.param("run", "run", {"beta": 3.0}, {}, id="beta"),
            pytest.param("run", "run", {"population_size": 6}, {}, id="population_size"),
            pytest.param("run_one_stage", "run_one_stage", {}, {"iterations": 2}, id="iterations"),
        ],
    )
    def test_strategy_mismatch_rejected(
        self, resume_data, tmp_path, strategy, resume_strategy, overrides, resume_kwargs
    ):
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "run")
        plan = FaultPlan.of(FaultSpec(point="nas.search.checkpoint", action="error", times=1))
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                getattr(self.make_search(resume_data), strategy)(checkpointer=checkpointer)
        with pytest.raises(ValueError, match="cannot resume"):
            getattr(self.make_search(resume_data, **overrides), resume_strategy)(
                checkpointer=SearchCheckpointer(ArtifactStore(tmp_path), "run"), **resume_kwargs
            )

    def test_ea_commit_keeps_the_committed_arrays_on_disk(self, resume_data, tmp_path, monkeypatch):
        """EA-generation commits are meta-only: arrays.bin is written once per
        supernet epoch, an EA kill leaves it untouched, and the search resumed
        from disk replays the uninterrupted one bit-identically."""
        overrides = dict(function_epochs=2, operation_epochs=2)
        epochs = overrides["function_epochs"] + overrides["operation_epochs"]
        writes: list[tuple] = []
        real_write_arrays = store_module._write_arrays

        def recording_write_arrays(path, blob):
            checksum = real_write_arrays(path, blob)
            stat = path.stat()  # os.replace keeps the inode and mtime
            writes.append((checksum, stat.st_ino, stat.st_mtime_ns))
            return checksum

        monkeypatch.setattr(store_module, "_write_arrays", recording_write_arrays)
        baseline = self.make_search(resume_data, **overrides).run(
            checkpointer=SearchCheckpointer(ArtifactStore(tmp_path / "a"), "run")
        )
        assert len(writes) == epochs

        writes.clear()
        store = ArtifactStore(tmp_path / "b")
        plan = FaultPlan.of(
            FaultSpec(
                point="nas.search.checkpoint", action="error", after=1, match={"phase": "stage2_operations"}
            )
        )
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                self.make_search(resume_data, **overrides).run(checkpointer=SearchCheckpointer(store, "run"))
        # Every supernet epoch wrote the arrays; the two stage-2 EA commits
        # before the kill rewrote only meta.json, stamped with the checksum of
        # the last epoch's arrays.
        assert len(writes) == epochs
        entry = tmp_path / "b" / CHECKPOINT_STAGE / "run"
        document = json.loads((entry / "meta.json").read_text())
        assert document["meta"]["phase"] == "stage2_operations" and document["meta"]["progress"] == 1
        stat = (entry / "arrays.bin").stat()
        assert (document["checksum"], stat.st_ino, stat.st_mtime_ns) == writes[-1]
        assert store_module._checksum([(entry / "arrays.bin").read_bytes()]) == writes[-1][0]

        writes.clear()
        resumed_checkpointer = SearchCheckpointer(ArtifactStore(tmp_path / "b"), "run")
        resumed = self.make_search(resume_data, **overrides).run(checkpointer=resumed_checkpointer)
        assert writes == []  # the rest of stage 2's EA commits no arrays
        assert _result_fields(resumed) == _result_fields(baseline)
        assert not entry.exists()
