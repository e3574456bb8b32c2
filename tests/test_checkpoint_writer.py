"""The write-behind checkpoint store: its threads, errors, counters, a
search killed with a write in flight, and a state machine over commits,
loads, clears, failed writes, corruption and crashes."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

import repro.workspace.store as store_module
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.nas import HGNASConfig
from repro.nas.checkpoint import CHECKPOINT_STAGE, SearchCheckpointer
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.workspace import Workspace
from repro.workspace.store import ArtifactStore

#: A small multi-stage search: 9 commits (epoch, 3 generations, epoch, 4 generations).
_SEARCH_CONFIG = dict(
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


def _counts(metrics: MetricsRegistry) -> dict[str, float]:
    names = ["nas.search.checkpoints", "workspace.store.commits.published", "workspace.store.commits.failed"]
    return {name.rsplit(".", 1)[-1]: metrics.counter(name).value for name in names}


@pytest.fixture(scope="module")
def search_data():
    return make_synthetic_modelnet(num_classes=4, samples_per_class=3, num_points=16, seed=0)


def _search(workspace: Workspace, data, **kwargs):
    return workspace.search(*data, config=HGNASConfig(**_SEARCH_CONFIG), latency_oracle="oracle", **kwargs)


def _summary(result) -> tuple:
    """The search result fields a bit-identical resume reproduces."""
    return (
        result.best_architecture.to_dict(),
        result.best_score,
        [(p.iteration, p.evaluations, p.best_score, p.clock_s) for p in result.stage1_history],
        [(p.iteration, p.evaluations, p.best_score, p.clock_s) for p in result.stage2_history],
        result.search_time_s,
        result.evaluations,
    )


class _BlockedWrites:
    """Holds every array write until released, so a test can act while one is in flight."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.fail = False  # a released write raises instead of writing
        real_write_arrays = store_module._write_arrays

        def blocked_write_arrays(path, blob):
            self.entered.set()
            assert self.release.wait(10)
            if self.fail:
                raise OSError(28, "No space left on device")
            return real_write_arrays(path, blob)

        monkeypatch.setattr(store_module, "_write_arrays", blocked_write_arrays)


def _release_later(writes: _BlockedWrites, fail: bool = False) -> threading.Thread:
    """Release the blocked write from another thread, a little after it blocks."""

    def release():
        assert writes.entered.wait(10)
        time.sleep(0.05)  # lets the test thread reach its wait for the write
        writes.fail = fail
        writes.release.set()

    releaser = threading.Thread(target=release)
    releaser.start()
    return releaser


#: Run in a child process: a rooted search whose ``block``-th checkpoint
#: write never ends, so the parent can SIGKILL it with that write in flight.
_KILLED_SEARCH = """
import json, pathlib, sys, threading
import repro.workspace.store as store_module
from repro.data.synthetic_modelnet import make_synthetic_modelnet
from repro.nas import HGNASConfig
from repro.nas.checkpoint import CHECKPOINT_STAGE
from repro.workspace import Workspace

root, marker, block, config = sys.argv[1], pathlib.Path(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4])
real_publish = store_module.ArtifactStore._publish
writes = []

def blocking_publish(self, stage, *args, **kwargs):
    if stage == CHECKPOINT_STAGE:
        writes.append(stage)
        if len(writes) == block:
            marker.touch()
            threading.Event().wait()
    return real_publish(self, stage, *args, **kwargs)

store_module.ArtifactStore._publish = blocking_publish
data = make_synthetic_modelnet(num_classes=4, samples_per_class=3, num_points=16, seed=0)
Workspace("jetson-tx2", root=root).search(*data, config=HGNASConfig(**config), latency_oracle="oracle", fresh=True)
"""


class TestWriterHygiene:
    # Live threads are compared as sets, not counts: a thread another test
    # left behind may end meanwhile.
    def test_a_completed_search_leaves_no_thread_and_publishes_every_commit(self, tmp_path, search_data):
        workspace = Workspace("jetson-tx2", root=tmp_path)
        before = set(threading.enumerate())
        with use_metrics(MetricsRegistry()) as metrics:
            _search(workspace, search_data, fresh=True)
        assert set(threading.enumerate()) <= before
        assert _counts(metrics) == {"checkpoints": 9, "published": 9, "failed": 0}
        assert workspace.store.keys(CHECKPOINT_STAGE) == []

    def test_a_raising_search_publishes_its_latest_commit_and_leaves_no_thread(
        self, tmp_path, search_data, monkeypatch
    ):
        real_save = SearchCheckpointer.save
        committed = []

        def interrupted_save(self, meta, arrays=None):
            real_save(self, meta, arrays)
            committed.append((meta["phase"], meta["progress"]))
            if self.saves == 3:
                raise RuntimeError("interrupted")

        monkeypatch.setattr(SearchCheckpointer, "save", interrupted_save)
        workspace = Workspace("jetson-tx2", root=tmp_path)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="interrupted"):
            _search(workspace, search_data, fresh=True)
        assert set(threading.enumerate()) <= before
        # Another process (a fresh store) reads the third commit.
        (key,) = ArtifactStore(tmp_path).keys(CHECKPOINT_STAGE)
        meta, arrays = SearchCheckpointer(ArtifactStore(tmp_path), key).load()
        assert (meta["phase"], meta["progress"]) == committed[-1] == ("stage1_functions", 1)
        assert arrays

    def test_a_search_killed_with_a_write_in_flight_resumes_to_the_uninterrupted_result(
        self, tmp_path, search_data
    ):
        root, marker = tmp_path / "killed", tmp_path / "blocked"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The 5th commit is stage 2's epoch: killed while its arrays are
        # being written, the search leaves stage 1's last commit on disk.
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SEARCH, str(root), str(marker), "5", json.dumps(_SEARCH_CONFIG)],
            env=env,
        )
        try:
            deadline = time.monotonic() + 120
            while not marker.exists():
                assert child.poll() is None, "the search ended before its write blocked"
                assert time.monotonic() < deadline, "timed out"
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait()
        (key,) = ArtifactStore(root).keys(CHECKPOINT_STAGE)
        meta, arrays = SearchCheckpointer(ArtifactStore(root), key).load()
        assert meta["phase"] == "stage1_functions" and arrays
        resumed = _search(Workspace("jetson-tx2", root=root), search_data, resume=True)
        uninterrupted = _search(Workspace("jetson-tx2", root=tmp_path / "uninterrupted"), search_data, fresh=True)
        assert _summary(resumed) == _summary(uninterrupted)

    def test_a_writer_error_is_raised_by_the_next_save(self, tmp_path, monkeypatch):
        entry = tmp_path / CHECKPOINT_STAGE / "key"
        real_replace = os.replace
        failing = [True]

        def failing_replace(source, target):
            if failing[0] and pathlib.Path(target).parent == entry:
                raise OSError(28, "No space left on device")
            return real_replace(source, target)

        monkeypatch.setattr(store_module.os, "replace", failing_replace)
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        with use_metrics(MetricsRegistry()) as metrics:
            checkpointer.save({"progress": 0}, {"w": np.arange(3.0)})
            with pytest.raises(OSError, match="No space left"):
                checkpointer.save({"progress": 1}, {"w": np.arange(3.0) + 1})
            # Raised once; the slot works again once the disk does.
            failing[0] = False
            checkpointer.save({"progress": 2}, {"w": np.arange(3.0) + 2})
            checkpointer.flush()
        meta, arrays = SearchCheckpointer(ArtifactStore(tmp_path), "key").load()
        assert meta == {"progress": 2} and np.array_equal(arrays["w"], np.arange(3.0) + 2)
        assert _counts(metrics) == {"checkpoints": 2, "published": 1, "failed": 1}

    def test_a_failed_array_write_never_pairs_a_later_meta_with_older_arrays(self, tmp_path, monkeypatch):
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        writes = _BlockedWrites(monkeypatch)
        writes.release.set()
        checkpointer.save({"progress": 0}, {"w": np.arange(3.0)})
        checkpointer.flush()
        writes.release.clear()
        checkpointer.save({"progress": 1}, {"w": np.arange(3.0) + 1})  # blocked, then fails
        releaser = _release_later(writes, fail=True)
        # The meta-only commit waits for the array write and raises its error.
        with pytest.raises(OSError, match="No space left"):
            checkpointer.save({"progress": 2})
        releaser.join()
        checkpointer.flush()  # raised once
        # Its stamp is gone with it: a meta-only commit has no arrays to keep.
        with pytest.raises(RuntimeError, match="array write failed"):
            checkpointer.save({"progress": 3})
        meta, arrays = SearchCheckpointer(ArtifactStore(tmp_path), "key").load()
        assert meta == {"progress": 0} and np.array_equal(arrays["w"], np.arange(3.0))
        writes.fail = False
        checkpointer.save({"progress": 4}, {"w": np.arange(3.0) + 4})
        checkpointer.save({"progress": 5})
        checkpointer.flush()
        meta, arrays = SearchCheckpointer(ArtifactStore(tmp_path), "key").load()
        assert meta == {"progress": 5} and np.array_equal(arrays["w"], np.arange(3.0) + 4)

    def test_clear_waits_for_the_write_in_flight_and_writes_nothing_itself(self, tmp_path, monkeypatch):
        entry = tmp_path / CHECKPOINT_STAGE / "key"
        writes = _BlockedWrites(monkeypatch)
        renames = []
        real_replace = os.replace

        def counting_replace(source, target):
            if pathlib.Path(target).parent == entry:
                renames.append(pathlib.Path(target).name)
            return real_replace(source, target)

        monkeypatch.setattr(store_module.os, "replace", counting_replace)
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        with use_metrics(MetricsRegistry()) as metrics:
            checkpointer.save({"progress": 0}, {"w": np.arange(3.0)})
            releaser = _release_later(writes)
            checkpointer.clear()
            releaser.join()
        # Only the write in flight landed (then clear deleted it).
        assert renames == ["arrays.bin", "meta.json"]
        assert not entry.exists()
        assert _counts(metrics) == {"checkpoints": 1, "published": 1, "failed": 0}

    def test_a_slot_reuses_at_most_two_snapshot_buffers(self, tmp_path, monkeypatch):
        buffers = []
        real_pack = store_module._pack_arrays

        def recording_pack(arrays, buffer=None):
            manifest, blob = real_pack(arrays, buffer)
            buffers.append(blob.base)  # kept alive, so ids stay distinct
            return manifest, blob

        monkeypatch.setattr(store_module, "_pack_arrays", recording_pack)
        checkpointer = SearchCheckpointer(ArtifactStore(tmp_path), "key")
        for progress in range(12):
            checkpointer.save({"progress": progress}, {"w": np.full(1000, float(progress))})
            if progress % 3 == 0:
                checkpointer.save({"progress": progress, "meta_only": True})
        checkpointer.flush()
        assert len(buffers) == 12 and len({id(buffer) for buffer in buffers}) <= 2
        meta, arrays = SearchCheckpointer(ArtifactStore(tmp_path), "key").load()
        assert meta == {"progress": 11} and np.array_equal(arrays["w"], np.full(1000, 11.0))


class CheckpointStoreMachine(RuleBasedStateMachine):
    """One rooted checkpoint slot under random commits, loads, clears,
    failed writes, corruption and crashes.

    The writer is gated: the write in flight passes the gate only when the
    model lets it through (a save, load, clear or flush, each of which
    waits for it), so the model knows exactly which commit is on disk.
    Commit ``n`` has meta ``{"n": n}``; an array commit's arrays are
    ``w = [n, n, n]``, and a meta-only commit carries those of the latest
    array commit.
    """

    KEY = "slot"

    def __init__(self):
        super().__init__()
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="checkpoint-machine-"))
        self.gate = threading.Condition()
        self.allowed = 0  # writes the gate lets through
        self.open = False  # the gate lets every write through (teardown)
        self.crashed = False  # the store's process is gone: nothing it writes lands
        self.failing = False  # array writes raise
        self.expected: dict[int, tuple[dict, dict]] = {}
        self.array_commits: set[int] = set()
        self.next_n = 0
        self.in_flight: int | None = None  # the commit being written
        self.latest: int | None = None  # the last saved commit
        self.on_disk: int | None = None  # the last published commit
        self.last_arrays: dict = {}  # what a meta-only commit keeps
        self.arrays_lost = False  # an array write failed: meta-only commits raise
        self.real_write_arrays = store_module._write_arrays
        store_module._write_arrays = self._write_arrays
        self._open_store()

    # -- plumbing -------------------------------------------------------- #
    def _write_arrays(self, path, blob):
        if self.failing:
            raise OSError(28, "No space left on device")
        return self.real_write_arrays(path, blob)

    def _open_store(self) -> None:
        self.store = ArtifactStore(self.root)
        self.checkpointer = SearchCheckpointer(self.store, self.KEY)
        real_publish = self.store._publish

        def gated_publish(stage, key, meta_text, packed, keep=False):
            with self.gate:
                assert self.gate.wait_for(lambda: self.open or self.allowed > 0, timeout=10), "the gate never opened"
                if not self.open:
                    self.allowed -= 1
                crashed = self.crashed
            if not crashed:
                real_publish(stage, key, meta_text, packed, keep)

        self.store._publish = gated_publish

    def _release(self) -> int | None:
        """Let the write in flight through the gate; return its commit."""
        n, self.in_flight = self.in_flight, None
        if n is not None:
            with self.gate:
                self.allowed += 1
                self.gate.notify_all()
        return n

    def _land(self) -> None:
        """Let the write in flight through; the caller's next wait sees it published."""
        n = self._release()
        if n is not None:
            self.on_disk = n

    def _check(self, loaded, n: int | None) -> None:
        if n is None:
            assert loaded is None
            return
        assert loaded is not None, f"commit {n} is missing"
        meta, arrays = loaded
        expected_meta, expected_arrays = self.expected[n]
        # Never one commit's meta with another commit's arrays.
        assert meta == expected_meta
        assert arrays.keys() == expected_arrays.keys()
        for name, value in expected_arrays.items():
            np.testing.assert_array_equal(arrays[name], value)

    def _restart(self) -> None:
        """The process dies with its write in flight and restarts; it resumes from disk."""
        with self.gate:
            self.crashed = True
        self._release()
        self.checkpointer.flush()  # drains the dead writer: nothing it takes is written
        with self.gate:
            self.crashed = False
        self._open_store()
        self._check(self.checkpointer.load(), self.on_disk)
        self.latest = self.on_disk
        self.last_arrays = self.expected[self.on_disk][1] if self.on_disk is not None else {}
        self.arrays_lost = False

    def _next(self) -> int:
        n, self.next_n = self.next_n, self.next_n + 1
        return n

    # -- rules ----------------------------------------------------------- #
    @rule()
    def save_with_arrays(self):
        self._land()
        n = self._next()
        meta, arrays = {"n": n}, {"w": np.full(3, float(n))}
        self.checkpointer.save(meta, arrays)
        self.expected[n] = (meta, arrays)
        self.array_commits.add(n)
        self.in_flight = self.latest = n
        self.last_arrays, self.arrays_lost = arrays, False

    @rule()
    def save_meta_only(self):
        self._land()
        n = self._next()
        if self.arrays_lost:
            with pytest.raises(RuntimeError, match="array write failed"):
                self.checkpointer.save({"n": n})
            return
        self.checkpointer.save({"n": n})
        self.expected[n] = ({"n": n}, self.last_arrays)
        self.in_flight = self.latest = n

    @rule()
    def finish_the_write(self):
        self._land()
        self.checkpointer.flush()

    @precondition(lambda self: self.in_flight in self.array_commits)
    @rule()
    def fail_the_array_write(self):
        self.failing = True
        self._release()
        with pytest.raises(OSError, match="No space left"):
            self.checkpointer.flush()
        self.failing = False
        # A same-store load reads the disk again: the last published commit.
        self.latest, self.arrays_lost = self.on_disk, True
        self.save_meta_only()  # has no arrays to keep: raises

    @rule()
    def clear(self):
        self._land()
        self.checkpointer.clear()
        self.latest = self.on_disk = None
        self.last_arrays, self.arrays_lost = {}, False
        assert not (self.root / CHECKPOINT_STAGE / self.KEY).exists()

    @rule()
    def load_through_the_same_store(self):
        self._land()
        self._check(self.checkpointer.load(), self.latest)
        if self.latest is not None:  # the load restamps the arrays it read
            self.last_arrays, self.arrays_lost = self.expected[self.latest][1], False

    @rule()
    def reopen_through_a_fresh_store(self):
        self._check(SearchCheckpointer(ArtifactStore(self.root), self.KEY).load(), self.on_disk)

    @precondition(lambda self: self.on_disk is not None and self.expected[self.on_disk][1])
    @rule(offset=st.integers(0, 23))
    def corrupt_the_arrays_file(self, offset):
        path = self.root / CHECKPOINT_STAGE / self.KEY / "arrays.bin"
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        fresh = ArtifactStore(self.root)
        assert SearchCheckpointer(fresh, self.KEY).load() is None
        assert fresh.corrupt == 1
        self.on_disk = None  # dropped; the restart below finds no resume point
        self._restart()

    @rule()
    def crash_with_a_write_in_flight(self):
        self._restart()

    def teardown(self):
        try:
            with self.gate:  # a failed step may have left a write at the gate
                self.open = True
                self.gate.notify_all()
            self.checkpointer.clear()
        finally:
            store_module._write_arrays = self.real_write_arrays
            shutil.rmtree(self.root, ignore_errors=True)
        assert not any(thread.name == "repro-store-writer" for thread in threading.enumerate())


TestCheckpointStoreMachine = CheckpointStoreMachine.TestCase
TestCheckpointStoreMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
)
