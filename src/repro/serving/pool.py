"""Multi-process serving: a pool of worker engines behind one frontend.

One synchronous :class:`~repro.serving.engine.InferenceEngine` caps
aggregate throughput at a single core.  :class:`WorkerPoolEngine` spawns N
worker processes, each hosting a full engine over the same deployments
(the registry is snapshotted to disk and every worker loads it), and
serves requests through a future-based frontend:

1. **Admission control runs in the frontend** — SLO and queue-depth
   rejection happens *before* any IPC, so a request the cost model would
   refuse never pays serialization or a queue round trip.  Worker engines
   run with admission disabled; a rejection is therefore counted exactly
   once, in the frontend's telemetry.
2. **The in-memory result tier lives in the frontend** — an admitted
   request whose cloud was computed before is answered from the
   frontend's LRU (:class:`~repro.serving.engine.ResultTier`, the helper
   the in-process engine uses) with an already-completed future, before
   any IPC (the TCP frontend takes the answer itself, with no future).
   Replies to misses fill it as they arrive, with the label and
   probabilities their worker computed.  Worker engines run with their
   in-memory tier off, so each request is looked up once.
3. **Dispatch** is least-loaded: each admitted request goes to the live
   worker with the fewest in-flight requests, onto that worker's own task
   queue, where the worker micro-batches whatever has accumulated.
4. **Results** come back over each worker's own result pipe and resolve
   :class:`concurrent.futures.Future` objects, so callers can block
   (:meth:`WorkerPoolEngine.request`), fan out
   (:meth:`~WorkerPoolEngine.submit_many`), or await them from asyncio
   (:mod:`repro.serving.frontend`).
5. **Deadlines**: every request carries ``enqueue + request_timeout_s``;
   a worker drops expired requests without executing them and the
   frontend fails the future with :class:`DeadlineExceededError`.
6. **Crash handling + supervision**: a worker process that dies (or goes
   silent past the heartbeat timeout — a stall) is detected by the
   collector loop; its in-flight requests are requeued once onto a
   surviving worker (then failed with :class:`WorkerCrashError`), and the
   slot itself is restarted with bounded exponential backoff up to
   ``max_restarts`` times, after which the pool degrades gracefully to
   the surviving workers.  A frontend sweep force-fails any future still
   pending past its deadline plus a grace period, so no caller ever
   hangs on a request a dead worker never dequeued.
7. **Shared cache tier**: workers share a disk-backed result/edge cache
   (:mod:`repro.serving.diskcache`) under the pool root, so a cloud
   served by worker 0 is a cache hit on worker 3.
8. **Telemetry**: each worker ships its
   :meth:`~repro.serving.telemetry.TelemetryStore.snapshot` (plus cache
   stats and its obs metrics snapshot) on shutdown; the frontend merges
   them into one fleet-wide view with per-worker breakdowns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
import queue as queue_module
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_ready

import numpy as np

from repro.backends import active_backend_name
from repro.faults import fault_point
from repro.nn.dtype import get_default_dtype
from repro.obs.metrics import get_metrics, merge_snapshots
from repro.serving.cache import CacheStats
from repro.serving.diskcache import deployment_fingerprint
from repro.serving.engine import (
    AdmissionControl,
    AdmissionError,
    EngineConfig,
    InferenceResult,
    ResultTier,
    validate_points,
)
from repro.serving.registry import DeployedModel, ModelRegistry
from repro.serving.telemetry import TelemetryStore
from repro.utils.logging import get_logger

__all__ = [
    "DeadlineExceededError",
    "WorkerCrashError",
    "PoolConfig",
    "PreparedRequest",
    "WorkerPoolEngine",
]

_LOGGER = get_logger("serving.pool")

#: Collector poll interval (also bounds crash-detection latency).
_POLL_INTERVAL_S = 0.05
#: Ceiling on a worker slot's doubling restart backoff.
_RESTART_BACKOFF_MAX_S = 5.0
#: Slack past a request's deadline before the frontend force-fails its
#: future (covers requests a worker never got to dequeue).
_DEADLINE_GRACE_S = 1.0


class DeadlineExceededError(RuntimeError):
    """Raised when a request's deadline expired before it finished."""


class WorkerCrashError(RuntimeError):
    """Raised when the worker serving a request died and retries ran out."""


@dataclass(frozen=True)
class PoolConfig:
    """Worker-pool policy knobs.  Fixed: workers fork where the platform can and serve the dtype ambient at construction."""

    #: Number of worker processes (each hosts a full engine).
    workers: int = 2
    #: Per-request deadline, from admission to result delivery.
    request_timeout_s: float = 30.0
    #: Enable the cross-process disk cache tier under the pool root.
    shared_cache: bool = True
    #: How many times a crashed worker's in-flight request is requeued onto
    #: a surviving worker before its future fails.
    max_retries: int = 1
    #: Supervisor: how many times one worker slot may be restarted after a
    #: crash or stall before it is left dead (graceful degradation).
    max_restarts: int = 2
    #: Initial restart backoff; doubles per restart of the same worker.
    restart_backoff_s: float = 0.1
    #: How often an idle worker emits a liveness heartbeat.
    heartbeat_interval_s: float = 0.5
    #: A live process silent for longer than this is treated as stalled and
    #: killed+restarted by the supervisor; ``0`` disables stall detection.
    heartbeat_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.request_timeout_s <= 0:
            raise ValueError(f"request_timeout_s must be positive, got {self.request_timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.restart_backoff_s < 0:
            raise ValueError(f"restart_backoff_s must be >= 0, got {self.restart_backoff_s}")
        if self.heartbeat_interval_s <= 0:
            raise ValueError(f"heartbeat_interval_s must be positive, got {self.heartbeat_interval_s}")
        if self.heartbeat_timeout_s < 0:
            raise ValueError(f"heartbeat_timeout_s must be >= 0, got {self.heartbeat_timeout_s}")
        if 0 < self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_interval_s")


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _drain_batch(task_queue, first, max_batch_size: int) -> tuple[list, list]:
    """Gather up to ``max_batch_size`` request messages; control messages pass through."""
    requests, control = [first], []
    while len(requests) < max_batch_size:
        try:
            message = task_queue.get_nowait()
        except queue_module.Empty:
            break
        if message[0] == "req":
            requests.append(message)
        else:
            control.append(message)
            break
    return requests, control


def _result_payload(result: InferenceResult) -> dict:
    return {
        "model": result.model,
        "label": result.label,
        "logits": result.logits,
        "probabilities": result.probabilities,
        "latency_ms": result.latency_ms,
        "queue_ms": result.queue_ms,
        "batch_size": result.batch_size,
        "from_cache": result.from_cache,
        "estimated_device_ms": result.estimated_device_ms,
    }


def _serve_messages(engine, worker_id: int, messages: list, result_conn) -> None:
    """Serve one micro-batch of ``("req", ...)`` messages through the engine."""
    live: list[tuple] = []
    now = time.time()
    for message in messages:
        _, request_id, _, _, deadline = message
        if deadline is not None and now > deadline:
            result_conn.send(("err", request_id, worker_id, "DeadlineExceeded", "deadline expired in queue"))
        else:
            live.append(message)
    # Group consecutively by model so one engine.submit_many call serves a
    # whole micro-batch (order inside a group is preserved).
    index = 0
    while index < len(live):
        model = live[index][2]
        group = [live[index]]
        index += 1
        while index < len(live) and live[index][2] == model:
            group.append(live[index])
            index += 1
        try:
            results = engine.submit_many(model, [message[3] for message in group])
        except Exception:
            # Isolate the poisoned request: replay the group one by one so
            # healthy requests of the same batch still get served.
            for message in group:
                try:
                    result = engine.submit(model, message[3])
                except Exception as error:  # noqa: BLE001 - forwarded to the frontend
                    result_conn.send(
                        ("err", message[1], worker_id, type(error).__name__, str(error))
                    )
                else:
                    get_metrics().count("serving.worker.served")
                    result_conn.send(("ok", message[1], worker_id, _result_payload(result)))
            continue
        get_metrics().count("serving.worker.served", len(group))
        for message, result in zip(group, results):
            result_conn.send(("ok", message[1], worker_id, _result_payload(result)))


def _worker_main(
    worker_id: int,
    registry_dir: str,
    engine_config: EngineConfig,
    dtype: str,
    task_queue,
    result_conn,
    heartbeat_interval_s: float = 0.5,
    inherited_readers: tuple = (),
) -> None:
    """Entry point of one worker process: engine loop over the task queue.

    Heartbeats are emitted *from the serve loop itself* (after startup and
    on every idle poll timeout); a busy worker needs none, since the
    collector counts each reply it sends (one per request) as a beat.  A
    worker whose loop is wedged mid-batch goes silent and the supervisor
    can tell it apart from an idle one, which a side thread's heartbeats
    could not.

    ``inherited_readers`` are the frontend's result-pipe read ends a forked
    worker holds copies of.  Closing them leaves the frontend the only
    reader of this worker's pipe, so once the frontend closes it the
    worker's next send fails and the worker exits.
    """
    for reader in inherited_readers:
        with contextlib.suppress(OSError):
            reader.close()
    try:
        from repro.nn.dtype import set_default_dtype
        from repro.obs import reset_observability
        from repro.serving.engine import InferenceEngine

        # A forked worker inherits the parent's observability state; a
        # spawned one starts clean either way.  Reset so this worker's
        # snapshot covers exactly its own work.
        reset_observability()
        set_default_dtype(dtype)
        registry = ModelRegistry.load(registry_dir)
        engine = InferenceEngine(registry, engine_config)
    except Exception as error:  # noqa: BLE001 - startup failure, reported then fatal
        result_conn.send(("fatal", worker_id, f"{type(error).__name__}: {error}"))
        return
    result_conn.send(("hb", worker_id))
    while True:
        try:
            message = task_queue.get(timeout=heartbeat_interval_s)
        except queue_module.Empty:
            result_conn.send(("hb", worker_id))
            continue
        if message[0] == "req":
            # Chaos hook: a plan can crash this worker (hard exit, no
            # cleanup), stall it (sleep past the heartbeat timeout), or
            # raise in the serve path — exactly where production faults bite.
            fault_point("serving.worker.serve", worker=worker_id)
            requests, control = _drain_batch(task_queue, message, engine_config.max_batch_size)
            _serve_messages(engine, worker_id, requests, result_conn)
            for extra in control:
                if _handle_control(engine, worker_id, extra, result_conn):
                    return
        elif _handle_control(engine, worker_id, message, result_conn):
            return


def _handle_control(engine, worker_id: int, message, result_conn) -> bool:
    """Process a non-request message; returns True when the worker should exit."""
    if message[0] == "stop":
        cache_stats = {name: dataclasses.asdict(stats) for name, stats in engine.cache_stats().items()}
        if engine.shared_cache is not None:
            cache_stats["shared"]["writes"] = engine.shared_cache.writes
        result_conn.send(
            (
                "bye",
                worker_id,
                {
                    "telemetry": engine.telemetry.snapshot(),
                    "caches": cache_stats,
                    "metrics": get_metrics().snapshot(),
                },
            )
        )
        return True
    if message[0] == "crash":  # test hook: simulate a hard worker death
        import os

        os._exit(13)
    return False


# ---------------------------------------------------------------------- #
# Frontend
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PreparedRequest:
    """A validated request and its result-tier key (:meth:`WorkerPoolEngine.prepare`)."""

    model: str
    #: The registry entry the cloud was validated against.
    entry: DeployedModel
    #: The cloud, coerced to the default dtype and validated.
    points: np.ndarray
    #: Result-tier key (``None``: tier off).
    key: str | None


@dataclass
class _InFlight:
    """Frontend bookkeeping for one dispatched request."""

    future: Future
    model: str
    points: np.ndarray
    worker_id: int
    deadline: float
    #: Result-tier key the reply is stored under (``None``: tier off).
    key: str | None = None
    retries: int = 0


class _Worker:
    """Frontend handle of one worker slot (survives process restarts)."""

    def __init__(self, worker_id: int, process, task_queue, results):
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.results = results  # read end of the worker's result pipe
        self.inflight = 0
        self.alive = True
        self.finished = False  # sent its shutdown snapshot
        self.restarts = 0
        self.last_heartbeat = time.time()
        self.next_restart_at = 0.0

    def is_running(self) -> bool:
        return self.alive and self.process.is_alive()


_ERROR_TYPES: dict[str, type[Exception]] = {
    "DeadlineExceeded": DeadlineExceededError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "AdmissionError": AdmissionError,
}


class WorkerPoolEngine:
    """N worker processes behind one admission-controlled frontend.

    Args:
        registry: Deployments to serve.  Snapshotted to disk at
            construction (:meth:`ModelRegistry.save`); every worker loads
            the snapshot, so all workers replicate the same models with
            bit-identical weights.
        config: Per-worker engine policy.  The frontend owns admission
            control (at most ``max_queue_depth`` requests in flight,
            rejected before any IPC) and the in-memory result tier (its
            capacity is ``result_cache_capacity``), so workers run with
            both disabled;
            when the pool's shared cache is enabled, ``shared_cache_dir``
            is pointed at the pool root unless the config already names
            one.
        pool_config: Pool-level policy (worker count, deadlines, crash
            retries, restarts).
        root: Directory for the registry snapshot and the shared cache
            tier — pass the workspace root so cached results survive the
            pool.  ``None`` uses a temporary directory removed at
            shutdown.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: EngineConfig | None = None,
        pool_config: PoolConfig | None = None,
        root: str | pathlib.Path | None = None,
    ):
        import multiprocessing

        self.pool_config = pool_config or PoolConfig()
        self.registry = registry
        self._owns_root = root is None
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="repro-pool-")) if root is None else pathlib.Path(root)
        config = config or EngineConfig()
        if self.pool_config.shared_cache and config.shared_cache_dir is None:
            config = dataclasses.replace(config, shared_cache_dir=str(self.root / "serving_cache"))
        self.config = config
        # Frontend-side telemetry: rejections (admission lives here) and
        # per-model request counts merged with worker snapshots at shutdown.
        self.telemetry = TelemetryStore()
        self.admission = AdmissionControl(
            self.telemetry,
            config.admission_control,
            config.max_queue_depth,
            "{depth} requests in flight",
        )
        # The in-memory result tier.  Keys hash the snapshot the workers
        # load, computed once here: a later replace=True on self.registry
        # must not key the workers' old-weight logits under new weights.
        self.result_cache = ResultTier(config.result_cache_capacity)
        backend = config.backend or active_backend_name()
        self._content_keys = (
            {entry.name: deployment_fingerprint(entry, backend) for entry in registry.entries()}
            if config.result_cache_capacity > 0
            else {}
        )
        self.worker_snapshots: dict[int, dict] = {}
        self.fleet_metrics: dict[str, dict] = {}
        self.requeued = 0
        self.worker_crashes = 0
        self.restarts = 0
        self.stalls = 0
        self.submitted = 0
        self._lock = threading.Lock()
        self._inflight: dict[int, _InFlight] = {}
        self._next_request_id = 0
        self._shutdown = False
        self._all_done = threading.Event()

        registry_dir = self.root / "pool_registry"
        registry.save(registry_dir)
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        # Kept for the supervisor: restarting a crashed worker re-launches
        # _worker_main with exactly the construction-time arguments.
        self._context = multiprocessing.get_context(method)
        self._registry_dir = registry_dir
        # Workers run the path the result tier's keys name, and answer every
        # request they get: the frontend already looked it up.
        self._worker_config = dataclasses.replace(
            config, admission_control=False, result_cache_capacity=0, backend=backend
        )
        self._dtype_str = str(np.dtype(get_default_dtype()))
        self._workers: list[_Worker] = []
        for worker_id in range(self.pool_config.workers):
            self._workers.append(_Worker(worker_id, *self._launch_worker(worker_id)))
        self._collector = threading.Thread(target=self._collect_loop, name="pool-collector", daemon=True)
        self._collector.start()

    def _launch_worker(self, worker_id: int):
        """Start one worker process; returns ``(process, task_queue, results)``.

        Each worker sends on its own pipe, synchronously from its serve loop,
        so a worker that dies mid-send can tear only its own channel.  (With
        one shared ``multiprocessing.Queue``, a worker killed while its feeder
        thread held the queue's write lock silenced every other worker.)
        """
        task_queue = self._context.Queue()
        results, worker_end = self._context.Pipe(duplex=False)
        # Only a forked child inherits the frontend's read ends (and gets
        # these objects without pickling).
        inherited = ()
        if self._context.get_start_method() == "fork":
            inherited = tuple(worker.results for worker in self._workers) + (results,)
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                str(self._registry_dir),
                self._worker_config,
                self._dtype_str,
                task_queue,
                worker_end,
                self.pool_config.heartbeat_interval_s,
                inherited,
            ),
            daemon=True,
        )
        process.start()
        worker_end.close()  # the worker holds the only write end: its exit reads as EOF
        return process, task_queue, results

    # ------------------------------------------------------------------ #
    # Context manager
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "WorkerPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(self, model: str, points: np.ndarray) -> Future:
        """Admit one request and answer it from the result tier or dispatch it.

        Returns a future of its result; a result-tier hit returns an
        already-completed one, with ``worker`` set to ``None``.  Equivalent
        to ``submit_prepared(prepare(model, points))``.

        Raises:
            AdmissionError: When the request would blow the model's SLO
                budget or the frontend queue is at capacity (raised here,
                before any IPC).
            ValueError: When the cloud fails validation for this model.
            KeyError: When no model of that name is deployed.
            RuntimeError: When the pool has been shut down or every worker
                has crashed.
        """
        return self.submit_prepared(self.prepare(model, points))

    def prepare(self, model: str, points: np.ndarray) -> PreparedRequest:
        """The part of a request its model name and cloud alone determine.

        Looks the deployment up, validates the cloud and computes its
        result-tier key.  It changes no state, so a caller that sees the
        same request again (the TCP frontend's hot lines) may keep the
        prepared request and pass it to :meth:`submit_prepared` each time.

        Raises:
            ValueError: When the cloud fails validation for this model.
            KeyError: When no model of that name is deployed.
        """
        entry = self.registry.get(model)
        points = validate_points(entry, points)
        content_key = self._content_keys.get(model)
        key = None if content_key is None else self.result_cache.key(model, content_key, points)
        return PreparedRequest(model=model, entry=entry, points=points, key=key)

    def submit_prepared(self, request: PreparedRequest) -> Future:
        """The per-request part of :meth:`submit`: admission, then a result-tier lookup or a dispatch.

        A request prepared against a registry entry that has since been
        replaced or removed is prepared again, so it is validated and
        admitted as a fresh :meth:`submit` would be.
        """
        outcome = self._hit_or_dispatch(request)
        if isinstance(outcome, Future):
            return outcome
        future: Future = Future()
        future.set_result(outcome)
        return future

    def _hit_or_dispatch(self, request: PreparedRequest) -> InferenceResult | Future:
        """:meth:`submit_prepared` without wrapping a hit: the result-tier answer, or the dispatched future."""
        if self._shutdown:
            raise RuntimeError("pool has been shut down")
        if self.registry.get(request.model) is not request.entry:
            request = self.prepare(request.model, request.points)
        model, points, key = request.model, request.points, request.key
        try:
            # Frontend-side admission, before any IPC.
            estimated = self.admission.admit(request.entry, points.shape[0], len(self._inflight))
        except AdmissionError:
            get_metrics().count("serving.pool.rejected")
            raise
        deadline = time.time() + self.pool_config.request_timeout_s
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            hit = None if key is None else self.result_cache.lookup(key, request_id, model, estimated)
            if hit is not None:
                self.telemetry.model(model).record_request(
                    latency_ms=0.0, queue_ms=0.0, from_cache=True, at=time.perf_counter()
                )
                return hit
            worker = self._pick_worker()
            future: Future = Future()
            self._inflight[request_id] = _InFlight(
                future=future, model=model, points=points, worker_id=worker.worker_id, deadline=deadline, key=key
            )
            worker.inflight += 1
            self.submitted += 1
        self.telemetry.observe_queue_depth(len(self._inflight))
        get_metrics().count("serving.pool.dispatched")
        worker.task_queue.put(("req", request_id, model, points, deadline))
        return future

    def _pick_worker(self) -> _Worker:
        """Least-loaded live worker (callers hold the lock)."""
        candidates = [worker for worker in self._workers if worker.is_running()]
        if not candidates:
            raise RuntimeError("no live workers in the pool (all crashed or stopped)")
        return min(candidates, key=lambda worker: worker.inflight)

    def request(self, model: str, points: np.ndarray, timeout: float | None = None) -> InferenceResult:
        """Serve one cloud synchronously through the pool."""
        return self.submit(model, points).result(
            timeout=timeout if timeout is not None else self.pool_config.request_timeout_s + 5.0
        )

    def submit_many(self, model: str, clouds, return_exceptions: bool = False) -> list:
        """Serve a stream of clouds concurrently across the pool.

        Every cloud is admitted and dispatched before any result is
        awaited, so the workers run in parallel.  With
        ``return_exceptions``, per-request failures (admission, deadline,
        crash) come back in-place instead of raising; otherwise the first
        failure raises after all dispatched requests completed (unlike the
        in-process engine, already-dispatched work is not cancelled — the
        results are simply discarded).
        """
        outcomes: list = []
        futures: list[Future] = []
        for cloud in clouds:
            try:
                futures.append(self.submit(model, cloud))
                outcomes.append(None)
            except Exception as error:  # noqa: BLE001 - collected per request
                futures.append(None)  # type: ignore[arg-type]
                outcomes.append(error)
        timeout = self.pool_config.request_timeout_s + 5.0
        for index, future in enumerate(futures):
            if future is None:
                continue
            try:
                outcomes[index] = future.result(timeout=timeout)
            except Exception as error:  # noqa: BLE001 - collected per request
                outcomes[index] = error
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        return outcomes

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no request is in flight; returns whether it emptied."""
        limit = time.monotonic() + (timeout if timeout is not None else self.pool_config.request_timeout_s)
        while time.monotonic() < limit:
            with self._lock:
                if not self._inflight:
                    return True
            time.sleep(_POLL_INTERVAL_S)
        with self._lock:
            return not self._inflight

    # ------------------------------------------------------------------ #
    # Result collection / crash handling
    # ------------------------------------------------------------------ #
    def _collect_loop(self) -> None:
        last_supervise = 0.0
        while True:
            readers = [worker.results for worker in self._workers if not worker.results.closed]
            try:
                ready = wait_for_ready(readers, timeout=_POLL_INTERVAL_S)
            except OSError:  # a reader was closed by a concurrent restart
                continue
            for reader in ready:
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    # The worker exited, or its pipe was closed under us;
                    # _check_workers handles the slot either way.
                    with contextlib.suppress(OSError):
                        reader.close()
                    continue
                self._dispatch(message)
            # Supervision runs on idle polls *and* (throttled) under load,
            # so a steady request stream cannot starve crash/stall/deadline
            # detection.
            now = time.monotonic()
            if not ready or now - last_supervise >= _POLL_INTERVAL_S:
                last_supervise = now
                self._check_workers()
                self._expire_overdue()
                if self._finished():
                    self._all_done.set()
                    if self._shutdown:
                        return

    def _dispatch(self, message: tuple) -> None:
        kind = message[0]
        if kind == "ok":
            self._beat(message[2])
            self._resolve(message[1], message[2], message[3])
        elif kind == "err":
            self._beat(message[2])
            self._fail(message[1], message[2], message[3], message[4])
        elif kind == "hb":
            self._beat(message[1])
        elif kind == "bye":
            self._on_bye(message[1], message[2])
        elif kind == "fatal":
            self._on_fatal(message[1], message[2])

    def _beat(self, worker_id: int) -> None:
        for worker in self._workers:
            if worker.worker_id == worker_id:
                worker.last_heartbeat = time.time()

    def _finished(self) -> bool:
        return self._shutdown and all(
            worker.finished or (not worker.is_running() and self._drained(worker)) for worker in self._workers
        )

    @staticmethod
    def _drained(worker: _Worker) -> bool:
        """Whether every message ``worker`` sent has been read.

        A worker's process can exit before the collector reads its last
        messages (its shutdown snapshot, say); until they are read, its exit
        is neither a crash nor the end of the pool.
        """
        return worker.results.closed or not worker.results.poll()

    def _take(self, request_id: int) -> _InFlight | None:
        with self._lock:
            slot = self._inflight.pop(request_id, None)
            if slot is not None:
                for worker in self._workers:
                    if worker.worker_id == slot.worker_id:
                        worker.inflight -= 1
        return slot

    def _resolve(self, request_id: int, worker_id: int, payload: dict) -> None:
        slot = self._take(request_id)
        if slot is None or slot.future.done():
            return  # duplicate delivery after a requeue race
        # Request telemetry is recorded by the worker engine that served it
        # (shipped in its shutdown snapshot); the frontend contributes only
        # rejections, queue depth and its own result-tier hits, so nothing
        # is counted twice in the merged fleet totals.
        if slot.key is not None:
            with self._lock:
                self.result_cache.store(slot.key, payload["logits"], payload["label"], payload["probabilities"])
        slot.future.set_result(InferenceResult(request_id=request_id, worker=worker_id, **payload))

    def _fail(self, request_id: int, worker_id: int, error_type: str, message: str) -> None:
        slot = self._take(request_id)
        if slot is None or slot.future.done():
            return
        if error_type == "DeadlineExceeded":
            get_metrics().count("serving.pool.deadline_expired")
        exception = _ERROR_TYPES.get(error_type, RuntimeError)(f"worker {worker_id}: {message}")
        slot.future.set_exception(exception)

    def _on_bye(self, worker_id: int, snapshot: dict) -> None:
        self.worker_snapshots[worker_id] = snapshot
        for worker in self._workers:
            if worker.worker_id == worker_id:
                worker.finished = True
                worker.alive = False

    def _on_fatal(self, worker_id: int, message: str) -> None:
        _LOGGER.error("pool worker %d failed to start: %s", worker_id, message)
        for worker in self._workers:
            if worker.worker_id == worker_id:
                worker.alive = False
                self._schedule_restart(worker)
        self._reassign(worker_id, reason=f"worker {worker_id} failed to start: {message}")

    def _schedule_restart(self, worker: _Worker) -> None:
        backoff = min(self.pool_config.restart_backoff_s * 2.0**worker.restarts, _RESTART_BACKOFF_MAX_S)
        worker.next_restart_at = time.time() + backoff

    def _on_crash(self, worker: _Worker, reason: str) -> None:
        worker.alive = False
        self.worker_crashes += 1
        get_metrics().count("serving.pool.worker_crashes")
        self._schedule_restart(worker)
        self._reassign(worker.worker_id, reason=reason)

    def _check_workers(self) -> None:
        """Supervisor pass: detect crashes and stalls, restart within budget."""
        now = time.time()
        config = self.pool_config
        for worker in self._workers:
            if not worker.alive or worker.finished:
                continue
            if not worker.process.is_alive():
                if not self._drained(worker):
                    continue  # read its last messages first
                _LOGGER.warning("pool worker %d died (exit code %s)", worker.worker_id, worker.process.exitcode)
                self._on_crash(worker, reason=f"worker {worker.worker_id} crashed")
            elif (
                not self._shutdown
                and config.heartbeat_timeout_s > 0
                and now - worker.last_heartbeat > config.heartbeat_timeout_s
            ):
                # Alive but silent past the timeout: the serve loop is wedged.
                # Kill it and let the restart path bring up a fresh process.
                self.stalls += 1
                get_metrics().count("serving.pool.stalled")
                _LOGGER.warning(
                    "pool worker %d stalled (no heartbeat for %.1fs); killing it",
                    worker.worker_id,
                    now - worker.last_heartbeat,
                )
                worker.process.kill()
                worker.process.join(timeout=5.0)
                self._on_crash(worker, reason=f"worker {worker.worker_id} stalled")
        if self._shutdown:
            return
        for worker in self._workers:
            if (
                not worker.alive
                and not worker.finished
                and worker.restarts < config.max_restarts
                and now >= worker.next_restart_at
            ):
                self._restart_worker(worker)

    def _restart_worker(self, worker: _Worker) -> None:
        """Replace a dead worker's process (same slot, fresh queue + engine).

        When the restart budget is exhausted the slot stays dead and the
        pool degrades to the surviving workers — requests keep flowing as
        long as one worker lives.
        """
        worker.restarts += 1
        self.restarts += 1
        get_metrics().count("serving.pool.restarts")
        process, task_queue, results = self._launch_worker(worker.worker_id)
        worker.results.close()  # the dead process's pipe; its requests were reassigned
        with self._lock:
            worker.process = process
            worker.task_queue = task_queue
            worker.results = results
            worker.inflight = 0
            worker.last_heartbeat = time.time()
            worker.alive = True
            if self._shutdown:
                task_queue.put(("stop",))
        _LOGGER.warning(
            "restarted pool worker %d (restart %d/%d)",
            worker.worker_id,
            worker.restarts,
            self.pool_config.max_restarts,
        )

    def _expire_overdue(self) -> None:
        """Fail any in-flight request past ``deadline + grace``.

        Workers drop expired requests they dequeue, but a request a dead or
        wedged worker never dequeues would otherwise hang its future
        forever; this sweep bounds every caller's wait at the deadline plus
        a small delivery grace.
        """
        now = time.time()
        with self._lock:
            overdue = [
                request_id for request_id, slot in self._inflight.items() if now > slot.deadline + _DEADLINE_GRACE_S
            ]
        for request_id in overdue:
            slot = self._take(request_id)
            if slot is None or slot.future.done():
                continue
            get_metrics().count("serving.pool.deadline_expired")
            slot.future.set_exception(
                DeadlineExceededError(f"request {request_id} exceeded its deadline before being served")
            )

    def _reassign(self, dead_worker_id: int, reason: str) -> None:
        """Requeue (once) or fail every in-flight request of a dead worker."""
        with self._lock:
            orphans = [
                (request_id, slot)
                for request_id, slot in self._inflight.items()
                if slot.worker_id == dead_worker_id
            ]
        for request_id, slot in orphans:
            retry_target: _Worker | None = None
            if slot.retries < self.pool_config.max_retries and time.time() < slot.deadline:
                with self._lock:
                    try:
                        retry_target = self._pick_worker()
                    except RuntimeError:
                        retry_target = None
                    if retry_target is not None:
                        slot.retries += 1
                        slot.worker_id = retry_target.worker_id
                        retry_target.inflight += 1
            if retry_target is not None:
                self.requeued += 1
                get_metrics().count("serving.pool.requeued")
                retry_target.task_queue.put(("req", request_id, slot.model, slot.points, slot.deadline))
            else:
                taken = self._take(request_id)
                if taken is not None and not taken.future.done():
                    taken.future.set_exception(WorkerCrashError(reason))

    # ------------------------------------------------------------------ #
    # Shutdown / telemetry aggregation
    # ------------------------------------------------------------------ #
    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the pool: drain, collect worker snapshots, merge telemetry.

        Idempotent.  Each worker finishes its queued requests, ships its
        telemetry/cache/metrics snapshot and exits; the frontend merges the
        metrics snapshots into the process-global registry (so ``--trace``
        and ``repro report`` see fleet-wide totals) and keeps the raw
        per-worker snapshots for :meth:`report`.
        """
        if self._shutdown:
            return
        self.drain(timeout=timeout)
        with self._lock:
            # Atomic with _restart_worker's swap: a slot restarted concurrently
            # either is running here or sees the flag and stops itself.
            self._shutdown = True
            for worker in self._workers:
                if worker.is_running():
                    worker.task_queue.put(("stop",))
        self._all_done.wait(timeout=timeout)
        self._collector.join(timeout=timeout)
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        # Fail anything still unresolved (e.g. every worker crashed at once).
        with self._lock:
            leftovers = list(self._inflight.items())
            self._inflight.clear()
        for _, slot in leftovers:
            if not slot.future.done():
                slot.future.set_exception(WorkerCrashError("pool shut down before the request completed"))
        metric_snapshots = [
            snapshot["metrics"] for snapshot in self.worker_snapshots.values() if snapshot.get("metrics")
        ]
        if metric_snapshots:
            self.fleet_metrics = merge_snapshots(*metric_snapshots)
            registry = get_metrics()
            if registry.enabled:
                registry.merge(self.fleet_metrics)
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def fleet_telemetry(self) -> TelemetryStore:
        """Frontend telemetry with every collected worker snapshot merged in."""
        snapshots = [self.telemetry.snapshot()] + [snapshot["telemetry"] for snapshot in self.worker_snapshots.values()]
        # Room for every process's whole window: a single window's room
        # would keep only the last-merged process's values.
        fleet = TelemetryStore(self.telemetry.window * len(snapshots))
        for snapshot in snapshots:
            fleet.merge(snapshot)
        return fleet

    def fleet_cache_stats(self) -> dict[str, CacheStats]:
        """Per-cache counters summed across collected worker snapshots.

        ``"result"`` is the frontend's tier when it is on: it looks up every
        admitted request once, and the workers' zero-capacity tiers would
        only count its misses again.
        """
        totals: dict[str, dict[str, int]] = {}
        for snapshot in self.worker_snapshots.values():
            for name, stats in snapshot.get("caches", {}).items():
                bucket = totals.setdefault(name, {"hits": 0, "misses": 0, "evictions": 0, "size": 0, "capacity": 0})
                for field in bucket:
                    bucket[field] += int(stats.get(field, 0))
        if "shared" in totals:
            # One shared directory, reported by every worker: size/capacity
            # are a shared view, not additive.
            workers = max(1, len(self.worker_snapshots))
            totals["shared"]["size"] //= workers
            totals["shared"]["capacity"] //= workers
        if self._content_keys:
            totals["result"] = dataclasses.asdict(self.result_cache.stats())
        return {name: CacheStats(**bucket) for name, bucket in totals.items()}

    def report(self) -> dict[str, object]:
        """Fleet-wide telemetry report with per-worker breakdowns."""
        fleet = self.fleet_telemetry()
        per_worker = {}
        for worker_id, snapshot in sorted(self.worker_snapshots.items()):
            worker_store = TelemetryStore().merge(snapshot["telemetry"])
            per_worker[worker_id] = worker_store.report()
        return {
            "fleet": fleet.report(self.fleet_cache_stats() or None),
            "workers": per_worker,
            "frontend": {
                "submitted": self.submitted,
                "requeued": self.requeued,
                "worker_crashes": self.worker_crashes,
                "restarts": self.restarts,
                "stalls": self.stalls,
                "pool_workers": self.pool_config.workers,
            },
        }

    def format_report(self) -> str:
        """Human-readable fleet report (fleet aggregate + per-worker lines)."""
        report = self.report()
        fleet = self.fleet_telemetry()
        lines = ["== fleet telemetry (all workers) =="]
        lines.append(fleet.format_report(self.fleet_cache_stats() or None))
        frontend = report["frontend"]
        lines.append(
            f"frontend: submitted={frontend['submitted']} requeued={frontend['requeued']} "
            f"worker_crashes={frontend['worker_crashes']} restarts={frontend['restarts']} "
            f"stalls={frontend['stalls']} workers={frontend['pool_workers']}"
        )
        for worker_id, worker_report in report["workers"].items():
            served = sum(stats["served"] for stats in worker_report["models"].values())
            batches = sum(stats["batches"] for stats in worker_report["models"].values())
            lines.append(f"worker {worker_id}: served={served} batches={batches}")
        return "\n".join(lines)
