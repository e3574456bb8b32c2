"""The inference engine: registry + batching + caches + telemetry.

:class:`InferenceEngine` serves point-cloud classification requests
through deployed searched architectures with a synchronous
``submit()``/``submit_many()`` API:

1. **Admission control** — each request's latency on the entry's target
   device is estimated with the analytical cost model
   (:func:`repro.hardware.latency.estimate_latency`); requests whose
   estimate exceeds the entry's SLO budget, or that arrive once the call
   holds ``max_queue_depth`` misses, are rejected up front instead of run.
2. **Result cache** — a bounded LRU keyed by the content hash of the
   (quantised) input cloud answers repeated inputs without running the
   model (:class:`ResultTier`, which the pool frontend uses too).  An entry
   keeps the logits, label and probabilities of the input's first
   computation, computed once; a hit hands out copies of them.
3. **Batching** — a call's admitted misses run in submission order, up to
   ``max_batch_size`` at a time, as packed ragged batches
   (:func:`repro.graph.batching.pack_clouds`).
4. **Edge cache** — during execution a
   :class:`~repro.serving.cache.CachingGraphBuilder` reuses the per-cloud
   graphs a later request can: KNN over the request coordinates and random
   graphs.  KNN over learned features is built fresh, unhashed.  The builder
   is deterministic (random sampling is seeded from the coordinate
   fingerprint and the layer index), so results are bit-identical with
   caching on or off.

Each call runs on the caller's thread and returns once its batches have
run; nothing is left queued between calls.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.backends import active_backend_name, check_backend, use_backend
from repro.data.dataset import Batch
from repro.graph.batching import pack_clouds
from repro.hardware.latency import estimate_latency
from repro.nn.dtype import get_default_dtype
from repro.nn.tensor import no_grad
from repro.serving.cache import CachingGraphBuilder, LRUCache, cloud_fingerprint
from repro.serving.diskcache import SharedArrayCache, deployment_fingerprint
from repro.serving.registry import DeployedModel, ModelRegistry
from repro.serving.telemetry import TelemetryStore

__all__ = [
    "AdmissionControl",
    "AdmissionError",
    "EngineConfig",
    "InferenceResult",
    "InferenceEngine",
    "ResultTier",
    "validate_points",
]


class AdmissionError(RuntimeError):
    """Raised when admission control rejects a request."""


@dataclass(frozen=True)
class EngineConfig:
    """Serving-engine policy knobs.  Fixed: cache keys round clouds to 6 decimals; telemetry windows hold 1024 values."""

    max_batch_size: int = 8
    result_cache_capacity: int = 512
    edge_cache_capacity: int = 512
    admission_control: bool = True
    #: Admission cap: the misses one engine call may hold, and the requests
    #: a :class:`~repro.serving.pool.WorkerPoolEngine` frontend keeps in
    #: flight.
    max_queue_depth: int = 1024
    #: Message-passing path batches execute under (``"numpy"`` or
    #: ``"materialized"``, see :mod:`repro.backends`); ``None`` follows the
    #: ambient path.
    backend: str | None = None
    #: Directory of the cross-process result/edge cache tier shared by the
    #: workers of a :class:`~repro.serving.pool.WorkerPoolEngine`; ``None``
    #: keeps caching purely in-process.
    shared_cache_dir: str | None = None

    def __post_init__(self) -> None:
        # Every policy knob is validated at construction so misconfiguration
        # fails here with a clear message instead of deep inside a call
        # (or inside a worker process, once N engines run behind a pool).
        if self.max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_queue_depth <= 0:
            raise ValueError(f"max_queue_depth must be positive, got {self.max_queue_depth}")
        if self.result_cache_capacity < 0 or self.edge_cache_capacity < 0:
            raise ValueError("cache capacities must be >= 0")
        if self.backend is not None:
            check_backend(self.backend)


@dataclass
class InferenceResult:
    """Outcome of one served request."""

    request_id: int
    model: str
    label: int
    logits: np.ndarray
    probabilities: np.ndarray
    latency_ms: float
    queue_ms: float
    batch_size: int
    from_cache: bool
    estimated_device_ms: float
    #: Pool worker that served the request (``None`` for in-process engines).
    worker: int | None = None


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def validate_points(entry: DeployedModel, points: np.ndarray) -> np.ndarray:
    """Coerce and validate one request cloud against a deployment.

    Shared by the in-process engine and the pool frontend (which validates
    before paying the IPC cost of dispatching to a worker).  Serving is an
    entry point, so requests are coerced to the default compute dtype.
    """
    points = np.asarray(points, dtype=get_default_dtype())
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"a request must be a non-empty (N, D) cloud, got shape {points.shape}")
    if entry.signature is not None:
        # O(1) admission check against the statically inferred contract —
        # catches e.g. a single-point cloud sent to a KNN-sampling model
        # up front instead of failing deep inside batch execution.
        problems = entry.signature.validate_request(points.shape[0], points.shape[1])
        if problems:
            raise ValueError(f"model '{entry.name}' cannot serve this request: " + "; ".join(problems))
    elif points.shape[1] != entry.architecture.input_dim:
        raise ValueError(
            f"model '{entry.name}' expects {entry.architecture.input_dim}-D point features, "
            f"got a cloud of shape {points.shape}"
        )
    if not np.isfinite(points).all():
        raise ValueError("a request cloud must not contain NaN or infinite coordinates")
    return points


class AdmissionControl:
    """Cost-model SLO and capacity admission, before a request runs.

    Shared by the in-process engine (depth = the misses its call admitted so
    far) and the pool frontend (depth = its in-flight requests, checked
    before IPC).
    ``depth_text`` formats the depth in the capacity rejection message.
    """

    def __init__(self, telemetry: TelemetryStore, enabled: bool, max_depth: int, depth_text: str):
        self.telemetry = telemetry
        self.enabled = enabled
        self.max_depth = max_depth
        self.depth_text = depth_text
        self._estimates: dict[tuple[str, int], float] = {}

    def estimate_request_ms(self, entry: DeployedModel, num_points: int) -> float:
        """Cost-model latency of one ``num_points`` request on the entry's device."""
        key = (entry.name, num_points)
        if key not in self._estimates:
            workload = entry.architecture.to_workload(
                num_points=num_points, k=entry.k, num_classes=entry.num_classes
            )
            self._estimates[key] = estimate_latency(workload, entry.device).total_ms
        return self._estimates[key]

    def admit(self, entry: DeployedModel, num_points: int, depth: int) -> float:
        """Return the request's estimate, or raise :class:`AdmissionError`."""
        estimated = self.estimate_request_ms(entry, num_points)
        if not self.enabled:
            return estimated
        if entry.slo_ms is not None and estimated > entry.slo_ms:
            self.telemetry.model(entry.name).record_rejection()
            raise AdmissionError(
                f"request rejected: estimated {estimated:.2f} ms on {entry.device.name} "
                f"exceeds the {entry.slo_ms:.2f} ms SLO of model '{entry.name}'"
            )
        if depth >= self.max_depth:
            self.telemetry.model(entry.name).record_rejection()
            raise AdmissionError(
                f"request rejected: {self.depth_text.format(depth=depth)} at capacity "
                f"({self.max_depth})"
            )
        return estimated


class _Answer(NamedTuple):
    """One result-tier entry: an input's first computed reply, with read-only arrays."""

    logits: np.ndarray
    label: int
    probabilities: np.ndarray


def _answer(logits: np.ndarray, label: int | None = None, probabilities: np.ndarray | None = None) -> _Answer:
    """A read-only copy of one computed reply; the label and probabilities are derived when not given."""
    logits = np.array(logits, copy=True)
    if label is None:
        label = int(np.argmax(logits))
    probabilities = _softmax(logits) if probabilities is None else np.array(probabilities, copy=True)
    logits.setflags(write=False)
    probabilities.setflags(write=False)
    return _Answer(logits, label, probabilities)


class ResultTier:
    """The in-memory result tier: request key → the reply of the input's first computation.

    One helper for both places a request is answered from cache before any
    compute: the in-process engine's admission (which also reads the shared
    disk tier) and the pool frontend, before IPC.  First write wins, so a
    hit always replays the bits of its input's first computation.  Each
    entry keeps the logits, label and probabilities computed once when it
    was stored (or promoted from the disk tier), and every hit hands out
    copies of its arrays.  Not thread-safe: the pool guards it with its
    lock.
    """

    def __init__(self, capacity: int, shared: SharedArrayCache | None = None):
        self.cache = LRUCache(capacity)
        self.shared = shared

    def key(self, model: str, content_key: str, points: np.ndarray) -> str:
        """Cache key of one request: its quantised cloud, model name and deployment content."""
        return cloud_fingerprint(points, extra=(model, content_key))

    def lookup(self, key: str, request_id: int, model: str, estimated_device_ms: float) -> InferenceResult | None:
        """The cached reply to a request, or ``None`` on a miss."""
        answer = self.cache.get(key)
        if answer is None and self.shared is not None:
            # Cross-process tier: a cloud computed by any pool worker is a
            # hit here too, promoted into the local tier.
            logits = self.shared.get(key)
            if logits is not None:
                answer = _answer(logits)
                self.cache.put(key, answer)
        if answer is None:
            return None
        return InferenceResult(
            request_id=request_id,
            model=model,
            label=answer.label,
            logits=answer.logits.copy(),
            probabilities=answer.probabilities.copy(),
            latency_ms=0.0,
            queue_ms=0.0,
            batch_size=0,
            from_cache=True,
            estimated_device_ms=estimated_device_ms,
        )

    def store(
        self, key: str, logits: np.ndarray, label: int | None = None, probabilities: np.ndarray | None = None
    ) -> None:
        """Keep a computed reply, unless the key already holds an earlier one.

        ``label`` and ``probabilities`` are the ones computed with ``logits``;
        left out, they are derived from the logits here.
        """
        if key not in self.cache:
            self.cache.put(key, _answer(logits, label, probabilities))
        if self.shared is not None:
            # First write wins on disk too: put_if_absent keeps the bits of a
            # key's first cross-process computation.
            self.shared.put_if_absent(key, logits)

    def stats(self):
        """Counters of the in-memory tier."""
        return self.cache.stats()


@dataclass
class _Miss:
    """An admitted request the result tier could not answer, awaiting its batch."""

    index: int  # position in the call's stream
    request_id: int
    points: np.ndarray
    fingerprint: str
    estimated_device_ms: float
    admitted_at: float


class InferenceEngine:
    """Batched, cached, SLO-aware serving over a :class:`ModelRegistry`."""

    def __init__(self, registry: ModelRegistry, config: EngineConfig | None = None):
        self.registry = registry
        self.config = config or EngineConfig()
        self.edge_cache = LRUCache(self.config.edge_cache_capacity)
        self.telemetry = TelemetryStore()
        self.admission = AdmissionControl(
            self.telemetry, self.config.admission_control, self.config.max_queue_depth, "queue depth {depth}"
        )
        # Optional cross-process tier: result logits and KNN edge indices
        # shared with the other workers of a pool through disk.
        self.shared_cache: SharedArrayCache | None = None
        shared_edges: SharedArrayCache | None = None
        if self.config.shared_cache_dir is not None:
            shared_root = pathlib.Path(self.config.shared_cache_dir)
            self.shared_cache = SharedArrayCache(shared_root / "results")
            shared_edges = SharedArrayCache(shared_root / "edges")
        self.result_cache = ResultTier(self.config.result_cache_capacity, shared=self.shared_cache)
        # Deterministic even with caching disabled, so cached and uncached
        # engines produce bit-identical logits.
        caching = self.config.edge_cache_capacity > 0
        self._graph_builder = CachingGraphBuilder(
            cache=self.edge_cache if caching else None, shared=shared_edges if caching else None
        )
        self._content_keys: dict[tuple[str, int], str] = {}
        self._next_request_id = 0

    def _backend_name(self) -> str:
        """Path batches of this engine execute under (for cache identity)."""
        return self.config.backend or active_backend_name()

    def _content_key(self, entry: DeployedModel) -> str:
        """Process-independent cache identity of one deployment.

        Hashes genotype + head configuration + weight bytes + backend, so
        the key is stable across the worker processes of a pool (unlike the
        per-registry ``generation`` counter) while a redeploy that changes
        the weights or architecture still invalidates every cached result.
        Cached per (name, generation) so the weights are hashed once per
        deployment, not per request.
        """
        cache_key = (entry.name, entry.generation)
        if cache_key not in self._content_keys:
            self._content_keys[cache_key] = deployment_fingerprint(entry, self._backend_name())
        return self._content_keys[cache_key]

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(self, model: str, points: np.ndarray) -> InferenceResult:
        """Serve one point cloud synchronously.

        Raises:
            AdmissionError: When the request would blow the model's SLO
                budget.
        """
        return self._serve(model, [points])[0]

    def submit_many(self, model: str, clouds) -> list[InferenceResult]:
        """Serve a stream of clouds in batches; results come back in submission order.

        Admission is all-or-nothing: every request is admitted (or rejected)
        before any batch runs, so a rejected or invalid cloud fails the call
        with nothing computed.
        """
        return self._serve(model, clouds)

    def _serve(self, model: str, clouds) -> list[InferenceResult]:
        """Admit every cloud of one call, then run its misses in batches."""
        results: list[InferenceResult | None] = []
        hits = 0
        misses: list[_Miss] = []
        for cloud in clouds:
            entry = self.registry.get(model)
            points = validate_points(entry, cloud)
            estimated = self.admission.admit(entry, points.shape[0], len(misses))
            # The content key distinguishes redeployments of the same name (its
            # weight hash changes), so a replace=True re-registration can never
            # serve stale cached logits; it also folds in the path name, which
            # keeps fused and materialized logits (equal only to allclose) from
            # aliasing — and, unlike a per-process generation counter, it is
            # identical across the worker processes of a pool, making the key
            # valid in the shared disk tier.
            fingerprint = self.result_cache.key(model, self._content_key(entry), points)
            request_id = self._next_request_id
            self._next_request_id += 1
            admitted_at = time.monotonic()
            # Consulted only at admission, never at execution, so the composition
            # of computed batches does not depend on cache state.
            hit = self.result_cache.lookup(fingerprint, request_id, model, estimated)
            if hit is None:
                misses.append(_Miss(len(results), request_id, points, fingerprint, estimated, admitted_at))
                self.telemetry.observe_queue_depth(len(misses))
            else:
                hits += 1
            results.append(hit)
        size = self.config.max_batch_size
        for start in range(0, len(misses), size):
            batch = misses[start : start + size]
            for miss, result in zip(batch, self._execute_batch(model, batch)):
                results[miss.index] = result
        # Hits count as served only once the whole call has succeeded: a call
        # that fails later delivered none of them.
        for _ in range(hits):
            self.telemetry.model(model).record_request(
                latency_ms=0.0, queue_ms=0.0, from_cache=True, at=time.perf_counter()
            )
        return results

    def _execute_batch(self, model: str, requests: list[_Miss]) -> list[InferenceResult]:
        entry = self.registry.get(model)
        telemetry = self.telemetry.model(entry.name)
        started = time.monotonic()
        # In-batch deduplication: identical clouds inside one batch compute
        # once and fan out.  The result cache is only consulted at admission
        # time — never here — so the composition of computed batches does not
        # depend on cache state, which keeps cached and uncached engines
        # bit-identical (BLAS kernels are not bitwise stable across batch
        # shapes).
        compute: list[_Miss] = []
        row_of: dict[str, int] = {}
        for request in requests:
            if request.fingerprint not in row_of:
                row_of[request.fingerprint] = len(compute)
                compute.append(request)
        points, batch_vector = pack_clouds([request.points for request in compute])
        batch = Batch(
            points=points,
            batch=batch_vector,
            labels=np.zeros(len(compute), dtype=np.int64),
            num_graphs=len(compute),
        )
        entry.model.eval()
        entry.model.graph_builder = self._graph_builder
        try:
            with telemetry.busy, no_grad(), use_backend(self._backend_name()):
                logits = entry.model(batch).data
        finally:
            entry.model.graph_builder = None
        telemetry.record_batch(len(compute))
        answers: dict[str, tuple[np.ndarray, int, np.ndarray]] = {}
        for fingerprint, row in row_of.items():
            # Each computed row's label and probabilities are computed once,
            # for its results and its tier entry.
            row_logits = logits[row]
            answers[fingerprint] = answer = (row_logits, int(np.argmax(row_logits)), _softmax(row_logits))
            # First write wins: a cached reply always replays the bits of the
            # input's first computation, so cache hits are reproducible even
            # when later batches recompute the same input in a different
            # (bitwise-unstable) batch composition.
            self.result_cache.store(fingerprint, *answer)
        finished = time.monotonic()
        wall_ms = (finished - started) * 1e3
        results = []
        for request in requests:
            row = row_of[request.fingerprint]
            row_logits, label, probabilities = answers[request.fingerprint]
            # Requests deduplicated onto another request's row were served
            # without dedicated compute; report them as cache-served.
            from_cache = request is not compute[row]
            queue_ms = (started - request.admitted_at) * 1e3
            result = InferenceResult(
                request_id=request.request_id,
                model=entry.name,
                label=label,
                logits=row_logits.copy(),
                probabilities=probabilities.copy(),
                latency_ms=queue_ms + wall_ms,
                queue_ms=queue_ms,
                batch_size=len(compute),
                from_cache=from_cache,
                estimated_device_ms=request.estimated_device_ms,
            )
            results.append(result)
            telemetry.record_request(latency_ms=result.latency_ms, queue_ms=queue_ms, from_cache=from_cache)
        return results

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def cache_stats(self):
        """Result-, edge- and (when configured) shared-cache counter snapshots."""
        stats = {"result": self.result_cache.stats(), "edge": self.edge_cache.stats()}
        if self.shared_cache is not None:
            stats["shared"] = self.shared_cache.stats()
        return stats

    def report(self) -> dict[str, object]:
        """Full telemetry report including cache statistics."""
        return self.telemetry.report(self.cache_stats())

    def format_report(self) -> str:
        """Human-readable telemetry report."""
        return self.telemetry.format_report(self.cache_stats())
