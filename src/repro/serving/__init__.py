"""Inference serving for searched architectures.

Turns HGNAS search results into a servable workload — the deployment
scenario the paper optimises for.  The subsystem layers:

* :mod:`repro.serving.registry` — named, persistable deployments
  (architecture + model + target device + SLO).
* :mod:`repro.serving.cache` — bounded LRU caches for KNN edge indices
  (the dominant cost, per the paper) and full inference results.
* :mod:`repro.serving.engine` — the synchronous engine with cost-model
  driven admission control tying it all together; each call runs its
  admitted misses in submission order, ``max_batch_size`` at a time.
* :mod:`repro.serving.telemetry` — rolling latency percentiles,
  throughput, queue depth and cache hit rates per model.
* :mod:`repro.serving.diskcache` — disk-backed, cross-process cache tier
  shared by the workers of a pool.
* :mod:`repro.serving.pool` — :class:`WorkerPoolEngine`: N worker
  processes, each hosting a full engine, behind one future-based frontend
  that admits requests and answers repeated clouds from its result tier
  before IPC, with crash requeue and fleet telemetry.
* :mod:`repro.serving.frontend` — asyncio adapter over the pool plus a
  JSON-lines TCP server (``repro serve --workers N --port P``) with
  connect/read timeouts.
* :mod:`repro.serving.resilience` — client-side retry-with-backoff and a
  circuit breaker composed by the frontend.

The pipeline deploys and serves through
:meth:`repro.workspace.Workspace.deploy` and
:meth:`repro.workspace.Workspace.serve` (or ``serve_pool``).
"""

from repro.serving.cache import CacheStats, CachingGraphBuilder, LRUCache, cloud_fingerprint
from repro.serving.diskcache import SharedArrayCache, deployment_fingerprint
from repro.serving.engine import (
    AdmissionError,
    EngineConfig,
    InferenceEngine,
    InferenceResult,
    validate_points,
)
from repro.serving.frontend import AsyncServingFrontend, FrontendTimeoutError, request_over_tcp
from repro.serving.pool import DeadlineExceededError, PoolConfig, WorkerCrashError, WorkerPoolEngine
from repro.serving.registry import DeployedModel, ModelRegistry
from repro.serving.resilience import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.serving.telemetry import ModelTelemetry, TelemetryStore

__all__ = [
    "CacheStats",
    "CachingGraphBuilder",
    "LRUCache",
    "cloud_fingerprint",
    "SharedArrayCache",
    "deployment_fingerprint",
    "AdmissionError",
    "EngineConfig",
    "InferenceEngine",
    "InferenceResult",
    "validate_points",
    "AsyncServingFrontend",
    "FrontendTimeoutError",
    "request_over_tcp",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryPolicy",
    "DeadlineExceededError",
    "PoolConfig",
    "WorkerCrashError",
    "WorkerPoolEngine",
    "DeployedModel",
    "ModelRegistry",
    "ModelTelemetry",
    "TelemetryStore",
]
