"""Per-model serving telemetry, built on the :mod:`repro.obs` primitives.

Tracks, per deployed model, a rolling window of request latencies
(queueing + batch execution), batch sizes, busy time (a
:class:`repro.utils.timer.Timer` around each batch), throughput (over the
window of batches and cache hits), admission rejections and the peak
queue depth.  The engine injects its cache
counters so one report covers the whole serving stack.

Counts live in :class:`~repro.obs.metrics.Counter` objects and the rolling
windows in windowed :class:`~repro.obs.metrics.Histogram` objects, so a
worker's telemetry has a JSON-serializable :meth:`ModelTelemetry.snapshot`
and an exact :meth:`ModelTelemetry.merge` — the aggregation primitive a
multi-worker frontend needs.  The public ``report()`` shapes are unchanged
from the pre-:mod:`repro.obs` implementation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.nn.dtype import WIDE_DTYPE
from repro.obs.metrics import Counter, Histogram
from repro.serving.cache import CacheStats
from repro.utils.timer import Timer

__all__ = ["ModelTelemetry", "TelemetryStore"]

_PERCENTILES = (50.0, 95.0, 99.0)

#: Millisecond-scale buckets for request latency / queueing histograms.
_MS_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)

#: Power-of-two-ish buckets for batch-size histograms.
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class ModelTelemetry:
    """Rolling statistics for one deployed model."""

    def __init__(self, window: int = 1024):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._latency = Histogram("serving.request.latency_ms", buckets=_MS_BUCKETS, window=window)
        self._queue = Histogram("serving.request.queue_ms", buckets=_MS_BUCKETS, window=window)
        self._batch_size = Histogram("serving.batch.size", buckets=_SIZE_BUCKETS, window=window)
        self._served = Counter("serving.request.served")
        self._cache_hits = Counter("serving.request.cache_hits")
        self._rejected = Counter("serving.request.rejected")
        self._batches = Counter("serving.batch.count")
        self.busy = Timer()

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def record_request(self, latency_ms: float, queue_ms: float, from_cache: bool, at: float | None = None) -> None:
        """Record one completed request.

        ``at`` is the ``time.perf_counter`` reading of a request answered
        outside every batch (a result-cache hit); it widens the throughput
        window to cover that request.
        """
        self._latency.observe(latency_ms)
        self._queue.observe(queue_ms)
        self._served.inc()
        if from_cache:
            self._cache_hits.inc()
        if at is not None:
            busy = self.busy
            busy.first_started_at = at if busy.first_started_at is None else min(busy.first_started_at, at)
            busy.last_stopped_at = at if busy.last_stopped_at is None else max(busy.last_stopped_at, at)

    def record_batch(self, size: int) -> None:
        """Record one executed batch."""
        self._batch_size.observe(size)
        self._batches.inc()

    def record_rejection(self) -> None:
        """Record one request refused by admission control."""
        self._rejected.inc()

    # -------------------------------------------------------------- #
    # Readers (the historical public surface)
    # -------------------------------------------------------------- #
    @property
    def served(self) -> int:
        return int(self._served.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def rejected(self) -> int:
        return int(self._rejected.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def latencies_ms(self):
        """The rolling window of request latencies (most recent last)."""
        return self._latency.window

    @property
    def queue_ms(self):
        """The rolling window of queueing delays (most recent last)."""
        return self._queue.window

    def latency_percentiles(self, percentiles: Sequence[float] | None = None) -> dict[str, float]:
        """Rolling request-latency percentiles in milliseconds.

        Args:
            percentiles: Percentile ranks in ``[0, 100]``; defaults to
                p50/p95/p99.  Keys are derived once as ``f"p{p:g}"``
                (``p50``, ``p99.9``, ...).
        """
        percentiles = _PERCENTILES if percentiles is None else tuple(percentiles)
        keys = [f"p{p:g}" for p in percentiles]
        if not self._latency.window:
            return {key: 0.0 for key in keys}
        values = np.asarray(self._latency.window, dtype=WIDE_DTYPE)
        return {key: float(np.percentile(values, p)) for key, p in zip(keys, percentiles)}

    @property
    def throughput_rps(self) -> float:
        """Requests served per second of wall time, over the window every served request falls in.

        The window runs from the first batch start or cache hit to the last
        batch end or cache hit.  It is on ``time.perf_counter``, one
        monotonic clock across worker processes on Linux, so after
        :meth:`merge` it spans the whole fleet, frontend hits included, and
        a pool reports its real rate.
        """
        start, end = self.busy.first_started_at, self.busy.last_stopped_at
        window = end - start if start is not None and end is not None else 0.0
        return self.served / window if window > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        sizes = self._batch_size.window
        return float(np.mean(sizes)) if sizes else 0.0

    def report(self, percentiles: Sequence[float] | None = None) -> dict[str, object]:
        """Snapshot of every statistic as a JSON-compatible dict."""
        queue = self._queue.window
        return {
            "served": self.served,
            "rejected": self.rejected,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "busy_s": round(self.busy.elapsed, 4),
            "result_cache_hits": self.cache_hits,
            "mean_queue_ms": round(float(np.mean(queue)) if queue else 0.0, 3),
            "latency_ms": {k: round(v, 3) for k, v in self.latency_percentiles(percentiles).items()},
        }

    # -------------------------------------------------------------- #
    # Cross-worker aggregation
    # -------------------------------------------------------------- #
    def snapshot(self) -> dict:
        """JSON-serializable state, mergeable via :meth:`merge`."""
        return {
            "window": self.window,
            "busy_s": self.busy.elapsed,
            "busy_start": self.busy.first_started_at,
            "busy_end": self.busy.last_stopped_at,
            "latency": self._latency.snapshot(),
            "queue": self._queue.snapshot(),
            "batch_size": self._batch_size.snapshot(),
            "served": self._served.snapshot(),
            "cache_hits": self._cache_hits.snapshot(),
            "rejected": self._rejected.snapshot(),
            "batches": self._batches.snapshot(),
        }

    def merge(self, snapshot: Mapping) -> "ModelTelemetry":
        """Fold another worker's :meth:`snapshot` into this telemetry.

        Counts and busy time add exactly; the throughput window keeps the
        earlier start and the later end; the rolling windows concatenate and
        truncate to this telemetry's window size.
        """
        self._latency.merge(snapshot["latency"])
        self._queue.merge(snapshot["queue"])
        self._batch_size.merge(snapshot["batch_size"])
        self._served.merge(snapshot["served"])
        self._cache_hits.merge(snapshot["cache_hits"])
        self._rejected.merge(snapshot["rejected"])
        self._batches.merge(snapshot["batches"])
        self.busy.elapsed += float(snapshot.get("busy_s", 0.0))
        starts = [t for t in (self.busy.first_started_at, snapshot.get("busy_start")) if t is not None]
        ends = [t for t in (self.busy.last_stopped_at, snapshot.get("busy_end")) if t is not None]
        self.busy.first_started_at = min(starts, default=None)
        self.busy.last_stopped_at = max(ends, default=None)
        return self


class TelemetryStore:
    """Telemetry for every model served by one engine."""

    def __init__(self, window: int = 1024):
        self.window = window
        self._models: dict[str, ModelTelemetry] = {}
        self.peak_queue_depth = 0

    def model(self, name: str) -> ModelTelemetry:
        """Return (creating on first use) the telemetry of one model."""
        if name not in self._models:
            self._models[name] = ModelTelemetry(self.window)
        return self._models[name]

    def observe_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of the request queue."""
        self.peak_queue_depth = max(self.peak_queue_depth, int(depth))

    def snapshot(self) -> dict:
        """JSON-serializable state of every model, mergeable via :meth:`merge`."""
        return {
            "peak_queue_depth": self.peak_queue_depth,
            "models": {name: telemetry.snapshot() for name, telemetry in self._models.items()},
        }

    def merge(self, snapshot: Mapping) -> "TelemetryStore":
        """Fold another worker's :meth:`snapshot` into this store."""
        self.peak_queue_depth = max(self.peak_queue_depth, int(snapshot.get("peak_queue_depth", 0)))
        for name, model_snapshot in snapshot.get("models", {}).items():
            self.model(name).merge(model_snapshot)
        return self

    def report(
        self,
        cache_stats: Mapping[str, CacheStats] | None = None,
        percentiles: Sequence[float] | None = None,
    ) -> dict[str, object]:
        """Aggregate report over all models plus engine-level gauges.

        Args:
            cache_stats: Engine cache counters to embed under ``"caches"``.
            percentiles: Latency percentile ranks (default p50/p95/p99),
                forwarded to every model's :meth:`ModelTelemetry.report`.
        """
        report: dict[str, object] = {
            "models": {
                name: telemetry.report(percentiles) for name, telemetry in self._models.items()
            },
            "peak_queue_depth": self.peak_queue_depth,
        }
        if cache_stats:
            report["caches"] = {
                name: {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "size": stats.size,
                    "capacity": stats.capacity,
                    "hit_rate": round(stats.hit_rate, 4),
                }
                for name, stats in cache_stats.items()
            }
        return report

    def format_report(self, cache_stats: Mapping[str, CacheStats] | None = None) -> str:
        """Human-readable multi-line report."""
        report = self.report(cache_stats)
        lines = ["== serving telemetry =="]
        for name, stats in report["models"].items():
            latency = stats["latency_ms"]
            lines.append(
                f"{name}: served={stats['served']} rejected={stats['rejected']} "
                f"batches={stats['batches']} (mean size {stats['mean_batch_size']:.1f}) "
                f"throughput={stats['throughput_rps']:.1f} req/s"
            )
            lines.append(
                f"    latency p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms "
                f"p99={latency['p99']:.2f}ms  mean queue={stats['mean_queue_ms']:.2f}ms"
            )
        lines.append(f"peak queue depth: {report['peak_queue_depth']}")
        for name, stats in report.get("caches", {}).items():
            lines.append(
                f"{name} cache: hit rate {stats['hit_rate']:.1%} "
                f"({stats['hits']} hits / {stats['misses']} misses, "
                f"{stats['size']}/{stats['capacity']} entries)"
            )
        return "\n".join(lines)
