"""Mergeable process metrics: counters, gauges and fixed-bucket histograms.

Every metric produces a JSON-serializable :meth:`snapshot` and can
:meth:`merge` another snapshot of the same shape back in, which is the
cross-process aggregation primitive the multi-worker serving plan needs:
each worker serializes its registry snapshot, the frontend merges them into
one aggregate, and merged counts are exact because counter values and
histogram bucket counts combine by addition (merge is associative and
commutative over the counts).

Metric names follow the ``layer.component.name`` convention, e.g.
``graph.fused.dispatch``, ``nas.evolution.generations``,
``serving.request.latency_ms``.

A process-global default registry (:func:`get_metrics`) lets hot paths
record without threading a registry through every call; instrumentation
goes through :meth:`MetricsRegistry.count` / :meth:`~MetricsRegistry.observe`
so a disabled registry costs one attribute check.
"""

from __future__ import annotations

import bisect
import contextlib
from collections import deque
from typing import Callable, Iterator, Mapping, Sequence, TypeVar, cast

import numpy as np

from repro.nn.dtype import WIDE_DTYPE

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "merge_snapshots",
]

#: Default histogram buckets (upper bounds); a decade-spanning latency scale.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0)

_GAUGE_AGGREGATES = ("max", "min", "sum", "last")

#: The concrete metric type a registry get-or-create call resolves to.
M = TypeVar("M", bound="Counter | Gauge | Histogram")


class Counter:
    """A monotonically increasing count; merges by addition."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def merge(self, snapshot: Mapping) -> None:
        _check_type(self.name, snapshot, "counter")
        self.value += snapshot["value"]

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value with a declared cross-process aggregate.

    ``aggregate`` defines what a merge of two snapshots means: ``max``
    (peaks, the default), ``min``, ``sum``, or ``last`` (the most recently
    merged updated value wins — only meaningful when merge order encodes
    recency).
    """

    __slots__ = ("name", "value", "updates", "aggregate")

    def __init__(self, name: str, aggregate: str = "max") -> None:
        if aggregate not in _GAUGE_AGGREGATES:
            raise ValueError(f"unknown gauge aggregate '{aggregate}', expected one of {_GAUGE_AGGREGATES}")
        self.name = name
        self.value: float | None = None
        self.updates = 0
        self.aggregate = aggregate

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "updates": self.updates, "aggregate": self.aggregate}

    def merge(self, snapshot: Mapping) -> None:
        _check_type(self.name, snapshot, "gauge")
        other_value = snapshot["value"]
        other_updates = int(snapshot.get("updates", 0))
        if other_updates:
            if self.value is None:
                self.value = float(other_value)
            elif self.aggregate == "max":
                self.value = max(self.value, float(other_value))
            elif self.aggregate == "min":
                self.value = min(self.value, float(other_value))
            elif self.aggregate == "sum":
                self.value += float(other_value)
            else:  # last: merge order encodes recency
                self.value = float(other_value)
        self.updates += other_updates

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value}, aggregate={self.aggregate!r})"


class Histogram:
    """A fixed-bucket histogram with optional exact rolling window.

    ``buckets`` are inclusive upper bounds; one overflow bucket is appended,
    so ``counts`` has ``len(buckets) + 1`` entries.  Bucket counts, the
    total count and the value sum merge by addition; ``min``/``max`` by the
    respective extreme — all associative, so any merge tree over worker
    snapshots yields the same aggregate.

    A non-zero ``window`` additionally keeps the most recent raw values for
    exact percentiles (rolling-window semantics, as serving telemetry needs);
    merged windows concatenate and truncate to the window size, so merged
    percentiles are exact over the retained values only.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max", "window_size", "window")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, window: int = 0) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.window_size = int(window)
        self.window: deque[float] | None = deque(maxlen=window) if window else None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self.window is not None:
            self.window.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile: exact over the window, else a bucket bound.

        Without a window the estimate is the upper bound of the bucket the
        quantile falls in, clamped to the observed ``[min, max]`` (the
        overflow bucket reports the observed ``max``).
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.window:
            return float(np.percentile(np.asarray(self.window, dtype=WIDE_DTYPE), q))
        if not self.count or self.min is None or self.max is None:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                return min(max(bound, self.min), self.max)
        return self.max

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "window_size": self.window_size,
            "window": list(self.window) if self.window is not None else None,
        }

    def merge(self, snapshot: Mapping) -> None:
        _check_type(self.name, snapshot, "histogram")
        bounds = tuple(float(b) for b in snapshot["buckets"])
        if bounds != self.buckets:
            raise ValueError(
                f"cannot merge histogram '{self.name}': bucket bounds differ "
                f"({self.buckets} vs {bounds})"
            )
        self.counts = [a + b for a, b in zip(self.counts, snapshot["counts"])]
        self.count += int(snapshot["count"])
        self.sum += float(snapshot["sum"])
        for extreme, pick in (("min", min), ("max", max)):
            other = snapshot.get(extreme)
            if other is not None:
                mine = getattr(self, extreme)
                setattr(self, extreme, float(other) if mine is None else pick(mine, float(other)))
        other_window = snapshot.get("window")
        if self.window is not None and other_window:
            self.window.extend(float(v) for v in other_window)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


def _check_type(name: str, snapshot: Mapping, expected: str) -> None:
    actual = snapshot.get("type")
    if actual != expected:
        raise ValueError(f"cannot merge metric '{name}': snapshot type '{actual}' != '{expected}'")


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with mergeable, JSON-serializable snapshots.

    ``counter``/``gauge``/``histogram`` get-or-create (idempotent per name);
    the :meth:`count`/:meth:`observe`/:meth:`set_gauge` conveniences are the
    recording surface for instrumented hot paths and become no-ops when the
    registry is disabled.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -------------------------------------------------------------- #
    # Get-or-create
    # -------------------------------------------------------------- #
    def _get(self, name: str, kind: type[M], factory: Callable[[], M]) -> M:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric '{name}' is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return cast(M, metric)

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, aggregate: str = "max") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, aggregate=aggregate))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, window: int = 0
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets=buckets, window=window))

    # -------------------------------------------------------------- #
    # Recording conveniences (no-ops when disabled)
    # -------------------------------------------------------------- #
    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def observe(self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS, window: int = 0) -> None:
        if self.enabled:
            self.histogram(name, buckets=buckets, window=window).observe(value)

    def set_gauge(self, name: str, value: float, aggregate: str = "max") -> None:
        if self.enabled:
            self.gauge(name, aggregate=aggregate).set(value)

    # -------------------------------------------------------------- #
    # Snapshot / merge
    # -------------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-serializable state of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def reset(self) -> None:
        """Drop every metric (names and values)."""
        self._metrics.clear()

    def merge(self, other: "MetricsRegistry | Mapping[str, Mapping]") -> "MetricsRegistry":
        """Fold another registry (or a registry snapshot) into this one.

        Metrics unknown to this registry are adopted with the snapshot's
        type, bucket bounds and window size, so merging into a fresh
        registry reconstructs the remote one exactly.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, metric_snapshot in snapshot.items():
            kind = metric_snapshot.get("type")
            if kind not in _METRIC_TYPES:
                raise ValueError(f"metric '{name}' has unknown snapshot type '{kind}'")
            if kind == "counter":
                target = self.counter(name)
            elif kind == "gauge":
                target = self.gauge(name, aggregate=metric_snapshot.get("aggregate", "max"))
            else:
                target = self.histogram(
                    name,
                    buckets=metric_snapshot["buckets"],
                    window=int(metric_snapshot.get("window_size") or 0),
                )
            target.merge(metric_snapshot)
        return self

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Mapping]) -> "MetricsRegistry":
        """Reconstruct a registry from a :meth:`snapshot`."""
        return cls().merge(snapshot)


def merge_snapshots(*snapshots: Mapping[str, Mapping]) -> dict[str, dict]:
    """Merge registry snapshots (e.g. one per worker) into one aggregate."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


_DEFAULT_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global default registry instrumentation records into."""
    return _DEFAULT_REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the default registry (e.g. per test or per CLI run)."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
