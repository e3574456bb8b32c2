"""Dynamic micro-batching of inference requests.

Single-cloud requests accumulate in per-model FIFO queues; a batch is
released as soon as it is full (``max_batch_size``) or its oldest request
has waited ``max_wait_ms``.  Batching amortises the per-forward dispatch
overhead (python/op dispatch dominates small point clouds) — the serving
throughput benchmark quantifies the gain over one-by-one inference.

The batcher is clock-agnostic: it reads time through an injected callable
(``time.monotonic`` by default), so tests drive the wait-timeout logic with
a fake clock instead of sleeping.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque

import numpy as np

__all__ = ["BatcherConfig", "QueuedRequest", "MicroBatcher"]


@dataclass(frozen=True)
class BatcherConfig:
    """Micro-batching policy."""

    max_batch_size: int = 8
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")


@dataclass
class QueuedRequest:
    """One pending inference request."""

    request_id: int
    model: str
    points: np.ndarray
    enqueued_at: float
    fingerprint: str = ""
    estimated_device_ms: float = 0.0
    extras: dict = field(default_factory=dict)


class MicroBatcher:
    """Accumulates requests into per-model batches."""

    def __init__(self, config: BatcherConfig | None = None, clock: Callable[[], float] = time.monotonic):
        self.config = config or BatcherConfig()
        self.clock = clock
        self._queues: "OrderedDict[str, Deque[QueuedRequest]]" = OrderedDict()

    @property
    def queue_depth(self) -> int:
        """Total number of pending requests across all models."""
        return sum(len(queue) for queue in self._queues.values())

    def has_pending(self) -> bool:
        return self.queue_depth > 0

    def enqueue(self, request: QueuedRequest) -> None:
        """Append a request to its model's FIFO queue."""
        self._queues.setdefault(request.model, deque()).append(request)

    def discard(self, request_ids: set[int]) -> int:
        """Remove queued requests by id (cancelled submissions); returns count."""
        removed = 0
        for model in list(self._queues):
            queue = self._queues[model]
            kept = deque(request for request in queue if request.request_id not in request_ids)
            removed += len(queue) - len(kept)
            if kept:
                self._queues[model] = kept
            else:
                del self._queues[model]
        return removed

    def _pop_from(self, model: str) -> list[QueuedRequest]:
        queue = self._queues[model]
        batch = [queue.popleft() for _ in range(min(self.config.max_batch_size, len(queue)))]
        if not queue:
            del self._queues[model]
        return batch

    def pop_ready(self, force: bool = False) -> list[QueuedRequest] | None:
        """Return the next releasable batch, or ``None`` if nothing is due.

        A model's queue releases when it holds a full batch, when its head
        request has waited at least ``max_wait_ms``, or when ``force`` is
        set (used by the synchronous engine to drain).  Among releasable
        models the one with the oldest head request goes first.
        """
        now = self.clock()
        best_model: str | None = None
        best_age = -1.0
        for model, queue in self._queues.items():
            if not queue:
                continue
            age_ms = (now - queue[0].enqueued_at) * 1e3
            releasable = force or len(queue) >= self.config.max_batch_size or age_ms >= self.config.max_wait_ms
            if releasable and age_ms > best_age:
                best_model = model
                best_age = age_ms
        if best_model is None:
            return None
        return self._pop_from(best_model)
