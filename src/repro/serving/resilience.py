"""Client-side resilience policies for the serving frontend.

Two small, dependency-free state machines the asyncio frontend composes
around ``pool.submit``:

* :class:`RetryPolicy` — how many attempts a retryable failure (a worker
  crash mid-request) gets, and the bounded exponential backoff between
  them.  Deadline and admission failures are *not* retryable: the former
  is already late, the latter is the pool protecting itself.
* :class:`CircuitBreaker` — after ``failure_threshold`` consecutive
  failures the circuit *opens* and requests fail fast with
  :class:`CircuitOpenError` instead of piling onto a broken pool.  After
  ``reset_timeout_s`` one probe request is let through (*half-open*); its
  success closes the circuit, its failure re-opens it for another full
  timeout.  A probe that never reached a worker gives no verdict: it hands
  the probe slot back.

Both are synchronous and lock-protected so the frontend may drive them
from any thread; the frontend owns the actual ``await sleep``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["RetryPolicy", "CircuitBreaker", "CircuitOpenError"]


class CircuitOpenError(RuntimeError):
    """Fail-fast rejection: the breaker is open after repeated worker failures."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-exponential retry schedule for retryable request failures."""

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("RetryPolicy.max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("RetryPolicy backoffs must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("RetryPolicy.multiplier must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based: first retry = 1)."""
        return min(self.backoff_s * self.multiplier ** max(attempt - 1, 0), self.max_backoff_s)


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open)."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("CircuitBreaker.failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("CircuitBreaker.reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.reset_timeout_s:
                return "half-open"
            return "open"

    def allow(self) -> None:
        """Admit one request or raise :class:`CircuitOpenError`.

        In the half-open window exactly one probe is admitted; concurrent
        requests keep failing fast until the probe reports back.
        """
        with self._lock:
            if self._opened_at is None:
                return
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.reset_timeout_s and not self._probing:
                self._probing = True
                return
            raise CircuitOpenError(
                f"serving circuit open after {self._failures} consecutive failures; "
                f"retry in {max(self.reset_timeout_s - elapsed, 0.0):.2f}s"
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def release(self) -> None:
        """Hand an admitted request's probe slot back without a verdict.

        For a request answered before it reached a worker (a result-tier
        hit): it neither closes nor re-opens the circuit, and the next
        request may probe.
        """
        with self._lock:
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= self.failure_threshold or self._opened_at is not None:
                self._opened_at = self._clock()
