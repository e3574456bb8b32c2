"""Wall-clock and virtual-clock timers.

The search ablations (paper Fig. 9) compare strategies by *search time*.
Real wall-clock time would make those benchmarks machine-dependent and slow,
so the library also provides :class:`VirtualClock`, which components advance
by the simulated cost of the work they perform (e.g. an "on-device
measurement" advances it by the measurement round-trip).  Experiments read
either clock through the same interface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Timer", "VirtualClock"]


@dataclass
class Timer:
    """A simple cumulative wall-clock timer usable as a context manager.

    Besides the summed :attr:`elapsed` time it records the ``perf_counter``
    readings of its first start and last stop, the wall window it was busy in.
    """

    elapsed: float = 0.0
    first_started_at: float | None = field(default=None, init=False)
    last_stopped_at: float | None = field(default=None, init=False)
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Timer":
        """Start (or restart) the timer.

        Restarting a running timer banks the in-flight interval into
        :attr:`elapsed` before restarting, so no measured time is silently
        discarded (the historical behaviour dropped it).
        """
        now = time.perf_counter()
        if self._started_at is not None:
            self.elapsed += now - self._started_at
        elif self.first_started_at is None:
            self.first_started_at = now
        self._started_at = now
        return self

    def stop(self) -> float:
        """Stop the timer and accumulate the elapsed interval."""
        if self._started_at is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.last_stopped_at = time.perf_counter()
        self.elapsed += self.last_stopped_at - self._started_at
        self._started_at = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated time."""
        self.elapsed = 0.0
        self.first_started_at = self.last_stopped_at = self._started_at = None

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


@dataclass
class VirtualClock:
    """A monotonically advancing simulated clock (seconds).

    Components such as :class:`repro.hardware.measurement.DeviceMeasurement`
    advance the clock by the simulated duration of each operation, so search
    ablations can report "search time" deterministically.
    """

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by a negative duration: {seconds}")
        self.now += float(seconds)
        return self.now

    def reset(self) -> None:
        """Reset the clock to zero."""
        self.now = 0.0
