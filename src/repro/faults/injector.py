"""The process-global fault injector and the ``fault_point`` call-site hook.

Production code marks its failure-prone seams with::

    spec = fault_point("serving.worker.serve", worker=worker_id)

which is a no-op (``None``) unless a :class:`~repro.faults.plan.FaultPlan`
is active.  Plans activate two ways:

* :func:`use_faults` — a context manager for the current process.  It also
  exports the plan through ``REPRO_FAULT_PLAN`` so worker processes
  spawned inside the context inherit it (forked children additionally
  inherit the live injector object).
* Environment — a process whose ``REPRO_FAULT_PLAN`` is set builds its
  injector lazily on the first ``fault_point`` call, which is how the CI
  chaos smoke drives ``repro serve`` without touching the CLI surface.

``crash``/``delay``/``error`` actions are executed here; ``corrupt`` and
``drop`` specs are returned so the call site can damage its own state
realistically.  All counting is per-process and lock-protected, so a
plan's ``after``/``times`` windows are deterministic per worker.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.faults.plan import ENV_VAR, FaultPlan, FaultSpec
from repro.obs.metrics import get_metrics
from repro.utils.logging import get_logger

__all__ = [
    "InjectedFault",
    "FaultInjector",
    "use_faults",
    "fault_point",
    "get_injector",
    "reset_faults",
]

_LOGGER = get_logger("faults")


class InjectedFault(RuntimeError):
    """Raised by ``error``-action specs; carries the injection point name."""

    def __init__(self, message: str, point: str):
        super().__init__(message)
        self.point = point


class FaultInjector:
    """Evaluates a plan at call sites; owns per-process hit/fire counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._hits: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self._rngs: dict[int, np.random.Generator] = {}
        self.history: list[tuple[str, str]] = []

    def _should_fire(self, index: int, spec: FaultSpec, context: dict[str, Any]) -> bool:
        """Counter bookkeeping under the lock; no side effects beyond it."""
        if not spec.matches(context):
            return False
        self._hits[index] = self._hits.get(index, 0) + 1
        if self._hits[index] <= spec.after:
            return False
        if spec.times and self._fired.get(index, 0) >= spec.times:
            return False
        if spec.probability < 1.0:
            rng = self._rngs.setdefault(index, np.random.default_rng(spec.seed))
            if rng.random() >= spec.probability:
                return False
        self._fired[index] = self._fired.get(index, 0) + 1
        self.history.append((spec.point, spec.action))
        return True

    def fire(self, point: str, **context: Any) -> FaultSpec | None:
        """Visit ``point``; execute/return the first spec that fires."""
        chosen: FaultSpec | None = None
        with self._lock:
            for index, spec in enumerate(self.plan.specs):
                if spec.point != point:
                    continue
                if self._should_fire(index, spec, context):
                    chosen = spec
                    break
        if chosen is None:
            return None
        get_metrics().count(f"faults.injected.{chosen.action}")
        _LOGGER.warning("fault injected at %s: %s (%s)", point, chosen.action, chosen.message)
        if chosen.action == "crash":
            # Mirrors a hard kill: no cleanup handlers, no queue flushes.
            os._exit(73)
        if chosen.action == "delay":
            time.sleep(chosen.delay_s)
            return chosen
        if chosen.action == "error":
            raise InjectedFault(f"{chosen.message} [{point}]", point)
        return chosen  # "corrupt" / "drop": the call site acts on it


_STATE_LOCK = threading.Lock()
_INJECTOR: FaultInjector | None = None
_ENV_CHECKED = False


def get_injector() -> FaultInjector | None:
    """The active injector, building one from ``REPRO_FAULT_PLAN`` if set."""
    global _INJECTOR, _ENV_CHECKED
    if _INJECTOR is not None:
        return _INJECTOR
    if _ENV_CHECKED:
        return None
    with _STATE_LOCK:
        if _INJECTOR is None and not _ENV_CHECKED:
            _ENV_CHECKED = True
            payload = os.environ.get(ENV_VAR)
            if payload:
                _INJECTOR = FaultInjector(FaultPlan.from_json(payload))
                _LOGGER.warning("fault plan activated from %s (%d specs)", ENV_VAR, len(_INJECTOR.plan.specs))
    return _INJECTOR


def reset_faults() -> None:
    """Deactivate any plan (process-local; leaves the environment alone)."""
    global _INJECTOR, _ENV_CHECKED
    with _STATE_LOCK:
        _INJECTOR = None
        _ENV_CHECKED = True


def fault_point(point: str, **context: Any) -> FaultSpec | None:
    """Injection hook for production code; ``None`` unless a plan fires here."""
    injector = get_injector()
    if injector is None:
        return None
    return injector.fire(point, **context)


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Activate ``plan`` for this process and (via the env) its children."""
    global _INJECTOR, _ENV_CHECKED
    injector = FaultInjector(plan)
    with _STATE_LOCK:
        previous = _INJECTOR
        previous_env = os.environ.get(ENV_VAR)
        _INJECTOR = injector
        _ENV_CHECKED = True
        os.environ[ENV_VAR] = plan.to_json()
    try:
        yield injector
    finally:
        with _STATE_LOCK:
            _INJECTOR = previous
            if previous_env is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = previous_env
