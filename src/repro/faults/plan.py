"""Declarative fault plans: what to break, where, and how many times.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
an *injection point* (a short dotted string such as
``"serving.worker.serve"``) and an action to take when the running code
reaches it.  Plans are plain data — JSON round-trippable so they can be
passed to child worker processes through an environment variable and
recorded alongside test failures for exact replay.

Actions
-------
``crash``
    Terminate the current process immediately (``os._exit``), simulating
    a segfault/OOM-kill of a pool worker.
``delay``
    Sleep ``delay_s`` seconds before continuing, simulating a stalled
    worker or a slow peer.
``error``
    Raise :class:`~repro.faults.injector.InjectedFault`, simulating an
    unexpected exception (or, at a checkpoint site, a kill signal).
``corrupt`` / ``drop``
    Returned to the *call site* to act on — e.g. the shared-array cache
    garbles the on-disk file before reading it so the real corruption
    path is exercised, not a mock of it.

Determinism: every spec fires on exact per-process hit counts (``after``
skips the first N matching visits, ``times`` bounds total firings) and
any probabilistic firing draws from a per-spec generator seeded from the
plan — two runs of the same plan over the same workload inject the same
faults at the same points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["FaultSpec", "FaultPlan", "ACTIONS", "ENV_VAR"]

#: Environment variable carrying a JSON-encoded plan into child processes.
ENV_VAR = "REPRO_FAULT_PLAN"

ACTIONS = ("crash", "delay", "error", "corrupt", "drop")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire ``action`` at injection point ``point``.

    ``match`` scopes the spec to call sites whose keyword payload equals
    every listed item (e.g. ``{"worker": 1}`` targets one pool worker).
    ``after`` skips the first N matching visits; ``times`` caps how many
    visits fire (0 = unlimited).  ``probability`` < 1 makes firing a
    seeded Bernoulli draw instead of a certainty.
    """

    point: str
    action: str
    after: int = 0
    times: int = 1
    delay_s: float = 0.0
    probability: float = 1.0
    seed: int = 0
    match: Mapping[str, Any] = field(default_factory=dict)
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("FaultSpec.point must be a non-empty string")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; expected one of {ACTIONS}")
        if self.after < 0:
            raise ValueError("FaultSpec.after must be >= 0")
        if self.times < 0:
            raise ValueError("FaultSpec.times must be >= 0 (0 = unlimited)")
        if self.action == "delay" and self.delay_s < 0:
            raise ValueError("FaultSpec.delay_s must be >= 0")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("FaultSpec.probability must be in (0, 1]")

    def matches(self, context: Mapping[str, Any]) -> bool:
        """True when every ``match`` item equals the call-site payload."""
        return all(key in context and context[key] == value for key, value in self.match.items())

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point,
            "action": self.action,
            "after": self.after,
            "times": self.times,
            "delay_s": self.delay_s,
            "probability": self.probability,
            "seed": self.seed,
            "match": dict(self.match),
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            point=str(document["point"]),
            action=str(document["action"]),
            after=int(document.get("after", 0)),
            times=int(document.get("times", 1)),
            delay_s=float(document.get("delay_s", 0.0)),
            probability=float(document.get("probability", 1.0)),
            seed=int(document.get("seed", 0)),
            match=dict(document.get("match", {})),
            message=str(document.get("message", "injected fault")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec`; first matching spec wins."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    def to_dict(self) -> dict[str, Any]:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FaultPlan":
        return cls(specs=tuple(FaultSpec.from_dict(entry) for entry in document.get("specs", [])))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        return cls.from_dict(json.loads(payload))
