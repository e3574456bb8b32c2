"""Latency evaluators used during architecture search.

Three interchangeable oracles provide the ``lat(A, H)`` term of the search
objective:

* :class:`OracleLatencyEvaluator` — the noise-free analytical model
  (useful for tests and for generating predictor training labels).
* :class:`MeasurementLatencyEvaluator` — the simulated on-device
  measurement: noisy and *slow* (each query advances the search clock by the
  device's measurement round trip), reproducing the cost of real-time
  measurement in Fig. 9(a).
* ``PredictorLatencyEvaluator`` (in :mod:`repro.predictor.evaluator`) — the
  paper's GNN-based predictor: approximate but answers in milliseconds.

All evaluators share the same duck-typed interface: ``evaluate(architecture)
-> latency in ms`` and ``query_cost_s`` (simulated wall-clock cost of one
query).

Evaluators are pluggable through a string-keyed registry: the built-in
``"oracle"``/``"measurement"``/``"predictor"`` factories are registered at
import time, and :func:`register_latency_evaluator` adds custom oracles
(e.g. a table lookup or a remote measurement client) that the search,
:meth:`repro.workspace.Workspace.search` and the ``repro search --oracle``
command can then select by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np

from repro.defaults import DEFAULTS as _SCENARIO_DEFAULTS
from repro.hardware.device import DeviceSpec
from repro.hardware.latency import estimate_latency
from repro.hardware.measurement import DeviceMeasurement
from repro.nas.architecture import Architecture
from repro.nn.dtype import WIDE_DTYPE

__all__ = [
    "LatencyEvaluator",
    "OracleLatencyEvaluator",
    "MeasurementLatencyEvaluator",
    "EvaluatorRequest",
    "evaluate_latencies",
    "register_latency_evaluator",
    "unregister_latency_evaluator",
    "list_latency_evaluators",
    "make_latency_evaluator",
]


class LatencyEvaluator(Protocol):
    """Interface of a latency oracle used by the search.

    Evaluators may additionally expose ``evaluate_many(architectures) ->
    array of ms`` for vectorized population scoring;
    :func:`evaluate_latencies` dispatches to it when present and must return
    the same floats as mapping :meth:`evaluate`.
    """

    query_cost_s: float

    def evaluate(self, architecture: Architecture) -> float:
        """Return the estimated/measured latency of ``architecture`` in ms."""
        ...


def evaluate_latencies(evaluator: LatencyEvaluator, architectures: list[Architecture]) -> np.ndarray:
    """Latencies (ms) of several architectures through one evaluator.

    Uses the evaluator's batched ``evaluate_many`` fast path when it has
    one, falling back to sequential :meth:`~LatencyEvaluator.evaluate`
    calls; either way the result is ordered like ``architectures``.
    """
    if not architectures:
        return np.zeros(0, dtype=WIDE_DTYPE)
    evaluate_many = getattr(evaluator, "evaluate_many", None)
    if callable(evaluate_many):
        latencies = np.asarray(evaluate_many(architectures), dtype=WIDE_DTYPE)
        if latencies.shape != (len(architectures),):
            raise ValueError(
                f"evaluate_many returned shape {latencies.shape} "
                f"for {len(architectures)} architectures"
            )
        return latencies
    return np.array([float(evaluator.evaluate(arch)) for arch in architectures], dtype=WIDE_DTYPE)


@dataclass
class OracleLatencyEvaluator:
    """Noise-free analytical latency (zero query cost)."""

    device: DeviceSpec
    num_points: int = _SCENARIO_DEFAULTS.num_points
    k: int = _SCENARIO_DEFAULTS.k
    num_classes: int = _SCENARIO_DEFAULTS.num_classes
    query_cost_s: float = 0.0

    def evaluate(self, architecture: Architecture) -> float:
        workload = architecture.to_workload(self.num_points, self.k, self.num_classes)
        return estimate_latency(workload, self.device).total_ms


@dataclass
class MeasurementLatencyEvaluator:
    """Simulated on-device measurement: accurate but slow and noisy."""

    device: DeviceSpec
    num_points: int = _SCENARIO_DEFAULTS.num_points
    k: int = _SCENARIO_DEFAULTS.k
    num_classes: int = _SCENARIO_DEFAULTS.num_classes
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        self._measurement = DeviceMeasurement(device=self.device, rng=self.rng)
        self.query_cost_s = self.device.measurement_round_trip_s

    def evaluate(self, architecture: Architecture) -> float:
        workload = architecture.to_workload(self.num_points, self.k, self.num_classes)
        return self._measurement.measure_latency_ms(workload)


# ---------------------------------------------------------------------- #
# Evaluator registry
# ---------------------------------------------------------------------- #
@dataclass
class EvaluatorRequest:
    """Everything an evaluator factory may need to build its oracle.

    The scenario defaults come from the shared
    :data:`repro.defaults.DEFAULTS` rather than another hardcoded copy.  ``predictor`` (a pre-trained
    :class:`~repro.predictor.model.LatencyPredictor`, typed loosely to keep
    this module free of the predictor import) and ``predictor_factory`` (a
    zero-argument callable training or loading one on demand) are only
    consulted by predictor-style evaluators.
    """

    device: DeviceSpec
    num_points: int = _SCENARIO_DEFAULTS.num_points
    k: int = _SCENARIO_DEFAULTS.k
    num_classes: int = _SCENARIO_DEFAULTS.num_classes
    seed: int = _SCENARIO_DEFAULTS.seed
    predictor: Any | None = None
    predictor_factory: Callable[[], Any] | None = None


EvaluatorFactory = Callable[[EvaluatorRequest], LatencyEvaluator]

_EVALUATOR_FACTORIES: dict[str, EvaluatorFactory] = {}


def register_latency_evaluator(
    name: str, factory: EvaluatorFactory | None = None, replace: bool = False
) -> Callable:
    """Register an evaluator factory under ``name`` (directly or as a decorator).

    The factory receives an :class:`EvaluatorRequest` and returns an object
    satisfying the :class:`LatencyEvaluator` protocol.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("evaluator name must be non-empty")

    def _register(fn: EvaluatorFactory) -> EvaluatorFactory:
        if key in _EVALUATOR_FACTORIES and not replace:
            raise ValueError(f"latency evaluator '{key}' already registered (pass replace=True)")
        _EVALUATOR_FACTORIES[key] = fn
        return fn

    return _register if factory is None else _register(factory)


def unregister_latency_evaluator(name: str) -> None:
    """Remove a registered evaluator factory."""
    key = name.strip().lower()
    if key not in _EVALUATOR_FACTORIES:
        raise KeyError(f"unknown latency oracle '{name}'; registered: {list_latency_evaluators()}")
    del _EVALUATOR_FACTORIES[key]


def list_latency_evaluators() -> list[str]:
    """Names of the registered latency oracles, sorted."""
    return sorted(_EVALUATOR_FACTORIES)


def make_latency_evaluator(name: str, request: EvaluatorRequest) -> LatencyEvaluator:
    """Build the evaluator registered under ``name`` for ``request``."""
    factory = _EVALUATOR_FACTORIES.get(name.strip().lower())
    if factory is None:
        raise ValueError(f"unknown latency oracle '{name}'; registered: {list_latency_evaluators()}")
    return factory(request)


@register_latency_evaluator("oracle")
def _make_oracle_evaluator(request: EvaluatorRequest) -> OracleLatencyEvaluator:
    return OracleLatencyEvaluator(
        request.device, num_points=request.num_points, k=request.k, num_classes=request.num_classes
    )


@register_latency_evaluator("measurement")
def _make_measurement_evaluator(request: EvaluatorRequest) -> MeasurementLatencyEvaluator:
    return MeasurementLatencyEvaluator(
        request.device,
        num_points=request.num_points,
        k=request.k,
        num_classes=request.num_classes,
        rng=np.random.default_rng(request.seed),
    )


@register_latency_evaluator("predictor")
def _make_predictor_evaluator(request: EvaluatorRequest) -> LatencyEvaluator:
    # Imported lazily so search runs that never use the predictor oracle do
    # not pay for the predictor subsystem.
    from repro.predictor.evaluator import PredictorLatencyEvaluator

    predictor = request.predictor
    if predictor is None and request.predictor_factory is not None:
        predictor = request.predictor_factory()
    if predictor is None:
        raise ValueError(
            "latency oracle 'predictor' needs a pre-trained predictor or a "
            "predictor_factory on the EvaluatorRequest"
        )
    return PredictorLatencyEvaluator(predictor)
