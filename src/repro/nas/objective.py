"""Multi-objective scoring of candidate architectures (paper Eq. 1-3).

The operation-search objective is

.. math::

    F_{obj}(C) = \\begin{cases}
        0 & \\text{if } lat \\geq C \\\\
        \\alpha \\cdot acc_{val} - \\beta \\cdot lat & \\text{if } lat < C
    \\end{cases}

Latency is normalised by a per-device reference (DGCNN's latency by
default) so that the accuracy term (in ``[0, 1]``) and the latency term are
commensurable and the alpha/beta ratio of Fig. 7 has a device-independent
meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObjectiveConfig", "objective_score", "hardware_constrained_score"]


@dataclass(frozen=True)
class ObjectiveConfig:
    """Scaling factors and hardware constraint of the search objective.

    Attributes:
        alpha: Weight of validation accuracy.
        beta: Weight of (normalised) latency.
        latency_constraint_ms: Hard constraint ``C``; candidates at or above
            it score zero.  ``inf`` disables the constraint.
        latency_scale_ms: Normalisation constant for the latency term
            (typically the DGCNN latency on the target device).
    """

    alpha: float = 1.0
    beta: float = 0.5
    latency_constraint_ms: float = float("inf")
    latency_scale_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("at least one of alpha/beta must be positive")
        if self.latency_scale_ms <= 0:
            raise ValueError("latency_scale_ms must be positive")
        if self.latency_constraint_ms <= 0:
            raise ValueError("latency_constraint_ms must be positive")


def objective_score(accuracy: float, latency_ms: float, config: ObjectiveConfig) -> float:
    """Unconstrained part of the objective: ``alpha * acc - beta * lat_norm``."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    if latency_ms < 0:
        raise ValueError(f"latency must be non-negative, got {latency_ms}")
    normalised_latency = latency_ms / config.latency_scale_ms
    return config.alpha * accuracy - config.beta * normalised_latency


def hardware_constrained_score(accuracy: float, latency_ms: float, config: ObjectiveConfig) -> float:
    """Full Eq. 3 objective: zero whenever the hardware constraint is violated."""
    if latency_ms >= config.latency_constraint_ms:
        return 0.0
    return objective_score(accuracy, latency_ms, config)
