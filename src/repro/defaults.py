"""Shared inference-scenario defaults (the lowest layer of the pipeline).

:class:`InferenceDefaults` resolves the deployment scenario once and every
consumer draws from it, so the latency a search optimises for is the
latency the deployed model runs with: the low-level evaluator, serving and
:class:`~repro.nas.derived.DerivedModel` defaults import this module
directly, while pipeline users normally reach it as
:class:`repro.workspace.InferenceDefaults`.

This module lives below :mod:`repro.nas`, :mod:`repro.serving` and
:mod:`repro.workspace` on purpose: it has no repro imports, so any layer
can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["InferenceDefaults", "DEFAULTS"]


@dataclass(frozen=True)
class InferenceDefaults:
    """Deployment-scenario constants shared by every pipeline stage.

    Attributes:
        num_points: Points per input cloud in the deployment scenario.
        k: KNN neighbourhood size (profiling, search and serving alike).
        num_classes: Classifier classes of the modelled deployment workload.
        embed_dim: Classifier-head embedding width of derived models.
        seed: Default RNG seed for training/measurement stages.
    """

    num_points: int = 1024
    k: int = 20
    num_classes: int = 40
    embed_dim: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_points <= 0 or self.k <= 0:
            raise ValueError("num_points and k must be positive")
        if self.num_classes <= 1:
            raise ValueError("num_classes must be > 1")
        if self.embed_dim <= 0:
            raise ValueError("embed_dim must be positive")

    def resolve(self, **overrides: object) -> "InferenceDefaults":
        """Return a copy with the non-``None`` entries of ``overrides`` applied."""
        changes = {key: value for key, value in overrides.items() if value is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def key_dict(self) -> dict[str, object]:
        """JSON-compatible form used in artifact-store cache keys."""
        return dataclasses.asdict(self)


#: The package-wide defaults (paper deployment scenario: 1024 points, k=20).
DEFAULTS = InferenceDefaults()
