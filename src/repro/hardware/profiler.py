"""Execution-time profiling of workloads (the paper's Fig. 3 experiment)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.device import DeviceSpec
from repro.hardware.latency import estimate_latency
from repro.hardware.memory import estimate_peak_memory
from repro.hardware.workload import Workload
from repro.obs.metrics import get_metrics

__all__ = ["ProfileResult", "profile_workload"]

CATEGORIES = ("sample", "aggregate", "combine", "others")


@dataclass(frozen=True)
class ProfileResult:
    """Full profile of one workload on one device."""

    device: str
    workload: str
    total_latency_ms: float
    category_ms: dict[str, float]
    category_fractions: dict[str, float]
    peak_memory_mb: float
    out_of_memory: bool

    def dominant_category(self) -> str:
        """Category with the largest share of execution time."""
        return max(self.category_ms, key=self.category_ms.get)


def profile_workload(workload: Workload, device: DeviceSpec) -> ProfileResult:
    """Profile latency breakdown and peak memory of a workload on a device."""
    get_metrics().count("hardware.profile.calls")
    latency = estimate_latency(workload, device)
    memory = estimate_peak_memory(workload, device)
    return ProfileResult(
        device=device.name,
        workload=workload.name,
        total_latency_ms=latency.total_ms,
        category_ms=latency.category_ms(),
        category_fractions=latency.category_fractions(),
        peak_memory_mb=memory.peak_mb,
        out_of_memory=memory.out_of_memory,
    )
