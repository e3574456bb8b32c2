"""Peak-memory model and out-of-memory detection.

Peak memory of an inference is modelled as the device's resident framework
footprint plus a calibrated multiple of the workload's total transient
working set (the multiplier absorbs allocator caching and fragmentation,
which is why the same model occupies very different amounts of memory on
different runtimes — exactly what Table II of the paper shows).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cost_model import lower_workload
from repro.hardware.device import DeviceSpec
from repro.hardware.workload import Workload

__all__ = ["MemoryReport", "estimate_peak_memory"]


@dataclass(frozen=True)
class MemoryReport:
    """Peak-memory estimate for a workload on one device."""

    device: str
    workload: str
    base_mb: float
    activation_mb: float
    available_mb: float

    @property
    def peak_mb(self) -> float:
        """Estimated peak resident memory in MB."""
        return self.base_mb + self.activation_mb

    @property
    def out_of_memory(self) -> bool:
        """Whether the workload exceeds the device's usable memory."""
        return self.peak_mb > self.available_mb


def estimate_peak_memory(workload: Workload, device: DeviceSpec) -> MemoryReport:
    """Estimate peak memory usage of ``workload`` on ``device``."""
    quantities = lower_workload(workload)
    activation_mb = device.memory_scale * quantities.total_working_set_bytes / 2**20
    return MemoryReport(
        device=device.name,
        workload=workload.name,
        base_mb=device.base_memory_mb,
        activation_mb=activation_mb,
        available_mb=device.available_memory_mb,
    )
