"""Fig. 1 — DGCNN vs HGNAS latency/peak-memory scaling with cloud size.

The left half of the paper's Fig. 1 sweeps the number of points on the
Raspberry Pi (latency and peak memory, with DGCNN going out of memory above
1536 points); the right half reports the speedup and memory-efficiency
improvement of the HGNAS-designed model on all four devices at 1024 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware.device import DeviceSpec
from repro.hardware.latency import estimate_latency
from repro.hardware.memory import estimate_peak_memory
from repro.hardware.reference_workloads import PAPER_DGCNN_K, PAPER_NUM_CLASSES, dgcnn_workload
from repro.nas.architecture import Architecture
from repro.nas.presets import device_fast_architecture
from repro.experiments.common import resolve_devices

__all__ = ["Fig1Row", "run_point_sweep", "run_device_comparison"]

#: Point counts swept in the paper's Fig. 1.
PAPER_POINT_SWEEP = (128, 256, 512, 1024, 1536, 2048)


@dataclass(frozen=True)
class Fig1Row:
    """One (device, model, num_points) measurement."""

    device: str
    model: str
    num_points: int
    latency_ms: float
    peak_memory_mb: float
    out_of_memory: bool


def _hgnas_architecture(device: DeviceSpec, architecture: Architecture | None) -> Architecture:
    return architecture if architecture is not None else device_fast_architecture(device.name)


def run_point_sweep(
    device_name: str = "raspberry-pi",
    num_points: Sequence[int] = PAPER_POINT_SWEEP,
    hgnas_architecture: Architecture | None = None,
) -> list[Fig1Row]:
    """Latency/memory of DGCNN and the HGNAS model across cloud sizes."""
    device = resolve_devices([device_name])[0]
    architecture = _hgnas_architecture(device, hgnas_architecture)
    rows: list[Fig1Row] = []
    for points in num_points:
        if points <= 0:
            raise ValueError("num_points entries must be positive")
        dgcnn = dgcnn_workload(points)
        hgnas = architecture.to_workload(points, PAPER_DGCNN_K, PAPER_NUM_CLASSES)
        for model, workload in (("DGCNN", dgcnn), ("HGNAS", hgnas)):
            latency = estimate_latency(workload, device)
            memory = estimate_peak_memory(workload, device)
            rows.append(
                Fig1Row(
                    device=device.name,
                    model=model,
                    num_points=points,
                    latency_ms=latency.total_ms,
                    peak_memory_mb=memory.peak_mb,
                    out_of_memory=memory.out_of_memory,
                )
            )
    return rows


def run_device_comparison(
    devices: Sequence[str] | None = None,
    num_points: int = 1024,
    hgnas_architecture: Architecture | None = None,
) -> list[dict[str, object]]:
    """Speedup and memory reduction of the HGNAS model on every device."""
    results: list[dict[str, object]] = []
    for device in resolve_devices(devices):
        architecture = _hgnas_architecture(device, hgnas_architecture)
        dgcnn = dgcnn_workload(num_points)
        hgnas = architecture.to_workload(num_points, PAPER_DGCNN_K, PAPER_NUM_CLASSES)
        dgcnn_latency = estimate_latency(dgcnn, device).total_ms
        hgnas_latency = estimate_latency(hgnas, device).total_ms
        dgcnn_memory = estimate_peak_memory(dgcnn, device).peak_mb
        hgnas_memory = estimate_peak_memory(hgnas, device).peak_mb
        results.append(
            {
                "device": device.display_name,
                "dgcnn_latency_ms": dgcnn_latency,
                "hgnas_latency_ms": hgnas_latency,
                "speedup": dgcnn_latency / hgnas_latency,
                "dgcnn_fps": 1000.0 / dgcnn_latency,
                "hgnas_fps": 1000.0 / hgnas_latency,
                "dgcnn_memory_mb": dgcnn_memory,
                "hgnas_memory_mb": hgnas_memory,
                "memory_reduction": 1.0 - hgnas_memory / dgcnn_memory,
            }
        )
    return results

