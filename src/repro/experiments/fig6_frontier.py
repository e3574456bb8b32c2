"""Fig. 6 — accuracy vs latency frontier of HGNAS against existing models.

Each device gets a scatter of (latency, accuracy) points for DGCNN, the
manual baselines [6]/[7], and the HGNAS ``Acc``/``Fast`` models; HGNAS
should dominate the frontier (higher accuracy at lower latency) on every
device.  The underlying data is exactly the Table II reproduction, reshaped
into frontier points, so both experiments stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.common import ExperimentScale
from repro.experiments.table2_comparison import AccuracyRecord, Table2Row, run_table2
from repro.nas.architecture import Architecture

__all__ = ["FrontierPoint", "run_fig6", "frontier_from_table"]


@dataclass(frozen=True)
class FrontierPoint:
    """One point of the accuracy-latency plane for one device."""

    device: str
    network: str
    latency_ms: float
    accuracy: float
    is_hgnas: bool


def frontier_from_table(rows: Sequence[Table2Row]) -> dict[str, list[FrontierPoint]]:
    """Reshape Table II rows into per-device frontier points."""
    frontier: dict[str, list[FrontierPoint]] = {}
    for row in rows:
        frontier.setdefault(row.device, []).append(
            FrontierPoint(
                device=row.device,
                network=row.network,
                latency_ms=row.latency_ms,
                accuracy=row.overall_accuracy,
                is_hgnas=row.network.startswith("HGNAS"),
            )
        )
    return frontier


def run_fig6(
    scale: ExperimentScale | None = None,
    devices: Sequence[str] | None = None,
    hgnas_architectures: Mapping[str, Mapping[str, Architecture]] | None = None,
    accuracy_records: Mapping[str, AccuracyRecord] | None = None,
) -> dict[str, list[FrontierPoint]]:
    """Reproduce the Fig. 6 frontiers (one list of points per device)."""
    rows = run_table2(
        scale=scale,
        devices=devices,
        hgnas_architectures=hgnas_architectures,
        accuracy_records=accuracy_records,
    )
    return frontier_from_table(rows)
