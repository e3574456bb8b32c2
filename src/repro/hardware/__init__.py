"""Analytical edge-device hardware models (latency, memory, profiling).

These models stand in for the paper's physical RTX3080 / i7-8700K /
Jetson TX2 / Raspberry Pi 3B+ test-bed.  Coefficients are calibrated so
DGCNN at 1024 points reproduces the paper's measured latency, execution
breakdown and peak memory on every device (see
:mod:`repro.hardware.calibration`); everything else is a prediction of the
model.
"""

from repro.hardware.calibration import PAPER_TARGETS, CalibrationTarget, calibrate_coefficients
from repro.hardware.cost_model import (
    BYTES_PER_ELEMENT,
    OpQuantities,
    WorkloadQuantities,
    lower_op,
    lower_workload,
)
from repro.hardware.device import (
    DEVICE_ALIASES,
    DeviceSpec,
    all_devices,
    get_device,
    list_devices,
    register_device,
    unregister_device,
)
from repro.hardware.latency import LatencyReport, OpLatency, estimate_latency
from repro.hardware.measurement import DeviceMeasurement, MeasurementSample
from repro.hardware.memory import MemoryReport, estimate_peak_memory
from repro.hardware.profiler import ProfileResult, profile_workload
from repro.hardware.reference_workloads import (
    PAPER_DGCNN_K,
    PAPER_DGCNN_LAYER_DIMS,
    PAPER_NUM_CLASSES,
    dgcnn_workload,
    graph_reuse_dgcnn_workload,
    simplified_dgcnn_workload,
)
from repro.hardware.workload import OP_CATEGORY, OP_KINDS, OpDescriptor, Workload

__all__ = [
    "PAPER_TARGETS",
    "CalibrationTarget",
    "calibrate_coefficients",
    "BYTES_PER_ELEMENT",
    "OpQuantities",
    "WorkloadQuantities",
    "lower_op",
    "lower_workload",
    "DEVICE_ALIASES",
    "DeviceSpec",
    "all_devices",
    "get_device",
    "list_devices",
    "register_device",
    "unregister_device",
    "LatencyReport",
    "OpLatency",
    "estimate_latency",
    "DeviceMeasurement",
    "MeasurementSample",
    "MemoryReport",
    "estimate_peak_memory",
    "ProfileResult",
    "profile_workload",
    "OP_CATEGORY",
    "OP_KINDS",
    "OpDescriptor",
    "Workload",
    "dgcnn_workload",
    "graph_reuse_dgcnn_workload",
    "simplified_dgcnn_workload",
    "PAPER_DGCNN_K",
    "PAPER_DGCNN_LAYER_DIMS",
    "PAPER_NUM_CLASSES",
]
