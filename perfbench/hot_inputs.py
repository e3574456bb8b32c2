"""Inputs and deployment of the serve_hot_tcp workload, shared by its processes.

The coordinating process, the server and the load generator each rebuild the same clouds
from the workload seed, so no cloud travels between them except as a
request.
"""

from __future__ import annotations

import numpy as np

MODEL = "tx2_fast"
DEVICE = "jetson-tx2"
NUM_POINTS = 256
NUM_CLASSES = 40
K = 20
#: Clouds warmed during set-up; requests draw from them Zipf-style.
HOT_CLOUDS = 64
HOT_SHARE = 0.98
ZIPF_EXPONENT = 1.1
#: Closed-loop TCP connections held by the load generator.
CONNECTIONS = 2


def hot_clouds(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    return [rng.standard_normal((NUM_POINTS, 3)).astype(np.float32) for _ in range(HOT_CLOUDS)]


def unique_cloud(seed: int, round_index: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2, round_index, index])
    return rng.standard_normal((NUM_POINTS, 3)).astype(np.float32)


def request_line(cloud: np.ndarray) -> bytes:
    import json

    return json.dumps({"model": MODEL, "points": cloud.tolist()}).encode() + b"\n"


def build_registry():
    """A registry holding the searched TX2 preset with fixed weights."""
    from repro.hardware.device import get_device
    from repro.nas.presets import device_fast_architecture
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry()
    registry.register(
        name=MODEL,
        architecture=device_fast_architecture(DEVICE),
        device=get_device(DEVICE),
        num_classes=NUM_CLASSES,
        k=K,
        seed=0,
    )
    return registry
