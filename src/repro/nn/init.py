"""Parameter initialisation schemes."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtype import get_default_dtype

__all__ = [
    "zeros",
    "ones",
    "uniform",
    "normal",
    "kaiming_uniform",
]


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (in the default dtype)."""
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (in the default dtype)."""
    return np.ones(shape, dtype=get_default_dtype())


def uniform(shape: tuple[int, ...], rng: np.random.Generator, low: float = -0.1, high: float = 0.1) -> np.ndarray:
    """Uniform initialisation in ``[low, high)``."""
    return rng.uniform(low, high, size=shape).astype(get_default_dtype(), copy=False)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Zero-mean Gaussian initialisation."""
    return rng.normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in/fan-out for a weight of the given shape."""
    if len(shape) < 1:
        raise ValueError("weight shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, negative_slope: float = 0.0) -> np.ndarray:
    """He/Kaiming uniform initialisation for (leaky-)ReLU networks."""
    fan_in, _ = _fan_in_out(shape)
    gain = math.sqrt(2.0 / (1.0 + negative_slope**2))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(get_default_dtype(), copy=False)
