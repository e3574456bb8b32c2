"""Point-cloud transforms and augmentations."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import as_float_array

__all__ = [
    "normalize_unit_sphere",
    "random_rotate_z",
    "random_jitter",
]


def _check_points(points: np.ndarray) -> np.ndarray:
    points = as_float_array(points)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {points.shape}")
    return points


def normalize_unit_sphere(points: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Centre the cloud at the origin and scale it into the unit sphere."""
    points = _check_points(points)
    centred = points - points.mean(axis=0, keepdims=True)
    scale = np.max(np.linalg.norm(centred, axis=1))
    return centred / max(scale, 1e-12)


def random_rotate_z(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rotate the cloud by a random angle around the z axis."""
    points = _check_points(points)
    angle = rng.uniform(0, 2 * np.pi)
    cos, sin = np.cos(angle), np.sin(angle)
    rotation = np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]])
    return points @ rotation.T


def random_jitter(points: np.ndarray, rng: np.random.Generator, sigma: float = 0.01, clip: float = 0.05) -> np.ndarray:
    """Add clipped Gaussian noise to every coordinate."""
    points = _check_points(points)
    if sigma < 0 or clip <= 0:
        raise ValueError("sigma must be >= 0 and clip > 0")
    noise = np.clip(rng.normal(scale=sigma, size=points.shape), -clip, clip)
    return points + noise
