"""Dataset containers, batching and loading.

Point clouds are batched PyG-style: the clouds of a mini-batch are stacked
into one big node set, and a ``batch`` vector maps every point to its cloud
index.  Graph construction and pooling operations respect cloud boundaries
through that vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.nn.dtype import get_default_dtype

__all__ = ["PointCloudSample", "Batch", "InMemoryDataset", "DataLoader", "collate"]


@dataclass
class PointCloudSample:
    """A single labelled point cloud."""

    points: np.ndarray
    label: int
    name: str = ""

    def __post_init__(self) -> None:
        # Datasets are a data *entry point*: raw clouds are coerced to the
        # default compute dtype (float32 unless the policy says otherwise).
        self.points = np.asarray(self.points, dtype=get_default_dtype())
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {self.points.shape}")
        self.label = int(self.label)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


@dataclass
class Batch:
    """A mini-batch of point clouds stacked into one node set."""

    points: np.ndarray
    batch: np.ndarray
    labels: np.ndarray
    num_graphs: int

    def __post_init__(self) -> None:
        if self.points.shape[0] != self.batch.shape[0]:
            raise ValueError("points and batch vector lengths differ")
        if self.labels.shape[0] != self.num_graphs:
            raise ValueError("labels length must equal num_graphs")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


def collate(samples: Sequence[PointCloudSample]) -> Batch:
    """Stack samples into a :class:`Batch`."""
    if not samples:
        raise ValueError("cannot collate an empty list of samples")
    points = np.concatenate([s.points for s in samples], axis=0)
    batch = np.concatenate(
        [np.full(s.num_points, i, dtype=np.int64) for i, s in enumerate(samples)]
    )
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return Batch(points=points, batch=batch, labels=labels, num_graphs=len(samples))


class InMemoryDataset:
    """A list-backed dataset of :class:`PointCloudSample` objects."""

    def __init__(self, samples: Sequence[PointCloudSample], num_classes: int):
        if num_classes <= 0:
            raise ValueError(f"num_classes must be positive, got {num_classes}")
        self.samples = list(samples)
        self.num_classes = num_classes
        for sample in self.samples:
            if not 0 <= sample.label < num_classes:
                raise ValueError(
                    f"sample label {sample.label} out of range for {num_classes} classes"
                )

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> PointCloudSample:
        return self.samples[index]

    def __iter__(self) -> Iterator[PointCloudSample]:
        return iter(self.samples)

    def labels(self) -> np.ndarray:
        """Return all labels as an integer array."""
        return np.array([s.label for s in self.samples], dtype=np.int64)


@dataclass
class DataLoader:
    """Mini-batch iterator over an :class:`InMemoryDataset`."""

    dataset: InMemoryDataset
    batch_size: int = 8
    shuffle: bool = False
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    drop_last: bool = False

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            chunk = indices[start : start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            yield collate([self.dataset[int(i)] for i in chunk])
