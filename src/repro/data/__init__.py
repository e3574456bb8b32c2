"""Datasets, transforms and loaders for point-cloud classification."""

from repro.data.dataset import Batch, DataLoader, InMemoryDataset, PointCloudSample, collate
from repro.data.shapes import SHAPE_GENERATORS, generate_shape, list_shape_names
from repro.data.synthetic_modelnet import (
    SyntheticModelNet,
    SyntheticModelNetConfig,
    make_synthetic_modelnet,
)
from repro.data.transforms import (
    normalize_unit_sphere,
    random_jitter,
    random_rotate_z,
)

__all__ = [
    "Batch",
    "DataLoader",
    "InMemoryDataset",
    "PointCloudSample",
    "collate",
    "SHAPE_GENERATORS",
    "generate_shape",
    "list_shape_names",
    "SyntheticModelNet",
    "SyntheticModelNetConfig",
    "make_synthetic_modelnet",
    "normalize_unit_sphere",
    "random_jitter",
    "random_rotate_z",
]
