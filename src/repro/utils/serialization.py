"""JSON / npz serialization helpers used by checkpoints and experiments."""

from __future__ import annotations

import dataclasses
import json
import pathlib
from enum import Enum
from typing import Any, Mapping

import numpy as np

__all__ = ["save_json", "load_json", "save_npz", "load_npz", "to_jsonable"]


def to_jsonable(obj: Any) -> Any:
    """Convert ``obj`` into plain JSON-compatible Python objects.

    Handles numpy scalars and arrays, dataclasses, enums, sets, and nested
    containers of those.
    """
    kind = type(obj)
    # Exact built-in types first: checkpoint documents are mostly plain
    # dicts, lists and scalars, and the ABC checks below cost microseconds.
    if kind is str or kind is float or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {(k if type(k) is str else str(k)): to_jsonable(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


def save_json(path: str | pathlib.Path, obj: Any, indent: int | None = 2) -> pathlib.Path:
    """Serialise ``obj`` to JSON at ``path``, creating parent directories.

    ``indent=None`` writes compact JSON through the C encoder, several
    times faster than the indented form.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # json.dumps, not json.dump: only the one-shot encoder runs in C.
    text = json.dumps(to_jsonable(obj), indent=indent, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def load_json(path: str | pathlib.Path) -> Any:
    """Load a JSON document from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_npz(path: str | pathlib.Path, arrays: Mapping[str, np.ndarray]) -> pathlib.Path:
    """Save a mapping of named arrays to an uncompressed ``.npz`` file.

    Float32 weights shrink by only about 8% under zlib, so the export is
    not compressed.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{k: np.asarray(v) for k, v in arrays.items()})
    return path


def load_npz(path: str | pathlib.Path) -> dict[str, np.ndarray]:
    """Load all arrays from a ``.npz`` file into a dictionary."""
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}
