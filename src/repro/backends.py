"""The message-passing path switch and the numpy kernel primitives.

Models run message passing along one of two paths:

* ``numpy`` (the default) — :func:`repro.graph.propagate` runs the fused
  kernels of :mod:`repro.graph.fused` in training and inference alike:
  every MLP-free aggregate (all seven message types) as segment
  reductions, EdgeConv's one ``Linear`` + activation as a chunked per-edge
  kernel;
* ``materialized`` — the gather → message → MLP → scatter reference path.
  It is slower and exists as the test oracle for the fused kernels.  On
  the ``numpy`` path only MLPs other than EdgeConv's still take it.

:func:`use_backend` scopes the path and :func:`fused_kernels_enabled` is
the one query ``repro.graph.propagate`` reads.  The path name is also part
of serving and workspace cache keys, so results of the two paths never
alias::

    with use_backend("materialized"):
        logits = model(batch)          # gather -> scatter reference path

The module also owns the irregular-access kernels: contiguous segment
reduction, the gather-reduce behind the fused aggregate, the row-sum by
index behind the fused kernels' gather backward, and the unbuffered
scatter accumulation (``ufunc.at``) that only the materialized path
(:mod:`repro.graph.scatter`) still uses.  It imports nothing from
``repro.nn``/``repro.graph`` (they import *it*).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

__all__ = [
    "BACKENDS",
    "active_backend_name",
    "use_backend",
    "fused_kernels_enabled",
    "check_backend",
    "segment_reduce",
    "gather_reduce",
    "index_sum",
    "scatter_add",
    "scatter_extreme",
]

#: The two message-passing paths: fused (``numpy``) and the reference.
BACKENDS = ("numpy", "materialized")

_active = "numpy"

#: Aggregator name -> reducing ufunc (``mean`` reduces like ``sum``; the
#: caller divides by the segment counts afterwards).
_REDUCERS = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}

_EXTREME_REDUCERS = {"max": np.maximum, "min": np.minimum}


def check_backend(name: str) -> str:
    """Return ``name`` if it is one of :data:`BACKENDS`, else raise ``ValueError``."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend '{name}', expected one of {BACKENDS}")
    return name


def active_backend_name() -> str:
    """The message-passing path currently in effect."""
    return _active


def fused_kernels_enabled() -> bool:
    """Whether message passing runs the fused kernels where they apply."""
    return _active == "numpy"


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Scope the message-passing path (nestable, exception-safe)."""
    global _active
    previous = _active
    _active = check_backend(name)
    try:
        yield name
    finally:
        _active = previous


def segment_reduce(
    values: np.ndarray, seg_starts: np.ndarray, seg_counts: np.ndarray, aggregator: str
) -> np.ndarray:
    """Reduce contiguous non-empty segments of ``values`` to ``(num_segments, F)``.

    ``mean`` reduces like ``sum``; the caller divides by the counts.
    """
    try:
        reducer = _REDUCERS[aggregator]
    except KeyError as exc:
        raise ValueError(f"unknown aggregator '{aggregator}'") from exc
    degree = int(seg_counts[0]) if seg_counts.size else 0
    if degree and np.all(seg_counts == degree):
        # Uniform degree (the KNN/random-graph common case): a reshaped
        # axis reduction is SIMD-vectorized, unlike ufunc.reduceat.
        stacked = values.reshape(seg_counts.size, degree, values.shape[1])
        if aggregator in ("sum", "mean"):
            return stacked.sum(axis=1)
        if aggregator == "max":
            return stacked.max(axis=1)
        return stacked.min(axis=1)
    return reducer.reduceat(values, seg_starts, axis=0)


def gather_reduce(
    values: np.ndarray, index: np.ndarray, seg_starts: np.ndarray, seg_counts: np.ndarray, aggregator: str
) -> np.ndarray:
    """``segment_reduce(values[index], seg_starts, seg_counts, aggregator)``.

    When every segment has the same degree ``k`` (KNN and random graphs
    always do), the ``(E, F)`` gather is never built: each target's
    neighbours are reduced one column of ``index.reshape(S, k)`` at a time,
    in the order j = 0..k-1 that the reshaped axis reduction also follows,
    and the sum starts from +0.0 as that reduction does.  The result is
    bit-identical to the gathered reduction; only the sign and payload
    bits of NaN entries may differ.  At 1024 x 64 float32, k=20 it took
    0.74 ms against 1.56 ms for the gathered max (2-core host, one BLAS
    thread).  Ragged segments and a single feature column (where numpy's
    axis sum turns pairwise) gather and call :func:`segment_reduce`.
    """
    try:
        reducer = _REDUCERS[aggregator]
    except KeyError as exc:
        raise ValueError(f"unknown aggregator '{aggregator}'") from exc
    degree = int(seg_counts[0]) if seg_counts.size else 0
    if not degree or values.shape[1] == 1 or np.any(seg_counts != degree):
        return segment_reduce(values[index], seg_starts, seg_counts, aggregator)
    columns = index.reshape(seg_counts.size, degree).T
    if reducer is np.add:
        out = np.zeros((seg_counts.size, values.shape[1]), dtype=values.dtype)
    else:
        out, columns = values[columns[0]], columns[1:]
    for column in columns:
        reducer(out, values[column], out=out)
    return out


def index_sum(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """``out[i] = sum(values[index == i])`` as a new ``(num_rows, F)`` array.

    The gather backward: one ``bincount`` per column, about 3x faster than
    ``np.add.at`` at 512 nodes x k=20 x 32 channels.  It accumulates in
    float64 and rounds once, so a float32 result may differ from
    sequential float32 addition in the last bits.
    """
    out = np.empty((num_rows, values.shape[1]), dtype=values.dtype)
    for column in range(values.shape[1]):
        out[:, column] = np.bincount(index, weights=values[:, column], minlength=num_rows)
    return out


def scatter_add(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """In-place unbuffered accumulation ``out[index] += values``."""
    np.add.at(out, index, values)


def scatter_extreme(out: np.ndarray, index: np.ndarray, values: np.ndarray, mode: str) -> None:
    """In-place unbuffered ``out[index] = max/min(out[index], values)``."""
    try:
        reducer = _EXTREME_REDUCERS[mode]
    except KeyError as exc:
        raise ValueError(f"unknown extreme mode '{mode}', expected 'max' or 'min'") from exc
    reducer.at(out, index, values)
