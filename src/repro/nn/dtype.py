"""Compute dtype policy.

HGNAS's value proposition is latency on edge hardware, so the whole stack
computes in **float32 by default**: half the memory bandwidth of float64,
and the precision every modelled edge device (and the paper's PyTorch
baselines) actually uses.  The policy is a single module-level default that
every dtype decision in the code base consults instead of hardcoding a
float width:

* :class:`~repro.nn.tensor.Tensor` casts fresh (non-float) data to the
  default dtype but *preserves* the dtype of floating-point arrays it is
  handed, so a pipeline stays in whatever precision its inputs carry.
* Parameter initialisation (:mod:`repro.nn.init`) draws in the default
  dtype, so models built under ``default_dtype("float64")`` are float64
  end to end.
* Data entry points (datasets, the serving engine) coerce raw inputs to
  the default dtype; interior ops (graph construction, scatter, autograd)
  follow their input's dtype.

Bit-exact float64 runs — e.g. reproducing the PR-3 bit-identity
benchmarks at the old precision — opt in with::

    with default_dtype("float64"):
        ...  # build data + models + run here

Only floating dtypes are accepted; integer index arrays are unaffected by
the policy.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

import numpy as np

__all__ = [
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "resolve_dtype",
    "as_float_array",
    "WIDE_DTYPE",
]

_DEFAULT_DTYPE = np.dtype(np.float32)

#: The wide accumulator dtype for *scalar bookkeeping*, not tensor compute:
#: metric/telemetry accumulation, fitness and ranking statistics, content
#: hashing and cache keys — places that must match Python ``float``
#: arithmetic bit-for-bit regardless of the compute policy above.  KNN
#: ranking keys (:mod:`repro.graph.knn`'s dense search) are built in it too,
#: so float32 features rank their neighbours as an exact-distance KD-tree
#: would.  This is the only sanctioned float64 spelling outside this module
#: (the ``dtype-literal`` lint rule flags raw ``np.float64`` literals).
WIDE_DTYPE = np.dtype(np.float64)


def _coerce_dtype(dtype: str | type | np.dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be a floating dtype, got {resolved}")
    return resolved


def get_default_dtype() -> np.dtype:
    """Return the current default floating dtype (float32 unless changed)."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype: str | type | np.dtype) -> None:
    """Set the process-wide default floating dtype (e.g. ``"float64"``)."""
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _coerce_dtype(dtype)


@contextlib.contextmanager
def default_dtype(dtype: str | type | np.dtype) -> Iterator[np.dtype]:
    """Temporarily change the default floating dtype.

    Tensors, parameters and datasets *created* inside the context use the
    given dtype; compute on them keeps following their stored dtype after
    the context exits.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _coerce_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        _DEFAULT_DTYPE = previous


def resolve_dtype(data: Any = None, dtype: str | type | np.dtype | None = None) -> np.dtype:
    """Resolve the dtype an operation should compute in.

    An explicit ``dtype`` wins; otherwise a floating-point numpy array (or
    scalar) keeps its own dtype; anything else (int/bool arrays, Python
    scalars, lists, ``None``) gets the module default.
    """
    if dtype is not None:
        return _coerce_dtype(dtype)
    if isinstance(data, (np.ndarray, np.generic)) and data.dtype.kind == "f":
        return data.dtype
    return _DEFAULT_DTYPE


def as_float_array(data: Any, dtype: str | type | np.dtype | None = None) -> np.ndarray:
    """Coerce ``data`` to a floating numpy array under the dtype policy.

    Float arrays pass through without copying; integer/bool arrays and
    fresh Python data are cast to the default dtype (or the explicit
    ``dtype``).
    """
    return np.asarray(data, dtype=resolve_dtype(data, dtype))
