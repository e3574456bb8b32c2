"""Functional neural-network operations built on :class:`repro.nn.Tensor`."""

from __future__ import annotations

import numpy as np

from repro.backends import scatter_add
from repro.nn.dtype import get_default_dtype
from repro.nn.tensor import Tensor, apply_op, as_tensor

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "matmul",
    "linear",
    "one_hot",
    "embedding_lookup",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectified linear unit."""
    return as_tensor(x).leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout.

    Args:
        x: Input tensor.
        p: Probability of dropping an element (``0 <= p < 1``).
        rng: Random generator used to draw the mask.
        training: If ``False`` the input is returned unchanged.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = as_tensor(x)
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def matmul(x: Tensor, weight: Tensor) -> Tensor:
    """Dense product ``x @ weight``: the ``Linear`` hot path.

    Handles the 2-D x 2-D and batched 3-D x 2-D cases as one autograd op;
    other shapes fall back to :meth:`Tensor.__matmul__`, whose semantics
    this op mirrors exactly.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if x.ndim < 2 or weight.ndim != 2:
        return x @ weight
    out = x.data @ weight.data

    def backward_fn(grad: np.ndarray) -> list[np.ndarray | None]:
        dx = grad @ weight.data.T if x.requires_grad else None
        if not weight.requires_grad:
            return [dx, None]
        if x.ndim == 2:
            dw = x.data.T @ grad
        else:
            # Batched input: contract per batch; apply_op unbroadcasts the
            # leading dimensions onto the 2-D weight (summing over them).
            dw = np.swapaxes(x.data, -1, -2) @ grad
        return [dx, dw]

    return apply_op(out, (x, weight), backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias``."""
    out = matmul(x, weight)
    if bias is not None:
        out = out + bias
    return out


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(len(indices), num_classes)`` one-hot float array."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ValueError(f"one_hot expects a 1-D index array, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= num_classes):
        raise ValueError("one_hot indices out of range")
    out = np.zeros((indices.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Differentiable row lookup ``table[indices]``."""
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)
    data = table.data[indices]

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        full = np.zeros_like(table.data)
        scatter_add(full, indices, grad)
        return [full]

    return apply_op(data, (table,), backward_fn)
