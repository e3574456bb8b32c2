"""Functional neural-network operations built on :class:`repro.nn.Tensor`."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, apply_op, as_tensor

__all__ = [
    "relu",
    "leaky_relu",
    "log_softmax",
    "dropout",
    "matmul",
    "linear",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectified linear unit."""
    return as_tensor(x).leaky_relu(negative_slope)


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
