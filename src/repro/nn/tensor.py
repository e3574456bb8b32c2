"""A small reverse-mode automatic differentiation engine on numpy arrays.

The engine follows the familiar define-by-run pattern: every operation on
:class:`Tensor` objects records its inputs and a closure that propagates the
output gradient back to them.  Calling :meth:`Tensor.backward` on a scalar
(or with an explicit output gradient) topologically sorts the recorded graph
and runs the closures in reverse order.

Design notes
------------
* Arrays follow the **dtype policy** of :mod:`repro.nn.dtype`: fresh
  (non-float) data is cast to the module default (float32, half the memory
  bandwidth of float64 on the edge-latency hot paths), while floating
  arrays keep their own dtype — so a float64 pipeline built under
  ``default_dtype("float64")`` stays float64 end to end, which is what the
  finite-difference gradient checks in the test-suite use.  Gradients are
  stored and accumulated in the dtype of the tensor they belong to.
* Broadcasting is fully supported; gradients are "unbroadcast" (summed over
  broadcast dimensions) before accumulation.
* Custom differentiable operations (e.g. the scatter aggregations in
  :mod:`repro.graph.scatter`) are built with :func:`apply_op`, which creates
  an output tensor wired to an arbitrary backward closure.
* :func:`no_grad` provides an inference-mode context that skips graph
  recording entirely.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn.dtype import as_float_array

__all__ = [
    "Tensor",
    "as_tensor",
    "apply_op",
    "no_grad",
    "leaky_relu_values",
    "leaky_relu_slopes",
]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient graph recording."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Summation is performed over dimensions that were added or expanded by
    numpy broadcasting rules when producing ``grad``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were prepended by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were expanded from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        name: str | None = None,
        dtype: np.dtype | str | None = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = as_float_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = parents if self.requires_grad else ()
        self._backward: Callable[[], None] | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the single element of a size-1 tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------ #
    # Gradient plumbing
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` to the stored gradient, in place after the first call.

        ``grad`` has this tensor's shape (callers unbroadcast it).  The
        first call stores a copy: the incoming array may be shared by other
        nodes (``x + x`` hands the same array to both parents) or be a
        read-only view, so it is never aliased.
        """
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Consumes the graph: each node drops its backward closure (which
        references the node) so the graph is freed by reference counting.

        Args:
            grad: Gradient of the final objective w.r.t. this tensor.  May be
                omitted only for scalar tensors, in which case it defaults to
                one.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(np.asarray(grad, dtype=self.data.dtype), self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            backward_fn, node._backward = node._backward, None
            if backward_fn is not None and node.grad is not None:
                backward_fn()

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:

            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.data.shape))

            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = _make(-self.data, (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(-out.grad)

            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:

            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data / other.data, (self, other))
        if out.requires_grad:

            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-out.grad * self.data / (other.data**2), other.data.shape)
                    )

            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out = _make(self.data**exponent, (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            out._backward = _backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = _make(self.data @ other.data, (self, other))
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad
                if self.requires_grad:
                    if other.data.ndim == 1:
                        self._accumulate(
                            _unbroadcast(np.outer(grad, other.data).reshape(self.data.shape), self.data.shape)
                            if self.data.ndim > 1
                            else grad * other.data
                        )
                    else:
                        self._accumulate(
                            _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.data.shape)
                        )
                if other.requires_grad:
                    if self.data.ndim == 1:
                        other._accumulate(_unbroadcast(np.outer(self.data, grad), other.data.shape))
                    else:
                        other._accumulate(
                            _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.data.shape)
                        )

            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

            out._backward = _backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def _minmax(self, axis, keepdims, mode: str) -> "Tensor":
        reducer = np.max if mode == "max" else np.min
        reduced = reducer(self.data, axis=axis, keepdims=keepdims)
        out = _make(reduced, (self,))
        if out.requires_grad:

            def _backward() -> None:
                grad = out.grad
                reduced_keep = reduced if keepdims or axis is None else np.expand_dims(reduced, axis=axis)
                grad_keep = grad if keepdims or axis is None else np.expand_dims(grad, axis=axis)
                mask = (self.data == reduced_keep).astype(self.data.dtype)
                # Split gradient equally between ties for a well-defined subgradient.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask * grad_keep / counts)

            out._backward = _backward
        return out

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return self._minmax(axis, keepdims, "max")

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return self._minmax(axis, keepdims, "min")

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad.reshape(self.data.shape))

            out._backward = _backward
        return out

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out = _make(np.transpose(self.data, axes), (self,))
        if out.requires_grad:

            def _backward() -> None:
                if axes is None:
                    self._accumulate(np.transpose(out.grad))
                else:
                    inverse = np.argsort(axes)
                    self._accumulate(np.transpose(out.grad, inverse))

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = _make(self.data[index], (self,))
        if out.requires_grad:

            def _backward() -> None:
                grad = np.zeros_like(self.data)
                # repro-lint: allow[backend-primitive] generic fancy-index accumulation, not a graph kernel
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = _make(value, (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad * value)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = _make(np.log(self.data), (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad / self.data)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        out = _make(np.abs(self.data), (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad * np.sign(self.data))

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad * (self.data > 0.0))

            out._backward = _backward
        return out

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out = _make(leaky_relu_values(self.data, negative_slope), (self,))
        if out.requires_grad:

            def _backward() -> None:
                self._accumulate(out.grad * leaky_relu_slopes(self.data, negative_slope))

            out._backward = _backward
        return out

    def clip(self, minimum: float | None = None, maximum: float | None = None) -> "Tensor":
        lo = -np.inf if minimum is None else minimum
        hi = np.inf if maximum is None else maximum
        out = _make(np.clip(self.data, lo, hi), (self,))
        if out.requires_grad:

            def _backward() -> None:
                inside = (self.data >= lo) & (self.data <= hi)
                self._accumulate(out.grad * inside)

            out._backward = _backward
        return out


def leaky_relu_values(x: np.ndarray, negative_slope: float) -> np.ndarray:
    """``x`` where positive, ``negative_slope * x`` elsewhere.

    For ``0 < negative_slope <= 1`` this is ``maximum(x, slope * x)``, an
    order of magnitude faster than ``np.where`` and bit-identical to it,
    signed zeros, infinities and NaN included.  (At slope 0, ``0 * inf`` is
    NaN, so that slope keeps the ``np.where`` form.)
    """
    if 0.0 < negative_slope <= 1.0:
        return np.maximum(x, negative_slope * x)
    return np.where(x > 0.0, x, negative_slope * x)


def leaky_relu_slopes(x: np.ndarray, negative_slope: float) -> np.ndarray:
    """The leaky ReLU derivative at ``x`` (1 or ``negative_slope``), in ``x``'s dtype."""
    slope = x.dtype.type(negative_slope)
    if 0.0 <= negative_slope <= 1.0:
        return np.maximum(x > 0.0, slope)
    return np.where(x > 0.0, x.dtype.type(1.0), slope)


def _make(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    """Create an op output tensor that requires grad iff any parent does."""
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, parents=tuple(p for p in parents if p.requires_grad))


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def apply_op(
    data: np.ndarray,
    parents: Iterable[Tensor],
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Create a custom differentiable operation.

    Args:
        data: Forward result as a numpy array.
        parents: Input tensors, in the order expected by ``backward_fn``.
        backward_fn: Maps the output gradient to a sequence of gradients, one
            per parent (``None`` entries are skipped).

    Returns:
        The output :class:`Tensor` wired into the autograd graph.
    """
    parents = tuple(parents)
    out = _make(as_float_array(data), parents)
    if out.requires_grad:

        def _backward() -> None:
            grads = backward_fn(out.grad)
            if len(grads) != len(parents):
                raise RuntimeError(
                    f"backward_fn returned {len(grads)} gradients for {len(parents)} parents"
                )
            for parent, grad in zip(parents, grads):
                if parent.requires_grad and grad is not None:
                    grad = np.asarray(grad, dtype=parent.data.dtype)
                    parent._accumulate(_unbroadcast(grad, parent.data.shape))

        out._backward = _backward
    return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        slices = []
        for i in range(len(tensors)):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            slices.append(grad[tuple(index)])
        return slices

    return apply_op(data, tensors, backward_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        return [np.take(grad, i, axis=axis) for i in range(len(tensors))]

    return apply_op(data, tensors, backward_fn)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise selection ``condition ? a : b``."""
    a = as_tensor(a)
    b = as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray | None]:
        return [np.where(condition, grad, 0.0), np.where(condition, 0.0, grad)]

    return apply_op(data, (a, b), backward_fn)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (gradient split on ties)."""
    a = as_tensor(a)
    b = as_tensor(b)
    data = np.maximum(a.data, b.data)

    def backward_fn(grad: np.ndarray) -> list[np.ndarray]:
        a_wins = a.data > b.data
        ties = a.data == b.data
        grad_a = grad * (a_wins + 0.5 * ties)
        grad_b = grad * (~a_wins & ~ties) + grad * 0.5 * ties
        return [grad_a, grad_b]

    return apply_op(data, (a, b), backward_fn)
