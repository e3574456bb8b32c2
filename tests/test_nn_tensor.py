"""Tests for the autograd engine: forward values and gradients."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import init
from repro.nn.dtype import (
    as_float_array,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.nn.layers import Linear
from repro.nn.loss import cross_entropy, huber_loss
from repro.nn.tensor import (
    Tensor,
    apply_op,
    as_tensor,
    concatenate,
    maximum,
    no_grad,
    stack,
    where,
)

from helpers import finite_difference_grad


def assert_grad_matches(build_fn, shape, rng, rtol=1e-5, atol=1e-7):
    """Compare autograd gradient against central finite differences."""
    x0 = rng.normal(size=shape)

    def numeric(x):
        return float(build_fn(Tensor(x, requires_grad=False)).data.sum())

    x = Tensor(x0.copy(), requires_grad=True)
    out = build_fn(x)
    out.sum().backward()
    expected = finite_difference_grad(numeric, x0.copy())
    np.testing.assert_allclose(x.grad, expected, rtol=rtol, atol=atol)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3))
        np.testing.assert_allclose((a + b).data, 1 + np.arange(3) * np.ones((2, 3)))

    def test_scalar_ops(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_allclose((2 * t + 1).data, [3.0, 5.0])
        np.testing.assert_allclose((1 - t).data, [0.0, -1.0])
        np.testing.assert_allclose((t / 2).data, [0.5, 1.0])
        np.testing.assert_allclose((2 / t).data, [2.0, 1.0])

    def test_matmul(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_reductions(self):
        data = np.arange(6.0).reshape(2, 3)
        t = Tensor(data)
        assert t.sum().item() == pytest.approx(15.0)
        np.testing.assert_allclose(t.mean(axis=0).data, data.mean(axis=0))
        np.testing.assert_allclose(t.max(axis=1).data, data.max(axis=1))
        np.testing.assert_allclose(t.min(axis=1).data, data.min(axis=1))

    def test_reshape_transpose(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape(2, 3).T.shape == (3, 2)

    def test_getitem_fancy(self):
        t = Tensor(np.arange(10.0))
        np.testing.assert_allclose(t[np.array([1, 3, 5])].data, [1.0, 3.0, 5.0])

    def test_elementwise_functions(self):
        t = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(t.relu().data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(t.abs().data, [1.0, 0.0, 2.0])
        np.testing.assert_allclose(t.leaky_relu(0.1).data, [-0.1, 0.0, 2.0])
        np.testing.assert_allclose(t.clip(-0.5, 1.0).data, [-0.5, 0.0, 1.0])

    def test_concatenate_and_stack(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))
        assert concatenate([a, b], axis=1).shape == (2, 4)
        assert stack([a, b], axis=0).shape == (2, 2, 2)

    def test_where_and_maximum(self):
        a, b = Tensor([1.0, 5.0]), Tensor([4.0, 2.0])
        np.testing.assert_allclose(maximum(a, b).data, [4.0, 5.0])
        np.testing.assert_allclose(where(np.array([True, False]), a, b).data, [1.0, 2.0])

    def test_repr_and_item(self):
        t = Tensor([[3.0]])
        assert "shape" in repr(t)
        assert t.item() == pytest.approx(3.0)

    def test_detach_and_copy(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.detach().requires_grad
        copy = t.copy()
        copy.data[0] = 9.0
        assert t.data[0] == 1.0


class TestBackward:
    def test_add_mul_chain(self, rng):
        assert_grad_matches(lambda x: (x * 3.0 + 1.0) * x, (4,), rng)

    def test_broadcast_grad(self, rng):
        b0 = rng.normal(size=(3,))

        def build(x):
            return x * Tensor(b0)

        assert_grad_matches(build, (2, 3), rng)

    def test_matmul_grad(self, rng):
        w = rng.normal(size=(4, 2))
        assert_grad_matches(lambda x: x @ Tensor(w), (3, 4), rng)

    def test_division_grad(self, rng):
        assert_grad_matches(lambda x: x / (x * x + 2.0), (5,), rng)

    def test_pow_sqrt_grad(self, rng):
        assert_grad_matches(lambda x: (x * x + 1.0).sqrt(), (4,), rng)

    def test_exp_log_grad(self, rng):
        assert_grad_matches(lambda x: (x.exp() + 1.0).log(), (4,), rng)

    def test_reduction_grads(self, rng):
        assert_grad_matches(lambda x: x.mean(axis=0), (3, 4), rng)
        assert_grad_matches(lambda x: x.sum(axis=1, keepdims=True) * 2.0, (3, 4), rng)

    def test_max_grad(self, rng):
        assert_grad_matches(lambda x: x.max(axis=1), (3, 5), rng)

    def test_getitem_grad(self, rng):
        idx = np.array([0, 2, 2])

        def build(x):
            return x[idx] * 2.0

        assert_grad_matches(build, (4, 3), rng)

    def test_concatenate_grad(self, rng):
        def build(x):
            return concatenate([x, x * 2.0], axis=1)

        assert_grad_matches(build, (2, 3), rng)

    def test_transpose_reshape_grad(self, rng):
        assert_grad_matches(lambda x: x.T.reshape(6) * 3.0, (2, 3), rng)

    @pytest.mark.parametrize("slope", [0.01, 0.2])
    def test_leaky_relu_grad(self, slope, rng):
        assert_grad_matches(lambda x: x.leaky_relu(slope) * 3.0, (4, 5), rng)

    def test_accumulate_aliasing_grads(self, rng):
        """One gradient array reaching a tensor twice, or a broadcast parent."""
        assert_grad_matches(lambda x: x + x, (3, 4), rng)
        assert_grad_matches(lambda x: x * x, (3, 4), rng)
        rows = Tensor(rng.normal(size=(3, 4)))
        assert_grad_matches(lambda bias: rows * 2.0 + bias, (4,), rng)

    def test_first_accumulation_copies_the_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x + x
        seed = np.arange(3.0)
        y.backward(seed)
        np.testing.assert_array_equal(x.grad, 2.0 * seed)
        # Both parents received y's gradient array; adding the second in
        # place must not write through to it.
        np.testing.assert_array_equal(y.grad, seed)
        assert not np.shares_memory(x.grad, y.grad)

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()
        (x * 2.0).backward(np.ones(3))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_frees_graph_by_refcount(self):
        gc.disable()
        try:
            x = Tensor(np.ones(3), requires_grad=True)
            w = Tensor(np.full(3, 2.0), requires_grad=True)
            product = x * w
            # Tensor has __slots__ without weakref support; its data array
            # is referenced by the intermediate alone.
            alive = weakref.ref(product.data)
            loss = product.sum()
            loss.backward()
            del product, loss
            # No cyclic GC ran: the intermediate is gone by refcount alone.
            assert alive() is None
            np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])
        finally:
            gc.enable()


class TestLeakyReluForm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0, 1.5, -0.5])
    def test_forward_bit_identical_to_where_form(self, dtype, slope):
        values = np.array(
            [-np.inf, -3.0, -1e-40, -0.0, 0.0, 1e-40, 2.5, np.inf, np.nan, -np.nan], dtype=dtype
        )
        with np.errstate(invalid="ignore"):  # 0 * inf
            expected = np.where(values > 0.0, values, slope * values)
            got = Tensor(values).leaky_relu(slope).data
        assert got.dtype == dtype
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))  # signed zeros and NaNs too


class TestGradMode:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (x * 2.0).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestDtypePolicy:
    """The float32-default dtype policy of repro.nn.dtype (PR 5)."""

    def test_default_is_float32(self):
        assert get_default_dtype() == np.float32

    def test_fresh_data_uses_default(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(3).dtype == np.float32
        assert Tensor(np.arange(4)).dtype == np.float32
        assert Tensor(np.ones(3, dtype=bool)).dtype == np.float32

    def test_float_arrays_keep_their_dtype(self):
        assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32

    def test_explicit_dtype_wins(self):
        assert Tensor(np.ones(3, dtype=np.float64), dtype="float32").dtype == np.float32

    def test_context_manager_scopes_the_default(self):
        with default_dtype("float64"):
            assert Tensor([1.0]).dtype == np.float64
            assert Tensor(init.zeros((2,))).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_set_default_dtype_round_trip(self):
        set_default_dtype("float64")
        try:
            assert get_default_dtype() == np.float64
        finally:
            set_default_dtype("float32")

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype("int64")
        with pytest.raises(ValueError):
            default_dtype("int32").__enter__()

    def test_as_float_array_no_copy_for_floats(self):
        arr = np.ones(3, dtype=np.float32)
        assert as_float_array(arr) is arr


def _unary_ops():
    return {
        "add": lambda x: x + 1.5,
        "mul": lambda x: x * 2.0,
        "div": lambda x: x / 3.0,
        "rdiv": lambda x: 2.0 / (x + 3.0),
        "pow": lambda x: (x + 3.0) ** 2,
        "matmul": lambda x: x @ Tensor(np.ones((3, 2), dtype=np.float32)),
        "sum": lambda x: x.sum(axis=0),
        "mean": lambda x: x.mean(axis=1),
        "max": lambda x: x.max(axis=0),
        "min": lambda x: x.min(axis=1),
        "reshape": lambda x: x.reshape(-1),
        "transpose": lambda x: x.T,
        "getitem": lambda x: x[np.array([0, 1, 1])],
        "exp": lambda x: x.exp(),
        "log": lambda x: (x + 3.0).log(),
        "abs": lambda x: x.abs(),
        "sqrt": lambda x: (x + 3.0).sqrt(),
        "relu": lambda x: F.relu(x),
        "leaky_relu": lambda x: F.leaky_relu(x, 0.2),
        "log_softmax": lambda x: F.log_softmax(x),
        "dropout": lambda x: F.dropout(x, 0.5, np.random.default_rng(0)),
        "linear": lambda x: F.linear(
            x, Tensor(np.ones((3, 4), dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32))
        ),
        "clip": lambda x: x.clip(-0.5, 0.5),
        "concatenate": lambda x: concatenate([x, x * 2.0], axis=0),
        "stack": lambda x: stack([x, x], axis=0),
        "where": lambda x: where(np.ones(x.shape, dtype=bool), x, x * 2.0),
        "maximum": lambda x: maximum(x, x * 0.5),
    }


class TestDtypePropagation:
    """Every nn op preserves float32 end to end, forward and backward."""

    @pytest.mark.parametrize("name", sorted(_unary_ops()))
    def test_op_preserves_float32(self, name, rng):
        op = _unary_ops()[name]
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        out = op(x)
        assert out.dtype == np.float32, f"{name} forward upcast to {out.dtype}"
        out.sum().backward()
        assert x.grad is not None and x.grad.dtype == np.float32, f"{name} grad dtype"

    def test_backward_seed_follows_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2.0).backward(np.ones(3, dtype=np.float64))
        assert x.grad.dtype == np.float32

    def test_apply_op_preserves_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = apply_op(x.data * 2.0, (x,), lambda grad: [np.asarray(grad, dtype=np.float64) * 2.0])
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_losses_preserve_float32(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        targets = np.array([0, 1, 2, 1])
        loss = cross_entropy(logits, targets)
        assert loss.dtype == np.float32
        loss.backward()
        assert logits.grad.dtype == np.float32
        pred = Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True)
        target = Tensor(rng.normal(size=(5,)).astype(np.float32))
        for loss_fn in (huber_loss,):
            value = loss_fn(pred, target)
            assert value.dtype == np.float32, loss_fn.__name__

    def test_modules_initialise_in_default_dtype(self):
        layer = Linear(3, 4, rng=np.random.default_rng(0))
        assert layer.weight.dtype == np.float32 and layer.bias.dtype == np.float32
        out = layer(Tensor(np.ones((2, 3), dtype=np.float32)))
        assert out.dtype == np.float32
        with default_dtype("float64"):
            wide = Linear(3, 4, rng=np.random.default_rng(0))
        assert wide.weight.dtype == np.float64

    def test_state_dict_round_trip_keeps_param_dtype(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        state = {name: value.astype(np.float64) for name, value in layer.state_dict().items()}
        layer.load_state_dict(state)
        assert layer.weight.data.dtype == np.float32
