"""Tests for nn layers, losses, optimisers and functional ops."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    SGD,
    Adam,
    AdamW,
    BatchNorm1d,
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Tensor,
    accuracy,
    balanced_accuracy,
    clip_grad_norm,
    cross_entropy,
    huber_loss,
)
from repro.nn import default_dtype
from repro.nn import functional as F
from repro.nn import init


class TestLinearAndMLP:
    def test_linear_shapes(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_mlp_structure(self, rng):
        mlp = MLP([4, 8, 2], dropout=0.1, batch_norm=True, rng=rng)
        out = mlp(Tensor(rng.normal(size=(6, 4))))
        assert out.shape == (6, 2)

    def test_mlp_needs_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_mlp_invalid_activation(self):
        with pytest.raises(ValueError):
            MLP([4, 2], activation="gelu")

    def test_sequential_indexing(self, rng):
        seq = Sequential(Linear(2, 3, rng=rng), ReLU(), LeakyReLU())
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        assert seq(Tensor(rng.normal(size=(4, 2)))).shape == (4, 3)


class TestModuleProtocol:
    def test_parameters_and_count(self, rng):
        mlp = MLP([3, 5, 2], rng=rng)
        count = sum(p.size for p in mlp.parameters())
        assert mlp.num_parameters() == count == 3 * 5 + 5 + 5 * 2 + 2

    def test_state_dict_roundtrip(self, rng):
        a = MLP([3, 4, 2], rng=np.random.default_rng(1))
        b = MLP([3, 4, 2], rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_strict_mismatch(self, rng):
        a = MLP([3, 4, 2], rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"bogus": np.ones(2)})

    def test_state_dict_shape_mismatch(self, rng):
        a = MLP([3, 4, 2], rng=rng)
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.ones((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_train_eval_recursion(self, rng):
        mlp = MLP([3, 4, 2], dropout=0.5, rng=rng)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_module_list_follows_late_registrations(self, rng):
        """The cached flat module list goes stale when any descendant registers a sub-module."""
        import copy
        import pickle

        outer = Sequential(Linear(3, 4, rng=rng), MLP([4, 4], rng=rng))
        before = list(outer.modules())
        inner = before[-1]
        inner.extra = Dropout(0.5)  # a grandchild registers a child after the list was built
        inner.add_module("late", Linear(4, 4, rng=rng))
        after = list(outer.modules())
        assert after[: len(before)] == before and len(after) == len(before) + 2
        outer.eval()
        assert not inner.extra.training and not inner.late.training
        for clone in (copy.deepcopy(outer), pickle.loads(pickle.dumps(outer)), copy.copy(outer)):
            assert next(clone.modules()) is clone
            clone.train()
            assert clone.training
        assert not outer.training  # no clone's list named the original

    def test_module_list_keeps_no_reference_cycle(self, rng):
        """A model dropped after ``eval()`` is freed at once, not by a later cyclic collection."""
        import gc
        import weakref

        model = MLP([3, 4, 2], dropout=0.5, rng=rng).eval()
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_zero_grad(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestNormalisationAndDropout:
    def test_batchnorm_normalises(self, rng):
        bn = BatchNorm1d(4)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(64, 4)))
        out = bn(x)
        assert abs(out.data.mean()) < 0.1
        assert abs(out.data.std() - 1.0) < 0.2

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = BatchNorm1d(2, momentum=0.5)
        x = Tensor(rng.normal(size=(32, 2)))
        bn(x)
        bn.eval()
        out = bn(Tensor(np.zeros((4, 2))))
        assert out.shape == (4, 2)

    def test_batchnorm_shape_check(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.ones((2, 4))))

    def test_dropout_train_vs_eval(self, rng):
        drop = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((10, 10)))
        assert (drop(x).data == 0).any()
        drop.eval()
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestFunctional:
    def test_log_softmax_consistency(self, rng):
        values = rng.normal(size=(4, 6))
        reference = np.log(np.exp(values) / np.exp(values).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(F.log_softmax(Tensor(values)).data, reference, atol=1e-9)

    def test_a_backpropagated_loss_graph_is_freed_without_the_cyclic_gc(self, rng):
        """A graph node left off the loss's path keeps its closure cycle, and
        with it the forward activations, until the cyclic GC runs."""
        import gc

        gc.collect()
        gc.disable()
        try:
            x = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
            cross_entropy(x * 2.0, np.arange(8) % 4).backward()
            del x
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "activation, slope",
        [(F.relu, 0.0), (lambda x: F.leaky_relu(x, 0.01), 0.01), (lambda x: F.leaky_relu(x, 0.2), 0.2)],
        ids=["relu", "leaky_relu_0.01", "leaky_relu_0.2"],
    )
    def test_relu_family_values_and_grads(self, activation, slope):
        values = np.array([[-2.0, -0.5, 0.5, 3.0]])
        x = Tensor(values, requires_grad=True)
        out = activation(x)
        out.sum().backward()
        np.testing.assert_allclose(out.data, np.where(values > 0, values, slope * values))
        np.testing.assert_allclose(x.grad, np.where(values > 0, 1.0, slope))

    @pytest.mark.parametrize("p, training", [(0.5, False), (0.0, True)], ids=["eval", "p_zero"])
    def test_dropout_identity_when_off(self, p, training, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        assert F.dropout(x, p, rng, training=training) is x

    def test_dropout_scales_survivors(self, rng):
        x = Tensor(np.ones((200, 50)))
        out = F.dropout(x, 0.25, rng).data
        np.testing.assert_allclose(np.unique(out), [0.0, 1.0 / 0.75])
        assert (out == 0.0).mean() == pytest.approx(0.25, abs=0.02)

    @pytest.mark.parametrize("p", [-0.1, 1.0])
    def test_dropout_rejects_p_out_of_range(self, p, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p, rng)

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    def test_linear_matches_numpy(self, with_bias, rng):
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=(3,)), requires_grad=True) if with_bias else None
        out = F.linear(x, weight, bias)
        out.sum().backward()
        want = x.data @ weight.data + (bias.data if with_bias else 0.0)
        np.testing.assert_allclose(out.data, want)
        np.testing.assert_allclose(x.grad, np.ones((6, 3)) @ weight.data.T)
        np.testing.assert_allclose(weight.grad, x.data.T @ np.ones((6, 3)))
        if with_bias:
            np.testing.assert_allclose(bias.grad, np.full(3, 6.0))


class TestLosses:
    def test_cross_entropy_known_value(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-3

    def test_cross_entropy_validates(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 5]))

    def test_nll_matches_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 1])
        ce = cross_entropy(logits, labels).item()
        nll = -F.log_softmax(logits).data[np.arange(4), labels].mean()
        assert ce == pytest.approx(nll)

    def test_regression_losses(self):
        pred = Tensor([1.0, 2.0, 3.0])
        target = np.array([1.0, 1.0, 5.0])
        assert huber_loss(pred, target, delta=1.0).item() == pytest.approx((0 + 0.5 + 1.5) / 3)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_huber_piecewise(self, delta):
        """Quadratic inside ``delta``, linear outside; the gradient is the clipped residual."""
        target = np.zeros(6)
        residual = np.array([-3.0, -1.0, -0.25, 0.0, 0.75, 2.5])
        pred = Tensor(residual.copy(), requires_grad=True)
        loss = huber_loss(pred, target, delta=delta)
        loss.backward()
        inside = np.abs(residual) <= delta
        per_element = np.where(inside, 0.5 * residual**2, delta * np.abs(residual) - 0.5 * delta**2)
        assert loss.item() == pytest.approx(per_element.mean())
        np.testing.assert_allclose(pred.grad, np.clip(residual, -delta, delta) / residual.size)

    def test_cross_entropy_gradient_is_softmax_minus_one_hot(self, rng):
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = np.array([0, 3, 1, 1, 2])
        cross_entropy(logits, labels).backward()
        one_hot = np.eye(4)[labels]
        probs = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(logits.grad, (probs - one_hot) / 5, atol=1e-12)

    def test_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError, match="1-D"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="2-D"):
            cross_entropy(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError, match="batch sizes"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_accuracy_of_empty_batch(self):
        empty = np.zeros((0, 3))
        labels = np.zeros(0, dtype=np.int64)
        assert accuracy(empty, labels) == 0.0
        assert balanced_accuracy(empty, labels) == 0.0

    def test_huber_invalid_delta(self):
        with pytest.raises(ValueError):
            huber_loss(Tensor([1.0]), np.array([1.0]), delta=0.0)

    def test_accuracy_metrics(self):
        logits = np.array([[2.0, 1.0], [0.5, 1.0], [2.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(0.75)
        assert balanced_accuracy(logits, labels) == pytest.approx((1.0 + 2 / 3) / 2)


class TestOptimisers:
    def _quadratic_step(self, optimizer_cls, **kwargs):
        param = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = optimizer_cls([param], **kwargs)
        for _ in range(150):
            loss = (param * param).sum()
            param.zero_grad()
            loss.backward()
            optimizer.step()
        return float(param.data[0])

    def test_sgd_converges(self):
        assert abs(self._quadratic_step(SGD, lr=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert abs(self._quadratic_step(SGD, lr=0.05, momentum=0.9)) < 1e-3

    def test_adam_converges(self):
        assert abs(self._quadratic_step(Adam, lr=0.2)) < 1e-2

    def test_adamw_converges(self):
        assert abs(self._quadratic_step(AdamW, lr=0.2, weight_decay=0.01)) < 1e-2

    def test_invalid_hyperparameters(self):
        param = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            Adam([param], lr=0.1, betas=(1.2, 0.9))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        param = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        (param * 100.0).sum().backward()
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm > 1.0
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_invalid(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


class TestInit:
    def test_zeros_ones(self):
        assert init.zeros((2, 2)).sum() == 0.0
        assert init.ones((2, 2)).sum() == 4.0

    def test_fan_in_out_invalid(self):
        with pytest.raises(ValueError):
            init.kaiming_uniform((), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "shape, slope, fan_in",
        [((400, 50), 0.0, 400), ((400, 50), 0.2, 400), ((16, 8, 3), 0.0, 48)],
        ids=["relu", "leaky_relu", "receptive_field"],
    )
    def test_kaiming_uniform_bound(self, shape, slope, fan_in, rng):
        bound = np.sqrt(2.0 / (1.0 + slope**2)) * np.sqrt(3.0 / fan_in)
        w = init.kaiming_uniform(shape, rng, negative_slope=slope)
        assert w.shape == shape
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound
        assert w.std() == pytest.approx(bound / np.sqrt(3.0), rel=0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kaiming_uniform_follows_default_dtype(self, dtype, rng):
        with default_dtype(dtype):
            assert init.kaiming_uniform((4, 3), rng).dtype == dtype
            assert init.zeros((2,)).dtype == dtype
