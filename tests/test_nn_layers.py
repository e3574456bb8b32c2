"""Tests for nn layers, losses, optimisers, schedulers and functional ops."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    SGD,
    Adam,
    AdamW,
    BatchNorm1d,
    CosineAnnealingLR,
    Dropout,
    ExponentialLR,
    Identity,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    StepLR,
    Tensor,
    WarmupCosineLR,
    accuracy,
    balanced_accuracy,
    clip_grad_norm,
    cross_entropy,
    huber_loss,
    mae_loss,
    mape_loss,
    mse_loss,
    nll_loss,
)
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
        seq = Sequential(Linear(2, 3, rng=rng), ReLU(), Identity())
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

    def test_layernorm(self, rng):
        ln = LayerNorm(6)
        out = ln(Tensor(rng.normal(size=(3, 6))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)

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
    def test_softmax_sums_to_one(self, rng):
        probs = F.softmax(Tensor(rng.normal(size=(5, 3))))
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0)

    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-9)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_embedding_lookup_grad(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = F.embedding_lookup(table, np.array([1, 1, 4]))
        out.sum().backward()
        assert table.grad[1].sum() == pytest.approx(6.0)
        assert table.grad[0].sum() == pytest.approx(0.0)


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
        nll = nll_loss(F.log_softmax(logits), labels).item()
        assert ce == pytest.approx(nll)

    def test_regression_losses(self):
        pred = Tensor([1.0, 2.0, 3.0])
        target = np.array([1.0, 1.0, 5.0])
        assert mse_loss(pred, target).item() == pytest.approx((0 + 1 + 4) / 3)
        assert mae_loss(pred, target).item() == pytest.approx(1.0)
        assert mape_loss(pred, target).item() == pytest.approx((0 + 1 + 2 / 5) / 3)
        assert huber_loss(pred, target, delta=1.0).item() == pytest.approx((0 + 0.5 + 1.5) / 3)

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


class TestSchedulers:
    def _optimizer(self):
        return SGD([Tensor(np.array([1.0]), requires_grad=True)], lr=1.0)

    def test_step_lr(self):
        sched = StepLR(self._optimizer(), step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        assert lrs[0] == pytest.approx(1.0)
        assert lrs[1] == pytest.approx(0.1)
        assert lrs[3] == pytest.approx(0.01)

    def test_exponential_lr(self):
        sched = ExponentialLR(self._optimizer(), gamma=0.5)
        assert sched.step() == pytest.approx(0.5)
        assert sched.step() == pytest.approx(0.25)

    def test_cosine_lr_endpoints(self):
        optimizer = self._optimizer()
        sched = CosineAnnealingLR(optimizer, t_max=10, eta_min=0.0)
        values = [sched.step() for _ in range(10)]
        assert values[-1] == pytest.approx(0.0, abs=1e-9)
        assert values[0] > values[5] > values[-1]

    def test_warmup_cosine(self):
        sched = WarmupCosineLR(self._optimizer(), warmup_epochs=2, t_max=6)
        values = [sched.step() for _ in range(6)]
        assert values[0] == pytest.approx(0.5)
        assert values[1] == pytest.approx(1.0)
        assert values[-1] < values[2]

    def test_invalid_schedulers(self):
        with pytest.raises(ValueError):
            StepLR(self._optimizer(), step_size=0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._optimizer(), t_max=0)
        with pytest.raises(ValueError):
            WarmupCosineLR(self._optimizer(), warmup_epochs=5, t_max=3)


class TestInit:
    def test_shapes_and_ranges(self, rng):
        w = init.xavier_uniform((10, 20), rng)
        assert w.shape == (10, 20)
        bound = np.sqrt(6.0 / 30)
        assert np.all(np.abs(w) <= bound + 1e-12)

    def test_kaiming_scale(self, rng):
        w = init.kaiming_normal((1000, 50), rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.15)

    def test_zeros_ones(self):
        assert init.zeros((2, 2)).sum() == 0.0
        assert init.ones((2, 2)).sum() == 4.0

    def test_fan_in_out_invalid(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((), np.random.default_rng(0))
