"""Tests for repro.utils (random, serialization, timer, logging)."""

import logging
import time

import numpy as np
import pytest

from repro.utils import (
    Timer,
    VirtualClock,
    get_logger,
    load_json,
    load_npz,
    new_rng,
    save_json,
    save_npz,
    seed_everything,
    split_rng,
)
from repro.utils.logging import set_verbosity
from repro.utils.serialization import to_jsonable


class TestRandom:
    def test_new_rng_deterministic(self):
        a = new_rng(7).random(5)
        b = new_rng(7).random(5)
        np.testing.assert_allclose(a, b)

    def test_new_rng_different_seeds_differ(self):
        assert not np.allclose(new_rng(1).random(5), new_rng(2).random(5))

    def test_split_rng_count_and_independence(self):
        children = split_rng(new_rng(0), 3)
        assert len(children) == 3
        draws = [c.random(4) for c in children]
        assert not np.allclose(draws[0], draws[1])

    def test_split_rng_zero(self):
        assert split_rng(new_rng(0), 0) == []

    def test_split_rng_negative_raises(self):
        with pytest.raises(ValueError):
            split_rng(new_rng(0), -1)

    def test_seed_everything_returns_generator(self):
        rng = seed_everything(123)
        assert isinstance(rng, np.random.Generator)

    def test_seed_everything_reproducible(self):
        a = seed_everything(5).random(3)
        b = seed_everything(5).random(3)
        np.testing.assert_allclose(a, b)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        payload = {"a": 1, "b": [1.5, 2.5], "c": {"nested": True}}
        path = save_json(tmp_path / "sub" / "data.json", payload)
        assert load_json(path) == payload

    def test_to_jsonable_numpy(self):
        out = to_jsonable({"x": np.float64(1.5), "y": np.int64(2), "z": np.array([1, 2])})
        assert out == {"x": 1.5, "y": 2, "z": [1, 2]}

    def test_to_jsonable_rejects_unknown(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_npz_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(5), "b": np.ones((2, 2))}
        path = save_npz(tmp_path / "arrays.npz", arrays)
        loaded = load_npz(path)
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])


class TestTimer:
    def test_timer_accumulates(self):
        timer = Timer()
        with timer:
            pass
        assert timer.elapsed >= 0.0

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timer_restart_banks_inflight_interval(self):
        # start() on a running timer must not silently discard the interval
        # measured so far: it accumulates into elapsed and restarts.
        timer = Timer()
        timer.start()
        time.sleep(0.01)
        timer.start()
        banked = timer.elapsed
        assert banked >= 0.01
        timer.stop()
        assert timer.elapsed >= banked
        # The timer is stopped: a fresh start() must not bank anything more.
        before = timer.elapsed
        timer.start()
        assert timer.elapsed == before
        timer.stop()

    def test_timer_records_busy_window(self):
        timer = Timer()
        with timer:
            pass
        first_start = timer.first_started_at
        time.sleep(0.01)
        with timer:
            pass
        assert timer.first_started_at == first_start
        window = timer.last_stopped_at - timer.first_started_at
        assert window >= 0.01 and window >= timer.elapsed
        timer.reset()
        assert timer.first_started_at is None and timer.last_stopped_at is None

    def test_timer_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0

    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == pytest.approx(4.0)

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_virtual_clock_reset(self):
        clock = VirtualClock()
        clock.advance(3.0)
        clock.reset()
        assert clock.now == 0.0


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("nas.search")
        assert logger.name == "repro.nas.search"

    def test_get_logger_idempotent_handlers(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1

    def test_set_verbosity(self):
        set_verbosity("INFO")
        assert logging.getLogger("repro").level == logging.INFO
        set_verbosity(logging.WARNING)
