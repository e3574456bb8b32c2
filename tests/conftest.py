"""Shared fixtures for the test suite, and its ``--repeat N`` option.

``--repeat N`` collects every test function ``N`` times, as parametrized
copies with ids ``1-N`` to ``N-N``.  CI runs the tests of concurrent code
that way, where one pass can miss a bad interleaving.  Hypothesis tests are
collected once: they draw many examples per run already, and Hypothesis
refuses a test method that runs on more than one instance of its class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic_modelnet import make_synthetic_modelnet

_REPEAT_PARAM = "_repeat_pass"


def pytest_addoption(parser):
    parser.addoption("--repeat", type=int, default=1, metavar="N", help="run each test function N times")


def pytest_configure(config):
    if config.getoption("repeat") < 1:
        raise pytest.UsageError(f"--repeat takes a positive count, got {config.getoption('repeat')}")


def pytest_generate_tests(metafunc):
    repeat = metafunc.config.getoption("repeat")
    if repeat > 1 and not getattr(metafunc.function, "is_hypothesis_test", False):
        # A parameter the test does not take: pytest runs the test once per
        # value without passing it.
        metafunc.fixturenames.append(_REPEAT_PARAM)
        metafunc.parametrize(_REPEAT_PARAM, range(repeat), ids=lambda i: f"{i + 1}-{repeat}")


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tiny train/test dataset pair shared by the slower tests."""
    return make_synthetic_modelnet(num_classes=4, samples_per_class=5, num_points=24, seed=0)


@pytest.fixture(scope="session")
def tiny_train(tiny_dataset):
    return tiny_dataset[0]


@pytest.fixture(scope="session")
def tiny_test(tiny_dataset):
    return tiny_dataset[1]
