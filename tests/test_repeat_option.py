"""The suite's ``--repeat N`` option (``tests/conftest.py``), run from the repository root."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _collect(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_repeat_collects_each_test_n_times():
    result = _collect("--repeat", "3", "tests/test_utils.py::TestRandom::test_new_rng_deterministic")
    assert result.returncode == 0, result.stdout + result.stderr
    items = [line for line in result.stdout.splitlines() if line.startswith("tests/")]
    assert items == [f"tests/test_utils.py::TestRandom::test_new_rng_deterministic[{i}-3]" for i in (1, 2, 3)]


def test_repeat_rejects_a_count_below_one():
    result = _collect("--repeat", "0", "tests/test_utils.py")
    assert result.returncode != 0
    assert "--repeat takes a positive count" in result.stderr
