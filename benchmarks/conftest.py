"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
(laptop-friendly) scale and attaches the reproduced numbers to
``benchmark.extra_info`` so they can be inspected in the pytest-benchmark
JSON output.

Speed gates compare candidates through one interleaved A/B timer
(the ``ab_medians`` fixture), so a load spike or a drift of the host hits
every candidate alike instead of failing the gate.

BLAS and OpenMP are pinned to one thread before numpy is first imported,
as ``perfbench`` does, so the speed gates time repro's own threads and not
OpenBLAS's pool: unpinned, the dense KNN's block-pool gate failed inside
the full benchmark run on a 2-core host while passing alone.  An explicit
setting in the environment wins.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time  # noqa: E402
from typing import Any, Callable, Mapping  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.experiments import ExperimentScale  # noqa: E402


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Dataset/training scale used by the accuracy-bearing benchmarks."""
    return ExperimentScale(num_classes=6, samples_per_class=6, num_points=32, train_epochs=2, batch_size=6)


def interleaved_medians(
    runs: Mapping[str, Callable[[], Any]], rounds: int, fresh: bool = False
) -> tuple[dict[str, float], dict[str, Any]]:
    """Median wall seconds of each named run over interleaved rounds.

    One untimed warm-up round comes first.  Every round calls each run once,
    in an order that reverses from one round to the next.  With ``fresh``
    each run is a factory, called untimed before every round to build the
    callable that is timed.  Returns the median seconds per name and each
    run's last return value.
    """
    names = list(runs)
    times: dict[str, list[float]] = {name: [] for name in names}
    last: dict[str, Any] = {}
    for index in range(1 + rounds):
        for name in names if index % 2 == 0 else reversed(names):
            call = runs[name]() if fresh else runs[name]
            start = time.perf_counter()
            last[name] = call()
            elapsed = time.perf_counter() - start
            if index >= 1:
                times[name].append(elapsed)
    return {name: float(np.median(samples)) for name, samples in times.items()}, last


@pytest.fixture(scope="session")
def ab_medians():
    """The interleaved A/B timer, :func:`interleaved_medians`."""
    return interleaved_medians
