"""Shared pieces of the benchmark: host probe, host stamp, statistics, output.

Every benchmark process imports this module first: :func:`limit_blas_threads`
must run before numpy is imported, so that each process (and every worker
it forks) uses one BLAS thread.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout: traces, worker dumps, temporary
#: workspace and pool roots.  Listed in the repository's ``.gitignore``.
OUT = ROOT / ".perfbench_out"

#: Nominal duration of each :class:`Probe` component, in milliseconds.  A
#: workload names the components that do its kind of work; every timing it
#: reports is scaled by ``sum(nominal) / sum(median measured)`` over those
#: components (rates by the inverse), so a host that is uniformly slower for
#: a while reports the same figures.  Fixed once; changing them rescales every
#: timing of every later run.
PROBE_NOMINAL_MS = {"matmul": 2.5, "gather": 7.0, "kdtree": 2.5, "json": 2.5, "ipc": 2.5}

#: The echo process of the probe's IPC part: one byte back for every byte in.
_ECHO = "import os\nwhile True:\n    data = os.read(0, 1)\n    if not data:\n        break\n    os.write(1, data)\n"

#: Longest stretch of measured time between two host probes, in seconds.
#: Every workload measures in stretches of this length, so all of them are
#: normalised at the same cadence.
STRETCH_S = 1.0


def limit_blas_threads() -> None:
    """Pin BLAS/OpenMP to one thread; children inherit the environment."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def setup_paths() -> None:
    """Make ``import repro`` resolve to this checkout's sources.

    Temporary files go under :data:`OUT` so that a run reads and writes only
    inside the checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    os.environ["PYTHONPATH"] = str(SRC)


# ---------------------------------------------------------------------- #
# Host probe
# ---------------------------------------------------------------------- #
class Probe:
    """A fixed kernel that mixes the kinds of work the workloads do.

    One pass times five parts: a BLAS matmul, a gather-and-max over an array
    larger than L2, a KD-tree build and a query on all cores, a JSON round
    trip, and byte round trips through pipes to an echo process.  Its inputs
    never change, so its duration tracks only the speed of the host.  Use it
    as a context manager: closing it stops the echo process.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((256, 256)).astype(np.float32)
        self._b = rng.standard_normal((256, 256)).astype(np.float32)
        self._cloud = rng.standard_normal((1024, 3))
        self._payload = [round(float(value), 6) for value in rng.standard_normal(6144)]
        self._echo = subprocess.Popen(
            [sys.executable, "-c", _ECHO], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self.samples_ms: list[float] = []
        self.components: dict[str, list[float]] = {name: [] for name in PROBE_NOMINAL_MS}

    def run(self) -> float:
        """One timed pass; returns and records its duration in ms."""
        import numpy as np
        from scipy.spatial import cKDTree

        # The gather's arrays live only for this pass, so the probe holds no
        # memory while the program runs and adds nothing to its peak RSS.
        table = np.arange(1 << 22, dtype=np.float32)  # 16 MiB
        index = np.random.default_rng(12345).integers(0, table.size, 1 << 19)
        marks = [time.perf_counter()]
        product = self._a
        for _ in range(8):
            product = (product @ self._b) * 0.05
        marks.append(time.perf_counter())
        gathered = table[index].reshape(-1, 32).max(axis=1)
        marks.append(time.perf_counter())
        # All cores, as the program's KNN queries them: a neighbour taking CPU
        # time slows this part the way it slows the workloads' KNN.
        _, neighbours = cKDTree(self._cloud).query(self._cloud, k=20, workers=-1)
        marks.append(time.perf_counter())
        decoded = json.loads(json.dumps(self._payload))
        marks.append(time.perf_counter())
        out, back = self._echo.stdin.fileno(), self._echo.stdout.fileno()
        for _ in range(400):
            os.write(out, b"x")
            os.read(back, 1)
        marks.append(time.perf_counter())
        if not (len(decoded) == len(self._payload) and neighbours.shape == (1024, 20)):
            raise RuntimeError("probe kernel produced a malformed result")
        float(product[0, 0] + gathered[0])
        del table, index
        for name, start, end in zip(self.components, marks, marks[1:]):
            self.components[name].append((end - start) * 1e3)
        elapsed = (marks[-1] - marks[0]) * 1e3
        self.samples_ms.append(elapsed)
        return elapsed

    def close(self) -> None:
        self._echo.stdin.close()
        self._echo.wait(timeout=30)
        self._echo.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def scale(self, components) -> float:
        """``nominal / measured`` over ``components``; multiplies timings."""
        nominal = sum(PROBE_NOMINAL_MS[name] for name in components)
        return nominal / sum(median(self.components[name]) for name in components)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def median(values) -> float:
    return quantile(values, 0.5)


def quantile(values, rank: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = rank * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


# ---------------------------------------------------------------------- #
# Host stamp and output
# ---------------------------------------------------------------------- #
def host_stamp(probe: Probe) -> dict:
    """What the figures of one run depend on besides the program itself."""
    import numpy as np
    import scipy

    from repro.backends import active_backend_name
    from repro.nn.dtype import get_default_dtype

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dtype": str(np.dtype(get_default_dtype())),
        "backend": active_backend_name(),
        "revision": source_revision(),
        "probe_nominal_ms": PROBE_NOMINAL_MS,
        "probe_component_medians_ms": {name: median(values) for name, values in probe.components.items()},
        "probe_samples": len(probe.samples_ms),
    }


def source_revision() -> str:
    """Git revision of the checkout, or ``"unknown"`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def emit(name: str, seed: int, trace: bool, correct: bool, attempted: int, failed: int,
         metrics: dict, context: dict) -> None:
    """Print the context line and, last, the result line; keep both on disk."""
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {key: {"value": float(value), "unit": unit} for key, (value, unit) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "trace": int(trace), "context": context, "result": result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"context": context}, default=str))
    print(json.dumps(result), flush=True)
