"""Coordinator of serve_hot_tcp: one server process and one load generator per round.

Set-up of a round runs from launching the server to its ``READY`` line: the
interpreter start, deploy, pool start and hot-set warm-up.  The load
generator then measures for the round's share of the run; the server is
stopped and reports its counters.  The coordinator itself only computes the
reference logits and checks the replies, outside every timed region.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import signal
import shutil
import subprocess
import sys
import time

import numpy as np

import hot_inputs
from common import OUT

HERE = pathlib.Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0


def _kill_group(process: subprocess.Popen) -> None:
    """Kill the server and the pool worker it forked, and wait until both are gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _readline(process: subprocess.Popen, timeout: float) -> str:
    readable, _, _ = select.select([process.stdout], [], [], timeout)
    if not readable:
        raise TimeoutError(f"no output from the server within {timeout:.0f}s")
    return process.stdout.readline()


class HotTcp:
    #: A request is JSON lines and hops between processes.
    probe_components = ("json", "ipc")
    #: Thousands of requests per run: both tails at their nominal ranks.
    tail_ranks = {"latency_p90_ms": 0.9, "latency_p99_ms": 0.99}
    #: Set-ups per run: one per measured round, the rest set up and stop.
    setups = 5

    def __init__(self, seed: int, seconds_per_round: float):
        from repro.serving.engine import EngineConfig, InferenceEngine

        self.seed = seed
        self.seconds = seconds_per_round
        self.reference = InferenceEngine(
            hot_inputs.build_registry(), EngineConfig(result_cache_capacity=0, edge_cache_capacity=0)
        )
        self.hot_reference = [self._reference(cloud) for cloud in hot_inputs.hot_clouds(seed)]

    def _reference(self, cloud: np.ndarray) -> np.ndarray:
        return self.reference.submit(hot_inputs.MODEL, cloud).logits

    def run_round(self, round_index: int, trace_dir: pathlib.Path | None, measure: bool = True) -> dict:
        """Set up, measure and stop one server; returns everything measured.

        With ``measure=False`` the server is stopped as soon as it is ready,
        and only the set-up time is returned.
        """
        root = OUT / f"pool-{round_index}"
        shutil.rmtree(root, ignore_errors=True)
        command = [sys.executable, str(HERE / "hot_server.py"), "--seed", str(self.seed), "--root", str(root)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        started = time.perf_counter()
        # Its own process group, so a failed round can stop the forked worker too.
        server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            ready = _readline(server, READY_TIMEOUT_S).split()
            setup_s = time.perf_counter() - started
            if len(ready) != 3 or ready[0] != "READY":
                raise RuntimeError(f"server failed to start: {ready}")
            if not measure:
                server.communicate("stop\n", timeout=60.0)
                if server.returncode != 0:
                    raise RuntimeError(f"server exited with {server.returncode}")
                return {"setup_s": setup_s}
            client = subprocess.run(
                [sys.executable, str(HERE / "hot_client.py"), "--port", ready[2], "--seed", str(self.seed),
                 "--round", str(round_index), "--seconds", str(self.seconds)],
                capture_output=True, text=True, timeout=self.seconds + 60.0,
            )
            if client.returncode != 0:
                raise RuntimeError(f"load generator failed:\n{client.stderr}")
            load = json.loads(client.stdout.strip().splitlines()[-1])
            server_out, _ = server.communicate("stop\n", timeout=60.0)
            if server.returncode != 0:
                raise RuntimeError(f"server exited with {server.returncode}")
            stats = json.loads(server_out.strip().splitlines()[-1])
        finally:
            if server.poll() is None:
                _kill_group(server)
            shutil.rmtree(root, ignore_errors=True)
        return {"setup_s": setup_s, "load": load, "server": stats}

    def mismatches(self, round_index: int, load: dict) -> int:
        """Replies whose logits differ from the uncached reference engine's.

        Hot clouds were computed alone during warm-up, so their replies must be
        bit-identical.  A unique cloud may share a computed batch with another
        miss, and BLAS is not bitwise stable across batch shapes, so unique
        replies are compared within float32 tolerance.
        """
        bad = 0
        for index, replies in load["hot"].items():
            expected = self.hot_reference[int(index)]
            for logits, count in replies:
                if not np.array_equal(np.asarray(logits, dtype=expected.dtype), expected):
                    bad += count
        for unique_index, logits in load["unique"]:
            expected = self._reference(hot_inputs.unique_cloud(self.seed, round_index, unique_index))
            if not np.allclose(np.asarray(logits, dtype=expected.dtype), expected, rtol=1e-4, atol=1e-5):
                bad += 1
        return bad

    @staticmethod
    def counters(server: dict) -> dict:
        caches = server["caches"]
        report = server["report"]

        def share(name: str) -> float:
            stats = caches.get(name, {})
            total = stats.get("hits", 0) + stats.get("misses", 0)
            return stats.get("hits", 0) / total if total else 0.0

        return {
            "serving.engine.batch_size_mean": report["fleet"]["models"][hot_inputs.MODEL]["mean_batch_size"],
            "serving.cache.result_hit_share": share("result"),
            "serving.cache.edge_hit_share": share("edge"),
            "serving.diskcache.hit_share": share("shared"),
            "serving.diskcache.puts": server["shared_writes"],
            "serving.pool.requeued": report["frontend"]["requeued"],
            "serving.pool.worker_crashes": report["frontend"]["worker_crashes"],
            "serving.frontend.failed": server["frontend"]["failed"],
            "serving.frontend.retries": server["frontend"]["retries"],
        }
