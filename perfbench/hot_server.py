"""Server process of serve_hot_tcp: a TCP frontend over a one-worker pool.

Usage: ``python3 perfbench/hot_server.py --seed N --root DIR [--trace-dir DIR]``

Deploys the model, starts the pool, warms the hot clouds one at a time,
binds an ephemeral port and prints ``READY <host> <port>``.  It then serves
until a line arrives on stdin, shuts the pool down and prints one JSON
object with the pool's report, cache counters and peak RSS.  With
``--trace-dir`` the wrappers of :mod:`tracing` are installed before the
pool forks, and every process writes its spans into that directory.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

common.limit_blas_threads()
common.setup_paths()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import hot_inputs  # noqa: E402


async def _serve(frontend) -> None:
    host, port = await frontend.start(port=0)
    print(f"READY {host} {port}", flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    await frontend.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace_dir is not None:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
        recorder.dump_forked_workers(pathlib.Path(args.trace_dir))

    from repro.serving.engine import EngineConfig
    from repro.serving.frontend import AsyncServingFrontend
    from repro.serving.pool import PoolConfig, WorkerPoolEngine

    pool = WorkerPoolEngine(
        hot_inputs.build_registry(), EngineConfig(), PoolConfig(workers=1), root=args.root
    )
    frontend = AsyncServingFrontend(pool)
    try:
        for cloud in hot_inputs.hot_clouds(args.seed):
            pool.request(hot_inputs.MODEL, cloud)
        asyncio.run(_serve(frontend))
    finally:
        pool.shutdown()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    shared_writes = sum(
        int(snapshot.get("caches", {}).get("shared", {}).get("writes", 0))
        for snapshot in pool.worker_snapshots.values()
    )
    if recorder is not None:
        recorder.uninstall()
        (pathlib.Path(args.trace_dir) / "server.json").write_text(json.dumps(recorder.spans))
    print(
        json.dumps(
            {
                "peak_rss_mb": (own + workers) / 1024.0,
                "report": pool.report(),
                "caches": {name: dataclasses.asdict(stats) for name, stats in pool.fleet_cache_stats().items()},
                "shared_writes": shared_writes,
                "frontend": {
                    "served": frontend.requests_served,
                    "failed": frontend.requests_failed,
                    "retries": frontend.retries,
                },
            },
            default=str,
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
