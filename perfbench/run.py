"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_dgcnn --seed 0 --seconds 20 --trace 0

Workloads: ``serve_dgcnn``, ``serve_hot_tcp``, ``search_predictor`` (see
``perfbench/README.md``).  A run sets up and measures in three rounds, each
measuring a third of ``--seconds``; a workload with a short set-up first sets
up and tears down a few more times, and ``setup_s`` is the median of all its
set-ups.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The line before it carries the context: host stamp, raw values, probe
times and sample counts.  The exit code is non-zero when an output check
fails.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

common.limit_blas_threads()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hot_tcp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("serve_dgcnn", "serve_hot_tcp", "search_predictor")
ROUNDS = 3
#: Rounds that run with the wrappers installed in a traced run; the other
#: round runs bare and gives the tracing overhead.
TRACED_ROUNDS = (0, 2)


class Rounds:
    """What the rounds of one run measured."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.latencies_ms: list[float] = []
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.peak_rss_mb = 0.0
        #: Peak RSS of the benchmark process before the program's first set-up.
        self.rss_before_setup_mb: float | None = None
        self.extras: list[dict] = []
        self.spans: list[tuple] = []

    def add(self, traced: bool, setup_s: float, latencies_ms: list[float], windows: list, attempted: int,
            failed: int, mismatches: int) -> None:
        self.setup_s.append(setup_s)
        self.latencies_ms.extend(latencies_ms)
        self.attempted += attempted
        # Golden checks are not ops, so a round never fails more ops than it tried.
        self.failed += min(attempted, failed + mismatches)
        self.mismatches += mismatches
        self.rounds.append({
            "traced": traced,
            "setup_s": setup_s,
            "ok": len(latencies_ms),
            "active_s": sum(end - start for start, end in windows),
            "windows": windows,
        })

    def rate(self, traced: bool) -> float:
        rounds = [entry for entry in self.rounds if entry["traced"] == traced]
        active = sum(entry["active_s"] for entry in rounds)
        return sum(entry["ok"] for entry in rounds) / active if active else 0.0


def closed_loop(workload, seconds: float, probe: common.Probe, recorder=None):
    """Run ops back to back for ``seconds`` of measured time.

    Returns ``(latencies_ms, windows, attempted, failed)``.  The op in flight
    at the deadline completes and counts.  Every :data:`common.STRETCH_S` the
    loop pauses, runs the host probe and resumes; pauses are not measured.
    """
    latencies, windows, attempted, failed = [], [], 0, 0
    active = 0.0
    segment = time.perf_counter()
    while True:
        item = workload.prepare()
        started = time.perf_counter()
        attempted += 1
        try:
            if recorder is not None:
                with recorder.op_scope():
                    workload.op(item)
            else:
                workload.op(item)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            traceback.print_exc()
            failed += 1
        else:
            latencies.append((time.perf_counter() - started) * 1e3)
        now = time.perf_counter()
        if now - segment >= common.STRETCH_S or active + now - segment >= seconds:
            windows.append((segment, now))
            active += now - segment
            if active >= seconds:
                return latencies, windows, attempted, failed
            probe.run()
            segment = time.perf_counter()


def run_in_process(workload, args, probe: common.Probe, recorder) -> Rounds:
    measured = Rounds()
    measured.rss_before_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(workload.setups - ROUNDS):
        started = time.perf_counter()
        workload.setup()
        measured.setup_s.append(time.perf_counter() - started)
        workload.teardown()
        probe.run()
    for index in range(ROUNDS):
        traced = recorder is not None and index in TRACED_ROUNDS
        if traced:
            recorder.install()
        try:
            started = time.perf_counter()
            workload.setup()
            setup_s = time.perf_counter() - started
            probe.run()
            latencies, windows, attempted, failed = closed_loop(
                workload, args.seconds / ROUNDS, probe, recorder if traced else None
            )
        finally:
            if traced:
                recorder.uninstall()
        mismatches = workload.check()
        measured.add(traced, setup_s, latencies, windows, attempted, failed, mismatches)
        if traced:
            measured.extras.append(workload.counters())
        workload.teardown()
        probe.run()
    measured.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        measured.spans = recorder.spans
    return measured


def run_hot_tcp(args, probe: common.Probe) -> tuple[Rounds, dict]:
    workload = hot_tcp.HotTcp(args.seed, args.seconds / ROUNDS)
    measured = Rounds()
    errors: collections.Counter = collections.Counter()
    for extra in range(workload.setups - ROUNDS):
        measured.setup_s.append(workload.run_round(ROUNDS + extra, None, measure=False)["setup_s"])
        probe.run()
    for index in range(ROUNDS):
        traced = bool(args.trace) and index in TRACED_ROUNDS
        trace_dir = common.OUT / f"trace-{index}" if traced else None
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        outcome = workload.run_round(index, trace_dir)
        load, server = outcome["load"], outcome["server"]
        probe.samples_ms.extend(load["probe_ms"])
        for name, values in load["probe_components"].items():
            probe.components[name].extend(values)
        errors.update(load["errors"])
        failed = load["attempted"] - len(load["latencies_ms"])
        mismatches = workload.mismatches(index, load)
        windows = [tuple(window) for window in load["bursts"]]
        measured.add(traced, outcome["setup_s"], load["latencies_ms"], windows, load["attempted"], failed, mismatches)
        measured.peak_rss_mb = max(measured.peak_rss_mb, server["peak_rss_mb"])
        if traced:
            measured.extras.append(workload.counters(server))
            measured.spans.extend(tuple(span) for span in json.loads((trace_dir / "server.json").read_text()))
            measured.spans.extend(tracing.load_worker_dumps(trace_dir))
            shutil.rmtree(trace_dir, ignore_errors=True)
        probe.run()
    return measured, {"errors": dict(errors)}


def measure(args, probe: common.Probe) -> tuple[Rounds, object, dict]:
    """Run the workload's rounds; returns what they measured, the workload
    (its probe parts and tail ranks), and workload-specific context."""
    if args.workload == "serve_hot_tcp":
        measured, context = run_hot_tcp(args, probe)
        return measured, hot_tcp.HotTcp, context
    workload = {"serve_dgcnn": workloads.ServeDgcnn, "search_predictor": workloads.SearchPredictor}[args.workload]
    workload = workload(args.seed)
    recorder = tracing.Recorder() if args.trace else None
    measured = run_in_process(workload, args, probe, recorder)
    return measured, workload, workload.context()


def end_to_end(measured: Rounds, scale: float, tail_ranks: dict) -> tuple[dict, dict]:
    """The end-to-end metrics (probe-scaled) and their raw values and samples.

    ``tail_ranks`` gives the fixed rank each workload reports as its p90 and
    p99, so that a metric means the same whatever the number of samples.
    """
    latencies = measured.latencies_ms
    count = len(latencies)
    active = sum(entry["active_s"] for entry in measured.rounds)
    p90_rank = tail_ranks["latency_p90_ms"]
    p99_rank = tail_ranks["latency_p99_ms"]
    raw = {
        "setup_s": common.median(measured.setup_s),
        "throughput_per_s": count / active if active else 0.0,
        "latency_p50_ms": common.quantile(latencies, 0.5) if latencies else 0.0,
        "latency_p90_ms": common.quantile(latencies, p90_rank) if latencies else 0.0,
        "latency_p99_ms": common.quantile(latencies, p99_rank) if latencies else 0.0,
        "peak_rss_mb": measured.peak_rss_mb,
        "goodput_share": (measured.attempted - measured.failed) / measured.attempted if measured.attempted else 0.0,
    }
    units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "latency_p99_ms": "ms", "peak_rss_mb": "MB", "goodput_share": "share"}
    factor = {"setup_s": scale, "throughput_per_s": 1.0 / scale, "latency_p50_ms": scale,
              "latency_p90_ms": scale, "latency_p99_ms": scale}
    metrics = {name: (value * factor.get(name, 1.0), units[name]) for name, value in raw.items()}
    samples = {
        "latency_samples": count,
        "latency_p90_rank": p90_rank,
        "latency_p99_rank": p99_rank,
        "setup_samples": len(measured.setup_s),
        "active_s": active,
        "latency_quantiles_ms": {
            f"p{round(rank * 100)}": common.quantile(latencies, rank)
            for rank in (0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99)
        } if latencies else {},
    }
    return metrics, {"raw": raw, "samples": samples}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    common.setup_paths()
    # A terminated run unwinds like a failed one, so its server and probe
    # processes are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with common.Probe() as probe:
        for _ in range(3):
            probe.run()
        measured, workload, extra_context = measure(args, probe)
    components = workload.probe_components
    scale = probe.scale(components)
    metrics, details = end_to_end(measured, scale, workload.tail_ranks)
    context = {
        "host": common.host_stamp(probe),
        "scale": scale,
        "probe_components_used": list(components),
        "probe_ms": probe.samples_ms,
        "rounds": [{key: value for key, value in entry.items() if key != "windows"} for entry in measured.rounds],
        "setups_s": measured.setup_s,
        "mismatches": measured.mismatches,
        "rss_before_setup_mb": measured.rss_before_setup_mb,
        **details,
        **extra_context,
    }
    if args.trace:
        traced_rounds = [entry for entry in measured.rounds if entry["traced"]]
        extras = {
            name: sum(extra.get(name, 0.0) for extra in measured.extras) / len(measured.extras)
            for name in {key for extra in measured.extras for key in extra}
        }
        untraced_rate = measured.rate(False)
        extras["trace.overhead_share"] = 1.0 - measured.rate(True) / untraced_rate if untraced_rate else 0.0
        metrics = tracing.layer_metrics(
            measured.spans,
            [window for entry in traced_rounds for window in entry["windows"]],
            sum(entry["ok"] for entry in traced_rounds),
            len(traced_rounds),
            extras,
            scale,
        )
        tracing.write_spans(common.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", measured.spans)
        context["spans"] = len(measured.spans)
    correct = measured.mismatches == 0
    common.emit(args.workload, args.seed, bool(args.trace), correct, measured.attempted, measured.failed,
                metrics, context)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
