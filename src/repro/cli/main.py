"""``repro``: the unified command-line entry point, built on the Workspace.

Subcommands mirror the pipeline stages::

    repro devices                 # list the registered device models
    repro profile  --device pi    # latency/memory breakdown of a preset
    repro predict  --device gpu   # train (or load) the latency predictor
    repro search   --device tx2   # run a laptop-scale hardware-aware search
    repro serve    --requests 64  # serve a synthetic stream, print telemetry
    repro report   --root runs/   # render a persisted observability run
    repro check    fast           # statically validate a genotype (repro.analysis)
    repro lint                    # enforce the repo invariants (AST linter)

Pass ``--root DIR`` to any stage command to persist artifacts in a
content-addressed store, so a repeated ``repro predict``/``repro search``
with the same flags loads the previous result instead of recomputing.

Global flags work before or after the subcommand: ``-v``/``--log-level``
control logging verbosity, and ``--trace`` records the run's span tree and
metrics (printed after the command; persisted into the artifact store when
``--root`` is set, and/or written as plain files via ``--trace-out DIR``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.experiments.common import ExperimentScale, format_table, load_benchmark_dataset
from repro.hardware.device import all_devices, list_devices
from repro.nas.latency_eval import list_latency_evaluators
from repro.nas.presets import device_acc_architecture, device_fast_architecture, dgcnn_architecture
from repro.nas.search import HGNASConfig
from repro.nas.visualize import render_architecture
from repro.nn.dtype import default_dtype
from repro.obs import (
    format_metrics,
    format_run,
    format_span_tree,
    get_metrics,
    get_tracer,
    list_runs,
    load_run,
    reset_observability,
    save_run,
    trace_span,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.serving.engine import AdmissionError, EngineConfig
from repro.utils.logging import set_verbosity
from repro.workspace import Workspace
from repro.workspace.store import ArtifactStore

__all__ = ["build_parser", "main"]

_PRESETS = {
    "dgcnn": lambda device: dgcnn_architecture(),
    "fast": lambda device: device_fast_architecture(device),
    "acc": lambda device: device_acc_architecture(device),
}


def _global_options() -> argparse.ArgumentParser:
    """Parent parser carrying the global flags.

    Attached to the root parser *and* every subparser so the flags work
    before or after the subcommand.  ``SUPPRESS`` defaults keep a
    subparser's (unset) copy from clobbering a value parsed by the root;
    read them with ``getattr(args, name, fallback)``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("global options")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=argparse.SUPPRESS,
        help="increase log verbosity (-v: INFO, -vv: DEBUG)",
    )
    group.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=argparse.SUPPRESS,
        help="explicit log level (overrides -v)",
    )
    group.add_argument(
        "--trace",
        action="store_true",
        default=argparse.SUPPRESS,
        help="record spans/metrics and print the trace after the command",
    )
    group.add_argument(
        "--trace-out",
        metavar="DIR",
        default=argparse.SUPPRESS,
        help="also write spans.jsonl/metrics.json to DIR (implies --trace)",
    )
    return parent


def _add_common_arguments(parser: argparse.ArgumentParser, default_device: str = "jetson-tx2") -> None:
    parser.add_argument(
        "--device",
        default=default_device,
        help=f"target device ({', '.join(list_devices())} or aliases)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="artifact-store directory; repeated runs with the same flags reuse persisted results",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _print_store_stats(workspace: Workspace) -> None:
    stats = workspace.cache_stats()
    location = stats["root"] or "memory-only"
    print(f"artifact store: {stats['hits']} hits, {stats['misses']} misses ({location})")


# ---------------------------------------------------------------------- #
# repro devices
# ---------------------------------------------------------------------- #
def _cmd_devices(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": device.name,
            "display": device.display_name,
            "power_w": device.power_watts,
            "memory_mb": device.available_memory_mb,
            "noise": device.measurement_noise,
            "round_trip_s": device.measurement_round_trip_s,
        }
        for device in all_devices()
    ]
    print(format_table(rows))
    print(f"\nlatency oracles: {', '.join(list_latency_evaluators())}")
    return 0


# ---------------------------------------------------------------------- #
# repro profile
# ---------------------------------------------------------------------- #
def _cmd_profile(args: argparse.Namespace) -> int:
    workspace = Workspace(device=args.device)
    architecture = _PRESETS[args.arch](workspace.device.name)
    profile = workspace.profile(
        architecture, num_points=args.num_points, k=args.k, num_classes=args.num_classes
    )
    print(f"== {profile.workload or args.arch} on {workspace.device.display_name} ==")
    print(f"total latency : {profile.total_latency_ms:.2f} ms")
    print(f"peak memory   : {profile.peak_memory_mb:.1f} MB (OOM: {'yes' if profile.out_of_memory else 'no'})")
    rows = [
        {"category": category, "latency_ms": ms, "fraction": profile.category_fractions[category]}
        for category, ms in profile.category_ms.items()
    ]
    print(format_table(rows))
    return 0


# ---------------------------------------------------------------------- #
# repro predict
# ---------------------------------------------------------------------- #
def _cmd_predict(args: argparse.Namespace) -> int:
    workspace = Workspace(device=args.device, root=args.root)
    bundle = workspace.train_predictor(
        num_samples=args.num_samples, epochs=args.epochs, seed=args.seed, fresh=args.fresh
    )
    print(f"latency predictor for {bundle.device}:")
    print(
        format_table(
            [
                {
                    "mape": bundle.metrics.mape,
                    "within_10pct": bundle.metrics.bound_accuracy_10,
                    "within_20pct": bundle.metrics.bound_accuracy_20,
                    "rank_corr": bundle.metrics.spearman,
                    "val_samples": bundle.metrics.num_samples,
                }
            ]
        )
    )
    example = dgcnn_architecture()
    print(f"DGCNN predicted latency: {bundle.predictor.predict_latency_ms(example):.2f} ms")
    _print_store_stats(workspace)
    return 0


# ---------------------------------------------------------------------- #
# repro search
# ---------------------------------------------------------------------- #
def _cmd_search(args: argparse.Namespace) -> int:
    workspace = Workspace(device=args.device, root=args.root)
    scale = ExperimentScale(
        num_classes=args.classes,
        samples_per_class=args.samples_per_class,
        num_points=args.points,
        seed=args.seed,
    )
    train_set, val_set = load_benchmark_dataset(scale)
    config = HGNASConfig(
        num_positions=args.num_positions,
        num_classes=train_set.num_classes,
        population_size=args.population,
        function_iterations=args.function_iterations,
        operation_iterations=args.operation_iterations,
        function_epochs=args.function_epochs,
        operation_epochs=args.operation_epochs,
        seed=args.seed,
    )
    result = workspace.search(
        train_set,
        val_set,
        config=config,
        latency_oracle=args.oracle,
        seed=args.seed,
        fresh=args.fresh,
        resume=args.resume,
    )
    print(render_architecture(result.best_architecture, title=f"{workspace.device.display_name} design"))
    print(f"objective score      : {result.best_score:.3f}")
    print(f"ws accuracy          : {result.best_accuracy:.3f}")
    print(f"predicted latency    : {result.best_latency_ms:.2f} ms")
    print(f"search time (virtual): {result.search_time_s / 3600:.2f} GPU-hours equivalent")
    _print_store_stats(workspace)
    return 0


# ---------------------------------------------------------------------- #
# repro serve
# ---------------------------------------------------------------------- #
def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serve-stream flags."""
    _add_common_arguments(parser)
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float32",
        help="compute dtype for the deployed model and request stream (default: float32)",
    )
    parser.add_argument("--requests", type=int, default=64, help="number of synthetic requests")
    parser.add_argument("--num-points", type=int, default=64, help="points per request cloud")
    parser.add_argument("--num-classes", type=int, default=10, help="classifier output classes")
    parser.add_argument("--batch-size", type=int, default=8, help="micro-batch size")
    parser.add_argument(
        "--repeat-every", type=int, default=4, help="reuse a previous cloud every Nth request (0 disables)"
    )
    parser.add_argument("--slo-ms", type=float, default=None, help="per-request latency SLO on the target device")
    parser.add_argument("--no-cache", action="store_true", help="disable result and edge caches")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 serves through the multi-process pool (default: 1, in-process)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="with --workers, also serve the request stream over the JSON-lines TCP frontend "
        "on this port (0 binds an ephemeral port)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds for the worker pool (default: 30)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        help="with --workers, automatic restarts per crashed worker slot before the "
        "pool degrades to the survivors (default: 2)",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    with default_dtype(args.dtype):
        return _serve_stream(args)


def _serve_stream(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    workspace = Workspace(device=args.device, root=args.root)
    architecture = device_fast_architecture(workspace.device.name)
    deployed = workspace.deploy(
        architecture,
        num_classes=args.num_classes,
        name=f"{architecture.name}-demo",
        k=8,
        slo_ms=args.slo_ms,
    )
    cache_capacity = 0 if args.no_cache else 512
    engine_config = EngineConfig(
        max_batch_size=args.batch_size,
        result_cache_capacity=cache_capacity,
        edge_cache_capacity=cache_capacity,
    )

    rng = np.random.default_rng(args.seed)
    clouds: list[np.ndarray] = []
    for index in range(args.requests):
        if args.repeat_every and clouds and index % args.repeat_every == 0:
            clouds.append(clouds[int(rng.integers(0, len(clouds)))])
        else:
            clouds.append(rng.standard_normal((args.num_points, 3)))

    if args.workers > 1:
        return _serve_pool_stream(args, workspace, deployed.name, engine_config, clouds)

    report = workspace.serve(clouds, name=deployed.name, config=engine_config)
    print(
        f"served {len(report.results)} requests ({args.dtype}) on "
        f"{workspace.device.display_name} via '{deployed.name}'"
    )
    print(report.engine.format_report())
    return 0


def _serve_pool_stream(
    args: argparse.Namespace,
    workspace: Workspace,
    name: str,
    engine_config: EngineConfig,
    clouds: list[np.ndarray],
) -> int:
    """Serve the synthetic stream through the multi-process worker pool."""
    from repro.serving.pool import PoolConfig

    pool_config = PoolConfig(
        workers=args.workers,
        request_timeout_s=args.request_timeout,
        max_restarts=args.max_restarts,
        shared_cache=not args.no_cache,
    )
    if args.port is None:
        report = workspace.serve_pool(clouds, name=name, config=engine_config, pool_config=pool_config)
        print(
            f"served {len(report.results)} requests ({args.dtype}) on "
            f"{workspace.device.display_name} via '{name}' across {args.workers} workers"
        )
        print(report.formatted)
        return 0
    return _serve_pool_tcp(args, workspace, name, engine_config, pool_config, clouds)


def _serve_pool_tcp(
    args: argparse.Namespace,
    workspace: Workspace,
    name: str,
    engine_config: EngineConfig,
    pool_config,
    clouds: list[np.ndarray],
) -> int:
    """Drive the request stream over the pool's JSON-lines TCP frontend."""
    import asyncio

    from repro.serving.frontend import AsyncServingFrontend, request_over_tcp
    from repro.serving.pool import WorkerPoolEngine

    async def drive(pool) -> list[dict]:
        frontend = AsyncServingFrontend(pool)
        host, port = await frontend.start(port=args.port)
        print(f"serving frontend listening on {host}:{port}")
        requests = [{"model": name, "points": cloud.tolist()} for cloud in clouds]
        try:
            return await request_over_tcp(host, port, requests)
        finally:
            await frontend.stop()

    with WorkerPoolEngine(workspace.registry, engine_config, pool_config, root=workspace.store.root) as pool:
        responses = asyncio.run(drive(pool))
        pool.shutdown()
        served = sum(1 for response in responses if response.get("ok"))
        # Every reply to one cloud must carry the logits of its first reply.
        first_logits: dict[bytes, list] = {}
        differing = 0
        for cloud, response in zip(clouds, responses):
            if response.get("ok"):
                differing += first_logits.setdefault(cloud.tobytes(), response["logits"]) != response["logits"]
        print(
            f"TCP frontend served {served}/{len(responses)} requests ({args.dtype}) "
            f"via '{name}' across {args.workers} workers"
        )
        if differing:
            print(f"{differing} replies to a repeated cloud differ in logits from its first reply")
        print(pool.format_report())
    return 0 if served == len(responses) and not differing else 1


# ---------------------------------------------------------------------- #
# repro report
# ---------------------------------------------------------------------- #
def _cmd_report(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.root)
    if args.list:
        runs = list_runs(store)
        if not runs:
            print("no observability runs in this store; run a stage with --trace first")
            return 0
        for key, meta in runs:
            print(f"{key}  label={meta.get('label')}  spans={meta.get('num_spans', 0)}")
        return 0
    key, meta = load_run(store, args.key)
    print(f"key: {key}")
    print(format_run(meta))
    return 0


# ---------------------------------------------------------------------- #
# repro check
# ---------------------------------------------------------------------- #
def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.validate import validate_genotype
    from repro.utils.serialization import load_json

    if args.genotype in _PRESETS:
        device = args.device or "jetson-tx2"
        genotype = _PRESETS[args.genotype](device).to_dict()
    else:
        path = pathlib.Path(args.genotype)
        if not path.is_file():
            raise ValueError(
                f"'{args.genotype}' is neither a preset ({', '.join(sorted(_PRESETS))}) "
                "nor a genotype JSON file"
            )
        genotype = load_json(path)
    report = validate_genotype(
        genotype,
        num_points=args.num_points,
        k=args.k,
        num_classes=args.num_classes,
        embed_dim=args.embed_dim,
    )
    if report.diagnostics:
        print(report.format())
    if report.signature is not None:
        print(report.signature.describe())
    if report.ok:
        print("genotype OK" + (f" ({len(report.warnings)} warning(s))" if report.warnings else ""))
        return 0
    print(f"genotype INVALID ({len(report.errors)} error(s))")
    return 1


# ---------------------------------------------------------------------- #
# repro lint
# ---------------------------------------------------------------------- #
def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import ALL_RULES, default_lint_root, format_violations, lint_paths

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name:20s} {rule.description}")
        return 0
    rules = None
    if args.rule:
        known = {rule.name: rule for rule in ALL_RULES}
        unknown = [name for name in args.rule if name not in known]
        if unknown:
            raise ValueError(f"unknown rule(s) {unknown}; available: {sorted(known)}")
        rules = [known[name]() for name in args.rule]
    paths = [pathlib.Path(p) for p in args.paths] or None
    violations = lint_paths(paths, rules=rules)
    print(format_violations(violations))
    if not violations:
        scope = ", ".join(str(p) for p in paths) if paths else str(default_lint_root())
        print(f"checked: {scope}")
    return 1 if violations else 0


# ---------------------------------------------------------------------- #
# Parser / dispatch
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    global_options = _global_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HGNAS reproduction pipeline: profile, predict, search and serve point-cloud GNNs.",
        parents=[global_options],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, help=help_text, parents=[global_options])

    devices = add_command("devices", "list registered devices and latency oracles")
    devices.set_defaults(func=_cmd_devices)

    # Profiling is deterministic and cheap: no --root/--seed, unlike the
    # stage commands that persist artifacts.
    profile = add_command("profile", "latency/memory breakdown of a preset architecture")
    profile.add_argument(
        "--device",
        default="jetson-tx2",
        help=f"target device ({', '.join(list_devices())} or aliases)",
    )
    profile.add_argument("--arch", choices=sorted(_PRESETS), default="fast", help="preset architecture")
    profile.add_argument("--num-points", type=int, default=None, help="points per cloud (default: 1024)")
    profile.add_argument("--k", type=int, default=None, help="KNN neighbourhood size (default: 20)")
    profile.add_argument("--num-classes", type=int, default=None, help="classifier classes (default: 40)")
    profile.set_defaults(func=_cmd_profile)

    predict = add_command("predict", "train or load the GNN latency predictor")
    _add_common_arguments(predict)
    predict.add_argument("--num-samples", type=int, default=150, help="sampled architectures to label")
    predict.add_argument("--epochs", type=int, default=30, help="predictor training epochs")
    predict.add_argument("--fresh", action="store_true", help="retrain even when a cached artifact exists")
    predict.set_defaults(func=_cmd_predict)

    search = add_command("search", "run a laptop-scale hardware-aware search")
    _add_common_arguments(search)
    search.add_argument(
        "--oracle",
        default="oracle",
        help=f"latency oracle ({', '.join(list_latency_evaluators())})",
    )
    search.add_argument("--num-positions", type=int, default=8, help="design-space positions")
    search.add_argument("--population", type=int, default=6, help="evolutionary population size")
    search.add_argument("--function-iterations", type=int, default=2, help="stage-1 EA iterations")
    search.add_argument("--operation-iterations", type=int, default=4, help="stage-2 EA iterations")
    search.add_argument("--function-epochs", type=int, default=1, help="stage-1 supernet epochs")
    search.add_argument("--operation-epochs", type=int, default=1, help="stage-2 supernet epochs")
    search.add_argument("--classes", type=int, default=6, help="synthetic benchmark classes")
    search.add_argument("--samples-per-class", type=int, default=6, help="samples per class")
    search.add_argument("--points", type=int, default=32, help="points per training cloud")
    search.add_argument("--fresh", action="store_true", help="re-search even when a cached artifact exists")
    search.add_argument(
        "--resume",
        action="store_true",
        help="resume from the committed search checkpoint left by an interrupted run "
        "(bit-identical to an uninterrupted search)",
    )
    search.set_defaults(func=_cmd_search)

    serve = add_command("serve", "serve a synthetic request stream, print telemetry")
    _add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    report = add_command("report", "render a persisted observability run from an artifact store")
    report.add_argument("--root", required=True, help="artifact-store directory holding obs runs")
    report.add_argument("--key", default=None, help="run key to render (default: the most recent run)")
    report.add_argument("--list", action="store_true", help="list persisted runs instead of rendering one")
    report.set_defaults(func=_cmd_report)

    check = add_command("check", "statically validate an architecture genotype (shape/dtype checker)")
    check.add_argument(
        "genotype",
        help=f"preset name ({', '.join(sorted(_PRESETS))}) or path to a genotype JSON file",
    )
    check.add_argument("--device", default=None, help="device used to resolve device-tuned presets")
    check.add_argument("--num-points", type=int, default=None, help="cloud size to check against (default: symbolic)")
    check.add_argument("--k", type=int, default=None, help="neighbourhood size (default: 20)")
    check.add_argument("--num-classes", type=int, default=None, help="classifier classes (default: 40)")
    check.add_argument("--embed-dim", type=int, default=None, help="classifier embedding width (default: 64)")
    check.set_defaults(func=_cmd_check)

    lint = add_command("lint", "run the repo-invariant AST linter over source files")
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable; see --list-rules)",
    )
    lint.add_argument("--list-rules", action="store_true", help="list available rules and exit")
    lint.set_defaults(func=_cmd_lint)

    return parser


def _apply_verbosity(args: argparse.Namespace) -> None:
    log_level = getattr(args, "log_level", None)
    verbose = getattr(args, "verbose", 0) or 0
    if log_level:
        set_verbosity(log_level.upper())
    elif verbose >= 2:
        set_verbosity("DEBUG")
    elif verbose == 1:
        set_verbosity("INFO")


def _emit_trace(args: argparse.Namespace) -> None:
    """Print this run's trace; persist it when --root / --trace-out are set."""
    tracer = get_tracer()
    metrics = get_metrics()
    print("\n== trace ==")
    print(format_span_tree(tracer))
    if len(metrics):
        print("-- metrics --")
        print(format_metrics(metrics))
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        out_dir = pathlib.Path(trace_out)
        write_spans_jsonl(out_dir / "spans.jsonl", tracer)
        write_metrics_json(out_dir / "metrics.json", metrics)
        print(f"trace files written to {out_dir}")
    root = getattr(args, "root", None)
    if root is not None and args.command != "report":
        key = save_run(ArtifactStore(root), label=args.command)
        print(f"obs run saved under key {key} (render with: repro report --root {root})")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_verbosity(args)
    tracing = bool(getattr(args, "trace", False)) or getattr(args, "trace_out", None) is not None
    try:
        if not tracing:
            return args.func(args)
        # One trace per CLI invocation: stale spans/metrics from in-process
        # callers (tests, notebooks) would otherwise pollute the report.
        reset_observability()
        try:
            with trace_span(f"cli.{args.command}"):
                return args.func(args)
        finally:
            # Emitted even when the command fails: spans are exception-safe,
            # so a partial trace of the failed run still prints/persists.
            _emit_trace(args)
    except (KeyError, ValueError, AdmissionError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
