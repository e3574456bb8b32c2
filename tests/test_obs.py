"""Tests for repro.obs: tracer, metrics, exporters, CLI tracing, telemetry."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.hardware import get_device
from repro.nas.design_space import DesignSpace, DesignSpaceConfig
from repro.nas.evolution import EvolutionConfig, EvolutionarySearch
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_metrics,
    format_span_tree,
    list_runs,
    load_run,
    merge_snapshots,
    save_run,
    trace_span,
    use_metrics,
    use_tracer,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.predictor import (
    LatencyPredictor,
    PredictorConfig,
    PredictorTrainingConfig,
    generate_predictor_dataset,
    train_predictor,
)
from repro.serving.telemetry import ModelTelemetry, TelemetryStore
from repro.utils.timer import VirtualClock
from repro.workspace.store import ArtifactStore


class TestTracer:
    def test_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert sibling.parent_id == outer.span_id
        assert [span.name for span in tracer.spans] == ["outer", "middle", "inner", "sibling"]
        assert all(span.end is not None for span in tracer.spans)
        assert tracer.current is None

    def test_virtual_clock_driven(self):
        clock = VirtualClock()
        tracer = Tracer(clock=lambda: clock.now)
        with tracer.span("search") as span:
            clock.advance(30.0)
            with tracer.span("evaluation"):
                clock.advance(1.5)
        assert span.duration == pytest.approx(31.5)
        assert tracer.spans[1].duration == pytest.approx(1.5)

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        span = tracer.spans[0]
        assert span.status == "error"
        assert "RuntimeError: boom" in span.error
        assert span.end is not None
        assert tracer.current is None  # the stack unwound

    def test_decorator(self):
        tracer = Tracer()

        @trace_span("worker.step")
        def step(value):
            return value * 2

        with use_tracer(tracer):
            assert step(21) == 42
        assert tracer.spans[0].name == "worker.step"

    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ghost") as span:
            span.attributes["key"] = "value"  # must not raise
        assert tracer.spans == []
        assert tracer.snapshot() == []


class TestMetrics:
    def test_counter_merge_adds(self):
        a, b = Counter("calls"), Counter("calls")
        a.inc(3)
        b.inc(4)
        a.merge(b.snapshot())
        assert a.value == 7

    def test_gauge_aggregates(self):
        for aggregate, expected in (("max", 9.0), ("min", 2.0), ("sum", 11.0), ("last", 2.0)):
            a, b = Gauge("g", aggregate=aggregate), Gauge("g", aggregate=aggregate)
            a.set(9.0)
            b.set(2.0)
            a.merge(b.snapshot())
            assert a.value == expected, aggregate
        untouched = Gauge("g")
        untouched.merge(Gauge("g").snapshot())  # zero-update merge is inert
        assert untouched.value is None and untouched.updates == 0

    def test_histogram_observe_and_percentile(self):
        histogram = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(138.875)
        assert histogram.min == 0.5 and histogram.max == 500.0
        # Bucket-bound estimate without a window; overflow reports max.
        assert histogram.percentile(25.0) == 1.0
        assert histogram.percentile(100.0) == 500.0
        # A bucket bound outside the observed range is clamped to [min, max]:
        # 3.0 and 4.0 both land in the default (1, 5] bucket.
        clamped = Histogram("batch")
        for value in (3.0, 4.0, 4.0):
            clamped.observe(value)
        for q in (0.0, 50.0, 90.0, 100.0):
            assert clamped.min <= clamped.percentile(q) <= clamped.max
        assert clamped.percentile(50.0) == 4.0

    def test_histogram_window_exact_percentiles(self):
        histogram = Histogram("lat", window=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        # Window keeps (2, 3, 4); count keeps the full stream.
        assert histogram.count == 4
        assert histogram.percentile(50.0) == pytest.approx(3.0)

    def test_histogram_merge_commutative_and_associative(self):
        def build(values):
            histogram = Histogram("lat", buckets=(1.0, 10.0))
            for value in values:
                histogram.observe(value)
            return histogram

        parts = [(0.5, 20.0), (2.0,), (8.0, 0.1, 30.0)]

        def merged(order):
            target = Histogram("lat", buckets=(1.0, 10.0))
            for index in order:
                target.merge(build(parts[index]).snapshot())
            return target.snapshot()

        # Any merge order yields the same aggregate.
        assert merged((0, 1, 2)) == merged((2, 0, 1)) == merged((1, 2, 0))
        total = merged((0, 1, 2))
        assert total["count"] == 6
        assert total["counts"] == [2, 2, 2]
        assert total["min"] == 0.1 and total["max"] == 30.0

    def test_histogram_merge_rejects_mismatched_buckets(self):
        a = Histogram("lat", buckets=(1.0, 2.0))
        b = Histogram("lat", buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge(b.snapshot())

    def test_registry_type_conflict(self):
        registry = MetricsRegistry()
        registry.count("metric")
        with pytest.raises(ValueError, match="is a Counter"):
            registry.histogram("metric")

    def test_registry_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.count("layer.calls", 3)
        registry.set_gauge("layer.peak", 7.5)
        registry.observe("layer.latency_ms", 12.0, window=4)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == registry.snapshot()

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("calls")
        registry.observe("lat", 1.0)
        registry.set_gauge("peak", 2.0)
        assert len(registry) == 0

    def test_cross_process_snapshot_merge(self, tmp_path):
        """Two registries from separate processes merge into one aggregate."""
        script = (
            "import json, sys\n"
            "from repro.obs.metrics import MetricsRegistry\n"
            "registry = MetricsRegistry()\n"
            "worker = int(sys.argv[1])\n"
            "registry.count('serving.request.served', 10 * worker)\n"
            "registry.set_gauge('serving.queue.peak', float(worker))\n"
            "for value in range(worker):\n"
            "    registry.observe('serving.request.latency_ms', float(value))\n"
            "print(json.dumps(registry.snapshot()))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        snapshots = []
        for worker in (1, 2):
            result = subprocess.run(
                [sys.executable, "-c", script, str(worker)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            snapshots.append(json.loads(result.stdout))
        aggregate = merge_snapshots(*snapshots)
        assert aggregate["serving.request.served"]["value"] == 30
        assert aggregate["serving.queue.peak"]["value"] == 2.0
        latency = aggregate["serving.request.latency_ms"]
        assert latency["count"] == 3
        assert latency["sum"] == pytest.approx(1.0)  # 0 + (0 + 1)


class TestExport:
    def test_format_span_tree_nesting_and_errors(self):
        tracer = Tracer()
        with tracer.span("outer", device="tx2"):
            with pytest.raises(ValueError):
                with tracer.span("inner"):
                    raise ValueError("bad")
        rendered = format_span_tree(tracer)
        lines = rendered.splitlines()
        assert lines[0].startswith("- outer")
        assert "[device=tx2]" in lines[0]
        assert lines[1].startswith("  - inner")
        assert "!! ValueError: bad" in lines[1]

    def test_format_metrics_summary(self):
        registry = MetricsRegistry()
        registry.count("calls", 5)
        registry.observe("lat", 3.0)
        rendered = format_metrics(registry)
        assert "calls = 5" in rendered
        assert "lat: count=1" in rendered

    def test_save_load_run_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tracer = Tracer()
        registry = MetricsRegistry()
        with tracer.span("stage.one"):
            registry.count("stage.calls")
        key = save_run(store, "unit", tracer=tracer, metrics=registry)
        loaded_key, meta = load_run(store)
        assert loaded_key == key
        assert meta["label"] == "unit"
        assert [row["name"] for row in meta["spans"]] == ["stage.one"]
        assert meta["metrics"]["stage.calls"]["value"] == 1
        # Side files written next to the artifact for external tooling.
        spans_file = tmp_path / "obs" / key / "spans.jsonl"
        assert json.loads(spans_file.read_text().splitlines()[0])["name"] == "stage.one"
        assert (tmp_path / "obs" / key / "metrics.json").exists()
        assert [entry[0] for entry in list_runs(store)] == [key]

    def test_load_run_empty_store_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no observability runs"):
            load_run(ArtifactStore(tmp_path))


class TestEvolutionInstrumentation:
    def test_per_generation_spans_and_metrics(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        rng = np.random.default_rng(0)

        def evaluate(genotype):
            search.clock.advance(1.0)  # each fresh evaluation charges the clock
            return float(genotype)

        search = EvolutionarySearch(
            EvolutionConfig(population_size=4),
            initialize=lambda r: int(r.integers(0, 8)),
            mutate=lambda genotype, r: (genotype + 1) % 8,
            evaluate=evaluate,
            rng=rng,
        )
        with use_tracer(tracer), use_metrics(registry):
            result = search.run(iterations=3)
        spans = [span for span in tracer.spans if span.name == "nas.evolution.generation"]
        assert [span.attributes["iteration"] for span in spans] == [0, 1, 2, 3]
        assert sum(span.attributes["evaluations"] for span in spans) == search.evaluations
        assert sum(span.attributes["cache_hits"] for span in spans) == search.cache_hits
        assert sum(span.attributes["clock_s"] for span in spans) == pytest.approx(search.clock.now)
        assert spans[-1].attributes["best_fitness"] == result.best_score
        snapshot = registry.snapshot()
        assert snapshot["nas.evolution.generations"]["value"] == 4
        assert snapshot["nas.evolution.evaluations"]["value"] == search.evaluations
        assert snapshot["nas.evolution.best_fitness"]["value"] == result.best_score


class TestPredictorTrainingInstrumentation:
    def test_per_epoch_spans(self):
        rng = np.random.default_rng(0)
        space = DesignSpace(DesignSpaceConfig(num_positions=4))
        dataset = generate_predictor_dataset(space, get_device("jetson-tx2"), 24, rng)
        train, val = dataset.split(0.75, rng)
        predictor = LatencyPredictor(PredictorConfig(gcn_dims=(8, 8, 8), mlp_dims=(8,)))
        tracer = Tracer()
        with use_tracer(tracer):
            history = train_predictor(predictor, train, val, PredictorTrainingConfig(epochs=3, batch_size=8))
        spans = [span for span in tracer.spans if span.name == "predictor.train.epoch"]
        assert [span.attributes["epoch"] for span in spans] == [0, 1, 2]
        assert [span.attributes["loss"] for span in spans] == history.train_losses
        assert all(np.isfinite(span.attributes["loss"]) for span in spans)
        assert [span.attributes["val_mape"] for span in spans] == history.val_mape


class TestTelemetryOnObsPrimitives:
    def test_report_shape_golden(self):
        telemetry = ModelTelemetry(window=8)
        telemetry.record_request(latency_ms=4.0, queue_ms=1.0, from_cache=False)
        telemetry.record_request(latency_ms=6.0, queue_ms=3.0, from_cache=True)
        telemetry.record_batch(2)
        telemetry.record_rejection()
        telemetry.busy.elapsed = 0.5
        telemetry.busy.first_started_at, telemetry.busy.last_stopped_at = 10.0, 10.5
        report = telemetry.report()
        assert report == {
            "served": 2,
            "rejected": 1,
            "batches": 1,
            "mean_batch_size": 2.0,
            "throughput_rps": 4.0,
            "busy_s": 0.5,
            "result_cache_hits": 1,
            "mean_queue_ms": 2.0,
            "latency_ms": {"p50": 5.0, "p95": 5.9, "p99": 5.98},
        }

    def test_custom_percentiles(self):
        telemetry = ModelTelemetry(window=100)
        for value in range(1, 101):
            telemetry.record_request(latency_ms=float(value), queue_ms=0.0, from_cache=False)
        percentiles = telemetry.latency_percentiles(percentiles=(25.0, 99.9))
        assert set(percentiles) == {"p25", "p99.9"}
        assert percentiles["p25"] == pytest.approx(25.75)
        store = TelemetryStore(window=100)
        store._models["m"] = telemetry
        report = store.report(percentiles=(25.0, 99.9))
        assert set(report["models"]["m"]["latency_ms"]) == {"p25", "p99.9"}

    def test_empty_percentiles_golden(self):
        assert ModelTelemetry().latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_merged_throughput_is_the_fleet_rate(self):
        """Two workers busy over the same wall window serve at the sum of their rates."""
        frontend = ModelTelemetry(window=8)
        for served, (start, end) in ((4, (10.0, 12.0)), (6, (10.0, 12.0))):
            worker = ModelTelemetry(window=8)
            for _ in range(served):
                worker.record_request(latency_ms=1.0, queue_ms=0.0, from_cache=False)
            worker.busy.elapsed = end - start
            worker.busy.first_started_at, worker.busy.last_stopped_at = start, end
            assert worker.throughput_rps == pytest.approx(served / 2.0)
            frontend.merge(worker.snapshot())
        assert frontend.throughput_rps == pytest.approx(2.0 + 3.0)
        assert frontend.report()["busy_s"] == pytest.approx(4.0)
        # A partly overlapping window widens the fleet window to its union.
        late = ModelTelemetry(window=8)
        late.record_request(latency_ms=1.0, queue_ms=0.0, from_cache=False)
        late.busy.first_started_at, late.busy.last_stopped_at = 11.0, 13.0
        frontend.merge(late.snapshot())
        assert frontend.throughput_rps == pytest.approx(11 / 3.0)

    def test_worker_merge(self):
        workers = []
        for offset in (0.0, 10.0):
            telemetry = ModelTelemetry(window=8)
            telemetry.record_request(latency_ms=1.0 + offset, queue_ms=0.5, from_cache=False)
            telemetry.record_batch(1)
            telemetry.busy.elapsed = 0.25
            workers.append(telemetry)
        frontend = ModelTelemetry(window=8)
        for worker in workers:
            frontend.merge(worker.snapshot())
        assert frontend.served == 2
        assert frontend.batches == 2
        assert frontend.busy.elapsed == pytest.approx(0.5)
        assert sorted(frontend.latencies_ms) == [1.0, 11.0]

        store = TelemetryStore(window=8)
        store.observe_queue_depth(3)
        other = TelemetryStore(window=8)
        other._models["m"] = workers[0]
        other.observe_queue_depth(5)
        store.merge(other.snapshot())
        assert store.peak_queue_depth == 5
        assert store.model("m").served == 1


_TINY_SEARCH = [
    "search",
    "--device",
    "tx2",
    "--oracle",
    "predictor",
    "--num-positions",
    "6",
    "--population",
    "4",
    "--function-iterations",
    "1",
    "--operation-iterations",
    "2",
    "--classes",
    "4",
    "--samples-per-class",
    "4",
    "--points",
    "24",
]


class TestCliTracing:
    def test_search_trace_and_report_round_trip(self, tmp_path, capsys):
        argv = _TINY_SEARCH + ["--root", str(tmp_path), "--trace"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "== trace ==" in out
        # The span tree covers profile -> predictor -> search: dataset
        # labelling, predictor training, both search stages and the
        # per-generation events.
        assert "- cli.search" in out
        assert "- workspace.search" in out
        assert "workspace.train_predictor" in out
        assert "predictor.dataset.generate" in out
        assert "hardware.profile.calls" in out
        assert "predictor.batch.calls" in out
        assert "nas.search.stage1_supernet" in out
        assert "nas.search.stage2_operations" in out
        assert "nas.evolution.generation" in out
        assert "nas.supernet.epoch" in out
        assert "nas.evolution.generations" in out  # metrics section
        assert "obs run saved under key" in out

        assert cli_main(["report", "--root", str(tmp_path)]) == 0
        report = capsys.readouterr().out
        assert "== obs run 'search'" in report
        assert "nas.evolution.generation" in report
        assert "nas.evolution.generations" in report

        assert cli_main(["report", "--root", str(tmp_path), "--list"]) == 0
        assert "label=search" in capsys.readouterr().out

    def test_trace_out_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "trace"
        assert cli_main(["profile", "--device", "pi", "--trace-out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "- cli.profile" in out
        assert "- workspace.profile" in out
        rows = [json.loads(line) for line in (out_dir / "spans.jsonl").read_text().splitlines()]
        assert [row["name"] for row in rows[:2]] == ["cli.profile", "workspace.profile"]
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["hardware.profile.calls"]["value"] >= 1

    def test_global_flags_accepted_before_subcommand(self, capsys):
        assert cli_main(["-v", "--trace", "devices"]) == 0
        assert "- cli.devices" in capsys.readouterr().out

    def test_report_on_empty_store_is_exit_2(self, tmp_path, capsys):
        assert cli_main(["report", "--root", str(tmp_path)]) == 2
        assert "no observability runs" in capsys.readouterr().err

    def test_untraced_run_prints_no_trace(self, capsys):
        assert cli_main(["devices"]) == 0
        assert "== trace ==" not in capsys.readouterr().out
