"""Out-of-program tracing: spans around the public functions of each layer.

The program carries no benchmark hooks, so a traced run installs wrappers
from here.  A module-level function is replaced in every ``repro`` module
that holds a reference to it (``batched_knn_graph`` is looked up in
``nas.derived`` and ``nas.supernet``, ``knn_graph`` in ``serving.cache``);
a method is replaced on its class.

A span is ``(span_id, parent_id, op_id, name, start, end, size)``.  Spans of
one op share ``op_id``: the benchmark opens an op scope around each op, and
a root span outside any scope starts an op of its own.  Parents follow a
context variable, so they are right across asyncio tasks; work handed to an
executor thread starts a new root.  Spans stay in memory until the run
ends.  ``start``/``end`` are ``time.perf_counter()`` values, which on Linux
share one monotonic clock across processes, so spans recorded in a forked
pool worker line up with the windows the load generator measured.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import pathlib
import sys
import time

#: Modules imported before wrapping, so every by-name reference is found.
_MODULES = (
    "repro.graph",
    "repro.nas.derived",
    "repro.nas.supernet",
    "repro.nas.search",
    "repro.models",
    "repro.predictor",
    "repro.serving.engine",
    "repro.serving.pool",
    "repro.serving.frontend",
    "repro.workspace",
)


def _pool_batch_size(args, result) -> int:
    return len(args[2])  # _serve_messages(engine, worker_id, messages, result_queue)


def _artifact_bytes(args, result) -> int:
    path = getattr(result, "path", None)
    if path is None or not pathlib.Path(path).is_dir():
        return 0
    return sum(entry.stat().st_size for entry in pathlib.Path(path).iterdir() if entry.is_file())


#: (module, function, span name, size extractor) for module-level functions.
FUNCTIONS = (
    ("repro.graph.batching", "batched_knn_graph", "graph.knn", None),
    ("repro.graph.knn", "knn_graph", "graph.knn", None),
    ("repro.graph.fused", "fused_edgeconv", "graph.fused", None),
    ("repro.graph.fused", "fused_aggregate", "graph.fused", None),
    ("repro.graph.scatter", "scatter", "graph.scatter", None),
    ("repro.graph.message", "build_messages", "graph.scatter", None),
    ("repro.serving.cache", "cloud_fingerprint", "serving.cache.fingerprint", None),
    ("repro.serving.pool", "_serve_messages", "serving.pool.worker_batch", _pool_batch_size),
    ("repro.predictor.dataset", "generate_predictor_dataset", "predictor.dataset", None),
    ("repro.predictor.train", "train_predictor", "predictor.train", None),
    ("repro.nas.trainer", "train_supernet", "nas.train_supernet", None),
    ("repro.nas.trainer", "evaluate_path", "nas.evaluate_path", None),
    ("repro.hardware.latency", "estimate_latency", "hardware.estimate_latency", None),
)

#: (module, class, method, span name, size extractor) for methods.
METHODS = (
    ("repro.nn.layers", "Linear", "forward", "nn.linear", None),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim", "SGD", "step", "nn.optim.step", None),
    ("repro.nn.optim", "Adam", "step", "nn.optim.step", None),
    ("repro.nn.optim", "AdamW", "step", "nn.optim.step", None),
    ("repro.nas.derived", "DerivedModel", "forward", "nas.derived.forward", None),
    ("repro.nas.evolution", "EvolutionarySearch", "run", "nas.evolution", None),
    ("repro.predictor.model", "LatencyPredictor", "predict_many", "predictor.predict", None),
    ("repro.predictor.model", "LatencyPredictor", "predict_latency_ms", "predictor.predict", None),
    ("repro.serving.engine", "InferenceEngine", "submit", "serving.engine.submit", None),
    ("repro.serving.engine", "InferenceEngine", "submit_many", "serving.engine.submit", None),
    ("repro.serving.diskcache", "SharedArrayCache", "get", "serving.diskcache.get", None),
    ("repro.serving.diskcache", "SharedArrayCache", "put_if_absent", "serving.diskcache.put", None),
    ("repro.serving.pool", "WorkerPoolEngine", "submit", "serving.pool.submit", None),
    ("repro.serving.frontend", "AsyncServingFrontend", "submit", "serving.frontend.submit", None),
    ("repro.workspace.store", "ArtifactStore", "save", "workspace.store.save", _artifact_bytes),
    ("repro.workspace.store", "ArtifactStore", "load", "workspace.store.load", None),
)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: contextvars.ContextVar[tuple] = contextvars.ContextVar("perfbench_stack", default=())
        self._installed: list[tuple] = []
        self._dump_dir: pathlib.Path | None = None
        self._reset_ids()

    def _reset_ids(self) -> None:
        # Ids stay unique across the processes whose spans get merged.
        counter = itertools.count((os.getpid() << 32) + 1)
        self._next_id = counter.__next__

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    @contextlib.contextmanager
    def op_scope(self):
        """Group every span opened inside into one op."""
        token = self._stack.set(self._stack.get() + ((0, self._next_id()),))
        try:
            yield
        finally:
            self._stack.reset(token)

    def _enter(self):
        stack = self._stack.get()
        parent, op = stack[-1] if stack else (0, 0)
        span_id = self._next_id()
        if not op:
            op = span_id
        return self._stack.set(stack + ((span_id, op),)), span_id, parent, op

    def _wrap(self, fn, name: str, size):
        recorder = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                token, span_id, parent, op = recorder._enter()
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    recorder._stack.reset(token)
                    recorder.spans.append((span_id, parent, op, name, start, end, None))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token, span_id, parent, op = recorder._enter()
            start = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                recorder._stack.reset(token)
                measured = size(args, result) if size is not None and returned else None
                recorder.spans.append((span_id, parent, op, name, start, end, measured))
                if name == "serving.pool.submit" and returned:
                    recorder._watch_result(result, span_id, op, end)

        return wrapper

    def _watch_result(self, future, parent: int, op: int, submitted: float) -> None:
        """Span from ``WorkerPoolEngine.submit`` returning to its future resolving."""
        span_id = self._next_id()

        def done(_future) -> None:
            self.spans.append((span_id, parent, op, "serving.pool.result_wait", submitted, time.perf_counter(), None))

        future.add_done_callback(done)

    # -------------------------------------------------------------- #
    # Installation
    # -------------------------------------------------------------- #
    def install(self) -> None:
        for module_name in _MODULES:
            importlib.import_module(module_name)
        loaded = [module for name, module in list(sys.modules.items()) if name == "repro" or name.startswith("repro.")]
        for module_name, attr, name, size in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name, size)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))
        for module_name, class_name, attr, name, size in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name, size))
            self._installed.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -------------------------------------------------------------- #
    # Forked workers
    # -------------------------------------------------------------- #
    def dump_forked_workers(self, directory: pathlib.Path) -> None:
        """Have each process forked from here write its spans when it exits.

        Pool workers are forked, so they inherit the installed wrappers.  The
        after-fork hook runs inside multiprocessing's child bootstrap, and the
        finalizer it registers runs when the child's target returns.
        """
        self._dump_dir = directory
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._reset_ids()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        assert self._dump_dir is not None
        path = self._dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))


def load_worker_dumps(directory: pathlib.Path) -> list[tuple]:
    spans: list[tuple] = []
    for path in sorted(directory.glob("worker-*.json")):
        spans.extend(tuple(span) for span in json.loads(path.read_text()))
    return spans


def write_spans(path: pathlib.Path, spans: list[tuple]) -> None:
    fields = ("id", "parent", "op", "name", "start", "end", "size")
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
#: Per-layer metrics reported by every traced run, with their units.
LAYER_METRICS = {
    "graph.knn.ms_per_req": "ms",
    "graph.knn.calls_per_req": "count",
    "graph.fused.ms_per_req": "ms",
    "graph.scatter.ms_per_op": "ms",
    "nn.linear.ms_per_req": "ms",
    "nn.backward.ms_per_op": "ms",
    "nn.optim.step_ms_per_op": "ms",
    "nas.derived.forward_ms_per_req": "ms",
    "nas.derived.others_ms_per_req": "ms",
    "serving.engine.submit_ms_p50": "ms",
    "serving.engine.batch_size_mean": "count",
    "serving.cache.fingerprint_us_p50": "us",
    "serving.cache.result_hit_share": "share",
    "serving.cache.edge_hit_share": "share",
    "serving.diskcache.get_ms_p50": "ms",
    "serving.diskcache.hit_share": "share",
    "serving.diskcache.puts": "count",
    "serving.pool.submit_ms_p50": "ms",
    "serving.pool.result_wait_ms_p50": "ms",
    "serving.pool.worker_busy_share": "share",
    "serving.pool.batch_size_mean": "count",
    "serving.pool.requeued": "count",
    "serving.pool.worker_crashes": "count",
    "serving.frontend.submit_ms_p50": "ms",
    "serving.frontend.failed": "count",
    "serving.frontend.retries": "count",
    "predictor.dataset_s": "s",
    "predictor.train_s": "s",
    "predictor.val_mape": "share",
    "predictor.predict_ms_per_op": "ms",
    "nas.train_supernet_ms_per_op": "ms",
    "nas.evaluate_path_ms_per_op": "ms",
    "nas.evaluations_per_op": "count",
    "nas.evolution_self_ms_per_op": "ms",
    "workspace.store.saves_per_op": "count",
    "workspace.store.save_ms_per_op": "ms",
    "workspace.store.bytes_written_per_op": "bytes",
    "workspace.store.loads_per_op": "count",
    "hardware.estimate_latency.calls": "count",
    "hardware.estimate_latency.ms": "ms",
    "trace.overhead_share": "share",
}


class SpanIndex:
    """Queries over the spans of a traced run."""

    def __init__(self, spans: list[tuple], windows: list[tuple[float, float]]):
        self.spans = spans
        self.windows = sorted(windows)
        self._starts = [start for start, _ in self.windows]
        self._name = {span[0]: span[3] for span in spans}
        self._parent = {span[0]: span[1] for span in spans}
        self._by_name: dict[str, list[tuple]] = {}
        self._children_s: dict[int, float] = {}
        for span in spans:
            self._by_name.setdefault(span[3], []).append(span)
            self._children_s[span[1]] = self._children_s.get(span[1], 0.0) + span[5] - span[4]

    def in_window(self, span) -> bool:
        index = bisect.bisect_right(self._starts, span[4]) - 1
        return index >= 0 and span[4] <= self.windows[index][1]

    def _has_ancestor(self, span_id: int, name: str) -> bool:
        parent = self._parent.get(span_id, 0)
        while parent:
            if self._name.get(parent) == name:
                return True
            parent = self._parent.get(parent, 0)
        return False

    def select(self, name: str, window: bool = True, within: str | None = None) -> list[tuple]:
        """Outermost spans of ``name`` (a span nested in one of the same name is skipped)."""
        return [
            span
            for span in self._by_name.get(name, ())
            if (not window or self.in_window(span))
            and not self._has_ancestor(span[0], name)
            and (within is None or self._has_ancestor(span[0], within))
        ]

    def total_s(self, name: str, **kwargs) -> float:
        return sum(span[5] - span[4] for span in self.select(name, **kwargs))

    def durations_s(self, name: str, **kwargs) -> list[float]:
        return [span[5] - span[4] for span in self.select(name, **kwargs)]

    def self_s(self, name: str) -> float:
        return sum(span[5] - span[4] - self._children_s.get(span[0], 0.0) for span in self.select(name))

    def window_s(self) -> float:
        return sum(end - start for start, end in self.windows)


def _p50(values: list[float]) -> float:
    from common import median

    return median(values) if values else 0.0


def layer_metrics(spans, windows, ops: int, rounds: int, extra: dict, scale: float) -> dict:
    """Every per-layer metric of :data:`LAYER_METRICS` as ``name -> (value, unit)``.

    ``windows`` are the measured intervals of the traced rounds and ``ops``
    the ops completed in them; ``rounds`` counts the traced rounds (set-up
    included) for per-round totals.  ``extra`` supplies the values read from
    the program's own counters.  Times are scaled by the host probe.
    """
    index = SpanIndex(spans, windows)
    ops = max(ops, 1)
    rounds = max(rounds, 1)

    def per_op_ms(name: str, **kwargs) -> float:
        return index.total_s(name, **kwargs) * 1e3 * scale / ops

    def p50_ms(name: str) -> float:
        return _p50(index.durations_s(name)) * 1e3 * scale

    forward = per_op_ms("nas.derived.forward")
    inside = sum(per_op_ms(name, within="nas.derived.forward") for name in ("graph.knn", "graph.fused", "nn.linear"))
    pool_batches = index.select("serving.pool.worker_batch")
    saves = index.select("workspace.store.save")
    estimates = index.select("hardware.estimate_latency", window=False)
    values = {
        "graph.knn.ms_per_req": per_op_ms("graph.knn"),
        "graph.knn.calls_per_req": len(index.select("graph.knn")) / ops,
        "graph.fused.ms_per_req": per_op_ms("graph.fused"),
        "graph.scatter.ms_per_op": per_op_ms("graph.scatter"),
        "nn.linear.ms_per_req": per_op_ms("nn.linear"),
        "nn.backward.ms_per_op": per_op_ms("nn.backward"),
        "nn.optim.step_ms_per_op": per_op_ms("nn.optim.step"),
        "nas.derived.forward_ms_per_req": forward,
        "nas.derived.others_ms_per_req": forward - inside,
        "serving.engine.submit_ms_p50": p50_ms("serving.engine.submit"),
        "serving.cache.fingerprint_us_p50": p50_ms("serving.cache.fingerprint") * 1e3,
        "serving.diskcache.get_ms_p50": p50_ms("serving.diskcache.get"),
        "serving.pool.submit_ms_p50": p50_ms("serving.pool.submit"),
        "serving.pool.result_wait_ms_p50": p50_ms("serving.pool.result_wait"),
        "serving.pool.worker_busy_share": (
            sum(span[5] - span[4] for span in pool_batches) / index.window_s() if index.window_s() else 0.0
        ),
        "serving.pool.batch_size_mean": (
            sum(span[6] for span in pool_batches) / len(pool_batches) if pool_batches else 0.0
        ),
        "serving.frontend.submit_ms_p50": p50_ms("serving.frontend.submit"),
        "predictor.dataset_s": _p50(index.durations_s("predictor.dataset", window=False)) * scale,
        "predictor.train_s": _p50(index.durations_s("predictor.train", window=False)) * scale,
        "predictor.predict_ms_per_op": per_op_ms("predictor.predict"),
        "nas.train_supernet_ms_per_op": per_op_ms("nas.train_supernet"),
        "nas.evaluate_path_ms_per_op": per_op_ms("nas.evaluate_path"),
        "nas.evolution_self_ms_per_op": index.self_s("nas.evolution") * 1e3 * scale / ops,
        "workspace.store.saves_per_op": len(saves) / ops,
        "workspace.store.save_ms_per_op": per_op_ms("workspace.store.save"),
        "workspace.store.bytes_written_per_op": sum(span[6] or 0 for span in saves) / ops,
        "workspace.store.loads_per_op": len(index.select("workspace.store.load")) / ops,
        "hardware.estimate_latency.calls": len(estimates) / rounds,
        "hardware.estimate_latency.ms": sum(span[5] - span[4] for span in estimates) * 1e3 * scale / rounds,
    }
    values.update(extra)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in LAYER_METRICS.items()}
