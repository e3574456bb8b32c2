"""HGNAS reproduction: hardware-aware graph neural architecture search.

This package reproduces the system described in *"Hardware-Aware Graph
Neural Network Automated Design for Edge Computing Platforms"* (HGNAS,
DAC 2023) on top of a pure-numpy substrate:

* :mod:`repro.backends` -- the shared segment-reduction and scatter
  kernels, and the switch between fused and materialized message passing
  (``use_backend("materialized")`` scopes the reference path).
* :mod:`repro.nn` -- a small reverse-mode autograd engine with the layers,
  optimisers and losses needed to train GNNs; computes in float32 by
  default under the :mod:`repro.nn.dtype` policy (``default_dtype`` opts a
  scope into float64 for bit-exact reproduction).
* :mod:`repro.graph` -- point-cloud graph operations (KNN graphs, scatter
  aggregation, message construction).
* :mod:`repro.data` -- a synthetic ModelNet-style point-cloud classification
  dataset.
* :mod:`repro.models` -- DGCNN and the manually optimised baselines.
* :mod:`repro.hardware` -- analytical edge-device latency/memory models
  standing in for real RTX3080 / i7-8700K / Jetson TX2 / Raspberry Pi
  measurements.
* :mod:`repro.nas` -- the fine-grained design space, one-shot supernet and
  multi-stage hierarchical evolutionary search (the paper's contribution).
* :mod:`repro.predictor` -- the GNN-based hardware performance predictor.
* :mod:`repro.serving` -- the batched, cached inference-serving engine that
  deploys searched architectures behind a request API.
* :mod:`repro.obs` -- unified observability: nested span tracing, mergeable
  counters/gauges/histograms, and exporters into the artifact store
  (``repro <stage> --trace`` / ``repro report``).
* :mod:`repro.analysis` -- static analysis: the symbolic shape/dtype
  checker over genotypes (``repro check``, pre-scoring candidate rejection
  in evolution, O(1) serving request validation) and the repo-invariant
  AST linter (``repro lint``).
* :mod:`repro.workspace` -- the stateful pipeline entry point
  (:class:`~repro.workspace.Workspace`) with its content-addressed artifact
  store and the shared :class:`~repro.workspace.InferenceDefaults`.
* :mod:`repro.cli` -- the unified ``repro`` command line
  (``repro profile|predict|search|serve|devices``).
* :mod:`repro.experiments` -- drivers that regenerate every table and figure
  of the paper's evaluation section.

The pipeline is driven through :class:`~repro.workspace.Workspace`
(profile, train the latency predictor, search, derive, deploy, serve).
It, the other Workspace types and the device/evaluator registry hooks are
re-exported lazily from the package root, so
``import repro; repro.Workspace(...)`` works without paying the import cost
of the subsystems you do not use.
"""

from importlib import import_module

from repro.version import __version__

#: Lazily re-exported high-level names -> providing module.
_LAZY_EXPORTS = {
    "Workspace": "repro.workspace",
    "ServeReport": "repro.workspace",
    "PredictorBundle": "repro.workspace",
    "InferenceEngine": "repro.serving",
    "EngineConfig": "repro.serving",
    "ModelRegistry": "repro.serving",
    "DeployedModel": "repro.serving",
    "InferenceDefaults": "repro.workspace",
    "ArtifactStore": "repro.workspace",
    "validate_genotype": "repro.analysis",
    "validate_architecture": "repro.analysis",
    "infer_signature": "repro.analysis",
    "StaticSignature": "repro.analysis",
    "ValidationReport": "repro.analysis",
    "lint_paths": "repro.analysis.lint",
    "get_default_dtype": "repro.nn.dtype",
    "set_default_dtype": "repro.nn.dtype",
    "default_dtype": "repro.nn.dtype",
    "use_backend": "repro.backends",
    "trace_span": "repro.obs",
    "get_tracer": "repro.obs",
    "get_metrics": "repro.obs",
    "Tracer": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "merge_snapshots": "repro.obs",
    "reset_observability": "repro.obs",
    "save_run": "repro.obs",
    "load_run": "repro.obs",
    "register_device": "repro.hardware.device",
    "unregister_device": "repro.hardware.device",
    "get_device": "repro.hardware.device",
    "list_devices": "repro.hardware.device",
    "FaultPlan": "repro.faults",
    "FaultSpec": "repro.faults",
    "use_faults": "repro.faults",
    "fault_point": "repro.faults",
    "reset_faults": "repro.faults",
    "InjectedFault": "repro.faults",
    "register_latency_evaluator": "repro.nas.latency_eval",
    "unregister_latency_evaluator": "repro.nas.latency_eval",
    "list_latency_evaluators": "repro.nas.latency_eval",
    "make_latency_evaluator": "repro.nas.latency_eval",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute '{name}'")
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache so subsequent lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
