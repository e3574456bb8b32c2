"""Stateful pipeline workspace: one entry point, persisted stage artifacts.

* :mod:`repro.workspace.config` — :class:`InferenceDefaults`, the shared
  deployment-scenario constants every stage resolves from.
* :mod:`repro.workspace.store` — the content-addressed
  :class:`ArtifactStore` persisting predictors, search results and trained
  derived models across runs.
* :mod:`repro.workspace.pipeline` — :class:`Workspace` with the stage
  methods ``profile`` / ``measure_latency`` / ``train_predictor`` /
  ``search`` / ``derive`` / ``deploy`` / ``serve`` / ``serve_pool``.

``Workspace`` is the package's one pipeline API: the ``repro`` CLI and the
examples are built on it, and a model outside any workspace is a plain
:class:`~repro.nas.derived.DerivedModel`.

The pipeline names are re-exported lazily: :mod:`repro.serving` (imported
by the pipeline) itself draws its registration defaults from
:mod:`repro.workspace.config`, and an eager import here would close that
cycle before :mod:`repro.serving.engine` finishes initialising.
"""

from importlib import import_module

from repro.workspace.config import DEFAULTS, InferenceDefaults
from repro.workspace.store import (
    Artifact,
    ArtifactStore,
    array_fingerprint,
    canonical_key,
    dataset_fingerprint,
)

_LAZY_EXPORTS = {
    "PredictorBundle": "repro.workspace.pipeline",
    "PoolServeReport": "repro.workspace.pipeline",
    "ServeReport": "repro.workspace.pipeline",
    "Workspace": "repro.workspace.pipeline",
}

__all__ = [
    "DEFAULTS",
    "InferenceDefaults",
    "PredictorBundle",
    "PoolServeReport",
    "ServeReport",
    "Workspace",
    "Artifact",
    "ArtifactStore",
    "array_fingerprint",
    "canonical_key",
    "dataset_fingerprint",
]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.workspace' has no attribute '{name}'")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
