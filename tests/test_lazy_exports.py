"""Lazy imports: every root re-export must resolve and be dir()-visible, and
importing the CLI must not load modules that only some commands need."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestLazyExports:
    def test_every_lazy_name_resolves(self):
        for name, module_name in repro._LAZY_EXPORTS.items():
            value = getattr(repro, name)
            assert value is getattr(importlib.import_module(module_name), name), name

    def test_every_lazy_name_in_dir_and_all(self):
        listing = dir(repro)
        for name in repro._LAZY_EXPORTS:
            assert name in listing, name
            assert name in repro.__all__, name

    def test_workspace_and_registry_names_exported(self):
        expected = {
            "Workspace",
            "ServeReport",
            "PredictorBundle",
            "InferenceDefaults",
            "ArtifactStore",
            "register_device",
            "unregister_device",
            "register_latency_evaluator",
            "list_latency_evaluators",
        }
        assert expected <= set(repro._LAZY_EXPORTS)
        from repro.workspace import Workspace

        assert repro.Workspace is Workspace

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_export

    def test_resolved_names_are_cached_in_globals(self):
        repro.Workspace
        assert "Workspace" in vars(repro)


class TestImportFootprint:
    def test_cli_import_loads_neither_networkx_nor_scipy_spatial(self):
        script = (
            "import sys\n"
            "import repro.cli.main\n"
            "print(sorted(name for name in ('networkx', 'scipy.spatial') if name in sys.modules))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert result.stdout.strip() == "[]"
