"""The benchmark's tracing wrap table names only definitions that exist.

``perfbench/tracing.py`` wraps functions and methods by name when a run is
traced (``perfbench/run.py --trace 1``); a renamed or deleted target would
fail only at install time.  The module imports nothing but the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_preloaded_module_imports(tracing):
    for module_name in tracing._MODULES:
        importlib.import_module(module_name)


def test_every_wrapped_function_resolves(tracing):
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing, missing


def test_every_wrapped_method_is_defined_on_its_class(tracing):
    missing = [
        f"{module_name}.{class_name}.{attr}"
        for module_name, class_name, attr, _, _ in tracing.METHODS
        if attr not in vars(getattr(importlib.import_module(module_name), class_name))
    ]
    assert not missing, missing
