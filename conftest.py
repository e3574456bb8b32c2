"""Pytest bootstrap: make ``src/`` importable even without installation.

The project is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in offline environments without the ``wheel``
package).  Adding ``src/`` to ``sys.path`` here keeps the test and benchmark
suites runnable either way.
"""

import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

