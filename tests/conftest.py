"""Child processes started by the tests (``python -m tropgroups``) import
the package from this checkout's ``src/``, as the tests themselves do
through ``pythonpath`` in ``pyproject.toml``, so a bare ``pytest`` works
without installing the package."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
