"""Child processes started by the tests (``python -m tropgroups``) import
the package from this checkout's ``src/``, as the tests themselves do
through ``pythonpath`` in ``pyproject.toml``, so a bare ``pytest`` works
without installing the package.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples are drawn
deterministically, so a property test fails the same way on every run,
and a failure prints the blob that reproduces it."""

import os

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they say so themselves
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        settings.load_profile("ci")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
