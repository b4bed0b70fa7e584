"""The package stays exact and deterministic: no module of
``src/tropgroups`` holds a float literal or a ``float(...)`` call, imports
``random`` or ``secrets``, or imports ``time``, except ``cli.py``, which
times the stages it reports on stderr."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropgroups"
BANNED_MODULES = {"random", "secrets"}
TIMED = {"cli.py"}


def _faults(source: str, name: str) -> list[str]:
    """What the module ``name`` with text ``source`` does that the guard
    forbids, one line each."""
    banned = BANNED_MODULES | (set() if name in TIMED else {"time"})
    faults = []
    for node in ast.walk(ast.parse(source)):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            faults.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            faults.append(f"{where}: float(...) call")
        elif isinstance(node, ast.Import):
            faults += [f"{where}: import {a.name}" for a in node.names if a.name.split(".")[0] in banned]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in banned:
                faults.append(f"{where}: from {node.module} import")
    return faults


def test_the_package_has_no_floats_randomness_or_clocks():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    faults = [f for path in modules for f in _faults(path.read_text(), path.name)]
    assert faults == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("x = 0.5", "matrix.py"),
        ("x = 1e3", "matrix.py"),
        ("x = float('inf')", "semiring.py"),
        ("import random", "permgroups.py"),
        ("from random import choice", "permgroups.py"),
        ("import secrets", "cli.py"),
        ("from secrets import token_hex", "cli.py"),
        ("import time", "spaces.py"),
        ("from time import perf_counter", "spaces.py"),
    ],
)
def test_the_guard_names_each_fault(source, name):
    assert len(_faults(source, name)) == 1


def test_the_guard_lets_the_cli_keep_its_clock():
    assert _faults("import time\nfrom time import perf_counter", "cli.py") == []
    assert _faults("from fractions import Fraction\nfrom . import semiring", "matrix.py") == []
