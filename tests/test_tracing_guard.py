"""The per-layer tracer of ``perfbench/tracing.py`` wraps the package's
functions by name: a rename that would break ``run.py --trace 1`` fails
here."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
import tropgroups.cli  # noqa: E402  (the tracer wraps names in every module)
from helpers import matrix_f  # noqa: E402
from tropgroups.permgroups import PairedPermGroup, PermGroup, parse_cycles  # noqa: E402


def test_tracer_counts_plain_and_paired_listings():
    """One call per listing: a paired listing does not list through
    ``PermGroup.elements`` as well."""
    s2 = parse_cycles("(1,2)", 2)
    c3 = PermGroup.from_cycles(3, ["(1,2,3)"])
    diagonal_s2 = PairedPermGroup((2, 2), [(s2, s2)])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(c3.elements()) == 3
        assert len(diagonal_s2.elements()) == 2
    finally:
        tracer.uninstall()
    tracer.end_round()
    assert tracer.metric_value("permgroups.elements.calls") == 2
    assert tracer.metric_value("permgroups.elements.enumerated") == 5


def test_tracer_sees_the_searches_of_one_cli_request(tmp_path, capsys):
    """``analyze F`` under the installed tracer reaches the wrapped pair
    search and automorphism search, whatever their signatures."""
    path = tmp_path / "f.txt"
    path.write_text(matrix_f().to_text() + "\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tropgroups.cli.main(["analyze", str(path), "--json"]) == 0
    finally:
        tracer.uninstall()
    tracer.end_round()
    assert tracer.metric_value("pairsearch.pair_solutions.calls") >= 1
    assert tracer.metric_value("permgroups.automorphisms.calls") >= 1


def test_tracer_sees_the_search_of_a_plain_closure(capsys):
    """``closure --degree`` reaches the wrapped automorphism search of a
    plain 2-closure, which goes through ``coloured_automorphisms``."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["closure", "--degree", "4", "(1,2,3)", "(1,2)(3,4)", "--json"]
        assert tropgroups.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    tracer.end_round()
    assert tracer.metric_value("permgroups.automorphisms.calls") >= 1


def test_analysis_shifts_eigenvalues_on_codes(tmp_path, capsys):
    """``analyze F`` makes no ``Value`` sum, difference or negation: Sigma's
    generators reach eigenvalue 0 on integer codes, and scalars are built
    only when a result is decoded."""
    path = tmp_path / "f.txt"
    path.write_text(matrix_f().to_text() + "\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tropgroups.cli.main(["analyze", str(path), "--json"]) == 0
    finally:
        tracer.uninstall()
    tracer.end_round()
    assert tracer.metric_value("pairsearch.pair_solutions.calls") >= 1
    assert tracer.metric_value("semiring.value_add.calls") == 0
