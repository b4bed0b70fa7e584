"""The per-layer tracer of ``perfbench/tracing.py`` wraps the package's
functions by name: a rename that would break ``run.py --trace 1`` fails
here."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
import tropgroups.cli  # noqa: E402,F401  (the tracer wraps names in every module)
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
