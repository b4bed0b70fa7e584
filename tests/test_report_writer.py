"""The report writer of ``--json`` output against the standard library."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tropgroups.cli import _to_json


_json_leaves = st.one_of(
    st.text(),
    st.sampled_from(["", "été", "∑ \U0001d11e", 'a"b\\c', "tab\tnew\nline\x00\x1f"]),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
)
_reports = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(_reports)
def test_report_writer_matches_json_dumps(report):
    """The report writer prints what json.dumps(indent=2, sort_keys=True)
    prints, byte for byte: nested dicts and lists, empty containers,
    escaped and non-ASCII strings, bools, None and large ints."""
    assert _to_json(report) == json.dumps(report, indent=2, sort_keys=True)
