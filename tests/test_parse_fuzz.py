"""Fuzzing the parsers at the input boundary: whatever the text, parsing
either succeeds or raises ValueError (or a subclass), which the CLI turns
into exit code 2."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tropgroups.matrix import parse_matrix
from tropgroups.semiring import parse_scalar

GRAMMAR = "0123456789/+-einf #{}[]\",:\n"

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet=GRAMMAR, max_size=8)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
entries = st.lists(st.lists(json_leaves, max_size=3), max_size=3) | json_values
json_matrices = st.fixed_dictionaries(
    {"entries": entries},
    optional={"rows": json_values, "cols": json_values},
)


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(deadline=None, max_examples=200)
@given(st.text() | st.text(alphabet=GRAMMAR, max_size=24))
def test_text_parsers_raise_only_value_error(text):
    parses_or_rejects(parse_scalar, text)
    parses_or_rejects(parse_matrix, text)


@settings(deadline=None, max_examples=200)
@given(json_matrices | json_values)
def test_json_matrix_parser_raises_only_value_error(value):
    parses_or_rejects(parse_matrix, json.dumps(value))
