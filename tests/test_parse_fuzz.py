"""Fuzzing the parsers at the input boundary: whatever the text or spec
object, parsing either succeeds or raises ValueError (or a subclass), which
the CLI turns into exit code 2."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tropgroups.constructors import parse_construction_spec
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

# Sizes stay small: a well-formed spec of degree n lists n or n^2 points
# when parsed, so an arbitrary integer there would test memory, not types.
spec_leaves = (
    st.integers(-2, 6)
    | st.none()
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet="()0123456789,", max_size=10)
)
spec_values = st.recursive(
    spec_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=8
)
spec_edges = st.lists(
    st.lists(spec_leaves | json_values, max_size=4) | json_values, max_size=4
)
specs = st.fixed_dictionaries(
    {},
    optional={
        key: spec_values
        for key in ("omega", "theta", "vertices", "degree", "bidegree", "generators")
    }
    | {"edges": spec_edges | json_values},
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


@settings(deadline=None, max_examples=300)
@given(specs | json_values)
def test_construction_spec_parser_raises_only_value_error(spec):
    parses_or_rejects(parse_construction_spec, spec)
