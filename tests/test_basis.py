"""Matrices hold codes over a basis: derived matrices share it, and two
bases meet only through one joint encode.

Property tests mix matrices parsed separately (bases of equal keys, or of
different keys when the text is scaled) and check every operation that
combines two of them against the reference oracles on scalars.  A chain of
squarings checks that products re-encode: their entries outgrow any basis
they could inherit.  Counting tests pin how often a request encodes."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_f, ref_col_space_equal, ref_mat_mul, ref_member
from tropgroups import cli, matrix, spaces
from tropgroups.constructors import construct_idempotent
from tropgroups.matrix import (
    MonomialMatrix,
    NoIdempotentPower,
    TropMatrix,
    idempotent_power,
    mat_mul,
    parse_matrix,
)
from tropgroups.pairsearch import pair_solutions
from tropgroups.permgroups import PermGroup
from tropgroups.semiring import NEG_INF, Basis, Value, eps
from tropgroups.spaces import col_space_equal, h_related, member

rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
values = st.builds(
    Value, rationals, st.dictionaries(st.integers(min_value=1, max_value=3), rationals, max_size=1)
)
scalars = st.one_of(st.just(NEG_INF), values, values)


@st.composite
def matrices(draw, rows=None, cols=None):
    n = rows or draw(st.integers(min_value=1, max_value=3))
    m = cols or draw(st.integers(min_value=1, max_value=3))
    return TropMatrix([[draw(scalars) for _ in range(m)] for _ in range(n)])


def _fresh(a):
    """The same values in a matrix that holds scalars only."""
    return TropMatrix(a.entries)


def _ref_h_related(a, b):
    return (
        a.shape == b.shape
        and ref_col_space_equal(a, b)
        and ref_col_space_equal(a.transpose(), b.transpose())
    )


@settings(deadline=None, max_examples=150)
@given(matrices(), st.data())
def test_separately_parsed_matrices_combine_by_value(a, data):
    """Each operation on two matrices parsed from separate texts (equal
    text: equal keys; scaled or unrelated text: different keys) agrees
    with the reference on scalars, and leaves both matrices equal to
    their values."""
    kind = data.draw(st.sampled_from(["equal", "scaled", "other"]), label="kind")
    if kind == "equal":
        b = parse_matrix(a.to_text())
    elif kind == "scaled":
        b = parse_matrix(a.scale(data.draw(values, label="lam")).to_text())
    else:
        b = parse_matrix(data.draw(matrices(*a.shape), label="b").to_text())
    a = parse_matrix(a.to_text())
    ra, rb = _fresh(a), _fresh(b)
    if kind == "equal":
        assert a.basis.key == b.basis.key

    assert (a == b) == (ra.entries == rb.entries)
    if a == b:
        assert hash(a) == hash(b) == hash(ra)
    assert mat_mul(a, b.transpose()) == ref_mat_mul(ra, rb.transpose())
    assert col_space_equal(a, b) == ref_col_space_equal(ra, rb)
    assert h_related(a, b) == _ref_h_related(ra, rb)
    for j in range(b.ncols):
        found = member(b.col(j), a)
        expected = ref_member(rb.col(j), ra)
        assert (found is None) == (expected is None)
        assert found is None or found.coefficients == expected
    assert a == ra and b == rb and hash(a) == hash(ra) and hash(b) == hash(rb)


@settings(deadline=None, max_examples=20)
@given(matrices(2, 2), values)
def test_squarings_outgrow_any_basis_they_could_inherit(a, top):
    """Seventy squarings of a matrix with a positive diagonal entry: its
    entries grow 2^70-fold, past the 64 spare bits of the first basis, and
    still equal the reference powers, because each product re-encodes.
    ``idempotent_power`` gives up after as many squarings."""
    a = TropMatrix([[abs(top) + Value(1), a[0, 1]], [a[1, 0], a[1, 1]]])
    b, ref = a, _fresh(a)
    for _ in range(70):
        b, ref = mat_mul(b, b), ref_mat_mul(ref, ref)
        assert b == ref
    assert b[0, 0].std > 2**64
    with pytest.raises(NoIdempotentPower):
        idempotent_power(a, max_squarings=70)


def test_scaled_copies_hash_apart():
    """Scalar multiples of one matrix hold the same order pattern of codes
    but not the same values, so they hash apart, and so do units that
    differ by a constant scaling."""
    a = parse_matrix("0 -inf 1/2\n2+e1 0 -1")
    copies = [a.scale(Value(k)) for k in range(20)] + [a.scale(eps(1, k)) for k in range(1, 20)]
    assert len({hash(x) for x in copies}) == len(copies)
    units = [MonomialMatrix((1, 0), (Value(k), Value(k + 1))) for k in range(20)]
    assert len({hash(p) for p in units}) == len(units)


def test_pair_solutions_carry_their_units():
    """Each solution (sigma, tau, lam, mu) keeps the unit pair it reads.
    For a constructed witness the shift to eigenvalue 0 divides, and the
    units share the matrix's basis; for some generators of F it does not,
    and their units are over a refinement of that basis."""
    witness = construct_idempotent(PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"]))
    for a, shares in ((witness, True), (matrix_f(), False)):
        sols = pair_solutions(a, a) + pair_solutions(a, a, first_only=True)
        assert len(sols) > 1
        for sol in sols:
            p, q = sol.units
            assert (p, q) == (MonomialMatrix(sol[0], sol[2]), MonomialMatrix(sol[1], sol[3]))
        shared = [p.basis is a.basis for sol in sols[:-1] for p in sol.units]
        assert all(shared) if shares else not all(shared)
        for sol in sols:
            for p in sol.units:
                assert p.basis is a.basis.refined(p.basis.den // a.basis.den)


def test_every_construction_path_sets_codes_and_basis(monkeypatch):
    """Every way to build a matrix or a unit sets its ``codes`` and
    ``basis`` as it builds: reading them, or decoding the entries from
    them, encodes nothing afterwards."""
    a = TropMatrix([[Value(1), NEG_INF], [eps(1), Value(Fraction(1, 2))]])
    built = [
        a,
        TropMatrix.from_rows([[1, "-inf"], ["e1", Fraction(1, 2)]]),
        parse_matrix("1 -inf\ne1 1/2"),
        parse_matrix('{"entries": [["1", "-inf"], ["e1", "1/2"]]}'),
        TropMatrix._derived(a.codes, a.basis),
        mat_mul(a, a),
        MonomialMatrix((1, 0), [Value(1), eps(2)]),
        MonomialMatrix.identity(3),
        MonomialMatrix._derived((1, 0), a.codes[1][::-1], a.basis),
    ]

    def encode(*groups):
        raise AssertionError("a read encoded")

    monkeypatch.setattr(matrix, "encode", encode)
    for m in built:
        row = getattr(m, "_row", m)
        assert isinstance(row.basis, Basis) and len(row.codes) == row.nrows
        assert row.entries == tuple(tuple(map(row.basis, r)) for r in row.codes)
    assert built[0] == built[1] == built[2] == built[3] == built[4]


def _encodes(monkeypatch, argv):
    """The numbers of ``encode`` calls one CLI request makes outside
    parsing and in it (under ``parse_matrix``)."""
    calls = []
    encode = matrix.encode

    def counted(*groups):
        frame, parsing = sys._getframe(1), False
        while frame is not None:
            parsing |= frame.f_code.co_name == "parse_matrix"
            frame = frame.f_back
        calls.append(parsing)
        return encode(*groups)

    for module in (matrix, spaces):
        monkeypatch.setattr(module, "encode", counted)
    assert cli.main(argv) == 0
    return calls.count(False), calls.count(True)


def test_a_request_encodes_once_per_built_matrix_and_class(tmp_path, capsys, monkeypatch):
    """verify of F parses two matrices (the input and its text round trip),
    one encode each, and analyses one class, whose shifts to eigenvalue 0
    do not divide in the input's basis: one encode of its generators'
    scalings, which are over refinements of that basis and which U and V
    share, and one joint encode where verify meets the class with U and V.
    A 'degree' construct encodes its witness matrix once, and its one
    class shares that basis.  approximate encodes the substituted matrix
    and each square it needs, not the last square, which equals its
    input: F's substituted matrix is idempotent, and that of G, whose
    third row holds a 1 off the diagonal, needs one square."""
    f = tmp_path / "f.txt"
    f.write_text(matrix_f().to_text() + "\n")
    assert _encodes(monkeypatch, ["analyze", str(f), "--json"]) == (1, 1)
    assert _encodes(monkeypatch, ["verify", str(f), "--json"]) == (2, 2)
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"degree": 4, "generators": ["(1,2,3,4)", "(1,3)"]}))
    assert _encodes(monkeypatch, ["construct", str(spec), "--json"]) == (1, 0)
    assert _encodes(monkeypatch, ["approximate", str(f), "2", "--json"]) == (1, 1)
    g = tmp_path / "g.txt"
    g.write_text("0 -inf -inf\n-inf 0 -inf\n-inf 1 0\n")
    assert _encodes(monkeypatch, ["approximate", str(g), "1", "--json"]) == (2, 1)
    capsys.readouterr()
