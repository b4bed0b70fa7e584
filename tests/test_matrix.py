import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import alt4_squared
from tropgroups.matrix import (
    MonomialMatrix,
    MultipleEigenvalues,
    NoIdempotentPower,
    NotMonomial,
    TropMatrix,
    idempotent_power,
    is_idempotent,
    mat_mul,
    monomial_eigenvalue,
    parse_matrix,
    parse_matrix_text,
)
from tropgroups.semiring import NEG_INF, Value, eps, val

A_VAL = val(-1) + eps(1)
B_VAL = val(-1) + eps(2)


def erratum_e():
    return TropMatrix.from_rows([[0, A_VAL], [B_VAL, 0]])


def erratum_p():
    return TropMatrix.from_rows([[NEG_INF, A_VAL], [B_VAL, NEG_INF]])


def random_matrix(rng, n, m, lo=-2, hi=2, p_inf=0.25):
    return TropMatrix.from_rows(
        [
            [
                NEG_INF if rng.random() < p_inf else rng.randint(lo, hi)
                for _ in range(m)
            ]
            for _ in range(n)
        ]
    )


def test_identity_acts_trivially():
    rng = random.Random(7)
    a = random_matrix(rng, 3, 4)
    assert mat_mul(TropMatrix.identity(3), a) == a
    assert mat_mul(a, TropMatrix.identity(4)) == a


def test_pe_equals_ep_on_commuting_example():
    e, p = erratum_e(), erratum_p()
    ab = A_VAL + B_VAL
    expected = TropMatrix.from_rows([[ab, A_VAL], [B_VAL, ab]])
    assert mat_mul(p, e) == expected
    assert mat_mul(e, p) == expected


def test_mat_mul_column_example():
    a = TropMatrix.from_rows([[0, 0], [NEG_INF, 1]])
    x = TropMatrix.from_rows([[0], [-1]])
    assert mat_mul(a, x) == TropMatrix.from_rows([[0], [0]])


def test_mat_mul_shape_check():
    a = TropMatrix.identity(2)
    b = TropMatrix.identity(3)
    with pytest.raises(ValueError):
        mat_mul(a, b)


def test_mat_mul_associative_on_random_triples():
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 2)
        c = random_matrix(rng, 2, 4)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_monomial_round_trip_and_structure():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        sigma = list(range(n))
        rng.shuffle(sigma)
        p = MonomialMatrix(sigma, tuple(val(rng.randint(-3, 3)) for _ in range(n)))
        assert MonomialMatrix.from_trop_matrix(p.expand()) == p
        a = random_matrix(rng, n, 3)
        assert p.left_apply(a) == mat_mul(p.expand(), a)
        b = random_matrix(rng, 3, n)
        assert p.right_apply(b) == mat_mul(b, p.expand())
        q = MonomialMatrix(
            [(i + 1) % n for i in range(n)],
            tuple(val(rng.randint(-3, 3)) for _ in range(n)),
        )
        assert (p @ q).expand() == mat_mul(p.expand(), q.expand())


def test_monomial_action_is_structural():
    # P @ A permutes and scales rows; A @ P permutes and scales columns
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        sigma = list(range(n))
        rng.shuffle(sigma)
        p = MonomialMatrix(sigma, tuple(val(rng.randint(-3, 3)) for _ in range(n)))
        a = random_matrix(rng, n, 3)
        pa = p.left_apply(a)
        for i in range(n):
            assert pa.row(i) == tuple(
                NEG_INF if x is NEG_INF else p.scalings[i] + x
                for x in a.row(sigma[i])
            )
        b = random_matrix(rng, 3, n)
        bp = p.right_apply(b)
        for i in range(n):
            assert bp.col(sigma[i]) == tuple(
                NEG_INF if x is NEG_INF else p.scalings[i] + x for x in b.col(i)
            )


def test_from_trop_matrix_rejects_non_monomial():
    with pytest.raises(NotMonomial):
        MonomialMatrix.from_trop_matrix(TropMatrix.from_rows([[0, 0], [NEG_INF, 0]]))
    with pytest.raises(NotMonomial):
        MonomialMatrix.from_trop_matrix(TropMatrix.from_rows([[0, NEG_INF, NEG_INF]]))


def test_monomial_invert_examples():
    i3 = MonomialMatrix.identity(3)
    assert i3.invert() == i3
    lam = val(4)
    d = MonomialMatrix((0, 1), (lam, lam))
    assert d.invert() == MonomialMatrix((0, 1), (-lam, -lam))
    p = MonomialMatrix.from_trop_matrix(erratum_p())
    pinv = p.invert()
    assert pinv.expand() == TropMatrix.from_rows([[NEG_INF, -B_VAL], [-A_VAL, NEG_INF]])
    assert (p @ pinv) == MonomialMatrix.identity(2)
    assert (pinv @ p) == MonomialMatrix.identity(2)


def test_monomial_eigenvalue_examples():
    lam = val(3)
    scaled_i = MonomialMatrix((0, 1, 2), (lam, lam, lam))
    assert monomial_eigenvalue(scaled_i) == lam
    p = MonomialMatrix.from_trop_matrix(erratum_p())
    assert monomial_eigenvalue(p) == (A_VAL + B_VAL).div_int(2)
    perm = MonomialMatrix((1, 2, 0), (Value(0),) * 3)
    assert monomial_eigenvalue(perm) == Value(0)
    diag = MonomialMatrix((0, 1), (val(1), val(2)))
    with pytest.raises(MultipleEigenvalues):
        monomial_eigenvalue(diag)


def test_monomial_eigenvalue_of_inverse_negates():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        sigma = list(range(n))
        rng.shuffle(sigma)
        p = MonomialMatrix(sigma, tuple(val(rng.randint(-3, 3)) for _ in range(n)))
        try:
            ev = monomial_eigenvalue(p)
        except MultipleEigenvalues:
            continue
        assert monomial_eigenvalue(p.invert()) == -ev


def test_idempotent_power_examples():
    e = TropMatrix.from_rows([[0, A_VAL], [A_VAL, 0]])
    assert is_idempotent(e)
    assert idempotent_power(e) == e
    for m in (1, 2, 5):
        t = TropMatrix.from_rows([[0, 0], [-m, 0]])
        assert idempotent_power(t) == t
    t = TropMatrix.from_rows([[0, 0], [NEG_INF, 0]])
    assert idempotent_power(t) == t
    grows = TropMatrix.from_rows([[0, 1], [1, 0]])
    assert not is_idempotent(grows)
    with pytest.raises(NoIdempotentPower):
        idempotent_power(grows, max_squarings=8)


def test_is_idempotent_on_codes_matches_the_product(monkeypatch):
    """is_idempotent agrees with E @ E == E by the reference product on
    seeded matrices, idempotent powers among them, and it builds no
    matrix and decodes no code."""
    from tropgroups import matrix

    from helpers import ref_mat_mul

    rng = random.Random(5)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 4)
        pool = [NEG_INF, Value(0), val(-1), val(-2) + eps(1), val(1), A_VAL]
        a = TropMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        cases.append(a)
        try:
            cases.append(idempotent_power(a, max_squarings=6))
        except NoIdempotentPower:
            pass
    expected = [ref_mat_mul(a, a) == a for a in cases]
    assert 10 < sum(expected) < len(cases) - 10

    encode = matrix.encode

    def no_decode(*groups):
        codes, _decode = encode(*groups)

        def decode(*args):
            raise AssertionError("a code was decoded")

        return codes, decode

    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(matrix, "encode", no_decode)
    monkeypatch.setattr(matrix, "mat_mul", no_matrix)
    monkeypatch.setattr(TropMatrix, "__init__", no_matrix)
    assert [is_idempotent(a) for a in cases] == expected


def test_idempotent_power_reaches_kleene_star():
    # diagonal zero, nonpositive cycles: powers stabilise at the star
    a = TropMatrix.from_rows([[0, -1, NEG_INF], [NEG_INF, 0, -1], [-1, NEG_INF, 0]])
    star = idempotent_power(a)
    assert is_idempotent(star)
    assert star == TropMatrix.from_rows([[0, -1, -2], [-2, 0, -1], [-1, -2, 0]])


def test_text_round_trip():
    e = erratum_e()
    assert parse_matrix_text(e.to_text()) == e
    text = """
    # comment line
    0 -1+e1   # trailing comment
    -inf 9/10-2e1+e2
    """
    m = parse_matrix(text)
    assert m[0, 1] == A_VAL
    assert m[1, 0] is NEG_INF
    assert m[1, 1] == val("9/10") + eps(1, -2) + eps(2)


def test_json_round_trip():
    e = erratum_e()
    import json

    again = parse_matrix(json.dumps(e.to_json_dict()))
    assert again == e


def test_equal_tokens_share_one_scalar():
    text = parse_matrix("1+e2 -inf 0\n0 1+e2 -inf\n-inf 1/2 1+e2")
    assert text[0, 0] is text[1, 1] is text[2, 2]
    assert text[0, 2] is text[1, 0]
    assert text[0, 1] is text[1, 2] is text[2, 0] is NEG_INF
    as_json = parse_matrix('{"entries": [["1+e2", 0, "1/2"], [0, "1+e2", "1/2"]]}')
    assert as_json[0, 0] is as_json[1, 1]
    assert as_json[0, 1] is as_json[1, 0]
    assert as_json[0, 2] is as_json[1, 2]
    assert as_json[0, 0] is not text[0, 0]  # nothing is shared between calls
    built = TropMatrix.from_rows([[1, "1", A_VAL], [Fraction(1), A_VAL, 1]])
    assert built[0, 0] is built[1, 2] is built[1, 0]
    assert built[0, 2] is A_VAL  # a scalar passes through as it is


def test_scalar_fields_runs_once_per_distinct_token(monkeypatch):
    """``encode`` keys its entries by value, so parsing a matrix reads each
    distinct token once, however often the token occurs, and encoding the
    parsed scalars reads each distinct scalar once."""
    from tropgroups import semiring

    m = alt4_squared()
    text = m.to_text()
    tokens = {tok for line in text.splitlines() for tok in line.split()}
    read = []
    fields = semiring.scalar_fields

    def counted(x):
        read.append(x)
        return fields(x)

    monkeypatch.setattr(semiring, "scalar_fields", counted)
    again = parse_matrix(text)
    assert again == m
    assert sorted(read) == sorted(tokens) and len(tokens) == 5
    read.clear()
    semiring.encode(*again.entries)
    assert len(read) == len(set(read)) == 5


@given(st.integers(min_value=1, max_value=4))
def test_identity_is_monomial(n):
    m = MonomialMatrix.identity(n)
    assert m.expand() == TropMatrix.identity(n)
    assert monomial_eigenvalue(m) == Value(0)
