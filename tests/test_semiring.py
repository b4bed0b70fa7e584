import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgroups.pairsearch import _eigenvalue_zero
from tropgroups.semiring import (
    NEG_INF,
    Value,
    encode,
    eps,
    format_scalar,
    free_basis_check,
    is_finite,
    parse_scalar,
    trop_add,
    trop_mul,
    val,
)


def integer_relation_exists(vals, bound=10):
    """Brute-force oracle: search integer coefficients in [-bound, bound]
    for a vanishing nontrivial combination."""
    rng = range(-bound, bound + 1)
    zero = Value(0)
    for coeffs in itertools.product(rng, repeat=len(vals)):
        if all(c == 0 for c in coeffs):
            continue
        total = Value(0)
        for c, v in zip(coeffs, vals):
            total = total + v.mul_int(c)
        if total == zero:
            return True
    return False


# -- strategies --

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
values = st.builds(
    Value,
    rationals,
    st.dictionaries(st.integers(min_value=1, max_value=3), rationals, max_size=2),
)
scalars = st.one_of(st.just(NEG_INF), values)
# tags disjoint from those of ``values``
far_values = st.builds(
    Value,
    rationals,
    st.dictionaries(st.integers(min_value=10, max_value=12), rationals, max_size=2),
)


@settings(deadline=None, max_examples=300)
@given(values, values, scalars, st.lists(st.one_of(st.just(NEG_INF), far_values)))
def test_encode_is_an_order_and_product_preserving_bijection(x, y, z, far):
    """Codes compare like scalars, + and - on the packed ints are the
    product and its residual, and decode inverts encode, also for a second group with
    disjoint tags that shares the basis."""
    ((cx, cy, cz), cfar), decode = encode((x, y, z), far)
    assert (cx < cy) == (x < y) and (cx == cy) == (x == y)
    assert (cz is None) == (z is NEG_INF)
    if z is not NEG_INF:
        assert (cx < cz) == (x < z) and (cz < cy) == (z < y)
    assert decode(cx + cy) == x + y
    assert decode(cx - cy) == x - y
    assert decode(cz) == z and decode(None) is NEG_INF
    assert [decode(c) for c in cfar] == far
    ((cx, cy, cs, cd),), _ = encode((x, y, x + y, x - y))
    assert cx + cy == cs and cx - cy == cd



# wide scalars: large numerators and denominators, negative fields, up to
# four fields
wide_rationals = st.fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=97
)
wide_values = st.builds(
    Value,
    wide_rationals,
    st.dictionaries(st.integers(min_value=1, max_value=5), wide_rationals, max_size=3),
)


def _assert_same_order(pairs):
    """Codes and scalars sort alike: in code order, consecutive scalars
    are equal exactly where the codes are, and increase elsewhere."""
    pairs = sorted(pairs, key=lambda p: p[0])
    for (c1, v1), (c2, v2) in zip(pairs, pairs[1:]):
        assert (c1 == c2) == (v1 == v2)
        assert c1 == c2 or v1 < v2


@settings(deadline=None, max_examples=200)
@given(st.lists(wide_values, min_size=1, max_size=6), st.data())
def test_packed_codes_keep_the_longest_chains_of_sums_in_their_fields(pool, data):
    """The longest chains of sums the program forms on codes of one
    ``encode`` call, over scalars that include the largest field of the
    basis in both signs: a cycle sum S of n codes (``cycle_mean``), k*x - S
    with k <= n decoded in the refined basis (``_eigenvalue_zero``), a path
    of n - 1 negated steps (``_propagate`` in ``normalize_eigenvectors``)
    and the scalings nu = ea - eb - nu' of ``_PairSearch.push`` along
    2n points.  Each result decodes to the ``Value`` computed alongside,
    and the codes sort as those values do."""
    top = max(abs(c) for x in pool for c in (x.std, *dict(x.eps).values()))
    tags = sorted({t for x in pool for t, _ in x.eps}) or [1]
    pool = pool + [Value(top, {t: -top for t in tags}), Value(-top, {t: top for t in tags})]
    (codes,), decode = encode(pool)
    n = data.draw(st.integers(min_value=1, max_value=24), label="n")
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    pairs = list(zip(codes, pool))

    cycle = data.draw(st.lists(index, min_size=n, max_size=n), label="cycle")
    total, s = 0, Value(0)
    for i in cycle:
        total, s = total + codes[i], s + pool[i]
    assert decode(total) == s
    pairs.append((total, s))

    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    part, p = sum(codes[i] for i in cycle[:k]), sum((pool[i] for i in cycle[:k]), Value(0))
    j = data.draw(index, label="x")
    assert decode.refined(k)(k * codes[j] - part) == pool[j] - p.div_int(k)
    pairs.append((k * codes[j] - part, pool[j].mul_int(k) - p))

    w, u = 0, Value(0)
    for i in data.draw(st.lists(index, min_size=n - 1, max_size=n - 1), label="path"):
        w, u = w + -codes[i], u - pool[i]
        pairs.append((w, u))
    assert decode(-w) == -u

    nu, v = 0, Value(0)
    for a, b in data.draw(st.lists(st.tuples(index, index), max_size=2 * n), label="push"):
        nu, v = codes[a] - codes[b] - nu, pool[a] - pool[b] - v
        pairs.append((nu, v))
    assert decode(nu) == v
    _assert_same_order(pairs)


def test_divisibility_is_tested_per_field():
    """A code whose packed int a divisor k divides, though a field of it
    is not a multiple of k, decodes to the exact quotient: fields (1, 2)
    and k = 3.  The field width depends on the largest field of the call,
    so a second scalar is chosen to make 3 divide the packed int.  The
    shift to eigenvalue 0 of a 3-cycle of that scaling sum asks each
    field, so it moves to the refined basis."""
    x = Value(1, {1: 2})
    for extra in range(1, 9):
        (codes,), decode = encode([x, Value(extra)])
        if codes[0] % 3 == 0:
            break
    else:
        pytest.fail("no field width made 3 divide the packed (1, 2)")
    third = Value(Fraction(1, 3), {1: Fraction(2, 3)})
    assert decode.refined(3)(codes[0]) == third
    assert decode(codes[0]) is x
    basis, (lam,) = _eigenvalue_zero(decode, (1, 2, 0), (codes[0], 0, 0))
    assert basis is decode.refined(3)
    assert list(map(basis, lam)) == [x - third, -third, -third]


@settings(deadline=None, max_examples=200)
@given(st.lists(wide_values, min_size=1, max_size=6), st.data())
def test_refined_basis_divides_the_longest_chains_of_sums(pool, data):
    """``basis.refined(k)`` reads the code k*x - S as x - S/k and S as
    ``Value.div_int(S, k)``, for S a sum of up to 24 codes over scalars
    that include the largest field of the basis in both signs and any
    k <= n: the longest chains the shift to eigenvalue 0 forms."""
    top = max(abs(c) for x in pool for c in (x.std, *dict(x.eps).values()))
    tags = sorted({t for x in pool for t, _ in x.eps}) or [1]
    pool = pool + [Value(top, {t: -top for t in tags}), Value(-top, {t: top for t in tags})]
    (codes,), basis = encode(pool)
    n = data.draw(st.integers(min_value=1, max_value=24), label="n")
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    chain = data.draw(st.lists(index, min_size=n, max_size=n), label="chain")
    total, s = sum(codes[i] for i in chain), sum((pool[i] for i in chain), Value(0))
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    j = data.draw(index, label="x")
    refined = basis.refined(k)
    assert refined(k * codes[j] - total) == pool[j] - s.div_int(k)
    assert refined(total) == s.div_int(k)


def test_refined_bases_are_built_once_per_divisor():
    """``refined(k)`` is one basis per k, ``refined(1)`` is the basis
    itself, and a refinement keeps the tags and width but not the key."""
    (_,), basis = encode([Value(1, {2: Fraction(1, 3)}), Value(-2, {5: 1})])
    assert basis.refined(1) is basis
    third = basis.refined(3)
    assert basis.refined(3) is third and third.refined(1) is third
    assert (third.den, third.pos, third.shift) == (3 * basis.den, basis.pos, basis.shift)
    assert third.key != basis.key and basis.refined(2).key not in (basis.key, third.key)

def test_trop_add_examples():
    assert trop_add(NEG_INF, val(3)) == val(3)
    a = val("1/2")
    b = val("1/2") + eps(1)
    assert trop_add(a, b) == b
    assert trop_add(val(0), val(1)) == val(1)


def test_trop_mul_examples():
    assert trop_mul(NEG_INF, val(5)) is NEG_INF
    x = val(7) + eps(2)
    assert trop_mul(val(0), x) == x
    a = val(1) + eps(1)
    b = val(-1) + eps(2)
    prod = trop_mul(a, b)
    assert prod == eps(1) + eps(2)
    assert prod.std == 0


def test_free_basis_examples():
    assert free_basis_check([val(1), eps(1), eps(2)]) is True
    assert free_basis_check([val("1/2"), val("1/3")]) is False
    triple = [val(-1) + eps(1), val(-1) + eps(2), val(-1) + eps(3)]
    assert free_basis_check(triple) is True


def test_free_basis_agrees_with_integer_relation_oracle():
    cases = [
        [val(1), eps(1), eps(2)],
        [val("1/2"), val("1/3")],
        [val(-1) + eps(1), val(-1) + eps(2), val(-1) + eps(3)],
        [val(2), val(3)],
        [val(1), val(2), val(3)],
        [eps(1), eps(1, 2)],
        [val("1/5") + eps(1), val("2/5") + eps(1, 2)],
        [val(1)],
        [Value(0)],
        [val(3) + eps(2), eps(2), val(3)],
    ]
    for vals in cases:
        assert free_basis_check(vals) == (not integer_relation_exists(vals))


def _rank_standard_first(vals):
    """The rank over the rationals of the (standard, infinitesimal-coordinate)
    vectors of the values, by Gaussian elimination in that column order."""
    tags = sorted({t for v in vals for t, _ in v.eps})
    rows = [[v.std, *(dict(v.eps).get(t, Fraction(0)) for t in tags)] for v in vals]
    rank = 0
    for col in range(1 + len(tags)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# few tags and small integer fields, so that dependent families are common
dense_values = st.builds(
    Value,
    st.integers(-2, 2),
    st.dictionaries(st.integers(min_value=1, max_value=3), st.integers(-2, 2), max_size=3),
)
# a standard part and a fresh tag each, as the witness constructions place them
placed_families = st.lists(rationals, max_size=8).map(
    lambda stds: [val(q) + eps(k) for k, q in enumerate(stds, 1)]
)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.lists(dense_values, max_size=6), placed_families), st.lists(dense_values, max_size=2))
def test_free_basis_agrees_with_elimination_standard_part_first(family, extra):
    """``free_basis_check`` gives the answer of elimination with the
    standard part in the first column, on dense families and on fresh-tag
    families with or without a few more values."""
    vals = family + extra
    assert free_basis_check(vals) == (_rank_standard_first(vals) == len(vals))


# five tags; few values per field, so that equal standard parts and equal
# leading coefficients are common
five_tag_values = st.builds(
    Value,
    st.one_of(st.sampled_from([-1, 0, Fraction(1, 2), 1]), rationals),
    st.dictionaries(st.integers(min_value=1, max_value=5), st.integers(-2, 2), max_size=5),
)


@settings(deadline=None, max_examples=500)
@given(five_tag_values, five_tag_values)
def test_cmp_is_the_lexicographic_order(a, b):
    """``Value._cmp`` is the order of the keys (standard part, then the
    coefficients by ascending tag, an absent tag counting 0)."""
    tags = sorted({t for t, _ in a.eps + b.eps})

    def key(v):
        coeffs = dict(v.eps)
        return (v.std, *(coeffs.get(t, 0) for t in tags))

    assert a._cmp(b) == (key(a) > key(b)) - (key(a) < key(b))


def test_value_div_int_examples():
    assert val(6).div_int(2) == val(3)
    a = val(-1) + eps(1)
    b = val(-1) + eps(2)
    half = (a + b).div_int(2)
    assert half == val(-1) + eps(1, Fraction(1, 2)) + eps(2, Fraction(1, 2))
    assert val(0).div_int(5) == val(0)
    with pytest.raises(ValueError):
        val(1).div_int(0)


def test_order_lexicographic():
    assert NEG_INF < val(-1000)
    assert val(0) < eps(1)
    assert eps(1, -1) < Value(0) < eps(1)
    assert eps(2) < eps(1)  # earlier tag dominates
    assert val(1) + eps(5, -100) > val(0) + eps(1, 100)
    assert not (val(1) < val(1))


@given(scalars, scalars, scalars)
def test_semiring_laws(a, b, c):
    assert trop_add(a, b) == trop_add(b, a)
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
    assert trop_mul(a, b) == trop_mul(b, a)
    assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))
    assert trop_add(a, NEG_INF) == a
    assert trop_mul(a, NEG_INF) is NEG_INF


@given(values, values, values)
def test_order_is_translation_invariant(a, b, c):
    if a < b:
        assert trop_mul(a, c) < trop_mul(b, c)


@given(scalars, scalars)
def test_order_total(a, b):
    assert (a == b) or (a < b) or (b < a)


@given(scalars)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_examples():
    assert parse_scalar("-inf") is NEG_INF
    assert parse_scalar("-1+e3") == val(-1) + eps(3)
    assert parse_scalar("9/10-2e1+e2") == val("9/10") + eps(1, -2) + eps(2)
    assert parse_scalar("e1") == eps(1)
    assert parse_scalar("-e2") == eps(2, -1)
    assert parse_scalar("1/2e3") == eps(3, Fraction(1, 2))
    assert parse_scalar("0") == Value(0)
    with pytest.raises(ValueError):
        parse_scalar("1 2")
    with pytest.raises(ValueError):
        parse_scalar("oops")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_format_examples():
    assert format_scalar(NEG_INF) == "-inf"
    assert format_scalar(val(-1) + eps(3)) == "-1+e3"
    assert format_scalar(eps(1)) == "e1"
    assert format_scalar(eps(1, -1)) == "-e1"
    assert format_scalar(Value(0)) == "0"
    assert format_scalar(val("9/10") + eps(1, -2) + eps(2)) == "9/10-2e1+e2"


def test_values_are_immutable_and_hashable():
    a = val(1) + eps(1)
    with pytest.raises(AttributeError):
        a.std = Fraction(2)
    assert len({a, val(1) + eps(1), NEG_INF}) == 2
    assert is_finite(a) and not is_finite(NEG_INF)


def test_abs_and_canonical_eps():
    assert abs(val(-3) + eps(1)) == val(3) + eps(1, -1)
    assert (eps(1) - eps(1)) == Value(0)
    assert (eps(1) - eps(1)).eps == ()
