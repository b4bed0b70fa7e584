"""The int code kernel against plain scalar references.

Random matrices mix -inf, fractions with several denominators and
several infinitesimal tags, drawn from a small pool per case so that
equal entries, equal differences and ties in the principal solution
occur.  ``mat_mul``, ``member``, ``col_space_equal``, the first pair
solution and the eigenvalue shift of a unit run on codes; the references
in ``helpers`` run on ``Value``.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    ref_apply,
    ref_col_space_equal,
    ref_mat_mul,
    ref_member,
    ref_monomial_eigenvalue,
    ref_pair_solvable,
)
from tropgroups.graphs import support_components
from tropgroups.matrix import (
    MonomialMatrix,
    MultipleEigenvalues,
    TropMatrix,
    mat_mul,
    monomial_eigenvalue,
)
from tropgroups.pairsearch import _eigenvalue_zero, cycle_mean, pair_solutions
from tropgroups.semiring import NEG_INF, ZERO, Value, encode
from tropgroups.spaces import col_space_equal, member


def scalar_pool(rng, k):
    pool = []
    for _ in range(k):
        std = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 30]))
        tags = rng.sample(range(1, 9), rng.randint(0, 3))
        coeffs = {t: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for t in tags}
        pool.append(Value(std, coeffs))
    return pool


def random_vector(rng, k, pool, p_inf=0.25):
    return [NEG_INF if rng.random() < p_inf else rng.choice(pool) for _ in range(k)]


def random_matrix(rng, n, m, pool, p_inf=0.25):
    return TropMatrix([random_vector(rng, m, pool, p_inf) for _ in range(n)])


def connected(a):
    support = [[x is not NEG_INF for x in row] for row in a.entries]
    return len(support_components(support)) == 1


def relabelled(rng, a, pool):
    """A copy of a with permuted rows and columns, each row and column
    shifted by a scalar of the pool: a pair solution exists."""
    n, m = a.shape
    sigma, tau = rng.sample(range(n), n), rng.sample(range(m), m)
    lam, mu = rng.choices(pool, k=n), rng.choices(pool, k=m)
    rows = [[NEG_INF] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            x = a.entries[i][j]
            rows[sigma[i]][tau[j]] = NEG_INF if x is NEG_INF else x - lam[i] + mu[j]
    return TropMatrix(rows)


def test_mat_mul_member_and_col_space_match_references():
    rng = random.Random(31)
    members = spans = 0
    for case in range(300):
        n, m, k = rng.choice([(2, 3, 2), (3, 3, 3), (3, 4, 2), (4, 3, 4)])
        pool = scalar_pool(rng, 5)
        a, b = random_matrix(rng, n, m, pool), random_matrix(rng, m, k, pool)
        assert mat_mul(a, b) == ref_mat_mul(a, b)

        if case % 2:
            x = ref_apply(a, random_vector(rng, m, pool, 0.2))
        else:
            x = tuple(random_vector(rng, n, pool, 0.2))
        ours, ref = member(x, a), ref_member(x, a)
        assert (ours is None) == (ref is None)
        if ours is not None:
            members += 1
            assert ours.coefficients == ref

        if case % 3 == 0:
            # the same columns, permuted and scaled, plus one in their span
            cols = [
                [NEG_INF if y is NEG_INF else y + s for y in a.col(j)]
                for j, s in zip(rng.sample(range(m), m), rng.choices(pool, k=m))
            ]
            cols.append(list(ref_apply(a, rng.choices(pool, k=m))))
            c = TropMatrix([list(row) for row in zip(*cols)])
        else:
            c = random_matrix(rng, n, rng.randint(1, 4), pool)
        same = col_space_equal(a, c)
        assert same == ref_col_space_equal(a, c)
        spans += same
    # both outcomes of membership and of equality were exercised
    assert 0 < members < 300 and 0 < spans < 300


def test_first_pair_solution_matches_reference():
    rng = random.Random(57)
    found = tried = 0
    while tried < 80:
        n, m = rng.choice([(2, 3), (3, 3), (3, 4)])
        pool = scalar_pool(rng, 4)
        target = random_matrix(rng, n, m, pool, p_inf=0.2)
        if not connected(target):
            continue
        tried += 1
        if tried % 2:
            source = relabelled(rng, target, pool)
        else:
            source = random_matrix(rng, n, m, pool, p_inf=0.2)
        sols = pair_solutions(target, source, first_only=True)
        assert bool(sols) == ref_pair_solvable(target, source)
        if sols:
            found += 1
            sigma, tau, lam, mu = sols[0]
            p = MonomialMatrix(sigma, lam).expand()
            q = MonomialMatrix(tau, mu).expand()
            assert ref_mat_mul(p, source) == ref_mat_mul(target, q)
    assert 40 <= found < 80


def unit_with_cycles(rng, lengths, pool):
    """A unit whose cycles have the given lengths, each with one mean, a
    scalar of the pool divided by 1 to 6, and the pattern's points
    shuffled."""
    points = rng.sample(range(sum(lengths)), sum(lengths))
    mean = rng.choice(pool).div_int(rng.randint(1, 6))
    sigma, lam = [0] * len(points), [ZERO] * len(points)
    start = 0
    for k in lengths:
        cycle = points[start : start + k]
        start += k
        rest = rng.choices(pool, k=k - 1)
        for i, x in zip(cycle, [*rest, mean.mul_int(k) - sum(rest, ZERO)]):
            lam[i] = x
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[i] = j
    return sigma, lam


def test_eigenvalue_shift_on_codes_matches_scalar_shift():
    """``_eigenvalue_zero`` and ``monomial_eigenvalue`` on codes against
    the cycle means of ``ref_monomial_eigenvalue`` and ``Value.__sub__``, for units with cycles of length 1 to 6 and tagged
    fractional scalings: the shifted unit and its mate agree, including
    where the cycle length does not divide k*x - S, equal scalars hash
    equal however they were built, and cycles of unequal means raise
    MultipleEigenvalues on codes as on scalars."""
    rng = random.Random(83)
    undivided = multiple = 0
    for _ in range(200):
        pool = scalar_pool(rng, 4)
        lengths = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        sigma, lam = unit_with_cycles(rng, lengths, pool)
        mu = rng.choices(pool, k=rng.randint(1, 6))
        (lam_codes, mu_codes), decode = encode(lam, mu)

        ev = ref_monomial_eigenvalue(MonomialMatrix(sigma, lam))
        assert monomial_eigenvalue(MonomialMatrix(sigma, lam)) == ev
        basis, codes = _eigenvalue_zero(decode, sigma, lam_codes, mu_codes)
        shifted = [tuple(map(basis, xs)) for xs in codes]
        expected = [tuple(x - ev for x in lam), tuple(x - ev for x in mu)]
        assert shifted == expected
        for ours, ref in zip(shifted[0] + shifted[1], expected[0] + expected[1]):
            assert hash(ours) == hash(ref)
        k, total = cycle_mean(sigma, lam_codes)
        before = undivided
        # per field, k * x - S is a multiple of k iff the field of S is:
        # the fields of S are D times the coordinates of its scalar
        den = lcm(*(c.denominator for y in lam + mu for c in (y.std, *dict(y.eps).values())))
        s = decode(total)
        undivided += any(den * c % k for c in (s.std, *dict(s.eps).values()))
        assert basis is (decode.refined(k) if undivided > before else decode)

        if len(lengths) > 1:
            multiple += 1
            i = rng.randrange(len(sigma))
            bad = lam[:i] + [lam[i] + Value(1)] + lam[i + 1 :]
            (bad_codes,), _ = encode(bad)
            assert ref_monomial_eigenvalue(MonomialMatrix(sigma, bad)) is None
            with pytest.raises(MultipleEigenvalues):
                monomial_eigenvalue(MonomialMatrix(sigma, bad))
            with pytest.raises(MultipleEigenvalues):
                cycle_mean(sigma, bad_codes)
    assert undivided > 10 and multiple > 20


def test_lazily_hashed_scalars_hash_equal_when_equal():
    """A scalar hashed before another equal one is built, or after, or
    never compared first: equal scalars hash equal either way."""
    x = Value(Fraction(1, 3), {2: Fraction(-1, 7)})
    h = hash(x)
    (codes,), decode = encode([x, Value(1)])
    # a 3-cycle of scaling sum 3x: the shift by x divides, so the codes stay
    # in the parent basis, and the mate's scaling 2x shifts to x's code
    basis, (_, (y,)) = _eigenvalue_zero(decode, (1, 2, 0), (3 * codes[0], 0, 0), (2 * codes[0],))
    z = Value(1, {2: Fraction(-3, 7)}).div_int(3)
    assert basis is decode and basis(y) is x  # divisible: the encoded scalar itself
    assert z == x and hash(z) == h
    w = decode.refined(3)(codes[0])
    assert w == x.div_int(3) and hash(x.div_int(3)) == hash(w)


def test_cycle_means_that_differ_are_named_by_cycle_not_by_code():
    """Two cycles of different means raise MultipleEigenvalues, and the
    message names each cycle by a point and its length: no packed code,
    nor a sum of codes, shows in the text."""
    lam = [Value(Fraction(1, 2), {1: 3}), Value(0, {2: Fraction(-5, 7)}), Value(3, {1: -1})]
    (codes,), _ = encode(lam)
    with pytest.raises(MultipleEigenvalues) as caught:
        cycle_mean((1, 0, 2), codes)
    text = str(caught.value)
    assert text == (
        "cycle means differ: the cycle through point 1 (length 2)"
        " vs the cycle through point 3 (length 1)"
    )
    for code in (*codes, codes[0] + codes[1]):
        assert str(code) not in text and str(-code) not in text
