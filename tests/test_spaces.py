import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropgroups.matrix import TropMatrix
from tropgroups.semiring import NEG_INF, encode, eps, trop_add, trop_mul, val
from tropgroups.spaces import (
    ZeroMatrix,
    _extremal_indices,
    col_space_equal,
    column_rank,
    h_related,
    has_full_rank,
    member,
    reduce_full_rank,
    row_rank,
    row_space_equal,
)

from helpers import SECTION4, brute_force_member, ref_apply


def random_matrix(rng, n, m, lo=-2, hi=2, p_inf=0.3):
    return TropMatrix.from_rows(
        [
            [NEG_INF if rng.random() < p_inf else rng.randint(lo, hi) for _ in range(m)]
            for _ in range(n)
        ]
    )


def test_member_own_column():
    rng = random.Random(2)
    for _ in range(20):
        a = random_matrix(rng, 3, 3)
        for j in range(3):
            col = a.col(j)
            if all(x is NEG_INF for x in col):
                continue
            w = member(col, a)
            assert w is not None
            assert ref_apply(a, w.coefficients) == col


def test_member_grid_example():
    a = TropMatrix.from_rows([[0, -1], [-1, 0]])
    x = (val(0), val(0))
    w = member(x, a)
    assert w is not None and w.coefficients == (val(0), val(0))
    # independent grid-search oracle over integer coefficients in [-3, 3]
    grid = [val(k) for k in range(-3, 4)] + [NEG_INF]
    assert brute_force_member(x, a, candidates=grid) is not None


def test_member_negative_example():
    a = TropMatrix.from_rows([[0], [0]])
    assert member((val(0), NEG_INF), a) is None
    b = TropMatrix.from_rows([[0, 0], [NEG_INF, 0]])
    w = member((val(1), val(0)), b)
    assert w is not None and w.coefficients == (val(1), val(0))


def test_member_matches_oracle_on_random_instances():
    rng = random.Random(42)
    for _ in range(120):
        a = random_matrix(rng, 3, 3)
        if rng.random() < 0.5:
            coeffs = [
                NEG_INF if rng.random() < 0.3 else val(rng.randint(-2, 2))
                for _ in range(3)
            ]
            x = ref_apply(a, coeffs)
        else:
            x = tuple(
                NEG_INF if rng.random() < 0.3 else val(rng.randint(-2, 2))
                for _ in range(3)
            )
        ours = member(x, a)
        oracle = brute_force_member(x, a)
        assert (ours is not None) == (oracle is not None)
        if ours is not None:
            assert ref_apply(a, ours.coefficients) == tuple(x)


def test_col_space_equal_examples():
    rng = random.Random(9)
    a = random_matrix(rng, 3, 3, p_inf=0.2)
    permuted = TropMatrix([[row[j] for j in (2, 0, 1)] for row in a.entries])
    scaled = TropMatrix([[NEG_INF if x is NEG_INF else x + val(5) for x in row] for row in a.entries])
    assert col_space_equal(a, permuted)
    assert col_space_equal(a, scaled)
    assert not col_space_equal(
        TropMatrix.identity(2), TropMatrix.from_rows([[0, 0], [NEG_INF, 0]])
    )
    extra = TropMatrix([list(row) + [row[0]] for row in a.entries])
    assert col_space_equal(a, extra)


def test_space_equalities_are_equivalences():
    rng = random.Random(13)
    mats = [random_matrix(rng, 2, 2) for _ in range(6)]
    mats = [m for m in mats if not m.all_neg_inf()]
    for m in mats:
        assert col_space_equal(m, m) and row_space_equal(m, m)
    for x, y, z in itertools.product(mats, repeat=3):
        if col_space_equal(x, y):
            assert col_space_equal(y, x)
            if col_space_equal(y, z):
                assert col_space_equal(x, z)


def test_h_related_examples():
    assert h_related(SECTION4, SECTION4)
    assert not h_related(TropMatrix.identity(2), TropMatrix.from_rows([[0, 0], [NEG_INF, 0]]))
    assert not h_related(TropMatrix.identity(2), TropMatrix.identity(3))


def test_ranks_examples():
    for n in (1, 2, 4):
        assert column_rank(TropMatrix.identity(n)) == n
        assert row_rank(TropMatrix.identity(n)) == n
    assert column_rank(SECTION4) == 3
    assert row_rank(SECTION4) == 3
    flat = TropMatrix.from_rows([[0, 0], [0, 0]])
    assert column_rank(flat) == 1
    assert row_rank(flat) == 1


def test_reduce_full_rank_examples():
    z, rows, cols = reduce_full_rank(SECTION4)
    assert rows == [0, 1, 2]
    assert cols == [0, 1, 2]
    assert z == TropMatrix.from_rows(
        [[0, 0, NEG_INF], [NEG_INF, 1, NEG_INF], [NEG_INF, NEG_INF, 1]]
    )
    flat = TropMatrix.from_rows([[0, 0], [0, 0]])
    z2, _, _ = reduce_full_rank(flat)
    assert z2 == TropMatrix.from_rows([[0]])
    full = TropMatrix.from_rows([[0, -1], [-1, 0]])
    z3, r3, c3 = reduce_full_rank(full)
    assert z3 == full and r3 == [0, 1] and c3 == [0, 1]
    with pytest.raises(ZeroMatrix):
        reduce_full_rank(TropMatrix.from_rows([[NEG_INF, NEG_INF]]))


def test_reduce_full_rank_output_has_full_rank():
    rng = random.Random(21)
    checked = 0
    for _ in range(60):
        a = random_matrix(rng, 3, 4)
        if a.all_neg_inf():
            continue
        z, _, _ = reduce_full_rank(a)
        assert has_full_rank(z)
        checked += 1
    assert checked > 40


def _reference_extremal(vecs):
    """The earliest index of each class of vectors with equal -inf support
    and a constant difference, all -inf vectors skipped, kept iff ``member``
    puts it outside the span of the other classes' earliest vectors."""
    def scaled(u, v):
        if [x is NEG_INF for x in u] != [y is NEG_INF for y in v]:
            return False
        return len({x - y for x, y in zip(u, v) if x is not NEG_INF}) == 1

    reps = []
    for idx, v in enumerate(vecs):
        if any(x is not NEG_INF for x in v) and not any(scaled(v, vecs[r]) for r in reps):
            reps.append(idx)
    kept = []
    for r in reps:
        others = [vecs[o] for o in reps if o != r]
        if not others or member(vecs[r], TropMatrix.from_rows(zip(*others))) is None:
            kept.append(r)
    return kept


entries = st.one_of(
    st.just(NEG_INF),
    st.integers(-3, 3).map(val),
    st.builds(lambda s, c: val(s) + eps(1, c), st.integers(-2, 2), st.integers(-1, 1)),
)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4), st.data())
def test_extremal_indices_are_the_earliest_of_each_scaling_class_outside_the_rest(n, data):
    """``_extremal_indices`` agrees with the pairwise definition on families
    that hold scaled copies, max-combinations and all -inf vectors, put in
    at drawn places."""
    vecs = data.draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(0, 5))):
        kind = data.draw(st.sampled_from(["scaled", "max", "zero"]))
        if kind == "zero":
            new = (NEG_INF,) * n
        else:
            c = val(data.draw(st.integers(-3, 3)))
            new = tuple(trop_mul(c, x) for x in data.draw(st.sampled_from(vecs)))
            if kind == "max":
                d = val(data.draw(st.integers(-3, 3)))
                other = data.draw(st.sampled_from(vecs))
                new = tuple(trop_add(x, trop_mul(d, y)) for x, y in zip(new, other))
        vecs.insert(data.draw(st.integers(0, len(vecs))), new)
    codes, _ = encode(*vecs)
    assert _extremal_indices(codes) == _reference_extremal(vecs)
