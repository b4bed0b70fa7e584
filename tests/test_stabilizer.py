import hashlib
import itertools
import math
import random

import pytest

from helpers import (
    A_VAL,
    B_VAL,
    SECTION4,
    alt4_columns,
    alt4_squared,
    matrix_e,
    matrix_f,
    ref_monomial_eigenvalue,
    unit_p,
    unit_q,
)
from tropgroups.constructors import alt4_column_matrix, assemble_blocks, construct_idempotent
from tropgroups.matrix import MonomialMatrix, TropMatrix, monomial_eigenvalue
from tropgroups.pairsearch import NotConnected, _pair_profiles, pair_solutions
from tropgroups.permgroups import PermGroup, groups_isomorphic
from tropgroups.semiring import NEG_INF, Value, eps, format_scalar, val
from tropgroups.spaces import h_related, has_full_rank, reduce_full_rank
from tropgroups.stabilizer import (
    GroupDescription,
    NotFullRank,
    NotIdempotent,
    analyze_matrix,
    classification_conditions,
    commuting_units,
    group_description,
    make_factor,
    maximal_subgroup,
    normalize_eigenvectors,
    stabilizer_pairs,
    StabilizerElement,
)
from tropgroups.permgroups import PairedPermGroup, Perm


def brute_force_sigma(a):
    """Independent oracle for all-finite square-free... all-finite n x m
    matrices: try every pattern pair, solve the scaling constraints by
    elimination from fixed anchors, verify every equation, then shift to
    eigenvalue 0."""
    n, m = a.shape
    out = set()
    for sigma in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(m)):
            lam = [a.entries[i][0] - a.entries[sigma[i]][tau[0]] for i in range(n)]
            mu = [
                lam[0] + a.entries[sigma[0]][tau[j]] - a.entries[0][j]
                for j in range(m)
            ]
            ok = all(
                lam[i] + a.entries[sigma[i]][tau[j]] == a.entries[i][j] + mu[j]
                for i in range(n)
                for j in range(m)
            )
            if not ok:
                continue
            ev = ref_monomial_eigenvalue(MonomialMatrix(sigma, lam))
            out.add(
                (
                    sigma,
                    tau,
                    tuple(x - ev for x in lam),
                    tuple(x - ev for x in mu),
                )
            )
    return out


def elements_as_tuples(elements):
    return {
        (el.P.sigma, el.Q.sigma, el.P.scalings, el.Q.scalings) for el in elements
    }


def random_full_rank(rng, n, m):
    # all-finite rectangular matrices cannot have full column rank beyond
    # the row count, so the oracle sticks to square shapes
    for _ in range(10_000):
        a = TropMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        )
        if has_full_rank(a):
            return a
    raise AssertionError("no full-rank sample found")


def test_stabilizer_identity2():
    sigma = stabilizer_pairs(TropMatrix.identity(2))
    assert len(sigma) == 2
    patterns = {el.P.sigma for el in sigma}
    assert patterns == {(0, 1), (1, 0)}
    zero = Value(0)
    for el in sigma:
        assert all(s == zero for s in el.P.scalings)
        assert el.P == el.Q


def test_stabilizer_erratum_e():
    e = matrix_e()
    sigma = stabilizer_pairs(e)
    assert len(sigma) == 2
    half = (A_VAL - B_VAL).div_int(2)
    expected = MonomialMatrix((1, 0), (half, -half))
    nontrivial = next(el for el in sigma if el.P.sigma == (1, 0))
    assert nontrivial.P == expected
    assert nontrivial.Q == expected


def test_stabilizer_erratum_f():
    f = matrix_f()
    sigma = stabilizer_pairs(f)
    assert len(sigma) == 8
    q = unit_q()
    ev = monomial_eigenvalue(q)
    q_norm = MonomialMatrix(q.sigma, tuple(x - ev for x in q.scalings))
    assert any(el.P == q_norm for el in sigma)
    group = PermGroup(4, [Perm(el.P.sigma) for el in sigma])
    d4 = PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"])
    assert group.order() == 8
    assert groups_isomorphic(group, d4)


def test_pair_equation_and_h_class_invariants():
    for a in (matrix_e(), matrix_f(), TropMatrix.identity(3)):
        for el in stabilizer_pairs(a):
            assert el.P.left_apply(a) == el.Q.right_apply(a)
            assert h_related(el.P.left_apply(a), a)
            assert monomial_eigenvalue(el.P) == Value(0)
            assert monomial_eigenvalue(el.Q) == Value(0)


def test_sigma_is_a_group_with_position_agreement():
    for a in (matrix_e(), matrix_f()):
        sigma = stabilizer_pairs(a)
        ps = {el.P for el in sigma}
        for x in ps:
            assert x.invert() in ps
            for y in ps:
                prod = x @ y
                ev = monomial_eigenvalue(prod)
                assert ev == Value(0)
                assert prod in ps
        for x in ps:
            for y in ps:
                for i in range(x.degree):
                    if x.sigma[i] == y.sigma[i]:
                        assert x.scalings[i] == y.scalings[i]


def test_stabilizer_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(12):
        n, m = rng.choice([(2, 2), (3, 3)])
        a = random_full_rank(rng, n, m)
        assert elements_as_tuples(stabilizer_pairs(a)) == brute_force_sigma(a)


def test_stabilizer_patterns_match_bipartite_automorphisms():
    # independent route: after eigenvector normalisation the stabilizer
    # patterns are exactly the colour-preserving pair permutations of the
    # finite-entry graph, which a separate search engine computes
    from tropgroups.components import bipartite_graph, connected_components
    from tropgroups.permgroups import coloured_bipartite_automorphisms

    rng = random.Random(5)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 4)
        rows = [
            [
                Value(0)
                if i == j
                else (NEG_INF if rng.random() < 0.3 else val(rng.randint(-2, 2)))
                for j in range(n)
            ]
            for i in range(n)
        ]
        a = TropMatrix(rows)
        if not has_full_rank(a) or len(connected_components(a)) != 1:
            continue
        checked += 1
        sigma = stabilizer_pairs(a)
        _, _, b = normalize_eigenvectors(a, sigma)
        aut = coloured_bipartite_automorphisms(bipartite_graph(b))
        patterns = {(el.P.sigma, el.Q.sigma) for el in sigma}
        assert len(sigma) == aut.order()
        assert patterns == {
            (g.images, h.images) for g, h in aut.elements()
        }


def _relabelled(rng, a):
    rows, cols = list(range(a.nrows)), list(range(a.ncols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return a.submatrix(rows, cols)


# the sha256 of the formatted list below, as the listing that assembled
# each element block by block from the class witnesses and recovered each
# Q by a column scan returned it
DISCONNECTED_SIGMA_SHA256 = "d7fee2a2e03ad0c009f07087f73edcc1c328c1ec0c4bfec354b2d8d434daabff"


def test_disconnected_sigma_is_pinned():
    """Sigma of seeded relabellings of block assemblies: every element is
    a stabilizer pair of eigenvalue 0, the order is the product over
    classes of |Sigma_alpha|^h_alpha * h_alpha!, and the elements, their
    order and their scalings are pinned."""
    s3 = construct_idempotent(PermGroup.from_cycles(3, ["(1,2,3)", "(1,2)"]))
    d4 = construct_idempotent(PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"]))
    cases = [
        ([(s3, 2), (d4, 1)], [(6, 2), (8, 1)]),
        ([(matrix_e(), 2), (matrix_f(), 1)], [(2, 2), (8, 1)]),
        ([(alt4_columns(), 2)], [(12, 2)]),
        ([(reduce_full_rank(SECTION4)[0], 1)], [(1, 1), (1, 1)]),
        ([(TropMatrix.identity(4), 1)], [(1, 4)]),
    ]
    rng, digest = random.Random(29), hashlib.sha256()
    for blocks, classes in cases:
        a = _relabelled(rng, assemble_blocks(blocks, NEG_INF))
        sigma = stabilizer_pairs(a)
        assert len(sigma) == math.prod(g**h * math.factorial(h) for g, h in classes)
        for el in sigma:
            assert el.P.left_apply(a) == el.Q.right_apply(a)
            assert el.eigenvalue == Value(0) == monomial_eigenvalue(el.P)
            formatted = [el.P.sigma, el.Q.sigma]
            formatted += [list(map(format_scalar, u.scalings)) for u in (el.P, el.Q)]
            digest.update(repr(formatted).encode())
    assert digest.hexdigest() == DISCONNECTED_SIGMA_SHA256


def test_stabilizer_requires_full_rank():
    with pytest.raises(NotFullRank):
        stabilizer_pairs(TropMatrix.from_rows([[0, 0], [0, 0]]))


def test_assembled_stabilizer_above_the_listing_cap():
    """Ten isomorphic one-point components assemble S_10, of order 10!,
    more elements than the default budget of 2*10^6 nodes may list."""
    from tropgroups.errors import SearchBudgetExceeded

    with pytest.raises(SearchBudgetExceeded, match="group listing exceeded"):
        stabilizer_pairs(TropMatrix.identity(10))


def test_commutation_search_does_not_recurse():
    """The 30 units commuting with the C_30 idempotent are found with the
    recursion limit 25 frames above the caller: the search keeps its rows
    on an explicit stack."""
    import sys

    from tropgroups.pairsearch import commuting_solutions

    cycle = "(" + ",".join(str(i) for i in range(1, 31)) + ")"
    e = construct_idempotent(PermGroup.from_cycles(30, [cycle]))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        solutions = commuting_solutions(e)
    finally:
        sys.setrecursionlimit(limit)
    assert len(solutions) == 30


def _random_commuting_idempotent(rng, n, tag):
    """A connected full-rank idempotent on n points with units commuting
    with it: the Kleene star of a matrix with zero diagonal, constant on
    the orbits of a random permutation on the ordered pairs, each orbit
    -inf or a negative fraction plus an infinitesimal term (every cycle is
    negative, so the star has independent columns), conjugated by a
    diagonal of fractions with infinitesimal terms.  Tags from ``tag``."""
    from fractions import Fraction

    from tropgroups.components import connected_components
    from tropgroups.matrix import idempotent_power

    def scalar(lo, hi):
        nonlocal tag
        tag += 1
        return val(Fraction(rng.randint(lo, hi), rng.randint(1, 3))) + eps(tag, rng.choice([-1, 1]))

    while True:
        g = rng.sample(range(n), n)
        rows = [[val(0) if i == j else None for j in range(n)] for i in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            x = NEG_INF if rng.random() < 0.4 else scalar(-6, -1)
            a, b = i, j
            while rows[a][b] is None:  # the orbit of (i, j) under g
                rows[a][b], a, b = x, g[a], g[b]
        star = idempotent_power(TropMatrix.from_rows(rows))
        d = [scalar(-3, 3) for _ in range(n)]
        e = TropMatrix.from_rows(
            [[x if x is NEG_INF else d[i] + x - d[j] for j, x in enumerate(row)]
             for i, row in enumerate(star.entries)]
        )
        if len(connected_components(e)) == 1:
            assert has_full_rank(e)
            return e, tag


def brute_force_commuting(e):
    """Every (sigma, lam) with P @ E = E @ P, over all n! patterns: lam is
    solved from the equation lam_i + E[sigma(i)][sigma(j)] = E[i][j] +
    lam_j outward from lam_0 = 0, the product checked on scalars, and lam
    shifted to eigenvalue 0."""
    n, rows = e.nrows, e.entries
    out = set()
    for sigma in itertools.permutations(range(n)):
        lam = [val(0)] + [None] * (n - 1)
        for _ in range(n):
            for i, j in itertools.product(range(n), repeat=2):
                a, b = rows[i][j], rows[sigma[i]][sigma[j]]
                if a is NEG_INF or b is NEG_INF:
                    continue
                if lam[i] is None and lam[j] is not None:
                    lam[i] = a + lam[j] - b
                elif lam[j] is None and lam[i] is not None:
                    lam[j] = lam[i] + b - a
        if any(x is None for x in lam):  # some finite entry maps to -inf
            continue
        p = MonomialMatrix(sigma, lam)
        if p.left_apply(e) == p.right_apply(e):
            ev = monomial_eigenvalue(p)
            out.add((sigma, tuple(x - ev for x in lam)))
    return out


def test_commuting_solutions_match_brute_force():
    """The commutation search finds every unit commuting with seeded
    connected full-rank idempotents of up to five points, with -inf
    entries, fractions and infinitesimal terms, sorted by pattern."""
    from tropgroups.pairsearch import commuting_solutions

    rng, tag, units = random.Random(20), 0, 0
    for k in range(40):
        e, tag = _random_commuting_idempotent(rng, 1 + k % 5, tag)
        solutions = commuting_solutions(e)
        assert set(solutions) == brute_force_commuting(e)
        assert [s for s, _ in solutions] == sorted(s for s, _ in solutions)
        units += len(solutions)
    assert units > 80


def test_commuting_units_examples():
    e = matrix_e()
    stab = stabilizer_pairs(e)
    comm = commuting_units(e)
    assert {el.P for el in comm} == {el.P for el in stab}
    p = unit_p()
    ev = monomial_eigenvalue(p)
    p_norm = MonomialMatrix(p.sigma, tuple(x - ev for x in p.scalings))
    assert any(el.P == p_norm for el in comm)
    # commuting exactly: P @ E = E @ P for the printed unit
    assert p.left_apply(e) == p.right_apply(e)

    f = matrix_f()
    q = unit_q()
    assert q.left_apply(f) == q.right_apply(f)
    comm_f = commuting_units(f)
    assert {el.P for el in comm_f} == {el.P for el in stabilizer_pairs(f)}
    with pytest.raises(NotIdempotent):
        commuting_units(TropMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(NotConnected):
        commuting_units(TropMatrix.identity(2))


def test_normalize_eigenvectors_erratum_e():
    e = matrix_e()
    u, v, b = normalize_eigenvectors(e)
    mean = (A_VAL + B_VAL).div_int(2)
    assert b == TropMatrix.from_rows([[Value(0), mean], [mean, Value(0)]])
    sigma_b = stabilizer_pairs(b)
    zero = Value(0)
    assert {el.P.sigma for el in sigma_b} == {(0, 1), (1, 0)}
    for el in sigma_b:
        assert all(s == zero for s in el.P.scalings)


def test_normalize_eigenvectors_from_generators_or_elements():
    """Generators of Sigma give the same normalisation as all of Sigma."""
    a, b, c, d = (val(i) + eps(i + 1) for i in range(1, 5))
    m = alt4_column_matrix(a, b, c, d)
    block16 = assemble_blocks([(m, 1), (m.transpose(), 1)], Value(0))
    for matrix in (matrix_e(), matrix_f(), reduce_full_rank(block16)[0]):
        an = analyze_matrix(matrix)
        assert an.reduced == matrix and len(an.normalisations) == 1
        gens = [StabilizerElement(*sol.units, Value(0)) for sol in pair_solutions(matrix, matrix)]
        elements = stabilizer_pairs(matrix)
        assert len(gens) < len(elements)
        assert normalize_eigenvectors(matrix, gens) == normalize_eigenvectors(
            matrix, elements
        )
        assert an.normalisations[0] == normalize_eigenvectors(matrix)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 21])
def test_symmetric_group_witnesses(n, monkeypatch):
    """The witness idempotent of S_n has Sigma of order n!, found from
    generators without listing the group, and it meets the classification
    conditions; the order 10! lies above the default order cap, and 21
    points lie above any vertex count the searches once had to stay in."""
    from tropgroups import permgroups

    def no_listing(*args):
        raise AssertionError("a group was listed")

    cycle = "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"
    with monkeypatch.context() as m:
        m.setattr(permgroups, "_span", no_listing)
        e = construct_idempotent(PermGroup.from_cycles(n, [cycle, "(1,2)"]))
        desc = group_description(e)
        assert classification_conditions(desc, n, n)
    assert [f.order for f in desc.factors] == [math.factorial(n)]
    assert desc.formula() == f"(R x S{n})"
    assert len(pair_solutions(e, e)) < n * n
    if n <= 5:
        assert len(stabilizer_pairs(e)) == math.factorial(n)


@pytest.mark.parametrize(
    "build, order, max_pushes", [(alt4_columns, 12, 78), (alt4_squared, 144, 182)]
)
def test_sigma_search_skips_images_already_reached(build, order, max_pushes, monkeypatch):
    """The generators of Sigma span its pattern group, and the search tries
    no image of a base point that they already reach: without that the
    search makes 318 and 805 pushes on these two matrices."""
    from tropgroups import pairsearch

    pushes = []
    push = pairsearch._PairSearch.push

    def counted(self, point, image):
        pushes.append(point)
        return push(self, point, image)

    monkeypatch.setattr(pairsearch._PairSearch, "push", counted)
    a = build()
    n = a.nrows
    gens = [
        Perm(sigma + tuple(n + j for j in tau)) for sigma, tau, _, _ in pair_solutions(a, a)
    ]
    assert PermGroup(n + a.ncols, gens).order() == order
    assert len(pushes) <= max_pushes


def test_pair_solutions_generators_need_equal_matrices():
    f = matrix_f()
    other = TropMatrix([f.entries[1], f.entries[0], *f.entries[2:]])
    assert len(pair_solutions(other, f, first_only=True)) == 1
    with pytest.raises(ValueError):
        pair_solutions(other, f)


def _profile(u, v):
    """The pair profile by its definition: the counts of entries finite
    only in u and only in v, and the multiset of the differences u - v
    where both are finite, shifted to least element 0."""
    both = [(a, b) for a, b in zip(u, v) if a is not None and b is not None]
    diffs = sorted(a - b for a, b in both)
    only_u = sum(a is not None for a in u) - len(both)
    only_v = sum(b is not None for b in v) - len(both)
    return only_u, only_v, tuple(d - diffs[0] for d in diffs)


def test_pair_profiles_name_the_multiset_classes():
    """Two ordered pairs of vectors get one profile id exactly when their
    profiles by definition agree, across two sets of vectors that share
    the id table; a disjoint pair and a pair with one common entry, with
    equal one-sided counts, get two ids."""
    rng = random.Random(11)
    disjoint = [(0, None, None), (None, 0, None)]
    one_common = [(0, None, 5), (None, 0, 5)]
    for _ in range(40):
        length = rng.randint(1, 6)
        sets = [
            [
                tuple(None if rng.random() < 0.4 else rng.randrange(-2, 3) for _ in range(length))
                for _ in range(rng.randint(1, 6))
            ]
            for _ in range(2)
        ]
        sets.append(disjoint + one_common if length == 3 else [])
        intern: dict = {}
        named = {}
        for vectors in sets:
            ids = _pair_profiles(vectors, intern)
            for x, y in itertools.permutations(range(len(vectors)), 2):
                named.setdefault(ids[x][y], set()).add(_profile(vectors[x], vectors[y]))
            assert all(ids[x][x] == -1 for x in range(len(vectors)))
        assert all(len(profiles) == 1 for profiles in named.values())
        assert len(named) == len({p for profiles in named.values() for p in profiles})
    ids = _pair_profiles(disjoint + one_common, {})
    assert ids[0][1] != ids[2][3]


@pytest.mark.parametrize(
    "rows",
    [
        [[0, "-inf"], ["-inf", 0]],
        [[0, 1], [2, 3], ["-inf", "-inf"]],
        [[0, "-inf", 1], [2, "-inf", 3]],
    ],
    ids=["two-blocks", "empty-row", "empty-column"],
)
def test_disconnected_supports_raise_not_connected(rows):
    """A disconnected support, or an all--inf row or column, makes the
    pair search (one matrix, or a target and a distinct source) and the
    eigenvector units (with or without elements) raise NotConnected."""
    a = TropMatrix.from_rows(rows)
    other = TropMatrix([a.entries[-1], *a.entries[:-1]])
    assert other != a
    n, m = a.shape
    ident = StabilizerElement(MonomialMatrix.identity(n), MonomialMatrix.identity(m), Value(0))
    for call in (
        lambda: pair_solutions(a, a),
        lambda: pair_solutions(a, other, first_only=True),
        lambda: normalize_eigenvectors(a),
        lambda: normalize_eigenvectors(a, [ident]),
    ):
        with pytest.raises(NotConnected):
            call()


def test_normalize_eigenvectors_trivial_cases():
    one = TropMatrix.from_rows([[5]])
    u, v, b = normalize_eigenvectors(one)
    assert b == one
    perm_stable = TropMatrix.from_rows([[0, -1], [-1, 0]])
    u, v, b = normalize_eigenvectors(perm_stable)
    assert u == MonomialMatrix.identity(2)
    assert v == MonomialMatrix.identity(2)
    assert b == perm_stable


def test_group_description_section4():
    desc = group_description(SECTION4)
    assert len(desc.factors) == 2
    assert [(f.order, f.degree, f.multiplicity) for f in desc.factors] == [
        (1, 2, 1),
        (1, 1, 1),
    ]
    assert desc.formula() == "R x R"
    assert desc.r_rank == 2
    assert classification_conditions(desc, 3, 4)


def test_group_description_identity():
    desc = group_description(TropMatrix.identity(3))
    assert len(desc.factors) == 1
    f = desc.factors[0]
    assert (f.order, f.degree, f.multiplicity) == (1, 1, 3)
    assert desc.formula() == "R wr S_3"
    assert desc.finite_order == 6
    assert classification_conditions(desc, 3, 3)


def test_maximal_subgroup_examples():
    desc = maximal_subgroup(TropMatrix.identity(4))
    assert desc.formula() == "R wr S_4"
    e_desc = maximal_subgroup(matrix_e())
    assert len(e_desc.factors) == 1
    assert e_desc.factors[0].order == 2
    assert e_desc.factors[0].name == "S2"
    assert e_desc.formula() == "(R x S2)"
    f_desc = maximal_subgroup(matrix_f())
    assert f_desc.factors[0].order == 8
    assert f_desc.factors[0].name == "D4"
    assert f_desc.formula() == "(R x D4)"
    with pytest.raises(NotIdempotent):
        maximal_subgroup(TropMatrix.from_rows([[0, 1], [1, 0]]))


def test_group_descriptions_satisfy_classification_conditions():
    for a, (n, m) in [
        (SECTION4, (3, 4)),
        (TropMatrix.identity(3), (3, 3)),
        (matrix_e(), (2, 2)),
        (matrix_f(), (4, 4)),
    ]:
        assert classification_conditions(group_description(a), n, m)


def _trivial_factor(n, mult):
    return make_factor(PairedPermGroup((n, n), []), mult)


def test_classification_conditions_synthetic():
    ok = GroupDescription((_trivial_factor(1, 2),))
    assert classification_conditions(ok, 2, 2)
    two_singles = GroupDescription((_trivial_factor(1, 1), _trivial_factor(1, 1)))
    assert not classification_conditions(two_singles, 4, 4)
    three_small = GroupDescription(
        (_trivial_factor(2, 1), _trivial_factor(2, 1), _trivial_factor(2, 1))
    )
    assert not classification_conditions(three_small, 10, 10)
    too_big = GroupDescription((_trivial_factor(3, 2),))
    assert not classification_conditions(too_big, 5, 10)
    assert classification_conditions(too_big, 6, 6)


def test_analysis_closes_each_class_once(monkeypatch):
    """The Sims table of the Sigma generators gives each factor its order,
    its faithfulness and its reported generators: neither the description
    nor the classification conditions list Sigma or close the factor."""
    from tropgroups import permgroups

    calls = []
    span = permgroups._span
    monkeypatch.setattr(permgroups, "_span", lambda *a: calls.append(a) or span(*a))
    e = construct_idempotent(PermGroup.from_cycles(5, ["(1,2,3,4,5)", "(1,2)"]))
    for a in (matrix_f(), SECTION4, e):
        desc = group_description(a)
        assert classification_conditions(desc, *a.shape)
    assert calls == []
