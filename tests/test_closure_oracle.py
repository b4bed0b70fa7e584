"""The Sims table and the one group closure against sympy's permutation
groups and against each other.

sympy is a test-only oracle here: group orders of plain groups, of paired
groups (on the disjoint union of the two sides), and the element lists of
the brute-force isomorphism oracle.  (sympy's own ``is_isomorphic`` is not
used: it calls C12 and C3 x C4 non-isomorphic.)  The closure, which lists
the group, is the oracle of the table's orders, membership and paired
faithfulness.
"""

import itertools
import json
import random
import sys

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from helpers import automorphism_pushes
from tropgroups import cli, permgroups
from tropgroups.permgroups import (
    NotFaithful,
    PairedPermGroup,
    Perm,
    PermGroup,
    _greedy_generators,
    _sims_table,
    _span,
    format_cycles,
    groups_isomorphic,
    parse_cycles,
    search_budget,
)


def cyc(n):
    return Perm([(i + 1) % n for i in range(n)])


def on(degree, p):
    """p extended by fixed points to the given degree."""
    return Perm(list(p.images) + list(range(p.degree, degree)))


def refl(n):
    return Perm([(-i) % n for i in range(n)])


def symmetric(n):
    return [cyc(n), Perm([1, 0] + list(range(2, n)))]


def alternating(n):
    three = Perm([1, 2, 0] + list(range(3, n)))
    rest = cyc(n) if n % 2 else Perm([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return [three, rest]


def wreath(base, base_degree, top):
    """Imprimitive action of base wr top on len(top images) blocks."""
    k = top[0].degree
    degree = base_degree * k
    gens = [on(degree, g) for g in base]
    for t in top:
        gens.append(Perm([t(p // base_degree) * base_degree + p % base_degree for p in range(degree)]))
    return degree, gens


def direct(*groups):
    """Direct product acting on the disjoint union of the points."""
    degree = sum(d for d, _ in groups)
    gens, shift = [], 0
    for d, gs in groups:
        for g in gs:
            images = list(range(degree))
            for i in range(d):
                images[shift + i] = shift + g(i)
            gens.append(Perm(images))
        shift += d
    return degree, gens


def regular(elements, mul, gens):
    """The right regular action of a group given by a multiplication."""
    index = {e: k for k, e in enumerate(elements)}
    return len(elements), [Perm([index[mul(x, g)] for x in elements]) for g in gens]


def quaternion_mul(x, y):
    # units 0..3 are 1, i, j, k; elements are (sign, unit)
    table = {
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    (s, a), (t, b) = x, y
    if a == 0 or b == 0:
        return (s * t, a + b)
    if a == b:
        return (-s * t, 0)
    sign, unit = table[(a, b)]
    return (s * t * sign, unit)


Q8 = regular(
    [(s, u) for s in (1, -1) for u in range(4)], quaternion_mul, [(1, 1), (1, 2)]
)
C4_SEMI_C4 = regular(
    [(i, j) for i in range(4) for j in range(4)],
    lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4),
    [(1, 0), (0, 1)],
)
DIC3 = regular(
    [(i, j) for i in range(3) for j in range(4)],
    lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 3, (x[1] + y[1]) % 4),
    [(1, 0), (0, 1)],
)
ALT4_10PT = (
    10,
    [
        parse_cycles(c, 10)
        for c in ("(1,3,2)(5,10,7)(6,8,9)", "(1,4)(2,3)(6,10)(7,8)", "(1,3)(2,4)(5,9)(6,10)")
    ],
)

CATALOGUE = {
    "C5": (5, [cyc(5)]),
    "C7": (7, [cyc(7)]),
    "C12": (12, [cyc(12)]),
    "D5": (5, [cyc(5), refl(5)]),
    "D6": (6, [cyc(6), refl(6)]),
    "D8": (8, [cyc(8), refl(8)]),
    "S4": (4, symmetric(4)),
    "S5": (5, symmetric(5)),
    "S6": (6, symmetric(6)),
    "A4": (4, alternating(4)),
    "A5": (5, alternating(5)),
    "A6": (6, alternating(6)),
    "S2wrS3": wreath([cyc(2)], 2, symmetric(3)),
    "S3wrS2": wreath(symmetric(3), 3, [cyc(2)]),
    "C3wrC2": wreath([cyc(3)], 3, [cyc(2)]),
    "S2wrS4": wreath([cyc(2)], 2, symmetric(4)),
    "S4wrS2": wreath(symmetric(4), 4, [cyc(2)]),
    "S3xS3": direct((3, symmetric(3)), (3, symmetric(3))),
    "C3xC4": direct((3, [cyc(3)]), (4, [cyc(4)])),
    "A4xC3": direct((4, alternating(4)), (3, [cyc(3)])),
    "D4xS2": direct((4, [cyc(4), refl(4)]), (2, [cyc(2)])),
    "A4xA4": direct((4, alternating(4)), (4, alternating(4))),
    "A4on10": ALT4_10PT,
    "Q8": Q8,
    "Q8xC2": direct(Q8, (2, [cyc(2)])),
    "C4:C4": C4_SEMI_C4,
    "Dic3": DIC3,
}


def sympy_group(degree, gens):
    if not gens:
        return PermutationGroup([Permutation(list(range(degree)))])
    return PermutationGroup([Permutation(list(g.images)) for g in gens])


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_group_order_matches_sympy(name):
    degree, gens = CATALOGUE[name]
    assert PermGroup(degree, gens).order() == sympy_group(degree, gens).order()


def pairs_action(n, g):
    """The action of g on the 2-subsets of n points, listed in order."""
    subsets = list(itertools.combinations(range(n), 2))
    index = {s: k for k, s in enumerate(subsets)}
    return Perm([index[tuple(sorted((g(a), g(b))))] for a, b in subsets])


PAIRED = {
    "diagC4": (4, 4, [(cyc(4), cyc(4))]),
    "diagD4": (4, 4, [(g, g) for g in (cyc(4), refl(4))]),
    "diagC5": (5, 5, [(cyc(5), cyc(5))]),
    "S3regular": (3, 6, list(zip(symmetric(3), regular(
        list(itertools.permutations(range(3))),
        lambda x, y: tuple(y[i] for i in x),
        [tuple(g.images) for g in symmetric(3)],
    )[1]))),
    "A4pairs": (4, 6, [(g, pairs_action(4, g)) for g in alternating(4)]),
    "S4pairs": (4, 6, [(g, pairs_action(4, g)) for g in symmetric(4)]),
}


@pytest.mark.parametrize("name", sorted(PAIRED))
def test_paired_group_order_matches_sympy_on_the_disjoint_union(name):
    n, m, pairs = PAIRED[name]
    union = [Perm(list(g.images) + [n + y for y in h.images]) for g, h in pairs]
    paired = PairedPermGroup((n, m), pairs)
    assert paired.order() == sympy_group(n + m, union).order()
    assert len(paired.elements()) == paired.order()


def relabelled(degree, gens, shift):
    """The same group with its points renamed by i -> i * shift mod degree
    (shift prime to degree) and then reversed."""
    rename = [(degree - 1 - (i * shift) % degree) for i in range(degree)]
    inverse = [0] * degree
    for i, x in enumerate(rename):
        inverse[x] = i
    return [Perm([rename[g(inverse[x])] for x in range(degree)]) for g in gens]


def test_q8xc2_is_not_c4_semidirect_c4():
    """Same order, same element orders, both non-abelian: only the
    graph-of-a-bijection test can tell the two apart."""
    g, h = PermGroup(*CATALOGUE["Q8xC2"]), PermGroup(*CATALOGUE["C4:C4"])
    assert g.order() == h.order() == 16
    assert sorted(x.order() for x in g.elements()) == sorted(x.order() for x in h.elements())
    assert not sympy_group(*CATALOGUE["Q8xC2"]).is_abelian
    assert not sympy_group(*CATALOGUE["C4:C4"]).is_abelian
    assert not groups_isomorphic(g, h)
    assert not groups_isomorphic(h, g)


@pytest.mark.parametrize("name", ["Q8xC2", "C4:C4", "A4xA4", "S4", "Dic3", "D8", "A4on10"])
def test_each_group_is_isomorphic_to_a_relabelled_copy(name):
    degree, gens = CATALOGUE[name]
    shift = next(s for s in (5, 7, 11, 13) if degree % s)
    copy = PermGroup(degree, relabelled(degree, gens, shift))
    assert groups_isomorphic(PermGroup(degree, gens), copy)
    assert groups_isomorphic(copy, PermGroup(degree, gens))


def brute_force_isomorphic(g, h):
    """Oracle: try every image of G's generators among elements of H of the
    same order (as sympy lists them), extend along G's Cayley graph and
    keep the first map that is a consistent bijection."""
    (g_degree, g_gens), (h_degree, h_gens) = g, h
    G, H = sympy_group(g_degree, g_gens), sympy_group(h_degree, h_gens)
    if G.order() != H.order():
        return False
    gens = [tuple(x.images) for x in g_gens]
    h_elements = [tuple(x.array_form) for x in H.elements]

    def mul(x, y):  # x first, then y
        return tuple(y[i] for i in x)

    def order(x):
        k, y = 1, x
        while y != tuple(range(len(x))):
            k, y = k + 1, mul(y, x)
        return k

    choices = [[y for y in h_elements if order(y) == order(s)] for s in gens]
    for images in itertools.product(*choices):
        phi = {tuple(range(g_degree)): tuple(range(h_degree))}
        queue = list(phi)
        consistent = True
        for x in queue:
            for s, t in zip(gens, images):
                y, v = mul(x, s), mul(phi[x], t)
                if y not in phi:
                    phi[y] = v
                    queue.append(y)
                elif phi[y] != v:
                    consistent = False
            if not consistent:
                break
        if consistent and len(set(phi.values())) == len(phi) == G.order():
            return True
    return False


SMALL = ["C12", "D6", "A4", "Dic3", "Q8", "D4xS2", "Q8xC2", "C4:C4", "C3xC4", "D8"]


@pytest.mark.parametrize(
    "first, second",
    [
        (a, b)
        for a, b in itertools.combinations(SMALL, 2)
        if PermGroup(*CATALOGUE[a]).order() == PermGroup(*CATALOGUE[b]).order()
    ]
    # unequal orders: the orders alone decide
    + [("A4", "Q8")],
)
def test_isomorphism_matches_a_brute_force_oracle(first, second):
    g, h = CATALOGUE[first], CATALOGUE[second]
    expected = brute_force_isomorphic(g, h)
    assert groups_isomorphic(PermGroup(*g), PermGroup(*h)) == expected
    assert brute_force_isomorphic(g, g)


# equal orders, both non-abelian, told apart by how many elements have
# each order: G is not listed, so only the search can tell them apart now
HISTOGRAM_ONLY = {
    "S4/A4xC2": (CATALOGUE["S4"], direct((4, alternating(4)), (2, [cyc(2)]))),
    "S5/A5xC2": (CATALOGUE["S5"], direct((5, alternating(5)), (2, [cyc(2)]))),
}


@pytest.mark.parametrize("pair", sorted(HISTOGRAM_ONLY))
def test_pairs_the_element_orders_told_apart_match_the_oracle(pair):
    """Both directions agree with the brute-force oracle, each within
    5,000 nodes, listing H (at most 120 elements) included."""
    g, h = HISTOGRAM_ONLY[pair]
    G, H = sympy_group(*g), sympy_group(*h)
    assert G.order() == H.order() and not G.is_abelian and not H.is_abelian
    assert sorted(x.order() for x in G.elements) != sorted(x.order() for x in H.elements)
    for first, second in [(g, h), (h, g)]:
        with search_budget(5000):
            found = groups_isomorphic(PermGroup(*first), PermGroup(*second))
        assert not found and not brute_force_isomorphic(first, second)


# -- the Sims table --

LARGE = {
    "S8": (8, symmetric(8)),
    "A8": (8, alternating(8)),
    "S2wrS6": wreath([cyc(2)], 2, symmetric(6)),
    "S12": (12, symmetric(12)),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_orders_match_sympy_with_a_raised_cap(name):
    degree, gens = LARGE[name]
    expected = sympy_group(degree, gens).order()
    # no cap to raise any more: orders are counted whatever their size
    assert PermGroup(degree, gens).order() == expected


def s5_subgroups():
    """Every subgroup of S_5, each generated by a pair of elements (all of
    them are 2-generated), with its closure as a set."""
    elements = [tuple(p) for p in itertools.permutations(range(5))]
    ident = tuple(range(5))
    found = {}
    for a, b in itertools.combinations_with_replacement(elements, 2):
        span = frozenset(_span([a, b], ident))
        found.setdefault(span, (a, b))
    return found


def test_orders_and_membership_match_the_closure_on_every_subgroup_of_s5():
    subgroups = s5_subgroups()
    assert len(subgroups) == 156
    everything = [Perm(p) for p in itertools.permutations(range(5))]
    for span, pair in subgroups.items():
        g = PermGroup(5, [Perm(x) for x in pair])
        assert g.order() == len(span)
        members = {x for x in everything if g.contains(x)}
        assert members == PermGroup(5, g.generators).elements()
        assert {x.images for x in members} == span


def test_the_seeded_check_matches_the_closure_on_s5_and_the_catalogue(monkeypatch):
    """``is_two_closed``, whose search starts from the group it tests,
    agrees with the order of the 2-closure found by the search that tries
    every image, on every subgroup of S_5 and on the catalogue; 134 of the
    156 subgroups are 2-closed, found in under 1,000 automorphism pushes
    (3,048 when every image is searched)."""
    groups = [PermGroup(5, [Perm(x) for x in pair]) for pair in s5_subgroups().values()]
    closed = []
    pushes = automorphism_pushes(monkeypatch, lambda: closed.extend(map(permgroups.is_two_closed, groups)))
    assert sum(closed) == 134
    assert pushes < 1000
    groups += [PermGroup(degree, gens) for degree, gens in CATALOGUE.values()]
    for g in groups:
        reference = permgroups.coloured_automorphisms(permgroups.pair_orbit_colouring(g))
        assert permgroups.is_two_closed(g) == (g.order() == reference.order())


def test_the_closure_matches_a_brute_force_closure_on_every_subgroup_of_s5():
    """The 2-closure of each subgroup of S_5 is the set of the 120
    elements of S_5 that map every orbital (orbit on ordered pairs of
    points, the diagonal ones included) onto itself: the search finds its
    order and only generators inside it."""
    everything = list(itertools.permutations(range(5)))
    closed = 0
    for span, pair in s5_subgroups().items():
        orbital = {(i, j): frozenset((h[i], h[j]) for h in span) for i in range(5) for j in range(5)}
        brute = {p for p in everything if all((p[i], p[j]) in orbit for (i, j), orbit in orbital.items())}
        closure = permgroups.two_closure(PermGroup(5, [Perm(x) for x in pair]))
        assert closure.order() == len(brute)
        assert all(g.images in brute for g in closure.generators)
        closed += len(brute) == len(span)
    assert closed == 134


def _orbitals(points, gens):
    """Orbit id of each pair in ``points`` under the maps ``gens`` of
    pairs, found by relabelling until nothing changes."""
    ids = {x: k for k, x in enumerate(points)}
    changed = True
    while changed:
        changed = False
        for x in points:
            for g in gens:
                low = min(ids[x], ids[g(x)])
                if ids[x] != low or ids[g(x)] != low:
                    ids[x] = ids[g(x)] = low
                    changed = True
    return ids


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_the_closure_extends_the_group_and_keeps_its_orbitals(name):
    """The reported 2-closure lists g's generators first, every generator
    maps each orbital of g onto itself, and the generators' own Sims table
    has the closure's order."""
    degree, gens = CATALOGUE[name]
    g = PermGroup(degree, gens)
    closure = permgroups.two_closure(g)
    assert closure.generators[: len(g.generators)] == g.generators
    pairs = [(i, j) for i in range(degree) for j in range(degree)]
    ids = _orbitals(pairs, [lambda x, p=p: (p(x[0]), p(x[1])) for p in g.generators])
    for p in closure.generators:
        assert all(ids[(p(i), p(j))] == ids[(i, j)] for i, j in pairs)
    assert PermGroup(degree, closure.generators).order() == closure.order()


@pytest.mark.parametrize("name", sorted(PAIRED))
def test_the_paired_closure_extends_the_group_and_keeps_its_orbitals(name):
    """As for the plain closure, on the orbits of g on the product of its
    two sides."""
    n, m, pairs = PAIRED[name]
    g = PairedPermGroup((n, m), pairs)
    closure = permgroups.paired_two_closure(g)
    assert closure.generators[: len(g.generators)] == g.generators
    cells = [(i, j) for i in range(n) for j in range(m)]
    ids = _orbitals(cells, [lambda x, p=p, q=q: (p(x[0]), q(x[1])) for p, q in g.generators])
    for p, q in closure.generators:
        assert all(ids[(p(i), q(j))] == ids[(i, j)] for i, j in cells)
    assert PairedPermGroup((n, m), closure.generators).order() == closure.order()


@pytest.mark.parametrize("name", sorted(PAIRED))
def test_the_seeded_paired_check_matches_the_paired_closure(name, monkeypatch):
    """``is_paired_two_closed`` agrees with the order of the paired
    2-closure found by the search that tries every image, on the paired
    catalogue, for the group as given and for its ``greedy()`` copy, which
    hands on its Sims table: the check builds no second table, and a fresh
    table of the same group gives the same order, membership and greedy
    sequence."""
    n, m, pairs = PAIRED[name]
    g = PairedPermGroup((n, m), pairs)
    reference = permgroups.coloured_bipartite_automorphisms(permgroups.paired_orbit_colouring(g))
    expected = g.order() == reference.order()
    assert permgroups.is_paired_two_closed(g) == expected
    greedy = g.greedy()
    tables = []
    build = permgroups._sims_table
    monkeypatch.setattr(permgroups, "_sims_table", lambda *a: tables.append(a) or build(*a))
    assert permgroups.is_paired_two_closed(greedy) == expected
    assert tables == []
    handed = greedy.joint._sims()
    assert handed is g.joint._sims()
    fresh = build([x.images for x in greedy.joint.generators], n + m)
    assert [len(row) for row in fresh] == [len(row) for row in handed]
    rng = random.Random(n * m)
    for _ in range(50):
        x = tuple(rng.sample(range(n), n)) + tuple(n + y for y in rng.sample(range(m), m))
        assert permgroups._sifts(fresh, x) == permgroups._sifts(handed, x)
    for x in _span([y.images for y in g.joint.generators], tuple(range(n + m))):
        assert permgroups._sifts(fresh, x) and permgroups._sifts(handed, x)
    assert _greedy_generators(fresh) == _greedy_generators(handed)


def brute_force_greedy(degree, gens):
    """The greedy generating sequence by listing: the lex-least element of
    the group not yet spanned, again and again."""
    ident = tuple(range(degree))
    chosen, spanned = [], {ident}
    for x in sorted(_span(gens, ident)):
        if x not in spanned:
            chosen.append(x)
            spanned = set(_span(chosen, ident))
    return chosen


def test_greedy_generators_match_the_listing():
    """On every subgroup of S_5 and on seeded random groups of degree 6 and
    7, the sequence read off the Sims table is the listed one, and so are
    the orders of its prefixes."""
    groups = [(5, list(pair)) for pair in s5_subgroups().values()]
    rng = random.Random(11)
    for _ in range(30):
        degree = rng.randint(6, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(degree))
            k = rng.randint(2, degree)
            moved = rng.sample(range(degree), k)
            for a, b in zip(moved, moved[1:] + moved[:1]):
                p[a] = b
            gens.append(tuple(p))
        groups.append((degree, gens))
    for degree, gens in groups:
        expected = brute_force_greedy(degree, gens)
        orders = [len(_span(expected[: k + 1], tuple(range(degree)))) for k in range(len(expected))]
        assert _greedy_generators(_sims_table(gens, degree)) == list(zip(expected, orders))


def test_membership_of_a_large_group_matches_its_elements():
    g = PermGroup(*CATALOGUE["S2wrS4"])
    listed = g.elements()
    rng = random.Random(3)
    others = [Perm(rng.sample(range(8), 8)) for _ in range(300)]
    assert all(g.contains(x) for x in listed)
    assert {x for x in others if g.contains(x)} == {x for x in others if x in listed}
    assert any(x not in listed for x in others)
    assert not g.contains(Perm.identity(7))


def _closure_is_faithful(n, m, pairs):
    try:
        PairedPermGroup((n, m), pairs).elements()
    except NotFaithful:
        return False
    return True


def _order_is_faithful(n, m, pairs):
    try:
        PairedPermGroup((n, m), pairs).order()
    except NotFaithful:
        return False
    return True


@pytest.mark.parametrize("name", sorted(PAIRED))
def test_paired_faithfulness_matches_the_closure_on_the_catalogue(name):
    n, m, pairs = PAIRED[name]
    assert _order_is_faithful(n, m, pairs) == _closure_is_faithful(n, m, pairs) == True
    # the left side alone against the identity on the right is never faithful
    lopsided = [(g, Perm.identity(m)) for g, _ in pairs]
    assert not _order_is_faithful(n, m, lopsided)
    assert not _closure_is_faithful(n, m, lopsided)


def test_paired_faithfulness_matches_the_closure_on_seeded_pairs():
    rng = random.Random(8)
    outcomes = set()
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        pairs = [
            (Perm(rng.sample(range(n), n)), Perm(rng.sample(range(m), m)))
            for _ in range(rng.randint(1, 3))
        ]
        faithful = _closure_is_faithful(n, m, pairs)
        assert _order_is_faithful(n, m, pairs) == faithful, pairs
        outcomes.add(faithful)
    assert outcomes == {True, False}


def test_a_long_cycle_is_counted_without_deep_recursion():
    assert sys.getrecursionlimit() <= 1500
    n = 1500
    g = PermGroup(n, [Perm([(i + 1) % n for i in range(n)])])
    assert g.order() == n
    assert g.contains(Perm([(i + 7) % n for i in range(n)]))
    assert not g.contains(Perm([1, 0] + list(range(2, n))))


def test_closure_requests_list_no_group(monkeypatch, capsys):
    """Orders, faithfulness and 2-closures come from Sims tables and the
    automorphism search alone: with the listing step broken, closure still
    answers on the benchmark's largest plain groups and on two paired
    actions on 2-subsets."""

    def no_listing(*args):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(permgroups, "_extend", no_listing)
    requests = []
    for name in ("S8", "A8", "S2wrS6"):
        degree, gens = LARGE[name]
        requests.append(["--degree", str(degree), *map(format_cycles, gens)])
    for name in ("A4pairs", "S4pairs"):
        n, m, pairs = PAIRED[name]
        tokens = [f"{format_cycles(g)}|{format_cycles(h)}" for g, h in pairs]
        requests.append(["--bidegree", str(n), str(m), *tokens])
    orders = []
    for argv in requests:
        assert cli.main(["closure", *argv, "--json"]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        orders.append((report["group_order"], report["closure_order"]))
    assert orders == [(40320, 40320), (20160, 40320), (46080, 46080), (12, 24), (24, 24)]


def _joint_images(n, pairs):
    """The image tuples of pairs on the n + m disjoint points, the right
    side shifted by n, written out here rather than taken from the
    package."""
    return [tuple(g.images) + tuple(n + y for y in h.images) for g, h in pairs]


def _same_group_both_ways(n, m, pairs):
    """The pair constructor and the joint-tuple constructor give one group:
    the same generators, order and elements, or NotFaithful from both.
    Each check runs on a fresh group, so none reads another's cache."""

    def outcomes(make):
        out = []
        for method in (PairedPermGroup.order, PairedPermGroup.elements):
            try:
                out.append(method(make()))
            except NotFaithful:
                out.append(NotFaithful)
        return out

    def by_pairs():
        return PairedPermGroup((n, m), pairs)

    def by_joint():
        return PairedPermGroup._of((n, m), _joint_images(n, pairs))

    assert by_joint().generators == by_pairs().generators
    assert by_joint().degrees == (n, m)
    found = outcomes(by_pairs)
    assert outcomes(by_joint) == found
    return found[0] is not NotFaithful


@pytest.mark.parametrize("name", sorted(PAIRED))
def test_joint_constructor_matches_the_pair_constructor_on_the_catalogue(name):
    n, m, pairs = PAIRED[name]
    assert _same_group_both_ways(n, m, pairs)
    lopsided = [(g, Perm.identity(m)) for g, _ in pairs]
    assert not _same_group_both_ways(n, m, lopsided)


def test_joint_constructor_matches_the_pair_constructor_on_seeded_pairs():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        pairs = [
            (Perm(rng.sample(range(n), n)), Perm(rng.sample(range(m), m)))
            for _ in range(rng.randint(0, 3))
        ]
        outcomes.add(_same_group_both_ways(n, m, pairs))
    assert outcomes == {True, False}


def test_search_results_are_not_joined_again(monkeypatch, tmp_path, capsys):
    """The paired 2-closure and the analysis hand on the joint image tuples
    that the automorphism search and the Sims table produce: no ``_join``
    runs under ``coloured_bipartite_automorphisms`` or ``greedy``."""
    from helpers import matrix_f

    orig = permgroups._join
    calls = []

    def counting(*args):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(names & {"coloured_bipartite_automorphisms", "greedy"})
        return orig(*args)

    monkeypatch.setattr(permgroups, "_join", counting)
    n, m, pairs = PAIRED["S4pairs"]
    tokens = [f"{format_cycles(g)}|{format_cycles(h)}" for g, h in pairs]
    assert cli.main(["closure", "--bidegree", str(n), str(m), *tokens, "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["closure_generators"]) > 1
    # the parsed input is joined once per generator, and nothing else is
    assert calls == [set()] * len(pairs)
    path = tmp_path / "f.txt"
    path.write_text(matrix_f().to_text() + "\n")
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert len(calls) > len(pairs)
    assert not any(calls)


def test_a_closure_request_searches_from_the_order_table(monkeypatch, capsys):
    """``closure`` builds one Sims table for a plain group, of degree n,
    and two for a paired one: the joint table on n + m points and the
    right side's on m points, for the faithfulness check.  The 2-closure
    search starts from the joint table and builds none of its own."""
    build = permgroups._sims_table
    degrees = []
    monkeypatch.setattr(permgroups, "_sims_table", lambda gens, d: degrees.append(d) or build(gens, d))
    degree, gens = CATALOGUE["A4on10"]
    assert cli.main(["closure", "--degree", str(degree), *map(format_cycles, gens), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["closure_order"] == 12
    assert degrees == [degree]
    degrees.clear()
    n, m, pairs = PAIRED["A4pairs"]
    tokens = [f"{format_cycles(g)}|{format_cycles(h)}" for g, h in pairs]
    assert cli.main(["closure", "--bidegree", str(n), str(m), *tokens, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["closure_order"] == 24
    assert degrees == [n + m, m]
