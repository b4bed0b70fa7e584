import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import alt4_squared, automorphism_pushes
from tropgroups import permgroups
from tropgroups.cli import main
from tropgroups.errors import SearchBudgetExceeded
from tropgroups.graphs import ColouredBipartiteGraph, ColouredDigraph
from tropgroups.permgroups import (
    NotFaithful,
    PairedPermGroup,
    Perm,
    PermGroup,
    coloured_automorphisms,
    base_and_orbit,
    coloured_bipartite_automorphisms,
    complete,
    format_cycles,
    groups_isomorphic,
    identify_group,
    is_irreducible,
    is_paired_two_closed,
    is_two_closed,
    pair_orbit_colouring,
    paired_orbit_colouring,
    paired_two_closure,
    parse_cycles,
    search_budget,
    two_closure,
)

ALT4_10PT = [
    "(1,3,2)(5,10,7)(6,8,9)",
    "(1,4)(2,3)(6,10)(7,8)",
    "(1,3)(2,4)(5,9)(6,10)",
]


def brute_force_automorphisms(d: ColouredDigraph):
    """Oracle: filter all of S_n for colour-preserving permutations."""
    out = []
    for images in itertools.permutations(range(d.n)):
        if all(
            d.colours[(images[i], images[j])] == d.colours[(i, j)]
            for i in range(d.n)
            for j in range(d.n)
            if i != j
        ):
            out.append(Perm(images))
    return out


def test_cycle_notation_round_trip():
    p = parse_cycles("(1,3,2)(5,10,7)(6,8,9)", 10)
    assert p(0) == 2 and p(2) == 1 and p(1) == 0
    assert format_cycles(p) == "(1,3,2)(5,10,7)(6,8,9)"
    assert parse_cycles("()", 4) == Perm.identity(4)
    assert format_cycles(Perm.identity(3)) == "()"
    assert parse_cycles(" ( 1 , 2 ) ", 2) == Perm((1, 0))
    assert parse_cycles(" (1, 3) ( 2 ,4 ) ", 4) == Perm((2, 3, 0, 1))
    with pytest.raises(ValueError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,1)", 4)
    # cycles must be disjoint: these products are the identity, or (2,3,1)
    # for the last, and none of them is read as a product
    for text in ("(1,2)(2,1)", "(1,2)(1,2)", "(1,2,3)(3,2,1)", "(1,2)(1,3)"):
        with pytest.raises(ValueError, match="point 1 is in two cycles"):
            parse_cycles(text, 3)
    assert parse_cycles("(1,2)(3,4)", 4) == Perm((1, 0, 3, 2))
    # points are digit strings, not whatever int() reads; the error names
    # the text and where its bad cycle starts
    for text, pos in (("(1_0,2)", 0), ("(3,4) (+1,2)", 6), ("(1,2,)", 0), ("(1 0,2)", 0)):
        with pytest.raises(ValueError, match=re.escape(f"notation {text!r} at {pos}")):
            parse_cycles(text, 12)


def test_perm_mul_matches_matrix_convention():
    from tropgroups.matrix import MonomialMatrix

    a = parse_cycles("(1,2,3)", 4)
    b = parse_cycles("(1,2)", 4)
    pa = MonomialMatrix(a.images, tuple(__import__("tropgroups.semiring", fromlist=["Value"]).Value(0) for _ in range(4)))
    pb = MonomialMatrix(b.images, pa.scalings)
    assert (pa @ pb).sigma == (a * b).images


def test_group_order_examples():
    assert PermGroup.trivial(5).order() == 1
    assert PermGroup.from_cycles(10, ALT4_10PT).order() == 12
    assert PermGroup.from_cycles(3, ["(1,2,3)"]).order() == 3
    # orders are counted whatever their size; only listings are capped
    s8 = PermGroup.from_cycles(8, ["(1,2,3,4,5,6,7,8)", "(1,2)"])
    assert s8.order() == 40320
    diag = [(g, g) for g in s8.generators]
    assert PairedPermGroup((8, 8), diag).order() == 40320


def test_pair_orbit_colouring_examples():
    sym = PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,2)"])
    d = pair_orbit_colouring(sym)
    assert len(set(d.colours.values())) == 1
    c3 = pair_orbit_colouring(PermGroup.from_cycles(3, ["(1,2,3)"]))
    classes = {}
    for pair, c in c3.colours.items():
        classes.setdefault(c, set()).add(pair)
    assert sorted(len(v) for v in classes.values()) == [3, 3]
    trivial = pair_orbit_colouring(PermGroup.trivial(2))
    assert len(set(trivial.colours.values())) == 2


def test_coloured_automorphisms_single_colour():
    for n in (2, 3, 5):
        d = ColouredDigraph(
            n, {(i, j): 0 for i in range(n) for j in range(n) if i != j}
        )
        g = coloured_automorphisms(d)
        import math

        assert g.order() == math.factorial(n)


def test_coloured_automorphisms_match_brute_force():
    digraphs = [
        pair_orbit_colouring(PermGroup.from_cycles(3, ["(1,2,3)"])),
        pair_orbit_colouring(PermGroup.from_cycles(4, ["(1,2)(3,4)"])),
        pair_orbit_colouring(PermGroup.from_cycles(5, ["(1,2,3,4,5)"])),
        pair_orbit_colouring(PermGroup.from_cycles(4, ["(1,2,3)", "(1,2)(3,4)"])),
        pair_orbit_colouring(PermGroup.trivial(3)),
        ColouredDigraph(4, {(i, j): (i + j) % 2 for i in range(4) for j in range(4) if i != j}),
    ]
    for d in digraphs:
        expected = brute_force_automorphisms(d)
        got = coloured_automorphisms(d)
        assert got.order() == len(expected)
        assert got.elements() == frozenset(expected)


def brute_force_bipartite_automorphisms(g: ColouredBipartiteGraph):
    """Oracle: filter all of S_n x S_m for pairs preserving every edge
    colour and every absent edge."""
    cells = [(i, j) for i in range(g.n) for j in range(g.m)]
    return [
        (Perm(p), Perm(q))
        for p in itertools.permutations(range(g.n))
        for q in itertools.permutations(range(g.m))
        if all(g.colour(p[i], q[j]) == g.colour(i, j) for i, j in cells)
    ]


def _random_bipartite(rng, n, m, colours, absent):
    return ColouredBipartiteGraph(n, m, {
        (i, j): rng.randrange(colours)
        for i in range(n)
        for j in range(m)
        if rng.random() >= absent
    })


def _joined(p: Perm, q: Perm) -> Perm:
    return Perm(p.images + tuple(p.degree + y for y in q.images))


def test_coloured_bipartite_automorphisms_match_brute_force():
    rng = random.Random(5)
    for n in range(1, 5):
        for m in range(1, 5):
            graphs = [
                ColouredBipartiteGraph(n, m, {(i, j): 0 for i in range(n) for j in range(m)}),
                ColouredBipartiteGraph(n, m, {(i, j): (i + j) % 2 for i in range(n) for j in range(m)}),
                ColouredBipartiteGraph(n, m, {(i, i % m): 0 for i in range(n)}),
            ]
            graphs += [_random_bipartite(rng, n, m, 2, 0.3) for _ in range(2)]
            for g in graphs:
                expected = brute_force_bipartite_automorphisms(g)
                got = coloured_bipartite_automorphisms(g)
                assert got.order() == len(expected)
                # the group may be unfaithful on a side, so it is closed as
                # one group on the n + m points
                joint = PermGroup(n + m, [_joined(p, q) for p, q in got.generators])
                assert joint.elements() == {_joined(p, q) for p, q in expected}


def _random_group(rng, d):
    """Generators that move points only inside random blocks of at most
    five points, so the group and its 2-closure have order at most 5!^2 * 2."""
    points = list(range(d))
    rng.shuffle(points)
    blocks = []
    while points:
        size = rng.randint(1, 5)
        blocks.append(points[:size])
        points = points[size:]
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(d))
        for b in blocks:
            if rng.random() < 0.7:
                shuffled = rng.sample(b, len(b))
                for x, y in zip(b, shuffled):
                    images[x] = y
        gens.append(Perm(images))
    return PermGroup(d, gens)


def _random_paired(rng):
    """A faithful paired action of a random group: on its own points and on
    a relabelled copy, or on the points followed by fixed points."""
    g = _random_group(rng, rng.randint(1, 7))
    n = g.degree
    if rng.random() < 0.5:
        relabel = Perm(rng.sample(range(n), n))
        pairs = [(p, relabel.inverse() * p * relabel) for p in g.generators]
        return PairedPermGroup((n, n), pairs)
    extra = rng.randint(0, 3)
    pairs = [(p, Perm(p.images + tuple(range(n, n + extra)))) for p in g.generators]
    return PairedPermGroup((n, n + extra), pairs)


# sha256 of the orders and generator image tuples of the seeded sweep
# below: its coloured graphs, and its plain and paired 2-closures
COLOURED_SWEEP_DIGEST = "8b51bed897c6d36cf99d39e6bcdc3d6451300d3206e77b2f6805ffea9a5587ff"
CLOSURE_SWEEP_DIGEST = "9a68c7fe97555c3577d727939bc62500cee4763df3c38ee522bf3a39c2cb68a8"


def _sweep_digest(groups):
    summary = []
    for g in groups:
        order = g.order()
        if isinstance(g, PermGroup):
            summary.append((order, [p.images for p in g.generators]))
        else:
            summary.append((order, [(p.images, q.images) for p, q in g.generators]))
    return hashlib.sha256(repr(summary).encode()).hexdigest()


def test_search_generators_are_pinned():
    """The automorphism searches return the same generators, in the same
    order, on a seeded sweep of coloured graphs and of plain and paired
    2-closures.  The coloured graphs are searched from scratch; each
    closure starts from its group."""
    rng = random.Random(11)
    found = []
    for _ in range(150):
        n = rng.randint(1, 9)
        k = rng.randint(1, 3)
        d = ColouredDigraph(n, {(i, j): rng.randrange(k) for i in range(n) for j in range(n) if i != j})
        found.append(coloured_automorphisms(d))
    for _ in range(150):
        b = _random_bipartite(rng, rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3), 0.25)
        found.append(coloured_bipartite_automorphisms(b))
    for _ in range(150):
        g = _random_group(rng, rng.randint(1, 12))
        found.append(two_closure(g))
        # a cyclic group is regular on each orbit, so its closure is small
        d = rng.randint(1, 12)
        found.append(two_closure(PermGroup(d, [Perm(rng.sample(range(d), d))])))
    for _ in range(100):
        found.append(paired_two_closure(_random_paired(rng)))
    assert _sweep_digest(found[:300]) == COLOURED_SWEEP_DIGEST
    assert _sweep_digest(found[300:]) == CLOSURE_SWEEP_DIGEST


def _circulant_bipartite(seed, n):
    """A coloured bipartite graph on n + n vertices: the edge (i, j) has
    the seeded colour of j - i mod n, or is absent, and both sides are
    relabelled by seeded permutations."""
    rng = random.Random(seed)
    pattern = [rng.choice([None, 0, 1, 2]) for _ in range(n)]
    left, right = rng.sample(range(n), n), rng.sample(range(n), n)
    cells = [(i, j, pattern[(j - i) % n]) for i in range(n) for j in range(n)]
    return ColouredBipartiteGraph(n, n, {(left[i], right[j]): c for i, j, c in cells if c is not None})


@pytest.mark.parametrize(
    "make, order, pushes, digest",
    [
        (lambda: two_closure(PermGroup(100, [Perm([(i + 1) % 100 for i in range(100)])])),
         100, 100, "51d9a22b0c0895aeac7f053c59a5a1e1b1a40e8afbb2c3f8837fc7318982d033"),
        (lambda: coloured_bipartite_automorphisms(_circulant_bipartite(3, 36)),
         36, 909, "2bf4a8de7d7e4cccc28b970e0e241329e7873222a153771d603068781cede373"),
        (lambda: two_closure(PermGroup.from_cycles(10, ALT4_10PT)), 12, 13, None),
        (lambda: two_closure(PermGroup.from_cycles(12, ["(1,2)", "(1,3,5,7,9,11)(2,4,6,8,10,12)", "(1,3)(2,4)"])),
         46_080, 12, None),
    ],
    ids=["C100", "circulant-36-36", "A4-10pt", "S2wrS6"],
)
def test_searches_past_one_machine_word_are_pinned(monkeypatch, make, order, pushes, digest):
    """The automorphism search makes the same pushes and finds the same
    generators on C_100, on a seeded coloured bipartite graph on 72 joint
    vertices, both past 64 vertices, and on the 10-point A4 and the
    S2 wr S6 closures."""
    found = []
    assert automorphism_pushes(monkeypatch, lambda: found.append(make())) == pushes
    (group,) = found
    assert group.order() == order
    if digest is not None:
        joint = group if isinstance(group, PermGroup) else group.joint
        images = [g.images for g in joint.generators]
        assert hashlib.sha256(repr(images).encode()).hexdigest() == digest


def _keyed_search(ecol, init):
    """The automorphism search of the dense edge colours ``ecol``, each
    pair of colours (v to u, u to v) numbered by first occurrence and the
    diagonal -1, as ``_automorphisms`` numbers them."""
    ids: dict = {}
    key = [
        [-1 if u == v else ids.setdefault((c, ecol[u][v]), len(ids)) for u, c in enumerate(row)]
        for v, row in enumerate(ecol)
    ]
    return permgroups._AutomorphismSearch(len(ecol), key, init)


def _digraph_search(d: ColouredDigraph):
    ecol = [[-1 if i == j else d.colours[(i, j)] for j in range(d.n)] for i in range(d.n)]
    return _keyed_search(ecol, [0] * d.n)


def _bipartite_search(b: ColouredBipartiteGraph):
    n, m = b.n, b.m
    ecol = [[-1] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(m):
            ecol[i][n + j] = b.edges.get((i, j), -2)
    return _keyed_search(ecol, [0] * n + [1] * m)


def _search_run(search, act):
    """Pushes made, generators and order of ``base_and_orbit`` on ``search``."""
    pushes = []
    push = search.push
    search.push = lambda v, w: pushes.append(v) or push(v, w)
    gens, order = base_and_orbit(search, range(search.nv), act=act)
    return len(pushes), gens, order


def test_orbit_pruning_keeps_the_order_with_no_more_pushes():
    """``base_and_orbit`` with ``act`` skips the candidates already in the
    base point's orbit: the order is the same, its generators span a group
    of that order, and it pushes no more than the search of every
    candidate, on the seeded coloured digraphs and bipartite graphs."""
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        n, k = rng.randint(1, 9), rng.randint(1, 3)
        d = ColouredDigraph(n, {(i, j): rng.randrange(k) for i in range(n) for j in range(n) if i != j})
        cases.append((_digraph_search, d))
    for _ in range(60):
        b = _random_bipartite(rng, rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3), 0.25)
        cases.append((_bipartite_search, b))
    # a regular group: its first completion moves the base point round its orbit
    cases.append((_digraph_search, pair_orbit_colouring(PermGroup.from_cycles(7, ["(1,2,3,4,5,6,7)"]))))
    saved = 0
    for make, graph in cases:
        pushes, _, order = _search_run(make(graph), None)
        pruned_pushes, gens, pruned_order = _search_run(make(graph), lambda f, x: f[x])
        assert pruned_order == order
        degree = len(gens[0]) if gens else 1
        assert PermGroup(degree, [Perm(g) for g in gens]).order() == order
        assert pruned_pushes <= pushes
        saved += pushes - pruned_pushes
    assert saved > 0


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 40))
def test_a_coloured_search_skips_the_images_it_already_reaches(n):
    """On the complete digraph whose edge (i, j) is coloured (j - i) mod n,
    the directed n-cycle in colour 1, the first generator found moves 0
    round the whole cycle, so the search skips every other image of 0 and
    gives C_n from that one generator."""
    d = ColouredDigraph(n, {(i, j): (j - i) % n for i in range(n) for j in range(n) if i != j})
    group = coloured_automorphisms(d)
    assert group.order() == n
    assert [g.images for g in group.generators] == [tuple((i + 1) % n for i in range(n))]


def test_a_seeded_search_counts_the_order_of_the_unseeded_one():
    """``coloured_automorphisms`` and ``coloured_bipartite_automorphisms``
    seeded with a proper subgroup, the one the first generator found spans,
    give the order of the search of every candidate, and the returned
    generators, the seed's and those found, span a group of that order."""
    rng = random.Random(13)
    grew = 0
    for _ in range(60):
        n, k = rng.randint(2, 8), rng.randint(1, 3)
        d = ColouredDigraph(n, {(i, j): rng.randrange(k) for i in range(n) for j in range(n) if i != j})
        full = coloured_automorphisms(d)
        seed = PermGroup(n, full.generators[:1])
        seeded = coloured_automorphisms(d, known=seed)
        assert seeded.order() == full.order()
        assert PermGroup(n, seeded.generators).order() == full.order()
        grew += len(seeded.generators) > len(seed.generators)
    for _ in range(60):
        b = _random_bipartite(rng, rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3), 0.25)
        full = coloured_bipartite_automorphisms(b)
        seed = PairedPermGroup((b.n, b.m), full.generators[:1])
        seeded = coloured_bipartite_automorphisms(b, known=seed)
        assert seeded.order() == full.order()
        joint = seeded.joint
        assert PermGroup(joint.degree, joint.generators).order() == full.order()
        grew += len(joint.generators) > len(seed.joint.generators)
    # the orbit grows past the seed's rows in many of them
    assert grew > 20


def test_analyze_of_the_a4_squared_matrix_pushes_less(monkeypatch, tmp_path, capsys):
    """The paired 2-closedness check of ``analyze`` on the 16 x 16 A4 x A4
    gap matrix starts from the factor's own group: 554 automorphism
    pushes without the seed, at most 100 with it."""
    path = tmp_path / "b16.txt"
    path.write_text(alt4_squared().to_text() + "\n")
    pushes = automorphism_pushes(monkeypatch, lambda: main(["analyze", str(path), "--json"]))
    assert json.loads(capsys.readouterr().out)["description"]["factors"][0]["order"] == 144
    assert pushes <= 100


def test_two_closure_examples():
    sym3 = PermGroup.from_cycles(3, ["(1,2,3)", "(1,2)"])
    assert is_two_closed(sym3)
    alt4 = PermGroup.from_cycles(4, ["(1,2,3)", "(1,2)(3,4)"])
    closure = two_closure(alt4)
    assert closure.order() == 24
    assert not is_two_closed(alt4)
    alt4_10 = PermGroup.from_cycles(10, ALT4_10PT)
    assert two_closure(alt4_10).order() == 12
    assert is_two_closed(alt4_10)
    one_point = two_closure(PermGroup.trivial(1))
    assert one_point.order() == 1 and one_point.generators == ()


def test_two_closure_contains_and_idempotent():
    for gens, deg in [ (["(1,2,3)"], 4), (["(1,2)(3,4)"], 4), (["(1,2,3,4,5)"], 5) ]:
        g = PermGroup.from_cycles(deg, gens)
        c = two_closure(g)
        for gen in g.generators:
            assert c.contains(gen)
        assert two_closure(c).order() == c.order()


def test_regular_c3_is_two_closed_brute_force():
    c3 = PermGroup.from_cycles(3, ["(1,2,3)"])
    d = pair_orbit_colouring(c3)
    assert sorted(brute_force_automorphisms(d)) == sorted(c3.elements())
    assert is_two_closed(c3)


def test_c3_in_s4_closure():
    g = PermGroup.from_cycles(4, ["(1,2,3)"])
    closure = two_closure(g)
    # brute force over S4
    d = pair_orbit_colouring(g)
    assert closure.elements() == frozenset(brute_force_automorphisms(d))
    assert closure.order() == 3
    assert is_two_closed(g)


def test_paired_two_closure_examples():
    diag_s2 = PairedPermGroup(
        (2, 2), [(parse_cycles("(1,2)", 2), parse_cycles("(1,2)", 2))]
    )
    closure = paired_two_closure(diag_s2)
    assert closure.order() == 2
    assert is_paired_two_closed(diag_s2)
    trivial = PairedPermGroup((1, 1), [])
    assert paired_two_closure(trivial).order() == 1
    assert is_paired_two_closed(trivial)
    # diagonal S10 has order 10!, more than the default budget may list;
    # the closure checks its faithfulness without listing it
    s10 = PermGroup.from_cycles(10, ["(1,2,3,4,5,6,7,8,9,10)", "(1,2)"])
    diag_s10 = PairedPermGroup((10, 10), [(g, g) for g in s10.generators])
    assert paired_two_closure(diag_s10).order() == 3628800
    assert is_paired_two_closed(diag_s10)


def test_paired_closure_can_be_larger():
    # trivial group on (2, 1): the grid colouring has two columns of one
    # cell each... on (1, 2) both cells are separate orbits, closure trivial;
    # a rank-one pattern with repeated colours closes to the full product.
    g = PairedPermGroup((2, 2), [])
    colouring = paired_orbit_colouring(g)
    assert len(set(colouring.edges.values())) == 4
    assert paired_two_closure(g).order() == 1
    same = ColouredBipartiteGraph(2, 2, {(i, j): 0 for i in range(2) for j in range(2)})
    aut = coloured_bipartite_automorphisms(same)
    assert aut.order() == 4


def test_not_faithful_detected():
    g = PairedPermGroup((2, 2), [(parse_cycles("(1,2)", 2), Perm.identity(2))])
    with pytest.raises(NotFaithful):
        g.elements()
    c3, s2 = parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 2)
    for pairs in (
        [(Perm.identity(3), s2)],
        # (c, s) and (c, 1) together hold (1, s)
        [(c3, s2), (c3, Perm.identity(2))],
    ):
        with pytest.raises(NotFaithful):
            PairedPermGroup((3, 2), pairs).elements()
        with pytest.raises(NotFaithful):
            PairedPermGroup((3, 2), pairs).order()
    # a known order skips the closure, but the 2-closure still checks
    with pytest.raises(NotFaithful):
        paired_two_closure(
            PairedPermGroup((3, 2), [(Perm.identity(3), s2)], known_order=2)
        )


def test_paired_two_closure_reuses_the_order_closure(monkeypatch):
    """Faithfulness is read from the order's Sims tables: neither the
    order nor the 2-closure lists the group."""
    from tropgroups import permgroups

    calls = []
    orig = permgroups._span

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(permgroups, "_span", counted)
    c3 = parse_cycles("(1,2,3)", 3)
    g = PairedPermGroup((3, 3), [(c3, c3)])
    assert g.order() == 3
    assert paired_two_closure(g).order() == 3
    assert len(calls) == 0


def _listed(monkeypatch) -> list:
    """The PermGroup objects listed from here on, one entry per call."""
    listed, orig = [], PermGroup.elements
    monkeypatch.setattr(PermGroup, "elements", lambda g: listed.append(g) or orig(g))
    return listed


def test_groups_isomorphic_examples(monkeypatch):
    """Both directions of each pair; only the second group is ever listed."""
    listed = _listed(monkeypatch)

    def check(g, h, expected):
        for first, second in [(g, h), (h, g)]:
            listed.clear()
            assert groups_isomorphic(first, second) == expected
            assert all(x is second for x in listed)

    check(PermGroup.from_cycles(2, ["(1,2)"]), PermGroup.from_cycles(4, ["(3,4)"]), True)
    c4 = PermGroup.from_cycles(4, ["(1,2,3,4)"])
    klein = PermGroup.from_cycles(4, ["(1,2)", "(3,4)"])
    check(c4, klein, False)
    d4 = PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"])
    d4_regular = PermGroup.from_cycles(
        8, ["(1,2,3,4)(5,6,7,8)", "(1,5)(2,8)(3,7)(4,6)"]
    )
    assert d4_regular.order() == 8
    check(d4, d4_regular, True)
    q8_like = PermGroup.from_cycles(8, ["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"])
    assert q8_like.order() == 8
    check(d4, q8_like, False)
    s3 = PermGroup.from_cycles(3, ["(1,2,3)", "(1,2)"])
    c6 = PermGroup.from_cycles(6, ["(1,2,3,4,5,6)"])
    check(s3, c6, False)
    assert listed == []  # an abelian group against a non-abelian one lists neither


def test_groups_of_unequal_orders_are_not_isomorphic_without_listing(monkeypatch):
    """S8 and A8 have different orders, so neither is listed."""
    from tropgroups import permgroups

    def no_listing(*args):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(permgroups, "_span", no_listing)
    s8 = PermGroup.from_cycles(8, ["(1,2,3,4,5,6,7,8)", "(1,2)"])
    a8 = PermGroup.from_cycles(8, ["(1,2,3)", "(2,3,4,5,6,7,8)"])
    assert (s8.order(), a8.order()) == (40320, 20160)
    assert not groups_isomorphic(s8, a8)
    assert not groups_isomorphic(a8, s8)


def _s4_cubed(degree, shift):
    """S4 x S4 x S4, of order 13824, on three blocks of four points from
    ``shift`` + 1 on."""
    gens = []
    for b in range(shift, 12 + shift, 4):
        gens += [f"({b + 1},{b + 2},{b + 3},{b + 4})", f"({b + 1},{b + 2})"]
    return PermGroup.from_cycles(degree, gens)


def test_groups_isomorphic_above_ten_thousand_elements():
    """Copies of S4 x S4 x S4 are matched: the test is bounded by the
    search budget alone, not by the order.  Only the second group is
    listed, which spends 13824 nodes, and a budget of exactly that leaves
    nothing for the candidate images."""
    g = _s4_cubed(12, 0)
    assert g.order() == 13824
    assert groups_isomorphic(g, _s4_cubed(13, 0))
    assert groups_isomorphic(g, _s4_cubed(13, 1))
    with search_budget(13824):
        with pytest.raises(SearchBudgetExceeded, match="isomorphism test exceeded"):
            groups_isomorphic(g, _s4_cubed(13, 1))


def _relabelled_and_padded(h: PermGroup, extra: int) -> PermGroup:
    """h on ``extra`` more points, which it fixes, with every point then
    renamed i -> degree - 1 - i."""
    n = h.degree + extra
    padded = [p.images + tuple(range(h.degree, n)) for p in h.generators]
    return PermGroup(n, [Perm([n - 1 - x for x in reversed(p)]) for p in padded])


@pytest.mark.parametrize("name", [name for name, _ in permgroups._CATALOGUE])
def test_each_catalogue_entry_relabelled_and_padded_gets_its_own_name(name):
    """On more points than the entry, so not the same permutation group:
    the name comes from the isomorphism search."""
    entry = dict(permgroups._CATALOGUE)[name]
    g = _relabelled_and_padded(entry, 3)
    assert (g.degree, g.order()) == (entry.degree + 3, entry.order())
    assert identify_group(g) == name


def test_catalogue_entries_are_pairwise_non_isomorphic():
    """``identify_group`` names a group by the entry it equals before it
    searches, which gives the same name only because no two entries are
    isomorphic.  Entries of equal orders differ in commutativity or in how
    many elements have each order, counted on their listings."""

    def invariants(h):
        xs = h.elements()
        return all(x * y == y * x for x in xs for y in xs), sorted(x.order() for x in xs)

    for (a, g), (b, h) in itertools.combinations(permgroups._CATALOGUE, 2):
        assert not groups_isomorphic(g, h), (a, b)
        assert not groups_isomorphic(h, g), (b, a)
        if g.order() == h.order():
            assert invariants(g) != invariants(h), (a, b)


def test_the_sixteen_point_factor_is_named_listing_only_the_catalogue_entry(monkeypatch):
    """The A4 x A4 factor of the paper's 16 x 16 matrix lies on 16 points,
    the catalogue's A4xA4 on 8: naming it lists that entry and nothing
    else."""
    from tropgroups.stabilizer import group_description

    factor = group_description(alt4_squared()).factors[0].finite_part
    assert (factor.degree, factor.order()) == (16, 144)
    entry = dict(permgroups._CATALOGUE)["A4xA4"]
    listed = _listed(monkeypatch)
    assert identify_group(factor) == "A4xA4"
    assert listed and all(x is entry for x in listed)


def test_a_relabelled_catalogue_group_is_named_without_a_search(monkeypatch):
    """A4 on the same four points, relabelled, is the catalogue's A4 itself:
    the containment pass names it before D6, of the same order, is tried."""
    listed = _listed(monkeypatch)
    assert identify_group(PermGroup.from_cycles(4, ["(2,3,4)", "(1,3)(2,4)"])) == "A4"
    assert listed == []


S5 = ["(1,2,3,4,5)", "(1,2)"]


def test_search_budget_block_is_returned_by_with():
    with search_budget(7) as block:
        assert isinstance(block, search_budget)
        assert search_budget.current() is block
        assert block.left == 7


def test_a_listing_spends_its_order():
    """Each listing spends the order, also one the group has cached, so
    what a request spends does not depend on what ran before it."""
    s5 = PermGroup.from_cycles(5, S5)
    with search_budget(120) as block:
        assert len(s5.elements()) == 120
        assert block.left == 0
    with search_budget(120) as block:
        s5.elements()
        assert block.left == 0
    s3 = PermGroup.from_cycles(3, ["(1,2,3)", "(1,2)"])
    with search_budget(6) as block:
        assert len(PairedPermGroup((3, 3), [(g, g) for g in s3.generators]).elements()) == 6
        assert block.left == 0


def test_a_listing_over_the_budget_lists_nothing(monkeypatch):
    def no_listing(*args):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(permgroups, "_span", no_listing)
    with search_budget(119):
        with pytest.raises(SearchBudgetExceeded, match="group listing exceeded the budget of 119"):
            PermGroup.from_cycles(5, S5).elements()
    # outside every block the default budget of 2*10^6 nodes refuses 10!
    s10 = PermGroup.from_cycles(10, ["(1,2,3,4,5,6,7,8,9,10)", "(1,2)"])
    with pytest.raises(SearchBudgetExceeded, match="group listing exceeded the budget of 2000000"):
        s10.elements()
    with pytest.raises(SearchBudgetExceeded, match="group listing"):
        PairedPermGroup((10, 10), [(g, g) for g in s10.generators]).elements()


def test_identify_group():
    assert identify_group(PermGroup.trivial(3)) == "1"
    # S8 has order 40320, above the cap of the isomorphism test; its order
    # comes from the Sims table whether or not it was asked for before
    s8 = PermGroup.from_cycles(8, ["(1,2,3,4,5,6,7,8)", "(1,2)"])
    assert identify_group(s8) == "S8"
    assert identify_group(PermGroup.from_cycles(2, ["(1,2)"])) == "S2"
    assert identify_group(PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"])) == "D4"
    assert identify_group(PermGroup.from_cycles(4, ["(1,2,3)", "(1,2)(3,4)"])) == "A4"
    assert identify_group(PermGroup.from_cycles(10, ALT4_10PT)) == "A4"
    # cyclic groups are named by their invariants, whatever their order
    c20 = "(" + ",".join(str(i) for i in range(1, 21)) + ")"
    assert identify_group(PermGroup.from_cycles(20, [c20])) == "C20"
    assert identify_group(PermGroup.from_cycles(5, ["(1,2)", "(3,4,5)"])) == "C6"
    assert identify_group(PermGroup.from_cycles(4, ["(1,2)", "(3,4)"])) == "C2xC2"


def test_identify_symmetric_and_alternating_groups_by_order():
    """After a catalogue miss, order k! on k moved points names S_k and
    k!/2 names A_k; the catalogue still names the small ones first."""
    s5 = PermGroup.from_cycles(6, ["(2,3,4,5,6)", "(2,3)"])
    assert identify_group(s5) == "S5"
    assert identify_group(PermGroup.from_cycles(5, ["(1,2,3)", "(3,4,5)"])) == "A5"
    a6 = PermGroup.from_cycles(6, ["(1,2,3)", "(2,3,4,5,6)"])
    assert identify_group(a6) == "A6"
    assert identify_group(PermGroup.from_cycles(3, ["(1,2,3)"])) == "C3"
    assert identify_group(PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,2)"])) == "S4"
    # C3 wr C2 moves 6 points with order 18, neither 6! nor 6!/2
    c3wrc2 = PermGroup.from_cycles(6, ["(1,2,3)", "(4,5,6)", "(1,4)(2,5)(3,6)"])
    assert identify_group(c3wrc2) is None
    # a known order above the isomorphism cap is named without listing
    s8 = PermGroup.from_cycles(8, ["(1,2,3,4,5,6,7,8)", "(1,2)"])
    assert identify_group(PermGroup(8, s8.generators, known_order=40320)) == "S8"


def test_is_irreducible():
    twins = ColouredBipartiteGraph(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2})
    assert not is_irreducible(twins)
    isolated = ColouredBipartiteGraph(2, 2, {(0, 0): 1, (1, 0): 2})
    assert not is_irreducible(isolated)
    good = ColouredBipartiteGraph(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1})
    assert is_irreducible(good)


def test_searches_in_one_block_share_its_budget(monkeypatch):
    """Two 2-closures inside one search_budget block spend from one count;
    outside every block each has DEFAULT_MAX_NODES of its own."""
    g = PermGroup.from_cycles(10, ALT4_10PT)
    nodes = automorphism_pushes(monkeypatch, lambda: two_closure(g))
    with search_budget(2 * nodes):
        two_closure(g)
        two_closure(g)
    with search_budget(2 * nodes - 1):
        two_closure(g)
        with pytest.raises(SearchBudgetExceeded, match="automorphism search"):
            two_closure(g)
    monkeypatch.setattr(permgroups, "DEFAULT_MAX_NODES", nodes)
    two_closure(g)
    two_closure(g)
    monkeypatch.setattr(permgroups, "DEFAULT_MAX_NODES", nodes - 1)
    with pytest.raises(SearchBudgetExceeded, match=f"budget of {nodes - 1} nodes"):
        two_closure(g)


class _Chain:
    """A search on n points, each with the one image v -> n - 1 - v, save
    the last point, which has none with ``dead_end``."""

    name = "chain search"

    def __init__(self, n, dead_end):
        self.n, self.dead_end = n, dead_end
        self.budget = search_budget(n)
        self.image = []

    def candidates(self, v):
        return [] if self.dead_end and v == self.n - 1 else [self.n - 1 - v]

    def push(self, v, w):
        self.image.append(w)
        return True

    def pop(self, v):
        self.image.pop()

    def next_point(self):
        return len(self.image) if len(self.image) < self.n else None

    def solution(self):
        return list(self.image)


@pytest.mark.parametrize("dead_end", [False, True])
def test_search_depth_does_not_cap_the_input(dead_end):
    """``complete`` maps 5000 points one below the other, far deeper than
    the interpreter's recursion limit, and leaves the map as it was."""
    chain = _Chain(5000, dead_end)
    found = complete(chain)
    assert found == (None if dead_end else list(range(4999, -1, -1)))
    assert chain.image == []
