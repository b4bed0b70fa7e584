import pytest

from tropgroups.constructors import (
    DependentEntries,
    HypothesisViolated,
    NotTwoClosed,
    ReducibleInput,
    alt4_column_matrix,
    alt4_elements,
    assemble_blocks,
    construct_from_bipartite,
    construct_idempotent,
    finite_approximant,
    parse_construction_spec,
)
from tropgroups.graphs import ColouredBipartiteGraph, ColouredDigraph
from tropgroups.matrix import TropMatrix, is_idempotent
from tropgroups.permgroups import (
    PairedPermGroup,
    PermGroup,
    coloured_bipartite_automorphisms,
    format_cycles,
    groups_isomorphic,
    paired_orbit_colouring,
    parse_cycles,
)
from tropgroups.semiring import NEG_INF, Value, eps, val
from tropgroups.spaces import has_full_rank, member
from tropgroups.stabilizer import group_description, maximal_subgroup, stabilizer_pairs


def diagonal_action(group: PermGroup) -> PairedPermGroup:
    return PairedPermGroup(
        (group.degree, group.degree), [(g, g) for g in group.generators]
    )


def test_construct_from_bipartite_s2():
    d = paired_orbit_colouring(diagonal_action(PermGroup.from_cycles(2, ["(1,2)"])))
    a = construct_from_bipartite(d)
    assert a.shape == (2, 2)
    assert a.entries[0][0] == a.entries[1][1]
    assert a.entries[0][1] == a.entries[1][0]
    assert a.entries[0][0] != a.entries[0][1]
    desc = group_description(a)
    assert desc.factors[0].order == 2


def test_construct_from_bipartite_c3_circulant():
    d = paired_orbit_colouring(diagonal_action(PermGroup.from_cycles(3, ["(1,2,3)"])))
    a = construct_from_bipartite(d)
    assert a.shape == (3, 3)
    # circulant pattern: entry depends only on j - i mod 3
    for i in range(3):
        for j in range(3):
            assert a.entries[i][j] == a.entries[0][(j - i) % 3]
    sigma = stabilizer_pairs(a)
    assert len(sigma) == 3
    desc = group_description(a)
    assert desc.factors[0].name == "C3"


def test_construct_from_bipartite_trivial_rectangular():
    for shape in ((3, 4), (4, 3)):
        trivial = PairedPermGroup(shape, [])
        d = paired_orbit_colouring(trivial)
        a = construct_from_bipartite(d)
        assert a.shape == shape
        assert has_full_rank(a)
        assert len(stabilizer_pairs(a)) == 1


def test_construct_from_bipartite_round_trips():
    targets = [
        PermGroup.from_cycles(2, ["(1,2)"]),
        PermGroup.from_cycles(3, ["(1,2,3)"]),
        PermGroup.from_cycles(3, ["(1,2,3)", "(1,2)"]),
        PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"]),
    ]
    for g in targets:
        d = paired_orbit_colouring(diagonal_action(g))
        aut = coloured_bipartite_automorphisms(d.completed())
        a = construct_from_bipartite(d)
        desc = group_description(a)
        assert len(desc.factors) == 1
        assert groups_isomorphic(desc.factors[0].finite_part, aut.left_group())


def test_witness_graphs_are_irreducible():
    from tropgroups.components import bipartite_graph
    from tropgroups.permgroups import is_irreducible

    for g in (
        PermGroup.from_cycles(2, ["(1,2)"]),
        PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"]),
    ):
        d = paired_orbit_colouring(diagonal_action(g))
        a = construct_from_bipartite(d)
        assert is_irreducible(bipartite_graph(a))


def test_construct_from_bipartite_drops_dominated_orbits():
    # two swapped row orbits whose colour partitions of the columns agree:
    # the later orbit is dominated and must not survive
    edges = {
        (0, 0): 0, (0, 1): 1,
        (1, 0): 1, (1, 1): 0,
        (2, 0): 2, (2, 1): 3,
        (3, 0): 3, (3, 1): 2,
    }
    d = ColouredBipartiteGraph(4, 2, edges)
    aut = coloured_bipartite_automorphisms(d.completed())
    assert aut.order() == 2
    a = construct_from_bipartite(d)
    assert a.shape == (2, 2)
    desc = group_description(a)
    assert desc.factors[0].order == 2


def test_construct_from_bipartite_random_graphs():
    import random

    rng = random.Random(321)
    built = rejected = 0
    while built < 18:
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        k = rng.randint(1, 4)
        edges = {}
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.85:
                    edges[(i, j)] = rng.randrange(k)
        try:
            d = ColouredBipartiteGraph(n, m, edges)
        except ValueError:
            continue
        from tropgroups.permgroups import is_irreducible

        if not is_irreducible(d):
            rejected += 1
            with pytest.raises(ReducibleInput):
                construct_from_bipartite(d)
            continue
        aut = coloured_bipartite_automorphisms(d.completed())
        if aut.order() == 1 and not (n > 2 and m > 2):
            with pytest.raises(HypothesisViolated):
                construct_from_bipartite(d)
            continue
        a = construct_from_bipartite(d)
        assert has_full_rank(a)
        assert a.shape[0] <= n and a.shape[1] <= m
        sigma = stabilizer_pairs(a)
        assert len(sigma) == aut.order()
        if aut.order() <= 2000:
            desc = group_description(a)
            assert groups_isomorphic(desc.factors[0].finite_part, aut.left_group())
        built += 1
    assert built == 18


def test_construct_from_bipartite_rejects_bad_input():
    twins = ColouredBipartiteGraph(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    with pytest.raises(ReducibleInput):
        construct_from_bipartite(twins)
    tiny_trivial = paired_orbit_colouring(PairedPermGroup((2, 2), []))
    with pytest.raises(HypothesisViolated):
        construct_from_bipartite(tiny_trivial)


def test_construct_idempotent_small_cases():
    assert construct_idempotent(PermGroup.trivial(1)) == TropMatrix.from_rows([[0]])
    assert construct_idempotent(PermGroup.trivial(2)) == TropMatrix.from_rows(
        [[0, 0], [NEG_INF, 0]]
    )
    s2 = construct_idempotent(PermGroup.from_cycles(2, ["(1,2)"]))
    assert s2.entries[0][0] == Value(0) and s2.entries[1][1] == Value(0)
    assert s2.entries[0][1] == s2.entries[1][0]
    assert is_idempotent(s2)


def test_construct_idempotent_round_trips():
    targets = [
        PermGroup.trivial(3),
        PermGroup.from_cycles(3, ["(1,2,3)"]),
        PermGroup.from_cycles(3, ["(1,2,3)", "(1,2)"]),
        PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"]),
    ]
    for g in targets:
        e = construct_idempotent(g)
        assert is_idempotent(e) and has_full_rank(e)
        desc = maximal_subgroup(e)
        assert len(desc.factors) == 1
        assert groups_isomorphic(desc.factors[0].finite_part, g)


def test_constructed_idempotents_commuting_units_match_stabilizer():
    from tropgroups.stabilizer import commuting_units

    for g in (
        PermGroup.trivial(2),
        PermGroup.from_cycles(2, ["(1,2)"]),
        PermGroup.from_cycles(3, ["(1,2,3)"]),
        PermGroup.from_cycles(4, ["(1,2,3,4)", "(1,3)"]),
    ):
        e = construct_idempotent(g)
        comm = commuting_units(e)
        stab = stabilizer_pairs(e)
        assert {(el.P, el.Q) for el in comm} == {(el.P, el.Q) for el in stab}


def test_block_idempotent_restrictions_are_idempotent():
    from tropgroups.components import connected_components, restrict
    from tropgroups.spaces import has_full_rank as full

    e = assemble_blocks(
        [
            (construct_idempotent(PermGroup.from_cycles(2, ["(1,2)"])), 1),
            (construct_idempotent(PermGroup.trivial(2), tag_start=50), 1),
        ],
        NEG_INF,
    )
    assert is_idempotent(e)
    for comp in connected_components(e):
        r = restrict(e, comp)
        assert is_idempotent(r) and full(r)


def test_finite_approximant_error_paths():
    from tropgroups.stabilizer import NotFullRank, NotIdempotent

    with pytest.raises(NotIdempotent):
        finite_approximant(TropMatrix.from_rows([[0, 1], [1, 0]]), 1)
    with pytest.raises(NotIdempotent):
        finite_approximant(TropMatrix.from_rows([[0, 0]]), 1)
    with pytest.raises(ValueError):
        finite_approximant(TropMatrix.from_rows([[0, 0], [NEG_INF, 0]]), 0)


def test_construct_idempotent_from_digraph():
    d = ColouredDigraph(
        3, {(i, j): (j - i) % 3 for i in range(3) for j in range(3) if i != j}
    )
    e = construct_idempotent(d)
    desc = maximal_subgroup(e)
    assert desc.factors[0].order == 3


def test_construct_idempotent_rejects_non_closed():
    alt4 = PermGroup.from_cycles(4, ["(1,2,3)", "(1,2)(3,4)"])
    with pytest.raises(NotTwoClosed):
        construct_idempotent(alt4)


def test_assemble_blocks():
    a = TropMatrix.from_rows([[0, 0], [NEG_INF, 1]])
    b = TropMatrix.from_rows([[1, 0]])
    assert assemble_blocks([(a, 1)], NEG_INF) == a
    combo = assemble_blocks([(a, 1), (b, 1)], NEG_INF)
    assert combo == TropMatrix.from_rows(
        [
            [0, 0, NEG_INF, NEG_INF],
            [NEG_INF, 1, NEG_INF, NEG_INF],
            [NEG_INF, NEG_INF, 1, 0],
        ]
    )
    doubled = assemble_blocks([(b, 2)], Value(0))
    assert doubled == TropMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        assemble_blocks([(a, 1)], val(5))


def test_alt4_elements_order():
    elems = alt4_elements()
    assert len(elems) == 12
    assert len(set(elems)) == 12
    assert all(e.order() in (1, 2, 3) for e in elems)
    assert elems[0].is_identity()
    # breadth-first order from the generators, which the column order of
    # alt4_column_matrix follows
    assert [format_cycles(p) for p in elems] == [
        "()", "(1,2,3)", "(1,2)(3,4)", "(1,3,2)", "(2,4,3)", "(1,3,4)",
        "(1,4,3)", "(1,2,4)", "(2,3,4)", "(1,4,2)", "(1,4)(2,3)", "(1,3)(2,4)",
    ]


def test_alt4_column_matrix():
    a, b, c, d = (val(i) + eps(i + 1) for i in range(1, 5))
    m = alt4_column_matrix(a, b, c, d)
    assert m.shape == (4, 12)
    elems = alt4_elements()
    idx = elems.index(parse_cycles("(1,2,3)", 4))
    assert m.col(idx) == (c, a, b, d)
    assert m.col(0) == (a, b, c, d)
    # the column set is stable under the action of any further element
    cols = {m.col(j) for j in range(12)}
    for g in elems:
        ginv = g.inverse()
        assert {tuple(col[ginv(i)] for i in range(4)) for col in cols} == cols
    with pytest.raises(DependentEntries):
        alt4_column_matrix(val(1), val(2), val(3), eps(1))


def test_alt4_column_matrix_sigma_order_12():
    a, b, c, d = (val(i) + eps(i + 1) for i in range(1, 5))
    m = alt4_column_matrix(a, b, c, d)
    assert has_full_rank(m)
    assert len(stabilizer_pairs(m)) == 12


def test_finite_approximant_examples():
    e = TropMatrix.from_rows([[0, 0], [NEG_INF, 0]])
    assert finite_approximant(e, 1) == TropMatrix.from_rows([[0, 0], [-1, 0]])
    assert finite_approximant(e, 2) == TropMatrix.from_rows([[0, 0], [-2, 0]])
    finite = construct_idempotent(PermGroup.from_cycles(2, ["(1,2)"]))
    for m in (1, 2, 3):
        assert finite_approximant(finite, m) == finite


def test_finite_approximant_nested_spans():
    e = assemble_blocks(
        [
            (construct_idempotent(PermGroup.from_cycles(2, ["(1,2)"])), 1),
            (TropMatrix.from_rows([[0]]), 1),
        ],
        NEG_INF,
    )
    assert is_idempotent(e) and has_full_rank(e)
    approximants = [finite_approximant(e, m) for m in range(1, 6)]
    for f in approximants:
        assert has_full_rank(f)
    for fm, fm1 in zip(approximants, approximants[1:]):
        for j in range(fm.ncols):
            assert member(fm.col(j), fm1) is not None


def test_parse_construction_spec():
    kind, obj = parse_construction_spec(
        {"degree": 2, "generators": ["(1,2)"]}
    )
    assert kind == "idempotent" and isinstance(obj, PermGroup)
    kind, obj = parse_construction_spec(
        {"omega": 2, "theta": 2, "edges": [[1, 1, "x"], [2, 2, "x"], [1, 2, "y"], [2, 1, "y"]]}
    )
    assert kind == "bipartite" and isinstance(obj, ColouredBipartiteGraph)
    kind, obj = parse_construction_spec(
        {"bidegree": [2, 2], "generators": [["(1,2)", "(1,2)"]]}
    )
    assert kind == "bipartite"
    kind, obj = parse_construction_spec({"vertices": 3, "edges": [[1, 2, "c"]]})
    assert kind == "idempotent" and isinstance(obj, ColouredDigraph)
    with pytest.raises(ValueError):
        parse_construction_spec({"foo": 1})
