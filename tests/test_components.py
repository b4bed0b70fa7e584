import random

import pytest

from tropgroups.components import (
    Component,
    DegenerateRowOrColumn,
    NotAComponent,
    bipartite_graph,
    class_partition,
    col_space_isomorphic,
    connected_components,
    restrict,
)
from tropgroups.matrix import MonomialMatrix, TropMatrix
from tropgroups.semiring import NEG_INF, eps, val
from tropgroups.spaces import col_space_equal

SECTION4 = TropMatrix.from_rows(
    [
        [0, 0, NEG_INF, NEG_INF],
        [NEG_INF, 1, NEG_INF, NEG_INF],
        [NEG_INF, NEG_INF, 1, 0],
    ]
)


def test_bipartite_graph_section4():
    g = bipartite_graph(SECTION4)
    assert g.n == 3 and g.m == 4
    assert g.edges == {
        (0, 0): val(0),
        (0, 1): val(0),
        (1, 1): val(1),
        (2, 2): val(1),
        (2, 3): val(0),
    }


def test_bipartite_graph_complete_and_identity():
    full = TropMatrix.from_rows([[1, 2], [3, 4]])
    assert bipartite_graph(full).is_complete()
    g = bipartite_graph(TropMatrix.identity(2))
    assert set(g.edges) == {(0, 0), (1, 1)}
    with pytest.raises(DegenerateRowOrColumn):
        bipartite_graph(TropMatrix.from_rows([[0, NEG_INF], [0, NEG_INF]]))


def test_connected_components_examples():
    comps = connected_components(SECTION4)
    assert comps == [Component((0, 1), (0, 1)), Component((2,), (2, 3))]
    assert connected_components(TropMatrix.from_rows([[1, 2], [3, 4]])) == [
        Component((0, 1), (0, 1))
    ]
    assert connected_components(TropMatrix.identity(3)) == [
        Component((i,), (i,)) for i in range(3)
    ]


def test_restrict_examples():
    comps = connected_components(SECTION4)
    assert restrict(SECTION4, comps[0]) == TropMatrix.from_rows([[0, 0], [NEG_INF, 1]])
    assert restrict(SECTION4, comps[1]) == TropMatrix.from_rows([[1, 0]])
    single = TropMatrix.from_rows([[1, 2], [3, 4]])
    assert restrict(single, connected_components(single)[0]) == single
    with pytest.raises(NotAComponent):
        restrict(SECTION4, Component((0,), (0,)))


def test_col_space_isomorphic_identity_and_scaling():
    a = TropMatrix.from_rows([[0, -1], [-1, 0]])
    u = col_space_isomorphic(a, a)
    assert u == MonomialMatrix.identity(2)
    lam = val(3)
    scaled = a.scale(lam)
    u = col_space_isomorphic(a, scaled)
    assert u == MonomialMatrix((0, 1), (-lam, -lam))
    assert col_space_equal(u.left_apply(scaled), a)


def test_col_space_isomorphic_free_entries_empty():
    a_val, b_val = val(-1) + eps(1), val(-1) + eps(2)
    block_a = TropMatrix.from_rows([[0, a_val], [a_val, 0]])
    block_b = TropMatrix.from_rows([[0, b_val], [b_val, 0]])
    assert col_space_isomorphic(block_a, block_b) is None
    assert col_space_isomorphic(block_a, block_a) is not None


def test_col_space_isomorphic_shape_mismatch():
    assert col_space_isomorphic(TropMatrix.identity(2), TropMatrix.identity(3)) is None


def test_col_space_isomorphic_is_equivalence_on_blocks():
    # block-diagonal family: relation must be reflexive/symmetric/transitive
    a_val = val(-1) + eps(1)
    blocks = {
        "x": TropMatrix.from_rows([[0, a_val], [a_val, 0]]),
        "y": TropMatrix.from_rows([[0, 0], [NEG_INF, 0]]),
    }

    def diag(*keys):
        n = 2 * len(keys)
        rows = [[NEG_INF] * n for _ in range(n)]
        for b, key in enumerate(keys):
            for i in range(2):
                for j in range(2):
                    rows[2 * b + i][2 * b + j] = blocks[key].entries[i][j]
        return TropMatrix(rows)

    fam = [diag("x", "y"), diag("y", "x"), diag("x", "x"), diag("y", "y")]
    rel = [[col_space_isomorphic(p, q) is not None for q in fam] for p in fam]
    for i in range(len(fam)):
        assert rel[i][i]
        for j in range(len(fam)):
            assert rel[i][j] == rel[j][i]
            for k in range(len(fam)):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]
    assert rel[0][1] and not rel[0][2] and not rel[0][3]
    u = col_space_isomorphic(fam[0], fam[1])
    assert col_space_equal(u.left_apply(fam[1]), fam[0])


def test_class_partition_identity():
    part = class_partition(TropMatrix.identity(4))
    assert len(part.components) == 4
    assert len(part.classes) == 1
    assert part.classes[0].members == (0, 1, 2, 3)


def test_class_partition_section4_reduced():
    reduced = TropMatrix.from_rows(
        [[0, 0, NEG_INF], [NEG_INF, 1, NEG_INF], [NEG_INF, NEG_INF, 1]]
    )
    part = class_partition(reduced)
    assert len(part.components) == 2
    assert len(part.classes) == 2


def test_class_partition_equal_blocks():
    a = TropMatrix.from_rows(
        [
            [1, 2, NEG_INF, NEG_INF],
            [3, 4, NEG_INF, NEG_INF],
            [NEG_INF, NEG_INF, 1, 2],
            [NEG_INF, NEG_INF, 3, 4],
        ]
    )
    part = class_partition(a)
    assert len(part.classes) == 1
    cls = part.classes[0]
    assert cls.members == (0, 1)
    rep = restrict(a, part.components[0])
    for member, (p, q) in zip(cls.members, cls.witnesses):
        target = restrict(a, part.components[member])
        assert p.left_apply(target) == q.right_apply(rep)


def test_column_row_space_duality():
    # column spaces are isomorphic exactly when row spaces are, i.e. the
    # transposed pair admits a witness exactly when the original does
    a_val, b_val = val(-1) + eps(1), val(-1) + eps(2)
    e = TropMatrix.from_rows([[0, a_val], [b_val, 0]])
    lam = val(2)
    pairs = [
        (e, e.scale(lam)),
        (e, TropMatrix.from_rows([[0, a_val], [a_val, 0]])),
        (TropMatrix.identity(2), TropMatrix.identity(2).scale(lam)),
        (e, TropMatrix.from_rows([[0, 0], [NEG_INF, 0]])),
    ]
    import random

    rng = random.Random(17)
    from tropgroups.spaces import has_full_rank

    while len(pairs) < 10:
        m = TropMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        )
        n = TropMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        )
        if has_full_rank(m) and has_full_rank(n):
            pairs.append((m, n))
    for x, y in pairs:
        cols_iso = col_space_isomorphic(x, y) is not None
        rows_iso = col_space_isomorphic(x.transpose(), y.transpose()) is not None
        assert cols_iso == rows_iso


def test_full_rank_restrictions_have_full_rank():
    from tropgroups.spaces import has_full_rank, reduce_full_rank

    rng = random.Random(31)
    for _ in range(25):
        a = TropMatrix.from_rows(
            [
                [NEG_INF if rng.random() < 0.4 else rng.randint(-2, 2) for _ in range(4)]
                for _ in range(3)
            ]
        )
        if a.all_neg_inf():
            continue
        z, _, _ = reduce_full_rank(a)
        for comp in connected_components(z):
            assert has_full_rank(restrict(z, comp))


def test_class_partition_searches_equal_blocks_once(monkeypatch):
    """A block equal to an earlier one reuses its searches against every
    class representative, found or not."""
    from tropgroups import components

    calls = []
    orig = components.pair_solutions

    def counted(target, source, **kwargs):
        calls.append((target, source))
        return orig(target, source, **kwargs)

    monkeypatch.setattr(components, "pair_solutions", counted)
    x = [[1, 2], [3, 4]]
    y = [[0, 0], [NEG_INF, 0]]
    keys = [x, y, x, x, y]
    rows = [[NEG_INF] * 10 for _ in range(10)]
    for b, block in enumerate(keys):
        for i in range(2):
            rows[2 * b + i][2 * b : 2 * b + 2] = block[i]
    part = class_partition(TropMatrix.from_rows(rows))
    assert [cls.members for cls in part.classes] == [(0, 2, 3), (1, 4)]
    assert part.classes[0].witnesses[1] == part.classes[0].witnesses[2]
    assert calls and len(set(calls)) == len(calls)
