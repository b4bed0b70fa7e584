"""A4 separates the Schützenberger groups of M_n(T) from its maximal
subgroups at n = 7: the A4 slice of the sharpened separation result.

A maximal subgroup's finite factor is 2-closed on its component (the
classification the program implements), and R x A4 is a Schützenberger
group of a 6 x 7 matrix built from the paired action of A4 on 6 points
against A4 on 4 + 3 points (``test_cli.test_the_sharpened_separation_witness``
round-trips it).  So R x A4 is not a maximal subgroup of M_7(T) when no
faithful action of A4 on at most 7 points, nor on 8 or 9, is 2-closed.

The enumeration is kept here, on the library's ``PermGroup``: every
subgroup of A4 is the closure of two of its elements, the transitive
actions are the right coset actions of one subgroup per conjugacy class,
and an action is a multiset of transitive ones, faithful when the group
it generates has order 12.
"""

from itertools import combinations_with_replacement

from tropgroups.permgroups import (
    PairedPermGroup,
    Perm,
    PermGroup,
    is_paired_two_closed,
    is_two_closed,
)

A4 = PermGroup.from_cycles(4, ["(1,2,3)", "(1,2)(3,4)"])


def _subgroup_classes(g):
    """One subgroup, as its set of elements, per conjugacy class of the
    subgroups of ``g`` generated by two elements, by increasing order."""
    elems = sorted(g.elements())
    subgroups = {PermGroup(g.degree, [x, y]).elements() for x in elems for y in elems}
    classes, seen = [], set()
    for h in sorted(subgroups, key=lambda h: (len(h), sorted(h))):
        if h not in seen:
            seen |= {frozenset(x.inverse() * y * x for y in h) for x in elems}
            classes.append(h)
    return classes


def _coset_action(g, h):
    """The images of the generators of ``g`` on the right cosets of ``h``,
    each coset numbered by the order of its least element."""
    cosets = sorted({frozenset(y * x for y in h) for x in g.elements()}, key=min)
    number = {c: i for i, c in enumerate(cosets)}
    return [
        tuple(number[frozenset(y * s for y in c)] for c in cosets) for s in g.generators
    ]


def _union(actions):
    """The images of the generators on the disjoint union of the actions'
    points, in the order given."""
    out = [[] for _ in A4.generators]
    for action in actions:
        offset = len(out[0])
        for images, part in zip(out, action):
            images.extend(offset + x for x in part)
    return [Perm(images) for images in out]


def _group(actions):
    gens = _union(actions)
    return PermGroup(gens[0].degree, gens)


TRANSITIVE = [_coset_action(A4, h) for h in _subgroup_classes(A4)]


def test_a4_has_five_transitive_actions():
    """Five classes of subgroups (1, C2, C3, V4, A4), so five transitive
    actions, of degrees 12, 6, 4, 3 and 1, with kernels 1, 1, 1, V4 and A4."""
    assert [len(action[0]) for action in TRANSITIVE] == [12, 6, 4, 3, 1]
    assert [_group([action]).order() for action in TRANSITIVE] == [12, 12, 12, 3, 1]
    for action in TRANSITIVE:
        group = _group([action])
        orbit = {0}
        for _ in range(len(action[0])):
            orbit |= {g(x) for g in group.generators for x in orbit}
        assert len(orbit) == len(action[0])


def test_no_faithful_action_of_degree_at_most_9_is_two_closed():
    """Exactly 16 actions of degree 1 to 9 are faithful (one orbit of 4 or
    6 points and the rest of 1, 3 or 4), and none of them is 2-closed."""
    faithful = []
    for k in range(1, 10):
        for combo in combinations_with_replacement(TRANSITIVE, k):
            if sum(len(a[0]) for a in combo) <= 9:
                group = _group(combo)
                if group.order() == 12:
                    faithful.append(group)
    assert len(faithful) == 16
    assert sorted(g.degree for g in faithful) == [4, 5, 6, 6, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 9]
    assert not any(map(is_two_closed, faithful))


def test_the_least_two_closed_and_paired_two_closed_actions():
    """A4 on 6 + 4 points is 2-closed (the 10-point action of criterion
    3), and A4 on 6 points paired with A4 on 4 + 3 points is paired
    2-closed, of order 12, though neither side is 2-closed."""
    by_degree = {len(a[0]): a for a in TRANSITIVE}
    assert is_two_closed(_group([by_degree[6], by_degree[4]]))
    left, right = _union([by_degree[6]]), _union([by_degree[4], by_degree[3]])
    paired = PairedPermGroup((6, 7), zip(left, right))
    assert paired.order() == 12
    assert is_paired_two_closed(paired)
    assert not is_two_closed(PermGroup(6, left)) and not is_two_closed(PermGroup(7, right))
