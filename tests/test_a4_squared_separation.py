"""A4 x A4 at n = 16, the paper's own separation example.

R x (A4 x A4) is the Schützenberger group of a 13 x 13 matrix: the
``bidegree`` witness pairs A4_1 on 6 points and A4_2 on 4 + 3 points
with the same two actions swapped, the shape of the paper's 16 x 16
matrix (4 + 12 against 12 + 4).  It is not a maximal subgroup of
M_16(T) when no faithful action of A4 x A4 on at most 16 points is
2-closed, since a maximal subgroup's finite factor is 2-closed on its
component (the classification the program implements).

The enumeration is kept here, on the library's ``PermGroup`` for the
elements and ``is_two_closed`` and ``is_paired_two_closed`` for the
checks.  The group is A4 x A4 on
8 points, its elements numbered with a multiplication table.  Every
subgroup is a join of cyclic subgroups, and a subgroup conjugate to H
joined with c is conjugate to H joined with a conjugate of c, so joining
one subgroup per conjugacy class with every cyclic subgroup reaches every
class.  The transitive actions are the right coset actions of one
subgroup per class, and an action is a multiset of transitive ones,
faithful when the cores of its point stabilizers meet in the identity.
"""

import json
from functools import cache

from tropgroups.cli import main, verify_flags
from tropgroups.matrix import parse_matrix
from tropgroups.permgroups import (
    PairedPermGroup,
    Perm,
    PermGroup,
    is_paired_two_closed,
    is_two_closed,
)
from tropgroups.stabilizer import analyze_matrix, classification_conditions

A4_SQUARED = PermGroup.from_cycles(8, ["(1,2,3)", "(1,2)(3,4)", "(5,6,7)", "(5,6)(7,8)"])
MAX_DEGREE = 16


@cache
def _table():
    """The elements of A4 x A4 by number, their product table (apply
    the row's element first), the inverses and the identity's number."""
    elems = sorted(A4_SQUARED.elements())
    number = {x: i for i, x in enumerate(elems)}
    mul = [[number[x * y] for y in elems] for x in elems]
    inv = [number[x.inverse()] for x in elems]
    return elems, mul, inv, number[Perm(range(8))]


def _conjugates(h):
    """The subgroups conjugate to ``h``, each a frozenset of numbers."""
    _elems, mul, inv, _e = _table()
    return {frozenset(mul[mul[inv[x]][y]][x] for y in h) for x in range(len(mul))}


def _join(h, gens, c):
    """The subgroup generated by ``h`` (generated by ``gens``) and the
    element ``c``, and its generators: the right cosets of ``h`` that
    right multiplication by the generators reaches from ``h``."""
    _elems, mul, _inv, e = _table()
    gens = [*gens, c]
    joined, reps = set(h), [e]
    for x in reps:
        for g in gens:
            y = mul[x][g]
            if y not in joined:
                joined.update(mul[z][y] for z in h)
                reps.append(y)
    return frozenset(joined), gens


@cache
def _subgroup_classes():
    """One subgroup per conjugacy class, in the order found, and the
    number of subgroups in all."""
    elems, mul, _inv, e = _table()
    cyclic = {}
    for x in range(len(elems)):
        powers, y = {e}, x
        while y != e:
            powers.add(y)
            y = mul[y][x]
        cyclic.setdefault(frozenset(powers), x)
    trivial = frozenset([e])
    classes, seen = [(trivial, [])], {trivial}
    for h, gens in classes:
        for c in cyclic.values():
            if c not in h:
                k, kgens = _join(h, gens, c)
                if k not in seen:
                    seen |= _conjugates(k)
                    classes.append((k, kgens))
    return [h for h, _ in classes], len(seen)


@cache
def _transitive_actions():
    """(images of the group's generators on the right cosets, core) for
    one subgroup per class of index at most MAX_DEGREE, by degree."""
    elems, mul, _inv, _e = _table()
    out = []
    for h in _subgroup_classes()[0]:
        if len(elems) // len(h) > MAX_DEGREE:
            continue
        cosets = sorted({frozenset(mul[z][x] for z in h) for x in range(len(elems))}, key=min)
        index = {c: i for i, c in enumerate(cosets)}
        gens = [elems.index(s) for s in A4_SQUARED.generators]
        images = [
            tuple(index[frozenset(mul[x][g] for x in c)] for c in cosets) for g in gens
        ]
        out.append((images, frozenset.intersection(*_conjugates(h))))
    return sorted(out, key=lambda action: len(action[0][0]))


@cache
def _faithful_actions():
    """Every faithful action of degree at most MAX_DEGREE, as the images
    of the group's generators on the disjoint union of its transitive
    parts."""
    actions, found = _transitive_actions(), []

    def extend(parts, start, degree, core):
        if parts and len(core) == 1:
            found.append(parts)
        for i in range(start, len(actions)):
            images, part_core = actions[i]
            if degree + len(images[0]) <= MAX_DEGREE:
                extend(parts + [images], i, degree + len(images[0]), core & part_core)

    extend([], 0, 0, frozenset(range(len(_table()[0]))))
    unions = []
    for parts in found:
        gens = [[] for _ in A4_SQUARED.generators]
        for images in parts:
            offset = len(gens[0])
            for out, part in zip(gens, images):
                out.extend(offset + x for x in part)
        unions.append([Perm(x) for x in gens])
    return unions


def test_a4_squared_has_216_subgroups_in_41_classes():
    """216 subgroups in 41 conjugacy classes, of which 21 have index at
    most 16: the transitive actions of degree 1 to 16."""
    classes, total = _subgroup_classes()
    assert (total, len(classes)) == (216, 41)
    degrees = [len(images[0]) for images, _ in _transitive_actions()]
    assert degrees == [1, 3, 3, 3, 3, 4, 4, 6, 6, 9, *[12] * 10, 16]


def test_no_faithful_action_of_degree_at_most_16_is_two_closed():
    """226 actions of degree at most 16 are faithful, the least of
    degree 8, and none of them is 2-closed."""
    groups = [PermGroup(gens[0].degree, gens) for gens in _faithful_actions()]
    assert len(groups) == 226
    assert {g.order() for g in groups} == {144}
    assert min(g.degree for g in groups) == 8
    assert not any(map(is_two_closed, groups))


def test_no_pair_of_faithful_actions_of_degree_at_most_12_is_paired_two_closed():
    """24 faithful actions have degree at most 12, and none of their 576
    ordered pairs, matched generator by generator, is paired 2-closed."""
    small = [gens for gens in _faithful_actions() if gens[0].degree <= 12]
    assert len(small) == 24
    for left in small:
        for right in small:
            paired = PairedPermGroup((left[0].degree, right[0].degree), zip(left, right))
            assert not is_paired_two_closed(paired), (left, right)


def test_the_13_by_13_witness(tmp_path, capsys):
    """A4_1 on 6 points and A4_2 on 4 + 3 against A4_1 on 4 + 3 and A4_2
    on 6: ``construct`` gives a 13 x 13 matrix of (R x A4xA4), order 144,
    which meets the classification conditions at n = 13, and ``verify``
    sets every flag."""
    six = ["(1,4,2)(3,5,6)", "(2,5)(3,4)"]
    four_three = ["(1,2,3)(5,6,7)", "(1,2)(3,4)"]

    def shifted(cycles, by):
        return "".join(
            "(" + ",".join(str(int(p) + by) for p in c.split(",")) + ")"
            for c in cycles.strip("()").split(")(")
        )

    pairs = [[x, y] for x, y in zip(six, four_three)]
    pairs += [[shifted(x, 6), shifted(y, 7)] for x, y in zip(four_three, six)]
    spec = tmp_path / "a4sq.json"
    spec.write_text(json.dumps({"bidegree": [13, 13], "generators": pairs}))
    out_path = tmp_path / "a4sq.txt"
    assert main(["construct", str(spec), "-o", str(out_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["group_matches_target"] is True
    assert (report["matrix"]["rows"], report["matrix"]["cols"]) == (13, 13)

    a = parse_matrix(out_path.read_text())
    desc = analyze_matrix(a).description
    assert (desc.formula(), desc.finite_order) == ("(R x A4xA4)", 144)
    assert [(f.degree, f.col_degree) for f in desc.factors] == [(13, 13)]
    assert classification_conditions(desc, 13, 13)
    flags = verify_flags(a)
    assert all(flags.values()), flags
