"""The witness constructions pinned across commits.

Each sweep hashes, per input, the matrix text of a construction or the
name of the exception it raised, and compares the sha256 of the whole
sweep with a recorded value.  The inputs are seeded: coloured bipartite
graphs with missing edges, partial coloured digraphs and a catalogue of
permutation groups, each with its own ``tag_start``.  A change that moves
any entry, tag or exception of these constructions must update the
digests deliberately.
"""

import hashlib
import itertools
import json
import random

import pytest

from tropgroups.cli import main
from tropgroups.constructors import construct_from_bipartite, construct_idempotent
from tropgroups.graphs import ColouredBipartiteGraph, ColouredDigraph
from tropgroups.permgroups import PermGroup

# sha256 of the seeded sweeps below
BIPARTITE_DIGEST = "c4a179ee4ec3224d3051a11fef4a412b67ff262d50ad2bf32516d7fcdf9f0071"
DIGRAPH_DIGEST = "cafa324401ab043e17700e8ca98287ee40431212692e0e4406d1a7d0badf9265"
CATALOGUE_DIGEST = "010d4f7a42b2de960b8dde7640867e3dbad0310ff75585826dbf39e78c3595d3"

# sha256 of `construct --json` stdout, with the spec path replaced
CONSTRUCT_REPORTS = {
    "vertices-cycle5": (
        {"vertices": 5, "edges": [[i, i % 5 + 1, "a"] for i in range(1, 6)]},
        "87f1f554fa8b4221bc48094bf78ed1e4fcbd19fbbcfad4bbd550141a2ef68620",
    ),
    "omega-theta-shift33": (
        {"omega": 3, "theta": 3,
         "edges": [[1, 1, "x"], [2, 2, "x"], [3, 3, "x"], [1, 2, "y"], [2, 3, "y"], [3, 1, "y"]]},
        "f04d7cc70501d10675f65825e2cdb9cf15c07c166c6324f1ad3f50c9a832ea92",
    ),
    "bidegree-S3-regular": (
        {"bidegree": [3, 6], "generators": [["(1,2,3)", "(1,2,3)(4,5,6)"], ["(1,2)", "(1,4)(2,6)(3,5)"]]},
        "41309ea11663fa0c667c9d497793392d5a7bb97ac071271b9dd2fadba942b79d",
    ),
}

# 1-indexed cycle notation; not every group here is 2-closed
CATALOGUE = [
    (2, ["(1,2)"]),
    (3, ["(1,2,3)", "(1,2)"]),
    (3, ["(1,2,3)"]),
    (4, ["(1,2,3,4)", "(2,4)"]),
    (4, ["(1,2,3)", "(1,2)(3,4)"]),
    (4, ["(1,2)(3,4)", "(1,3)(2,4)"]),
    (5, ["(1,2,3,4,5)"]),
    (5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
    (5, ["(1,2,3)", "(1,2)", "(4,5)"]),
    (6, ["(1,2,3)(4,5,6)", "(1,4)(2,5)(3,6)"]),
    (6, ["(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)", "(1,4)(2,5)(3,6)"]),
    (6, ["(1,2)", "(1,3,5)(2,4,6)", "(3,5)(4,6)"]),
    (7, ["(1,2,3)", "(4,5,6,7)"]),
    (7, ["(1,2,3,4,5,6,7)", "(1,2,3)"]),
    (8, ["(1,2,3,4,5,6,7,8)", "(2,8)(3,7)(4,6)"]),
]


def _outcome(build):
    try:
        return build().to_text()
    except Exception as exc:  # the exception class is part of the pin
        return type(exc).__name__


def _digest(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _pair_orbits(n, m, pairs):
    """The orbits on row-column pairs of the group generated by `pairs`."""
    seen, orbits = set(), []
    for start in itertools.product(range(n), range(m)):
        if start in seen:
            continue
        orbit, stack = [], [start]
        seen.add(start)
        while stack:
            i, j = stack.pop()
            orbit.append((i, j))
            for p, q in pairs:
                image = (p[i], q[j])
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        orbits.append(orbit)
    return orbits


def _involution(rng, n):
    """A random product of disjoint transpositions on n points."""
    points = rng.sample(range(n), n)
    images = list(range(n))
    for a, b in zip(points[::2], points[1::2]):
        if rng.random() < 0.7:
            images[a], images[b] = b, a
    return images


def _random_bipartite(rng):
    """A coloured bipartite graph with n, m in 2..6 and about 15% of its
    edges missing.  About half the graphs take up to four colours edge by
    edge.  The others colour the orbits of one or two random pairs of
    involutions, with up to four colours or up to one per orbit, so that
    their automorphism groups are rarely trivial."""
    n, m, k = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 4)
    if rng.random() < 0.5:
        cells = [[(i, j)] for i in range(n) for j in range(m)]
    else:
        pairs = [(_involution(rng, n), _involution(rng, m)) for _ in range(rng.randint(1, 2))]
        cells = _pair_orbits(n, m, pairs)
    k = rng.choice([k, len(cells)])
    edges = {}
    for cell in cells:
        if rng.random() >= 0.15:
            edges.update(dict.fromkeys(cell, rng.randrange(k)))
    return ColouredBipartiteGraph(n, m, edges)


def test_construct_from_bipartite_is_pinned():
    """The sweep reaches dominated row and column orbits, the transposed
    case and the graded grids of two row orbits."""
    rng = random.Random(29)
    outcomes = []
    for _ in range(360):
        d = _random_bipartite(rng)
        tag = rng.randint(1, 40)
        outcomes.append(_outcome(lambda: construct_from_bipartite(d, tag_start=tag)))
    assert _digest(outcomes) == BIPARTITE_DIGEST


def test_construct_idempotent_on_digraphs_is_pinned():
    rng = random.Random(31)
    outcomes = []
    for _ in range(80):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        edges = {
            (i, j): rng.randrange(k)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.5
        }
        d = ColouredDigraph.from_partial(n, edges)
        tag = rng.randint(1, 40)
        outcomes.append(_outcome(lambda: construct_idempotent(d, tag_start=tag)))
    assert _digest(outcomes) == DIGRAPH_DIGEST


def test_construct_idempotent_on_groups_is_pinned():
    outcomes = []
    for k, (degree, gens) in enumerate(CATALOGUE):
        g = PermGroup.from_cycles(degree, gens)
        outcomes.append(_outcome(lambda: construct_idempotent(g, tag_start=1 + 3 * k)))
    assert _digest(outcomes) == CATALOGUE_DIGEST


@pytest.mark.parametrize("name", sorted(CONSTRUCT_REPORTS))
def test_construct_report_is_pinned(name, tmp_path, capsys):
    spec, expected = CONSTRUCT_REPORTS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["construct", str(path), "--json"]) == 0
    out = capsys.readouterr().out.replace(json.dumps(str(path)), '"<input>"')
    assert json.loads(out)["verification"]["group_matches_target"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == expected
