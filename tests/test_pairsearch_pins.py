"""The pair search pinned across commits.

Each sweep hashes, per seeded connected matrix, the results of
``pair_solutions``: the generators (sigma, tau, lam, mu) of the unit
stabilizer pairs of A, and the first solution found for a relabelled and
rescaled copy of A, or for a copy that is not equivalent to it.  The
matrices repeat their entries, or take them constant on the orbits of a
few row and column involutions, so that most have nontrivial pairs.  A
change that moves any generator, its order, its scalings or a first
solution must update the digests deliberately.
"""

import hashlib
import itertools
import random

from tropgroups.graphs import support_components
from tropgroups.matrix import TropMatrix
from tropgroups.pairsearch import pair_solutions
from tropgroups.semiring import NEG_INF, eps, val

from helpers import ref_pair_solvable

# sha256 of the seeded sweeps below
GENERATORS_DIGEST = "667869e03dfd93af7e01a39857693c6d9f909f6e81dc15aba3bbf2346088f269"
FIRST_DIGEST = "41521aa196b8af5a030b8cb3060ea90adb0c396921ee11785361c5b74d42ad36"

SWEEP = 200


def _digest(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _involution(rng, n):
    """A random product of disjoint transpositions on n points."""
    points = rng.sample(range(n), n)
    images = list(range(n))
    for a, b in zip(points[::2], points[1::2]):
        images[a], images[b] = b, a
    return images


def _cells(rng, n, m):
    """Cells of an n x m matrix in classes that share an entry: single
    cells, or the orbits of one or two pairs of row and column involutions."""
    if rng.random() < 0.4:
        return [[(i, j)] for i in range(n) for j in range(m)]
    pairs = [(_involution(rng, n), _involution(rng, m)) for _ in range(rng.randint(1, 2))]
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
                if (p[i], q[j]) not in seen:
                    seen.add((p[i], q[j]))
                    stack.append((p[i], q[j]))
        orbits.append(orbit)
    return orbits


def _scalar(rng):
    """A finite scalar from a small pool, so that entries repeat."""
    return val(rng.randrange(3)) + (eps(1) if rng.random() < 0.3 else val(0))


def _connected(rng, max_side):
    """A seeded matrix of shape up to max_side x max_side whose
    finite-entry graph is connected."""
    while True:
        n, m = rng.randint(1, max_side), rng.randint(1, max_side)
        rows = [[NEG_INF] * m for _ in range(n)]
        for cell in _cells(rng, n, m):
            x = NEG_INF if rng.random() < 0.2 else _scalar(rng)
            for i, j in cell:
                rows[i][j] = x
        a = TropMatrix(rows)
        supp = [[x is not NEG_INF for x in row] for row in rows]
        if len(support_components(supp)) == 1:
            return a


def _relabelled(rng, a):
    """P a Q for a random row and column relabelling and random scalings:
    lam_i + a[sigma(i)][tau(j)] - mu_j."""
    n, m = a.shape
    sigma, tau = rng.sample(range(n), n), rng.sample(range(m), m)
    lam = [val(rng.randint(-3, 3)) + eps(2, rng.randint(-1, 1)) for _ in range(n)]
    mu = [val(rng.randint(-3, 3)) for _ in range(m)]
    rows = a.entries
    return TropMatrix(
        [
            [
                NEG_INF if rows[sigma[i]][tau[j]] is NEG_INF else lam[i] + rows[sigma[i]][tau[j]] - mu[j]
                for j in range(m)
            ]
            for i in range(n)
        ]
    )


def _perturbed(rng, b):
    """b with one finite entry moved by a tag no entry carries."""
    cells = [(i, j) for i, row in enumerate(b.entries) for j, x in enumerate(row) if x is not NEG_INF]
    i, j = rng.choice(cells)
    rows = [list(row) for row in b.entries]
    rows[i][j] = rows[i][j] + eps(9)
    return TropMatrix(rows)


def test_pair_solution_generators_are_pinned():
    rng = random.Random(41)
    outcomes = []
    nontrivial = 0
    for _ in range(SWEEP):
        a = _connected(rng, 6)
        gens = pair_solutions(a, a)
        nontrivial += bool(gens)
        outcomes.append(gens)
    assert nontrivial > SWEEP // 2
    assert _digest(outcomes) == GENERATORS_DIGEST


def test_first_pair_solutions_are_pinned():
    """Relabelled and rescaled copies always have a solution; a copy with
    one entry moved has one exactly when the brute-force oracle finds one,
    and most have none."""
    rng = random.Random(43)
    outcomes = []
    refused = 0
    for k in range(SWEEP):
        a = _connected(rng, 6 if k % 2 else 4)
        b = _relabelled(rng, a)
        first = pair_solutions(b, a, first_only=True)
        assert len(first) == 1
        outcomes.append(first)
        if k % 2 == 0:
            c = _perturbed(rng, b)
            first = pair_solutions(c, a, first_only=True)
            assert bool(first) == ref_pair_solvable(c, a)
            refused += not first
            outcomes.append(first)
    assert refused > SWEEP // 4
    assert _digest(outcomes) == FIRST_DIGEST
