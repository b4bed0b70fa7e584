"""Joint row/column assignment backtracking for unit equations.

Solves, for matrices A (target) and B (source) of the same shape, the
system

    lam_i + B[sigma(i)][tau(j)] = A[i][j] + mu_j     for all i, j,

including the support condition (the two sides must be finite together).
Equivalently P @ B = A @ Q for the monomial matrices P (pattern sigma,
scalings lam) and Q (pattern tau, scalings mu).  With A = B the solutions
are the unit-stabilizer pairs of A.

For a connected support graph the scalings of a feasible (sigma, tau) form
a one-parameter family; the search anchors mu at one column to 0, so each
solution it finds represents one feasible pattern pair.  With A = B the
feasible pattern pairs form a group, and the search returns generators of
it, found by ``permgroups.base_and_orbit`` one first-only completion per
image of a base point that the generators found at that point do not
already reach, never the whole group.  ``permgroups.complete`` makes
every completion, extending the points in the order of ``_vertex_order``.
The independent check of this search on an idempotent E is a search
state of its own, ``_CommutingSearch``, which maps rows only, checks
P @ E = E @ P in full against every mapped row, and shares none of the
pruning below: ``base_and_orbit`` over it gives generators and the order
of the commuting group, and ``commuting_solutions`` lists every
completion.  All spend ``permgroups``' search budget, one node per push,
and return their units shifted to eigenvalue 0 on codes (``cycle_mean``).

Pruning of the pair search: it is the automorphism search of
``permgroups`` on the n + m joint points (rows, then columns), mapping
the target's pair colours onto the source's.  Two rows (two columns) are
coloured by their shift-normalised multiset of columnwise (rowwise)
differences, which every solution keeps (``_pair_profiles``, keyed by
the gaps of the sorted differences), and a row and a column by whether
their entry is finite.  The refinement of those colours and one AND per
unmapped point and push do all the pruning but the scaling fit, the one
check that ``push`` adds.

Set-up is one pass per matrix: the search reads the codes of its
matrices (one basis for both), a source equal to the target is keyed
once, and the connectivity of the target's support is read
off the search order (``_vertex_order``), whose points after the first
each meet one placed before them exactly when the support is connected.
"""

from __future__ import annotations

from operator import getitem, sub

from .graphs import components
from .matrix import MonomialMatrix, TropMatrix, _joint, cycle_mean
from .permgroups import _AutomorphismSearch, base_and_orbit, complete, completions, search_budget


def _pair_profiles(vectors, intern):
    """Profile ids of the ordered pairs of parallel code vectors, as rows
    with -1 on the diagonal.

    The profile of (u, v) names the count of entries finite only in u,
    that finite only in v, and the min-normalised multiset of the
    differences u - v where both are finite; it is keyed by those two
    counts, the number of differences and the gaps between them, sorted.
    The count keeps a disjoint pair apart from a pair with one common
    entry, whose gaps are empty too.  The reversed pair (v, u) has the
    same differences negated, so the gaps reversed, and each id also
    names the profile of the reversed pair.
    """
    k = len(vectors)
    prof = [[-1] * k for _ in range(k)]
    finite = [len(u) - u.count(None) for u in vectors]
    for x in range(k):
        u = vectors[x]
        for y in range(x + 1, k):
            diffs = [a - b for a, b in zip(u, vectors[y]) if a is not None and b is not None]
            diffs.sort()
            c = len(diffs)
            gaps = tuple(map(sub, diffs[1:], diffs))
            only_u, only_v = finite[x] - c, finite[y] - c
            prof[x][y] = intern.setdefault((only_u, only_v, c, gaps), len(intern))
            prof[y][x] = intern.setdefault((only_v, only_u, c, gaps[::-1]), len(intern))
    return prof


# the keys of a row and a column, by whether their entry is finite: no
# pair of one side has them
_EMPTY, _FINITE = -2, -3


def _joint_key(codes, intern):
    """The pair colours of the n + m joint points of a matrix of codes
    (rows, then column j at n + j): two rows or two columns are coloured
    by their profile id, a row and a column by whether their entry is
    finite, and the diagonal is -1."""
    cols = list(zip(*codes))
    cross = [[_EMPTY if x is None else _FINITE for x in row] for row in codes]
    return [p + c for p, c in zip(_pair_profiles(codes, intern), cross)] + [
        [*c, *p] for c, p in zip(zip(*cross), _pair_profiles(cols, intern))
    ]


def _eigenvalue_zero(basis, sigma, *scalings):
    """(basis, codes): the scaling codes of a unit of pattern sigma, and
    of its mate, shifted by the unit's ``cycle_mean`` S/k to x - S/k: the
    codes x - S/k over ``basis`` where k divides every field of S, else
    the codes k*x - S over ``basis.refined(k)``."""
    k, total = cycle_mean(sigma, scalings[0])
    if not any(c % k for c in basis.fields(total)):
        s = total // k
        return basis, [tuple(x - s for x in xs) for xs in scalings]
    return basis.refined(k), [tuple(k * x - total for x in xs) for xs in scalings]


class NotConnected(ValueError):
    """The finite-entry graph of the matrix is not connected."""


def _vertex_order(cross, n):
    """The joint points (rows, then column j at n + j) in search order:
    anchor at the column with most finite entries, then grow the assigned
    region greedily, preferring points with many assigned neighbours,
    alternating sides on ties, then low indices, then rows.  ``cross[v]``
    holds v's entries with the other side, None where not finite.  Raises
    NotConnected when the finite entries do not join every point, which
    shows as a next point with no placed neighbour."""
    cnt = [0] * len(cross)
    left = list(range(len(cross)))

    def rank(v):  # against the point placed last
        side = v >= n
        return cnt[v], side != (point >= n), n * side - v, not side

    point = max(left[n:], key=lambda v: (len(cross[v]) - cross[v].count(None), -v))
    order = []
    while True:
        order.append(point)
        left.remove(point)
        for u, x in enumerate(cross[point]):
            cnt[u] += x is not None
        if not left:
            return order
        point = max(left, key=rank)
        if not cnt[point]:  # no point left meets a placed one
            raise NotConnected("target support graph is disconnected")


class _PairSearch(_AutomorphismSearch):
    """The live partial map of a joint row/column search: the search for
    maps of the target's pair colours (``_joint_key``) onto the source's,
    on the n + m joint points, that also fit scalings.

    With the column scalings nu = -mu the equation of one entry,

        lam_i + nu_j = A[i][j] - B[sigma(i)][tau(j)],

    reads the same from a row and from a column, so one ``push`` maps a
    point of either side, in the static order of ``_vertex_order``.
    """

    name = "pair search"

    def __init__(self, target: TropMatrix, source: TropMatrix):
        if target.shape != source.shape:
            raise ValueError("target and source must have equal shape")
        n, m = target.shape
        (a, b), self.basis = _joint(target, source)
        if b == a:  # one matrix: one key
            b = a
        cross = _cross(a)
        self.order = _vertex_order(cross, n)
        intern: dict = {}
        key = _joint_key(a, intern)
        onto = None if b is a else _joint_key(b, intern)
        super().__init__(n + m, key, [0] * n + [1] * m, onto)
        self.n = n
        # each point's finite target entries (place in the order, point
        # met, code), in search order, and each point's source entries
        self.meets = [[] for _ in range(n + m)]
        for k, u in enumerate(self.order):
            for v, x in enumerate(cross[u]):
                if x is not None:
                    self.meets[v].append((k, u, x))
        self.source = cross if onto is None else _cross(b)
        self.scaling: list = [None] * (n + m)

    def push(self, v, w) -> bool:
        """Map v to w if one scaling of v fits every finite entry it meets
        in a mapped point, and narrow the other domains (``_map``)."""
        depth = len(self.levels) - 1
        # the first point anchors the scalings at 0, the zero code of any basis
        s = None if depth else 0
        row_b, image, scaling = self.source[w], self.image, self.scaling
        for k, u, ea in self.meets[v]:
            if k >= depth:
                break
            # w is in v's domain, so the source entry is finite too
            cand = ea - row_b[image[u]] - scaling[u]
            if s is None:
                s = cand
            elif s != cand:
                return False
        if not self._map(v, w):
            return False
        scaling[v] = s
        return True

    def next_point(self):
        """The next point of the search order, None once all are mapped."""
        depth = len(self.levels) - 1
        return self.order[depth] if depth < self.nv else None

    def solution(self):
        """The joint images of the full map, then its joint scalings as codes."""
        return (*self.image, *self.scaling)

    def units(self, found, eigenvalue_zero: bool):
        """A ``solution()`` as the unit pair (P, Q) of patterns sigma, tau
        and scalings lam, mu = -nu, shifted to eigenvalue 0 if asked, over
        the basis of the search or the one the shift returns."""
        n, nv, basis = self.n, self.nv, self.basis
        sigma, tau = found[:n], tuple(y - n for y in found[n:nv])
        scalings = (found[nv:nv + n], tuple(-x for x in found[nv + n:]))
        if eigenvalue_zero:
            basis, scalings = _eigenvalue_zero(basis, sigma, *scalings)
        return tuple(map(MonomialMatrix._derived, (sigma, tau), scalings, (basis, basis)))


def _cross(codes):
    """Each joint point's row of entries with the points of the other
    side, None at the points of its own side and where no entry is finite."""
    n, m = len(codes), len(codes[0])
    return [[None] * n + list(row) for row in codes] + [[*col] + [None] * m for col in zip(*codes)]


class PairSolution(tuple):
    """A solution (sigma, tau, lam, mu) of ``pair_solutions``.  Its
    ``units`` are the unit pair (P, Q) it reads, over the search's basis
    or, where the shift to eigenvalue 0 does not divide in it, a
    refinement of that basis."""

    def __new__(cls, units):
        p, q = units
        sol = super().__new__(cls, (p.sigma, q.sigma, p.scalings, q.scalings))
        sol.units = units
        return sol


def pair_solutions(target: TropMatrix, source: TropMatrix, *, first_only: bool = False):
    """Solutions (sigma, tau, lam, mu) of P @ source = target @ Q.  With
    ``first_only``, the first one found, if any, mu anchored to 0 at the
    search root.  Otherwise target and source must be equal, and the
    result generates the group of feasible pattern pairs, each pair
    shifted by the eigenvalue of P to eigenvalue 0.  Each solution is a
    ``PairSolution``.  Requires the target support graph to be connected."""
    if not first_only and target != source:
        raise ValueError("generators need equal target and source")
    search = _PairSearch(target, source)
    if first_only:
        first = complete(search)
        found = [] if first is None else [search.units(first, eigenvalue_zero=False)]
    else:
        gens = base_and_orbit(search, search.order, act=getitem)[0]
        found = [search.units(f, eigenvalue_zero=True) for f in gens]
    return list(map(PairSolution, found))


class _CommutingSearch:
    """The live partial map of the rows of a square matrix E, row i to
    sigma(i) with scaling lam_i, on which P @ E = E @ P holds: lam_i +
    E[sigma(i)][sigma(i2)] = E[i][i2] + lam_i2, both sides finite together.
    Rows are mapped in the breadth-first order of the symmetrised
    off-diagonal support from the row with most neighbours, lowest first,
    so each row after that anchor (scaling 0) meets one mapped before it.
    """

    name = "commutation search"

    def __init__(self, e: TropMatrix):
        if not e.is_square():
            raise ValueError("commutation search needs a square matrix")
        n = e.nrows
        self.e, self.basis = e.codes, e.basis
        supp = [[x is not None for x in row] for row in self.e]

        def neighbours(i):
            return [j for j in range(n) if j != i and (supp[i][j] or supp[j][i])]

        anchor = max(range(n), key=lambda i: (len(neighbours(i)), -i))
        self.order = components([anchor], neighbours)[0]
        if len(self.order) != n:
            raise NotConnected("finite-entry graph of the matrix is disconnected")
        self.budget = search_budget.current()
        self.sigma = [-1] * n
        self.lam: list = [None] * n
        self.used = [False] * n
        self.mapped: list[int] = []

    def candidates(self, i):
        """The unused rows with the diagonal code of row i."""
        e = self.e
        return [r for r in range(len(e)) if not self.used[r] and e[r][r] == e[i][i]]

    def push(self, i, r) -> bool:
        """Map row i to r if the equation holds, both ways, between i and
        every mapped row, for one scaling of i."""
        e, sigma, lam = self.e, self.sigma, self.lam
        s = None if self.mapped else 0
        for i2 in self.mapped:
            r2 = sigma[i2]
            # lam_i is lam_i2 + (E[i][i2] - E[r][r2]), and lam_i2 + (E[r2][r] - E[i2][i])
            for x, y in ((e[i][i2], e[r][r2]), (e[r2][r], e[i2][i])):
                if (x is None) != (y is None):
                    return False
                if x is not None:
                    cand = lam[i2] + x - y
                    if s is not None and s != cand:
                        return False
                    s = cand
        sigma[i], lam[i] = r, s
        self.used[r] = True
        self.mapped.append(i)
        return True

    def pop(self, i):
        self.mapped.pop()
        self.used[self.sigma[i]] = False

    def next_point(self):
        """The next row of the order, None once all are mapped."""
        k = len(self.mapped)
        return self.order[k] if k < len(self.order) else None

    def solution(self):
        """(sigma, lam) of the full map, lam shifted to eigenvalue 0."""
        basis, (lam,) = _eigenvalue_zero(self.basis, self.sigma, self.lam)
        return tuple(self.sigma), tuple(map(basis, lam))


def commuting_solutions(e: TropMatrix):
    """All (sigma, lam) with P @ E = E @ P, one per pattern, shifted to
    eigenvalue 0 and sorted by pattern: every completion of a
    ``_CommutingSearch``.  Requires the symmetrised off-diagonal support
    to be connected.
    """
    return sorted(completions(_CommutingSearch(e)), key=lambda s: s[0])
