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

Pruning of the pair search: a solution forces, for every row pair
(i, i'), the multiset of columnwise differences of target rows (i, i') to
equal that of source rows (sigma(i), sigma(i')) up to a constant shift,
and dually for columns.  Shift-normalised difference multisets are
precomputed and compared during the search, and each vertex only tries
images with a matching profile signature.
"""

from __future__ import annotations

from .graphs import components, support_components
from .matrix import MultipleEigenvalues, TropMatrix
from .permgroups import base_and_orbit, complete, completions, search_budget
from .semiring import encode


def _support(codes):
    return [[x is not None for x in row] for row in codes]


def _pair_profiles(vectors, intern):
    """Profile id for every ordered pair of parallel code vectors.

    The profile of (u, v) is (count finite-only-in-u, finite-only-in-v,
    min-normalised multiset of differences u - v where both are finite);
    that of (v, u) is read off the same differences, negated.
    """
    k = len(vectors)
    prof = {}
    for x in range(k):
        u = vectors[x]
        for y in range(x + 1, k):
            diffs = []
            only_u = only_v = 0
            for a, b in zip(u, vectors[y]):
                if a is None:
                    only_v += b is not None
                elif b is None:
                    only_u += 1
                else:
                    diffs.append(a - b)
            diffs.sort()
            if diffs:
                lo, hi = diffs[0], diffs[-1]
                fwd = tuple(d - lo for d in diffs)
                back = tuple(hi - d for d in reversed(diffs))
            else:
                fwd = back = ()
            prof[x, y] = intern.setdefault((only_u, only_v, fwd), len(intern))
            prof[y, x] = intern.setdefault((only_v, only_u, back), len(intern))
    return prof


def _signatures(prof, degs, k):
    sigs = []
    for x in range(k):
        rel = sorted(prof[(x, y)] for y in range(k) if y != x)
        sigs.append((degs[x], tuple(rel)))
    return sigs


def cycle_mean(sigma, codes) -> tuple[int, int]:
    """(k, S) for the unit of pattern sigma and scaling codes ``codes``:
    k is the length of the cycle of sigma through point 0 and S the code
    sum of the scalings along it, so the unit's eigenvalue is S/k.
    Raises MultipleEigenvalues when another cycle's mean differs, naming
    the two cycles by a point (counted from 1) and their lengths."""
    mean = None
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        total, k, i = codes[start], 1, sigma[start]
        while i != start:
            seen[i] = True
            total += codes[i]
            k, i = k + 1, sigma[i]
        if mean is None:
            mean = k, total
        elif mean[0] * total != k * mean[1]:
            raise MultipleEigenvalues(
                f"cycle means differ: the cycle through point 1 (length {mean[0]})"
                f" vs the cycle through point {start + 1} (length {k})"
            )
    return mean


def _eigenvalue_zero(decode, sigma, *scalings):
    """The scalings of a unit of pattern sigma, and of its mate, given as
    codes and returned as scalars, each x shifted to x - S/k by the unit's
    ``cycle_mean``: the code k*x - S decoded with the divisor k."""
    k, total = cycle_mean(sigma, scalings[0])
    if not total:
        return [tuple(map(decode, xs)) for xs in scalings]
    return [
        tuple(decode(k * x - total, k) for x in xs)
        for xs in scalings
    ]


class NotConnected(ValueError):
    """The finite-entry graph of the matrix is not connected."""


def _vertex_order(supp):
    """Points (side, index), side 0 for rows and 1 for columns, in search
    order: anchor at the column with most finite entries, then grow the
    assigned region greedily, preferring points with many assigned
    neighbours, alternating sides on ties, then rows, then low indices.
    ``supp[side][x][y]`` tells whether point x of that side meets point y
    of the other in a finite entry."""
    cnt = [[0] * len(supp[0]), [0] * len(supp[1])]
    left = [(side, x) for side in (0, 1) for x in range(len(supp[side]))]
    point = (1, max(range(len(supp[1])), key=lambda j: (sum(supp[1][j]), -j)))
    order = []
    while True:
        order.append(point)
        left.remove(point)
        side, x = point
        for y, finite in enumerate(supp[side][x]):
            cnt[1 - side][y] += finite
        if not left:
            return order
        point = max(left, key=lambda p: (cnt[p[0]][p[1]], p[0] != side, -p[1], -p[0]))


class _PairSearch:
    """The live partial assignment of a joint row/column search.

    Points are (side, index), side 0 for rows and 1 for columns, and each
    side keeps its own view of the matrices (columns transposed).  With
    the column scalings nu = -mu the equation of one entry,

        lam_i + nu_j = A[i][j] - B[sigma(i)][tau(j)],

    reads the same from either side, so one ``push`` assigns a row or a
    column.
    """

    name = "pair search"

    def __init__(self, target: TropMatrix, source: TropMatrix):
        if target.shape != source.shape:
            raise ValueError("target and source must have equal shape")
        n = target.nrows
        codes, self.decode = encode(*target.entries, *source.entries)
        self.a = (codes[:n], list(zip(*codes[:n])))
        self.b = (codes[n:], list(zip(*codes[n:])))
        supp = [_support(a) for a in self.a]
        if len(support_components(supp[0])) != 1:
            raise NotConnected("target support graph is disconnected")
        self.budget = search_budget.current()
        self.prof, self.cands = [], []
        for side, (a, b) in enumerate(zip(self.a, self.b)):
            intern: dict = {}
            k = len(a)
            prof_a = _pair_profiles(a, intern)
            sig_a = _signatures(prof_a, [sum(r) for r in supp[side]], k)
            if b == a:  # one matrix: its profiles serve both sides
                prof_b, sig_b = prof_a, sig_a
            else:
                prof_b = _pair_profiles(b, intern)
                sig_b = _signatures(prof_b, [sum(r) for r in _support(b)], k)
            self.prof.append((prof_a, prof_b))
            self.cands.append(
                [[(side, y) for y in range(k) if sig_b[y] == sig_a[x]] for x in range(k)]
            )
        self.order = _vertex_order(supp)
        self.image = [[-1] * len(a) for a in self.a]
        self.scaling: list = [[None] * len(a) for a in self.a]
        self.used = [[False] * len(a) for a in self.a]
        self.assigned: tuple[list[int], list[int]] = ([], [])

    def candidates(self, point):
        side, x = point
        return self.cands[side][x]

    def push(self, point, image) -> bool:
        """Assign ``point`` to ``image`` if that agrees with the profiles,
        supports and scalings of every assigned point."""
        side, x = point
        y = image[1]
        if self.used[side][y]:
            return False
        prof_a, prof_b = self.prof[side]
        img = self.image[side]
        for x2 in self.assigned[side]:
            if prof_a[(x, x2)] != prof_b[(y, img[x2])]:
                return False
        other = 1 - side
        row_a, row_b = self.a[side][x], self.b[side][y]
        o_img, o_scal = self.image[other], self.scaling[other]
        # the first point anchors the scalings at 0, the zero code of any basis
        s = None if self.assigned[0] or self.assigned[1] else 0
        for x2 in self.assigned[other]:
            ea, eb = row_a[x2], row_b[o_img[x2]]
            if (ea is None) != (eb is None):
                return False
            if ea is not None:
                cand = ea - eb - o_scal[x2]
                if s is None:
                    s = cand
                elif s != cand:
                    return False
        if s is None:
            return False
        img[x] = y
        self.scaling[side][x] = s
        self.used[side][y] = True
        self.assigned[side].append(x)
        return True

    def pop(self, point):
        side, x = point
        self.assigned[side].pop()
        self.used[side][self.image[side][x]] = False

    def next_point(self):
        """The next point of the search order, None once all are assigned."""
        level = len(self.assigned[0]) + len(self.assigned[1])
        return self.order[level] if level < len(self.order) else None

    def solution(self):
        """(sigma, tau, lam, nu) of the full assignment, scalings as codes."""
        (sigma, tau), (lam, nu) = self.image, self.scaling
        return tuple(sigma), tuple(tau), tuple(lam), tuple(nu)

    def decoded(self, found, eigenvalue_zero: bool):
        """A ``solution()`` as (sigma, tau, lam, mu) with mu = -nu,
        scalings as scalars, shifted to eigenvalue 0 if asked."""
        sigma, tau, lam, nu = found
        mu = tuple(-x for x in nu)
        if eigenvalue_zero:
            return (sigma, tau, *_eigenvalue_zero(self.decode, sigma, lam, mu))
        return sigma, tau, tuple(map(self.decode, lam)), tuple(map(self.decode, mu))


def _image(found, point):
    """The image of a point (side, index) under a ``solution()``."""
    side, x = point
    return side, found[side][x]


def pair_solutions(target: TropMatrix, source: TropMatrix, *, first_only: bool = False):
    """Solutions (sigma, tau, lam, mu) of P @ source = target @ Q.  With
    ``first_only``, the first one found, if any, mu anchored to 0 at the
    search root.  Otherwise target and source must be equal, and the
    result generates the group of feasible pattern pairs, each pair
    shifted by the eigenvalue of P to eigenvalue 0.  Requires the target
    support graph to be connected."""
    if not first_only and target != source:
        raise ValueError("generators need equal target and source")
    search = _PairSearch(target, source)
    if first_only:
        first = complete(search)
        return [] if first is None else [search.decoded(first, eigenvalue_zero=False)]
    return [
        search.decoded(f, eigenvalue_zero=True)
        for f in base_and_orbit(search, search.order, act=_image)[0]
    ]


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
        self.e, self.decode = encode(*e.entries)
        supp = _support(self.e)

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
        return (tuple(self.sigma), *_eigenvalue_zero(self.decode, self.sigma, self.lam))


def commuting_solutions(e: TropMatrix):
    """All (sigma, lam) with P @ E = E @ P, one per pattern, shifted to
    eigenvalue 0 and sorted by pattern: every completion of a
    ``_CommutingSearch``.  Requires the symmetrised off-diagonal support
    to be connected.
    """
    return sorted(completions(_CommutingSearch(e)), key=lambda s: s[0])
