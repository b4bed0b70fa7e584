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
Both spend ``permgroups``' search budget, one node per push; so does the
independent check of this search, ``commuting_solutions``, in its own loop.
Both return their units shifted to eigenvalue 0 on codes (``cycle_mean``).

Pruning: a solution forces, for every row pair (i, i'), the multiset of
columnwise differences of target rows (i, i') to equal that of source rows
(sigma(i), sigma(i')) up to a constant shift, and dually for columns.
Shift-normalised difference multisets are precomputed and compared during
the search, and each vertex only tries images with a matching profile
signature.
"""

from __future__ import annotations

from operator import add, neg, sub

from .graphs import components, support_components
from .matrix import MultipleEigenvalues, TropMatrix
from .permgroups import base_and_orbit, complete, search_budget
from .semiring import ZERO, encode


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
                    diffs.append(tuple(map(sub, a, b)))
            diffs.sort()
            if diffs:
                lo, hi = diffs[0], diffs[-1]
                fwd = tuple(tuple(map(sub, d, lo)) for d in diffs)
                back = tuple(tuple(map(sub, hi, d)) for d in reversed(diffs))
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


def cycle_mean(sigma, codes) -> tuple[int, tuple[int, ...]]:
    """(k, S) for the unit of pattern sigma and scaling codes ``codes``:
    k is the length of the cycle of sigma through point 0 and S the code
    sum of the scalings along it, so the unit's eigenvalue is S/k.
    Raises MultipleEigenvalues when another cycle's mean differs."""
    mean = None
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        total, k, i = codes[start], 1, sigma[start]
        while i != start:
            seen[i] = True
            total = tuple(map(add, total, codes[i]))
            k, i = k + 1, sigma[i]
        if mean is None:
            mean = k, total
        elif any(mean[0] * t != k * s for s, t in zip(mean[1], total)):
            raise MultipleEigenvalues(
                f"cycle means differ: codes {mean[1]}/{mean[0]} vs {total}/{k}"
            )
    return mean


def _eigenvalue_zero(decode, sigma, *scalings):
    """The scalings of a unit of pattern sigma, and of its mate, given as
    codes and returned as scalars, each x shifted to x - S/k by the unit's
    ``cycle_mean``: the code k*x - S decoded with the divisor k."""
    k, total = cycle_mean(sigma, scalings[0])
    if not any(total):
        return [tuple(map(decode, xs)) for xs in scalings]
    return [
        tuple(decode(tuple(k * c - s for c, s in zip(x, total)), k) for x in xs)
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
        ((self.zero,), *codes), self.decode = encode(
            (ZERO,), *target.entries, *source.entries
        )
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
        # the first point anchors the scalings at 0
        s = None if self.assigned[0] or self.assigned[1] else self.zero
        for x2 in self.assigned[other]:
            ea, eb = row_a[x2], row_b[o_img[x2]]
            if (ea is None) != (eb is None):
                return False
            if ea is not None:
                cand = tuple(map(sub, map(sub, ea, eb), o_scal[x2]))
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
        mu = tuple(tuple(map(neg, x)) for x in nu)
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


def commuting_solutions(e: TropMatrix):
    """All (sigma, lam) with P @ E = E @ P, one per pattern, shifted to
    eigenvalue 0.

    The same propagation as the pair search, with the column assignment
    tied to the row assignment.  Requires the symmetrised off-diagonal
    support to be connected.
    """
    if not e.is_square():
        raise ValueError("commutation search needs a square matrix")
    n = e.nrows
    if n == 1:
        return [((0,), (ZERO,))]
    ((zero,), *E), decode = encode((ZERO,), *e.entries)
    supp = _support(E)

    adj = [
        [i != j and (supp[i][j] or supp[j][i]) for j in range(n)] for i in range(n)
    ]
    if len(components(range(n), lambda v: [w for w in range(n) if adj[v][w]])) != 1:
        raise NotConnected("finite-entry graph of the matrix is disconnected")

    rprof = _pair_profiles(E, {})
    cprof = _pair_profiles(list(zip(*E)), {})
    rdeg = [sum(r) for r in supp]
    cdeg = [sum(supp[i][j] for i in range(n)) for j in range(n)]
    rsig = _signatures(rprof, rdeg, n)
    csig = _signatures(cprof, cdeg, n)
    cands = [
        [
            r
            for r in range(n)
            if rsig[r] == rsig[i] and csig[r] == csig[i] and supp[r][r] == supp[i][i]
            and (not supp[i][i] or E[r][r] == E[i][i])
        ]
        for i in range(n)
    ]

    anchor = max(range(n), key=lambda i: (sum(adj[i]), -i))
    order = [anchor]
    used = [False] * n
    used[anchor] = True
    cnt = [1 if adj[anchor][i] else 0 for i in range(n)]
    while len(order) < n:
        nxt = max(
            (i for i in range(n) if not used[i]), key=lambda i: (cnt[i], -i)
        )
        order.append(nxt)
        used[nxt] = True
        for i in range(n):
            if adj[nxt][i] and not used[i]:
                cnt[i] += 1

    sigma = [-1] * n
    lam: list = [None] * n
    used_img = [False] * n
    solutions = []
    budget = search_budget.current()

    def scaling(level: int, i: int, r: int):
        """The scaling of row i mapped to r that agrees with the profiles,
        supports and scalings of the rows mapped before it, or None."""
        lam_i = zero if level == 0 else None
        for i2 in order[:level]:
            r2 = sigma[i2]
            if rprof[(i, i2)] != rprof[(r, r2)] or cprof[(i, i2)] != cprof[(r, r2)]:
                return None
            if supp[i][i2] != supp[r][r2] or supp[i2][i] != supp[r2][r]:
                return None
            fits = []
            if supp[i][i2]:
                fits.append(tuple(map(sub, map(add, E[i][i2], lam[i2]), E[r][r2])))
            if supp[i2][i]:
                fits.append(tuple(map(add, map(sub, lam[i2], E[i2][i]), E[r2][r])))
            for cand in fits:
                if lam_i is None:
                    lam_i = cand
                elif lam_i != cand:
                    return None
        return lam_i

    # depth first; the rows mapped so far wait on a stack with their
    # untried images, so the depth does not grow the interpreter's stack
    stack = [iter(cands[order[0]])]
    while stack:
        level = len(stack) - 1
        i = order[level]
        for r in stack[-1]:
            if used_img[r]:
                continue
            budget.spend("commutation search")
            lam_i = scaling(level, i, r)
            if lam_i is not None:
                break
        else:
            stack.pop()
            if stack:
                used_img[sigma[order[level - 1]]] = False
            continue
        sigma[i], lam[i] = r, lam_i
        if level + 1 == n:
            solutions.append((tuple(sigma), *_eigenvalue_zero(decode, sigma, lam)))
        else:
            used_img[r] = True
            stack.append(iter(cands[order[level + 1]]))

    solutions.sort(key=lambda s: s[0])
    return solutions
