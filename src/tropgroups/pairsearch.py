"""Joint row/column assignment backtracking for unit equations.

Solves, for matrices A (target) and B (source) of the same shape, the
system

    lam_i + B[sigma(i)][tau(j)] = A[i][j] + mu_j     for all i, j,

including the support condition (the two sides must be finite together).
Equivalently P @ B = A @ Q for the monomial matrices P (pattern sigma,
scalings lam) and Q (pattern tau, scalings mu).  With A = B the solutions
are the unit-stabilizer pairs of A.

For a connected support graph the scalings of a feasible (sigma, tau) form
a one-parameter family; the search anchors mu at one column to 0, so it
returns exactly one representative per feasible pattern pair.

Pruning: a solution forces, for every row pair (i, i'), the multiset of
columnwise differences of target rows (i, i') to equal that of source rows
(sigma(i), sigma(i')) up to a constant shift, and dually for columns.
Shift-normalised difference multisets are precomputed and compared during
the search, and each vertex only tries images with a matching profile
signature.
"""

from __future__ import annotations

from .errors import SearchBudgetExceeded
from .graphs import components, support_components
from .matrix import TropMatrix
from .semiring import NEG_INF, Value

DEFAULT_MAX_NODES = 2_000_000


def _support(entries):
    return [[x is not NEG_INF for x in row] for row in entries]


def _pair_profiles(vectors, intern):
    """Profile id for every ordered pair of parallel vectors.

    The profile of (u, v) is (count finite-only-in-u, finite-only-in-v,
    min-normalised multiset of differences where both are finite).
    """
    k = len(vectors)
    prof = {}
    for x in range(k):
        u = vectors[x]
        for y in range(k):
            if x == y:
                continue
            v = vectors[y]
            both = []
            only_u = only_v = 0
            for a, b in zip(u, v):
                fa, fb = a is not NEG_INF, b is not NEG_INF
                if fa and fb:
                    both.append(a - b)
                elif fa:
                    only_u += 1
                elif fb:
                    only_v += 1
            if both:
                mn = min(both)
                key = (only_u, only_v, tuple(sorted(d - mn for d in both)))
            else:
                key = (only_u, only_v, ())
            pid = intern.get(key)
            if pid is None:
                pid = len(intern)
                intern[key] = pid
            prof[(x, y)] = pid
    return prof


def _signatures(prof, degs, k):
    sigs = []
    for x in range(k):
        rel = sorted(prof[(x, y)] for y in range(k) if y != x)
        sigs.append((degs[x], tuple(rel)))
    return sigs


class NotConnected(ValueError):
    """The finite-entry graph of the matrix is not connected."""


def _vertex_order(supp, n, m):
    """Anchor at the column with most finite entries, then grow the
    assigned region greedily, preferring vertices with many assigned
    neighbours and alternating sides on ties."""
    col_deg = [sum(supp[i][j] for i in range(n)) for j in range(m)]
    anchor = max(range(m), key=lambda j: (col_deg[j], -j))
    order = [("c", anchor)]
    row_cnt = [supp[i][anchor] and 1 or 0 for i in range(n)]
    col_cnt = [0] * m
    used_r, used_c = [False] * n, [False] * m
    used_c[anchor] = True
    last = "c"
    while len(order) < n + m:
        best = None
        for i in range(n):
            if not used_r[i]:
                key = (row_cnt[i], 1 if last != "r" else 0, -i, "r")
                if best is None or key > best[0]:
                    best = (key, "r", i)
        for j in range(m):
            if not used_c[j]:
                key = (col_cnt[j], 1 if last != "c" else 0, -j, "c")
                if best is None or key > best[0]:
                    best = (key, "c", j)
        _, kind, idx = best
        order.append((kind, idx))
        last = kind
        if kind == "r":
            used_r[idx] = True
            for j in range(m):
                if supp[idx][j] and not used_c[j]:
                    col_cnt[j] += 1
        else:
            used_c[idx] = True
            for i in range(n):
                if supp[i][idx] and not used_r[i]:
                    row_cnt[i] += 1
    return order


class _PairSearch:
    def __init__(self, target: TropMatrix, source: TropMatrix, max_nodes: int):
        if target.shape != source.shape:
            raise ValueError("target and source must have equal shape")
        self.A = target.entries
        self.B = source.entries
        self.n, self.m = target.shape
        self.suppA = _support(self.A)
        self.suppB = _support(self.B)
        if len(support_components(self.suppA)) != 1:
            raise NotConnected("target support graph is disconnected")
        self.max_nodes = max_nodes
        self.nodes = 0

        rows_a = [target.row(i) for i in range(self.n)]
        rows_b = [source.row(i) for i in range(self.n)]
        cols_a = [target.col(j) for j in range(self.m)]
        cols_b = [source.col(j) for j in range(self.m)]
        intern_r: dict = {}
        self.rprofA = _pair_profiles(rows_a, intern_r)
        self.rprofB = _pair_profiles(rows_b, intern_r)
        intern_c: dict = {}
        self.cprofA = _pair_profiles(cols_a, intern_c)
        self.cprofB = _pair_profiles(cols_b, intern_c)

        rdegA = [sum(r) for r in self.suppA]
        rdegB = [sum(r) for r in self.suppB]
        cdegA = [sum(self.suppA[i][j] for i in range(self.n)) for j in range(self.m)]
        cdegB = [sum(self.suppB[i][j] for i in range(self.n)) for j in range(self.m)]
        rsigA = _signatures(self.rprofA, rdegA, self.n)
        rsigB = _signatures(self.rprofB, rdegB, self.n)
        csigA = _signatures(self.cprofA, cdegA, self.m)
        csigB = _signatures(self.cprofB, cdegB, self.m)
        self.row_cands = [
            [r for r in range(self.n) if rsigB[r] == rsigA[i]] for i in range(self.n)
        ]
        self.col_cands = [
            [c for c in range(self.m) if csigB[c] == csigA[j]] for j in range(self.m)
        ]
        self.order = _vertex_order(self.suppA, self.n, self.m)

    def run(self, first_only: bool = False):
        n, m = self.n, self.m
        self.sigma = [-1] * n
        self.tau = [-1] * m
        self.lam: list = [None] * n
        self.mu: list = [None] * m
        self.used_r = [False] * n
        self.used_c = [False] * m
        self.arows: list[int] = []
        self.acols: list[int] = []
        self.solutions: list = []
        self.first_only = first_only
        self._dfs(0)
        self.solutions.sort(key=lambda s: (s[0], s[1]))
        return self.solutions

    def _dfs(self, level: int) -> bool:
        if level == len(self.order):
            self.solutions.append(
                (
                    tuple(self.sigma),
                    tuple(self.tau),
                    tuple(self.lam),
                    tuple(self.mu),
                )
            )
            return self.first_only
        kind, idx = self.order[level]
        if kind == "c":
            return self._try_col(level, idx)
        return self._try_row(level, idx)

    def _try_col(self, level: int, j: int) -> bool:
        A, B = self.A, self.B
        suppA, suppB = self.suppA, self.suppB
        for c in self.col_cands[j]:
            if self.used_c[c]:
                continue
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise SearchBudgetExceeded(f"pair search exceeded {self.max_nodes} nodes")
            ok = True
            for j2 in self.acols:
                if self.cprofA[(j, j2)] != self.cprofB[(c, self.tau[j2])]:
                    ok = False
                    break
            if not ok:
                continue
            mu_j = None if self.acols or self.arows else Value(0)
            if mu_j is None:
                for i in self.arows:
                    sa = suppA[i][j]
                    sb = suppB[self.sigma[i]][c]
                    if sa != sb:
                        ok = False
                        break
                    if sa:
                        cand = self.lam[i] + B[self.sigma[i]][c] - A[i][j]
                        if mu_j is None:
                            mu_j = cand
                        elif mu_j != cand:
                            ok = False
                            break
                if ok and mu_j is None:
                    ok = False
            if not ok:
                continue
            self.tau[j] = c
            self.mu[j] = mu_j
            self.used_c[c] = True
            self.acols.append(j)
            if self._dfs(level + 1):
                return True
            self.acols.pop()
            self.used_c[c] = False
            self.tau[j] = -1
            self.mu[j] = None
        return False

    def _try_row(self, level: int, i: int) -> bool:
        A, B = self.A, self.B
        suppA, suppB = self.suppA, self.suppB
        for r in self.row_cands[i]:
            if self.used_r[r]:
                continue
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise SearchBudgetExceeded(f"pair search exceeded {self.max_nodes} nodes")
            ok = True
            for i2 in self.arows:
                if self.rprofA[(i, i2)] != self.rprofB[(r, self.sigma[i2])]:
                    ok = False
                    break
            if not ok:
                continue
            lam_i = None
            for j in self.acols:
                sa = suppA[i][j]
                sb = suppB[r][self.tau[j]]
                if sa != sb:
                    ok = False
                    break
                if sa:
                    cand = A[i][j] + self.mu[j] - B[r][self.tau[j]]
                    if lam_i is None:
                        lam_i = cand
                    elif lam_i != cand:
                        ok = False
                        break
            if ok and lam_i is None:
                ok = False
            if not ok:
                continue
            self.sigma[i] = r
            self.lam[i] = lam_i
            self.used_r[r] = True
            self.arows.append(i)
            if self._dfs(level + 1):
                return True
            self.arows.pop()
            self.used_r[r] = False
            self.sigma[i] = -1
            self.lam[i] = None
        return False


def pair_solutions(
    target: TropMatrix,
    source: TropMatrix,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    first_only: bool = False,
):
    """All (sigma, tau, lam, mu) with P @ source = target @ Q, one
    representative per pattern pair (mu anchored to 0 at the search root).
    Requires the target support graph to be connected."""
    search = _PairSearch(target, source, max_nodes)
    return search.run(first_only=first_only)


def commuting_solutions(e: TropMatrix, *, max_nodes: int = DEFAULT_MAX_NODES):
    """All (sigma, lam) with P @ E = E @ P, one representative per pattern.

    The same propagation as the pair search, with the column assignment
    tied to the row assignment.  Requires the symmetrised off-diagonal
    support to be connected.
    """
    if not e.is_square():
        raise ValueError("commutation search needs a square matrix")
    n = e.nrows
    E = e.entries
    supp = _support(E)
    if n == 1:
        return [((0,), (Value(0),))]

    adj = [
        [i != j and (supp[i][j] or supp[j][i]) for j in range(n)] for i in range(n)
    ]
    if len(components(range(n), lambda v: [w for w in range(n) if adj[v][w]])) != 1:
        raise NotConnected("finite-entry graph of the matrix is disconnected")

    rows = [e.row(i) for i in range(n)]
    cols = [e.col(j) for j in range(n)]
    intern_r: dict = {}
    rprof = _pair_profiles(rows, intern_r)
    intern_c: dict = {}
    cprof = _pair_profiles(cols, intern_c)
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
    assigned: list[int] = []
    solutions = []
    nodes = 0

    def dfs(level: int):
        nonlocal nodes
        if level == n:
            solutions.append((tuple(sigma), tuple(lam)))
            return
        i = order[level]
        for r in cands[i]:
            if used_img[r]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise SearchBudgetExceeded(
                    f"commutation search exceeded {max_nodes} nodes"
                )
            ok = True
            lam_i = Value(0) if level == 0 else None
            for i2 in assigned:
                if rprof[(i, i2)] != rprof[(r, sigma[i2])] or cprof[(i, i2)] != cprof[
                    (r, sigma[i2])
                ]:
                    ok = False
                    break
                sa, sb = supp[i][i2], supp[r][sigma[i2]]
                if sa != sb:
                    ok = False
                    break
                if sa:
                    cand = E[i][i2] + lam[i2] - E[r][sigma[i2]]
                    if lam_i is None:
                        lam_i = cand
                    elif lam_i != cand:
                        ok = False
                        break
                sa, sb = supp[i2][i], supp[sigma[i2]][r]
                if sa != sb:
                    ok = False
                    break
                if sa:
                    cand = lam[i2] - E[i2][i] + E[sigma[i2]][r]
                    if lam_i is None:
                        lam_i = cand
                    elif lam_i != cand:
                        ok = False
                        break
            if not ok or lam_i is None:
                continue
            sigma[i] = r
            lam[i] = lam_i
            used_img[r] = True
            assigned.append(i)
            dfs(level + 1)
            assigned.pop()
            used_img[r] = False
            sigma[i] = -1
            lam[i] = None

    dfs(0)
    solutions.sort(key=lambda s: s[0])
    return solutions
