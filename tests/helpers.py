"""Shared builders and oracles for the worked examples used across the
test suite."""

import itertools

from tropgroups.constructors import alt4_column_matrix, assemble_blocks
from tropgroups import permgroups
from tropgroups.matrix import MonomialMatrix, TropMatrix
from tropgroups.graphs import components
from tropgroups.semiring import NEG_INF, Value, eps, trop_mul, trop_sum, val

A_VAL = val(-1) + eps(1)
B_VAL = val(-1) + eps(2)
C_VAL = val(-1) + eps(3)

SECTION4 = TropMatrix.from_rows(
    [
        [0, 0, NEG_INF, NEG_INF],
        [NEG_INF, 1, NEG_INF, NEG_INF],
        [NEG_INF, NEG_INF, 1, 0],
    ]
)

ALT4_10PT_GENS = [
    "(1,3,2)(5,10,7)(6,8,9)",
    "(1,4)(2,3)(6,10)(7,8)",
    "(1,3)(2,4)(5,9)(6,10)",
]


def matrix_e():
    """2x2 idempotent with free off-diagonal entries."""
    return TropMatrix.from_rows([[0, A_VAL], [B_VAL, 0]])


def alt4_columns():
    """4x12 matrix whose columns are the even permutations of four free
    entries; its unit stabilizer is A4."""
    return alt4_column_matrix(*(val(i) + eps(i + 1) for i in range(1, 5)))


def alt4_squared():
    """16x16 matrix of the A4 columns and their transpose; its finite part
    is A4 x A4 (the paper's separating example)."""
    m = alt4_columns()
    return assemble_blocks([(m, 1), (m.transpose(), 1)], val(0))


def unit_p():
    """The unit commuting with matrix_e."""
    return MonomialMatrix((1, 0), (A_VAL, B_VAL))


def matrix_f():
    """4x4 idempotent whose commuting units form a group of order 8."""
    a, b, c = A_VAL, B_VAL, C_VAL
    return TropMatrix.from_rows(
        [
            [0, a, c, a],
            [b, 0, b, c],
            [c, a, 0, a],
            [b, c, b, 0],
        ]
    )


def unit_q():
    """The 4-cycle unit commuting with matrix_f."""
    a, b = A_VAL, B_VAL
    return MonomialMatrix((1, 2, 3, 0), (a, b, a, b))


def ref_mat_mul(a, b):
    """Reference: the max-plus product, on scalars."""
    return TropMatrix(
        [
            [trop_sum(map(trop_mul, row, b.col(j))) for j in range(b.ncols)]
            for row in a.entries
        ]
    )


def ref_monomial_eigenvalue(p):
    """Reference: the common cycle mean of a unit, on scalars, each cycle's
    sum divided by its length; None when the cycle means differ."""
    means = {
        sum((p.scalings[i] for i in cycle), Value(0)).div_int(len(cycle))
        for cycle in components(range(p.degree), lambda i: (p.sigma[i],))
    }
    return means.pop() if len(means) == 1 else None


def ref_member(x, a):
    """Reference: the principal solution of A (x) lambda = x, on scalars,
    if it reproduces x, else None."""
    coeffs = []
    for j in range(a.ncols):
        cands = []
        for i in range(a.nrows):
            if a.entries[i][j] is NEG_INF:
                continue
            if x[i] is NEG_INF:
                cands = []
                break
            cands.append(x[i] - a.entries[i][j])
        coeffs.append(min(cands) if cands else NEG_INF)
    return tuple(coeffs) if ref_apply(a, coeffs) == tuple(x) else None


def ref_col_space_equal(a, b):
    """Reference: each matrix's columns lie in the span of the other's."""
    return all(ref_member(b.col(j), a) is not None for j in range(b.ncols)) and all(
        ref_member(a.col(j), b) is not None for j in range(a.ncols)
    )


def ref_pair_solvable(target, source):
    """Reference: whether some row and column permutations (sigma, tau)
    admit scalings with lam_i + source[sigma(i)][tau(j)] = target[i][j] +
    mu_j for all i, j, both sides finite together, by trying every pair.
    The support graph of the target must be connected."""
    n, m = target.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    for sigma in itertools.permutations(range(n)):
        for tau in itertools.permutations(range(m)):
            pairs = {
                (i, j): (target.entries[i][j], source.entries[sigma[i]][tau[j]])
                for i, j in cells
            }
            if any((a is NEG_INF) != (b is NEG_INF) for a, b in pairs.values()):
                continue
            gap = {ij: a - b for ij, (a, b) in pairs.items() if a is not NEG_INF}
            if _potentials_exist(gap):
                return True
    return False


def _potentials_exist(gap):
    """Whether lam, mu exist with lam_i - mu_j = gap[i, j] on every edge."""
    lam, mu = {0: val(0)}, {}
    frontier = [(0, 0)]
    while frontier:
        side, x = frontier.pop()
        for (i, j), d in gap.items():
            if side == 0 and i == x:
                want, store, key, nxt = lam[i] - d, mu, j, (1, j)
            elif side == 1 and j == x:
                want, store, key, nxt = mu[j] + d, lam, i, (0, i)
            else:
                continue
            if key not in store:
                store[key] = want
                frontier.append(nxt)
            elif store[key] != want:
                return False
    return True


def ref_apply(a, coeffs):
    """Reference: A (x) lambda as a plain vector, on scalars."""
    return tuple(
        trop_sum(trop_mul(a.entries[i][j], lam) for j, lam in enumerate(coeffs))
        for i in range(a.nrows)
    )


def brute_force_member(x, a, candidates=None):
    """Oracle: search coefficient tuples over instance entry differences
    (plus -inf) for an exact combination reproducing x."""
    if candidates is None:
        diffs = set()
        for i in range(a.nrows):
            if x[i] is NEG_INF:
                continue
            for j in range(a.ncols):
                if a.entries[i][j] is not NEG_INF:
                    diffs.add(x[i] - a.entries[i][j])
        candidates = list(diffs) + [NEG_INF]
    for coeffs in itertools.product(candidates, repeat=a.ncols):
        if ref_apply(a, coeffs) == tuple(x):
            return coeffs
    return None


def automorphism_pushes(monkeypatch, call) -> int:
    """The number of automorphism-search pushes ``call()`` makes."""
    pushes = []
    push = permgroups._AutomorphismSearch.push

    def counted(self, v, w):
        pushes.append(v)
        return push(self, v, w)

    with monkeypatch.context() as m:
        m.setattr(permgroups._AutomorphismSearch, "push", counted)
        call()
    return len(pushes)
