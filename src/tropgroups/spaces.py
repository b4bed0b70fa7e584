"""Column/row space membership, Green's relations, ranks, reduction.

Membership in a column space is decided by residuation: the principal
solution lambda_j = min over rows i with A_ij finite of (x_i - A_ij) is the
componentwise-largest candidate, so x is in the span iff A (x) lambda = x,
that is, iff every finite coordinate of x attains the minimum for some
column (Butkovič, *Max-linear Systems*, ch. 3).  The tests run on the
matrices' int codes (``TropMatrix.codes``); a reduction shares its
input's basis.

Conventions with -inf entries: a generator column that is entirely -inf
gets coefficient -inf, and a generator that is finite at a coordinate where
x is -inf gets coefficient -inf.  These are the unique maximal feasible
choices, so the principal-solution test stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .matrix import TropMatrix, _joint
from .semiring import TropScalar, encode


class ZeroMatrix(ValueError):
    """All entries are -inf; there is nothing to reduce."""


@dataclass(frozen=True)
class SpanWitness:
    """Coefficients that reproduce the target from the generator columns."""

    coefficients: tuple[TropScalar, ...]


def _principal(x, cols) -> Optional[list]:
    """The principal solution of cols (x) lambda = x on codes, if it
    reproduces x, else None."""
    coeffs = []
    covered = set()
    for col in cols:
        lam, argmin = None, []
        for i, (xi, aij) in enumerate(zip(x, col)):
            if aij is None:
                continue
            if xi is None:
                lam, argmin = None, []
                break
            d = xi - aij
            if lam is None or d < lam:
                lam, argmin = d, [i]
            elif d == lam:
                argmin.append(i)
        coeffs.append(lam)
        covered.update(argmin)
    if all(xi is None or i in covered for i, xi in enumerate(x)):
        return coeffs
    return None


def member(x: Sequence[TropScalar], a: TropMatrix) -> Optional[SpanWitness]:
    """Principal-solution membership test for x in the column span of A."""
    x = tuple(x)
    if len(x) != a.nrows:
        raise ValueError("vector length must match the number of rows")
    (xc, *rows), decode = encode(x, *a.entries)
    coeffs = _principal(xc, list(zip(*rows)))
    if coeffs is None:
        return None
    return SpanWitness(tuple(map(decode, coeffs)))


def _spans_within(cols, gens) -> bool:
    return all(_principal(col, gens) is not None for col in cols)


def col_space_equal(a: TropMatrix, b: TropMatrix) -> bool:
    """True iff the columns of each matrix span the same subsemimodule."""
    if a.nrows != b.nrows:
        raise ValueError("column spaces live in spaces of equal dimension")
    (ac, bc), _ = _joint(a, b)
    acols, bcols = list(zip(*ac)), list(zip(*bc))
    return _spans_within(bcols, acols) and _spans_within(acols, bcols)


def row_space_equal(a: TropMatrix, b: TropMatrix) -> bool:
    if a.ncols != b.ncols:
        raise ValueError("row spaces live in spaces of equal dimension")
    return col_space_equal(a.transpose(), b.transpose())


def h_related(a: TropMatrix, b: TropMatrix) -> bool:
    """Mutual divisibility on both sides: same shape and both spaces equal."""
    if a.shape != b.shape:
        return False
    return col_space_equal(a, b) and row_space_equal(a, b)


def _extremal_indices(codes) -> list[int]:
    """Indices of a minimal generating subfamily of code vectors: the earliest
    of each class of scaled copies (equal once less their first finite code),
    kept iff outside the span of the other classes."""
    first: dict = {}
    for idx, v in enumerate(codes):
        lead = next((x for x in v if x is not None), None)
        if lead is not None:
            first.setdefault(tuple(None if x is None else x - lead for x in v), idx)
    reps = list(first.values())
    kept = []
    for k, rep in enumerate(reps):
        others = [codes[r] for i, r in enumerate(reps) if i != k]
        if not others or _principal(codes[rep], others) is None:
            kept.append(rep)
    return kept


def column_rank(a: TropMatrix) -> int:
    return len(_extremal_indices(list(zip(*a.codes))))


def row_rank(a: TropMatrix) -> int:
    return len(_extremal_indices(a.codes))


def reduce_full_rank(x: TropMatrix) -> tuple[TropMatrix, list[int], list[int]]:
    """Restrict to extremal rows, then extremal columns of the result.

    Returns (Z, kept_row_indices, kept_col_indices); Z has full row and
    column rank and its column/row spaces are isomorphic to those of x.
    Z shares x's basis.
    """
    if x.all_neg_inf():
        raise ZeroMatrix("matrix has no finite entry")
    codes = x.codes
    row_keep = _extremal_indices(codes)
    col_keep = _extremal_indices(list(zip(*(codes[i] for i in row_keep))))
    return x.submatrix(row_keep, col_keep), row_keep, col_keep


def has_full_rank(a: TropMatrix) -> bool:
    return row_rank(a) == a.nrows and column_rank(a) == a.ncols
