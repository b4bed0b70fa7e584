"""Dense max-plus matrices and monomial (unit) matrices.

Matrices are immutable, rectangular, and compared entrywise.  A monomial
matrix is stored as a permutation plus a scaling per row; its expansion has
exactly one finite entry in every row and column, which characterises the
invertible elements of the matrix monoid.

Text format: one row per line, entries whitespace-separated in the scalar
grammar; blank lines and ``#`` comments are ignored.  JSON alternative:
``{"rows": r, "cols": c, "entries": [[..], ..]}`` with scalars as strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from operator import eq
from typing import Iterable, Sequence

from .graphs import components
from .semiring import (
    NEG_INF,
    TropScalar,
    Value,
    as_scalar,
    encode,
    format_scalar,
    is_finite,
    trop_mul,
)


class NotMonomial(ValueError):
    """The matrix does not have exactly one finite entry per row and column."""


class MultipleEigenvalues(ValueError):
    """The cycle means of a monomial matrix differ."""


class NoIdempotentPower(RuntimeError):
    """Iterated squaring did not reach an idempotent within the cap."""


class TropMatrix:
    """A dense r x c matrix over the tropical semiring."""

    __slots__ = ("entries", "nrows", "ncols", "_hash")

    def __init__(self, entries: Iterable[Iterable[TropScalar]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for x in row:
                if x is not NEG_INF and not isinstance(x, Value):
                    raise TypeError(f"not a tropical scalar: {x!r}")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_hash", None)  # computed on first use

    def __setattr__(self, name, value):
        raise AttributeError("TropMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "TropMatrix":
        """Build from any mix of Value / NEG_INF / int / Fraction / str.
        Equal tokens become one scalar object, which ``encode`` and row
        comparisons then meet once."""
        shared: dict = {}

        def scalar(x):
            if not isinstance(x, (str, int, Fraction)):
                return as_scalar(x)
            s = shared.get(x)
            if s is None:
                s = shared[x] = as_scalar(x)
            return s

        return cls([[scalar(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        zero = Value(0)
        return cls(
            [[zero if i == j else NEG_INF for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal(cls, values: Sequence[Value]) -> "TropMatrix":
        n = len(values)
        return cls(
            [[values[i] if i == j else NEG_INF for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij: tuple[int, int]) -> TropScalar:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[TropScalar, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[TropScalar, ...]:
        return tuple(row[j] for row in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "TropMatrix":
        return TropMatrix(
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def scale(self, lam: TropScalar) -> "TropMatrix":
        return TropMatrix([[trop_mul(lam, x) for x in row] for row in self.entries])

    def __matmul__(self, other: "TropMatrix") -> "TropMatrix":
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, TropMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.entries))
        return self._hash

    def all_neg_inf(self) -> bool:
        return all(x is NEG_INF for row in self.entries for x in row)

    def to_text(self) -> str:
        return "\n".join(
            " ".join(format_scalar(x) for x in row) for row in self.entries
        )

    def to_json_dict(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [[format_scalar(x) for x in row] for row in self.entries],
        }

    def __repr__(self) -> str:
        return f"TropMatrix({self.nrows}x{self.ncols}: {self.to_text()!r})"


def _product_codes(arows, bcols):
    """The entries of a product on codes, row by row: max_k (a_ik + b_kj)
    for the rows of A and the columns of B, None where no term is finite."""
    for arow in arows:
        terms = [(k, x) for k, x in enumerate(arow) if x is not None]
        for bcol in bcols:
            yield max((x + bcol[k] for k, x in terms if bcol[k] is not None), default=None)


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: (AB)_ij = max_k (A_ik + B_kj)."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    codes, decode = encode(*a.entries, *b.entries)
    flat = list(map(decode, _product_codes(codes[: a.nrows], list(zip(*codes[a.nrows :])))))
    m = b.ncols
    return TropMatrix([flat[k : k + m] for k in range(0, len(flat), m)])


def _shift(x: TropScalar, c, s, decode) -> TropScalar:
    """The scalar x, of code c, times the scalar of the finite code s."""
    if c is None or not s:
        return x
    return decode(c + s)


class MonomialMatrix:
    """A unit: permutation pattern sigma with a finite scaling per row.

    The expansion has the scaling of row i at position (i, sigma(i)).
    Permutations are stored 0-indexed as image tuples.
    """

    __slots__ = ("sigma", "scalings", "_hash")

    def __init__(self, sigma: Sequence[int], scalings: Sequence[Value]):
        sigma = tuple(sigma)
        scalings = tuple(scalings)
        n = len(sigma)
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
        if len(scalings) != n:
            raise ValueError("one scaling required per row")
        for s in scalings:
            if not isinstance(s, Value):
                raise TypeError("scalings must be finite scalars")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "scalings", scalings)
        object.__setattr__(self, "_hash", None)  # computed on first use

    def __setattr__(self, name, value):
        raise AttributeError("MonomialMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        zero = Value(0)
        return cls(tuple(range(n)), (zero,) * n)

    @classmethod
    def from_trop_matrix(cls, m: TropMatrix) -> "MonomialMatrix":
        if not m.is_square():
            raise NotMonomial("units are square")
        n = m.nrows
        sigma = []
        scalings = []
        for i in range(n):
            finite = [j for j in range(n) if is_finite(m.entries[i][j])]
            if len(finite) != 1:
                raise NotMonomial(f"row {i} has {len(finite)} finite entries")
            sigma.append(finite[0])
            scalings.append(m.entries[i][finite[0]])
        if sorted(sigma) != list(range(n)):
            raise NotMonomial("some column has more than one finite entry")
        return cls(sigma, scalings)

    @property
    def degree(self) -> int:
        return len(self.sigma)

    def expand(self) -> TropMatrix:
        n = self.degree
        rows = [[NEG_INF] * n for _ in range(n)]
        for i in range(n):
            rows[i][self.sigma[i]] = self.scalings[i]
        return TropMatrix(rows)

    def __matmul__(self, other):
        if isinstance(other, MonomialMatrix):
            if self.degree != other.degree:
                raise ValueError("degree mismatch")
            sigma = tuple(other.sigma[self.sigma[i]] for i in range(self.degree))
            scalings = tuple(
                self.scalings[i] + other.scalings[self.sigma[i]]
                for i in range(self.degree)
            )
            return MonomialMatrix(sigma, scalings)
        if isinstance(other, TropMatrix):
            return self.left_apply(other)
        return NotImplemented

    def __rmatmul__(self, other):
        if isinstance(other, TropMatrix):
            return self.right_apply(other)
        return NotImplemented

    def left_apply(self, a: TropMatrix) -> TropMatrix:
        """P @ A: row i of the result is scalings[i] + row sigma(i) of A."""
        if self.degree != a.nrows:
            raise ValueError("dimension mismatch")
        (scal, *rows), decode = encode(self.scalings, *a.entries)
        return TropMatrix(
            [
                [_shift(x, c, s, decode) for x, c in zip(a.entries[k], rows[k])]
                for k, s in zip(self.sigma, scal)
            ]
        )

    def right_apply(self, a: TropMatrix) -> TropMatrix:
        """A @ P: column sigma(i) of the result is scalings[i] + column i of A."""
        if self.degree != a.ncols:
            raise ValueError("dimension mismatch")
        pre = [0] * self.degree
        for k in range(self.degree):
            pre[self.sigma[k]] = k
        (scal, *rows), decode = encode(self.scalings, *a.entries)
        return TropMatrix(
            [
                [_shift(row[k], crow[k], scal[k], decode) for k in pre]
                for row, crow in zip(a.entries, rows)
            ]
        )

    def scale(self, lam: Value) -> "MonomialMatrix":
        return MonomialMatrix(self.sigma, tuple(lam + s for s in self.scalings))

    def invert(self) -> "MonomialMatrix":
        n = self.degree
        sigma_inv = [0] * n
        scal_inv = [None] * n
        for i in range(n):
            sigma_inv[self.sigma[i]] = i
            scal_inv[self.sigma[i]] = -self.scalings[i]
        return MonomialMatrix(tuple(sigma_inv), tuple(scal_inv))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialMatrix)
            and self.sigma == other.sigma
            and self.scalings == other.scalings
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.sigma, self.scalings)))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(
            f"{i}->{self.sigma[i]}:{format_scalar(self.scalings[i])}"
            for i in range(self.degree)
        )
        return f"MonomialMatrix({body})"


def monomial_eigenvalue(p: MonomialMatrix) -> Value:
    """The common cycle mean of the weighted cycles of a unit.

    Raises MultipleEigenvalues when the cycle means differ.
    """
    mean = None
    for cycle in components(range(p.degree), lambda i: (p.sigma[i],)):
        this = sum((p.scalings[i] for i in cycle), Value(0)).div_int(len(cycle))
        if mean is None:
            mean = this
        elif mean != this:
            raise MultipleEigenvalues(
                f"cycle means differ: {format_scalar(mean)} vs {format_scalar(this)}"
            )
    return mean


def is_idempotent(e: TropMatrix) -> bool:
    """Whether E @ E = E, on codes, up to the first entry that differs."""
    if not e.is_square():
        raise ValueError("idempotency is defined for square matrices")
    codes, _decode = encode(*e.entries)
    products = _product_codes(codes, list(zip(*codes)))
    return all(map(eq, products, chain.from_iterable(codes)))


def idempotent_power(a: TropMatrix, max_squarings: int = 64) -> TropMatrix:
    """Iterated squaring until a fixed point E = E @ E is reached."""
    if not a.is_square():
        raise ValueError("square matrix required")
    b = a
    for _ in range(max_squarings):
        b2 = mat_mul(b, b)
        if b2 == b:
            return b
        b = b2
    raise NoIdempotentPower(f"no idempotent power within {max_squarings} squarings")


# -- parsing --


def parse_matrix_text(text: str) -> TropMatrix:
    rows = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        rows.append(body.split())
    if not rows:
        raise ValueError("no matrix rows found")
    return TropMatrix.from_rows(rows)


def parse_matrix_json(data) -> TropMatrix:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except RecursionError:
            raise ValueError("JSON matrix is nested too deeply") from None
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("a JSON matrix is an object with an 'entries' list")
    entries = data["entries"]
    if not isinstance(entries, list) or not all(
        isinstance(row, list)
        and all(isinstance(x, (str, int)) and not isinstance(x, bool) for x in row)
        for row in entries
    ):
        raise ValueError("'entries' must be a list of rows of strings or integers")
    m = TropMatrix.from_rows(entries)
    if m.nrows != data.get("rows", m.nrows) or m.ncols != data.get("cols", m.ncols):
        raise ValueError("declared shape does not match entries")
    return m


def parse_matrix(text: str) -> TropMatrix:
    """Accept either the whitespace text format or the JSON object form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_matrix_json(stripped)
    return parse_matrix_text(text)
