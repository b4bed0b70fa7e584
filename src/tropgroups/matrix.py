"""Dense max-plus matrices and monomial (unit) matrices.

Matrices are immutable, rectangular, and compared entrywise.  A monomial
matrix is stored as a permutation plus a scaling per row; its expansion has
exactly one finite entry in every row and column, which characterises the
invertible elements of the matrix monoid.

Both hold int codes over one ``semiring.Basis`` from the moment they are
built, parsed or from scalars, by one ``encode``, and decode ``entries``
or ``scalings`` only when read.  Submatrices, transposes and unit
products P @ A, A @ Q share their parent's basis, and ``_joint`` is where
two bases meet (``semiring`` gives the rules).  Equality and hashing read values, whatever the bases.

Text format: one row per line, entries whitespace-separated in the scalar
grammar; blank lines and ``#`` comments are ignored.  JSON alternative:
``{"rows": r, "cols": c, "entries": [[..], ..]}`` with scalars as strings.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import eq
from typing import Iterable, Sequence

from .semiring import (
    NEG_INF,
    ZERO,
    Basis,
    TropScalar,
    Value,
    encode,
    format_scalar,
)


class NotMonomial(ValueError):
    """The matrix does not have exactly one finite entry per row and column."""


class MultipleEigenvalues(ValueError):
    """The cycle means of a monomial matrix differ."""


class NoIdempotentPower(RuntimeError):
    """Iterated squaring did not reach an idempotent within the cap."""


_set = object.__setattr__


class TropMatrix:
    """A dense r x c matrix over the tropical semiring: its rows of
    ``codes`` over ``basis``, and its ``entries`` as scalars, decoded
    when first read."""

    __slots__ = ("_entries", "codes", "basis", "nrows", "ncols", "_hash")

    def __init__(self, entries: Iterable[Iterable[TropScalar]]):
        rows = tuple(tuple(row) for row in entries)
        bad = [x for row in rows for x in row if x is not NEG_INF and not isinstance(x, Value)]
        if bad:
            raise TypeError(f"not a tropical scalar: {bad[0]!r}")
        self._init(*encode(*rows))
        _set(self, "_entries", rows)

    def _init(self, codes, basis: Basis) -> None:
        codes = tuple(map(tuple, codes))
        if not codes or not codes[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(row) != len(codes[0]) for row in codes):
            raise ValueError("ragged rows")
        for name, v in zip(self.__slots__, (None, codes, basis, len(codes), len(codes[0]), None)):
            _set(self, name, v)

    @classmethod
    def _derived(cls, codes, basis: Basis) -> "TropMatrix":
        """The matrix of rows of codes over ``basis``."""
        m = object.__new__(cls)
        m._init(codes, basis)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("TropMatrix is immutable")

    @property
    def entries(self) -> tuple[tuple[TropScalar, ...], ...]:
        if self._entries is None:
            _set(self, "_entries", tuple(tuple(map(self.basis, row)) for row in self.codes))
        return self._entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "TropMatrix":
        """Build from any mix of Value / NEG_INF / int / Fraction / str,
        by one ``encode``."""
        return cls._derived(*encode(*rows))

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        return cls([[ZERO if i == j else NEG_INF for j in range(n)] for i in range(n)])

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

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "TropMatrix":
        """The entries at the given rows and columns, in that order."""
        codes = self.codes
        return TropMatrix._derived([[codes[i][j] for j in cols] for i in rows], self.basis)

    def transpose(self) -> "TropMatrix":
        return TropMatrix._derived(zip(*self.codes), self.basis)

    def scale(self, lam: TropScalar) -> "TropMatrix":
        """lam (x) A."""
        (rows, ((c,),)), basis = _joint(self, TropMatrix([[lam]]))
        return TropMatrix._derived(
            [[None if x is None or c is None else x + c for x in row] for row in rows], basis
        )

    def __matmul__(self, other: "TropMatrix") -> "TropMatrix":
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropMatrix) or self.shape != other.shape:
            return False
        if self.basis is other.basis or self.basis.key == other.basis.key:
            return self.codes == other.codes
        return self.entries == other.entries

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash(self.entries))
        return self._hash

    def all_neg_inf(self) -> bool:
        return all(x is None for row in self.codes for x in row)

    def _texts(self) -> list[list[str]]:
        """The rows of entries in the text grammar, each scalar object
        formatted once."""
        memo: dict = {}
        return [
            [memo.get(id(x)) or memo.setdefault(id(x), format_scalar(x)) for x in row]
            for row in self.entries
        ]

    def to_text(self) -> str:
        return "\n".join(map(" ".join, self._texts()))

    def to_json_dict(self) -> dict:
        return {"rows": self.nrows, "cols": self.ncols, "entries": self._texts()}

    def __repr__(self) -> str:
        return f"TropMatrix({self.nrows}x{self.ncols}: {self.to_text()!r})"


def _joint(*items):
    """The codes of the given matrices and units (a unit's: the one row of
    its scalings) over one basis, and that basis: their own when their
    bases share one key, else those of one joint ``encode`` of their
    scalars, which each of them keeps from then on."""
    mats = [getattr(x, "_row", x) for x in items]
    first = mats[0].basis
    if not all(m.basis is first or m.basis.key == first.key for m in mats):
        codes, first = encode(*chain.from_iterable(m.entries for m in mats))
        k = 0
        for m in mats:
            _set(m, "codes", tuple(codes[k : k + m.nrows]))
            _set(m, "basis", first)
            k += m.nrows
    return [m.codes if m is x else m.codes[0] for m, x in zip(mats, items)], first


def _product_codes(arows, bcols):
    """The entries of a product on codes, row by row: max_k (a_ik + b_kj)
    for the rows of A and the columns of B, None where no term is finite."""
    for arow in arows:
        terms = [(k, x) for k, x in enumerate(arow) if x is not None]
        for bcol in bcols:
            yield max((x + bcol[k] for k, x in terms if bcol[k] is not None), default=None)


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: (AB)_ij = max_k (A_ik + B_kj).  The
    product is encoded afresh, not kept in its factors' basis."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    (ac, bc), decode = _joint(a, b)
    flat = list(map(decode, _product_codes(ac, list(zip(*bc)))))
    m = b.ncols
    return TropMatrix([flat[k : k + m] for k in range(0, len(flat), m)])


class MonomialMatrix:
    """A unit: permutation pattern sigma with a finite scaling per row.

    The expansion has the scaling of row i at position (i, sigma(i)).
    Permutations are stored 0-indexed as image tuples, and the scalings
    as the one row of a ``TropMatrix``.
    """

    __slots__ = ("sigma", "_row")

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
        _set(self, "sigma", sigma)
        _set(self, "_row", TropMatrix([scalings]))

    @classmethod
    def _derived(cls, sigma, codes, basis: Basis) -> "MonomialMatrix":
        """The unit of pattern sigma and finite scaling codes over ``basis``."""
        p = object.__new__(cls)
        _set(p, "sigma", tuple(sigma))
        _set(p, "_row", TropMatrix._derived([codes], basis))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MonomialMatrix is immutable")

    scalings = property(lambda self: self._row.entries[0])
    codes = property(lambda self: self._row.codes[0], doc="The scaling codes over ``basis``.")
    basis = property(lambda self: self._row.basis)

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls._derived(range(n), (0,) * n, Basis())

    @classmethod
    def from_trop_matrix(cls, m: TropMatrix) -> "MonomialMatrix":
        if not m.is_square():
            raise NotMonomial("units are square")
        sigma = []
        for i, row in enumerate(m.codes):
            finite = [j for j, x in enumerate(row) if x is not None]
            if len(finite) != 1:
                raise NotMonomial(f"row {i} has {len(finite)} finite entries")
            sigma.append(finite[0])
        if sorted(sigma) != list(range(m.nrows)):
            raise NotMonomial("some column has more than one finite entry")
        return cls._derived(sigma, (row[j] for row, j in zip(m.codes, sigma)), m.basis)

    @property
    def degree(self) -> int:
        return len(self.sigma)

    def expand(self) -> TropMatrix:
        rows = [[None] * self.degree for _ in self.sigma]
        for row, x, c in zip(rows, self.sigma, self.codes):
            row[x] = c
        return TropMatrix._derived(rows, self.basis)

    def __matmul__(self, other):
        if isinstance(other, MonomialMatrix):
            if self.degree != other.degree:
                raise ValueError("degree mismatch")
            (a, b), basis = _joint(self, other)
            return MonomialMatrix._derived(
                (other.sigma[x] for x in self.sigma),
                (a[i] + b[x] for i, x in enumerate(self.sigma)),
                basis,
            )
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
        (scal, rows), basis = _joint(self, a)
        return TropMatrix._derived(
            [
                rows[k] if not s else [None if x is None else x + s for x in rows[k]]
                for k, s in zip(self.sigma, scal)
            ],
            basis,
        )

    def right_apply(self, a: TropMatrix) -> TropMatrix:
        """A @ P: column sigma(i) of the result is scalings[i] + column i of A."""
        if self.degree != a.ncols:
            raise ValueError("dimension mismatch")
        (scal, rows), basis = _joint(self, a)
        pre = sorted(range(self.degree), key=self.sigma.__getitem__)  # sigma^-1
        return TropMatrix._derived(
            [[None if row[k] is None else row[k] + scal[k] for k in pre] for row in rows],
            basis,
        )

    def invert(self) -> "MonomialMatrix":
        sigma_inv, scal_inv = [0] * self.degree, [0] * self.degree
        for i, (x, c) in enumerate(zip(self.sigma, self.codes)):
            sigma_inv[x], scal_inv[x] = i, -c
        return MonomialMatrix._derived(sigma_inv, scal_inv, self.basis)

    def __eq__(self, other) -> bool:
        same = isinstance(other, MonomialMatrix)
        return same and (self.sigma, self._row) == (other.sigma, other._row)

    def __hash__(self) -> int:
        return hash((self.sigma, self._row))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{i}->{self.sigma[i]}:{format_scalar(self.scalings[i])}"
            for i in range(self.degree)
        )
        return f"MonomialMatrix({body})"


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


def monomial_eigenvalue(p: MonomialMatrix) -> Value:
    """The common cycle mean of the weighted cycles of a unit; raises
    MultipleEigenvalues when the cycle means differ."""
    k, total = cycle_mean(p.sigma, p.codes)
    return p.basis.refined(k)(total)


def is_idempotent(e: TropMatrix) -> bool:
    """Whether E @ E = E, on codes, up to the first entry that differs."""
    if not e.is_square():
        raise ValueError("idempotency is defined for square matrices")
    codes = e.codes
    products = _product_codes(codes, list(zip(*codes)))
    return all(map(eq, products, chain.from_iterable(codes)))


def idempotent_power(a: TropMatrix, max_squarings: int = 64) -> TropMatrix:
    """Iterated squaring until a fixed point E = E @ E is reached, each
    power checked on codes (``is_idempotent``) before it is squared."""
    if not a.is_square():
        raise ValueError("square matrix required")
    b = a
    for _ in range(max_squarings):
        if is_idempotent(b):
            return b
        b = mat_mul(b, b)
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


def load_json(text: str, what: str):
    """``json.loads``, which names ``what`` in a ValueError on too deep a nesting."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def parse_matrix_json(data) -> TropMatrix:
    if isinstance(data, str):
        data = load_json(data, "JSON matrix")
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
