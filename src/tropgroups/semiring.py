"""Exact scalars for max-plus arithmetic.

A finite scalar is a rational "standard part" plus finitely many rational
multiples of infinitesimal units e1, e2, ...  Scalars are ordered
lexicographically: standard part first, then infinitesimal coordinates in
increasing tag order (absent coordinates count as zero).  The standard part
dominates, so a strict inequality between standard parts can never be
flipped by infinitesimal terms, while fresh tags keep chosen entries
rationally independent.  The value group is divisible: every scalar has an
exact n-th part.

`-inf` is the additive (max) identity and the absorbing element for
multiplication (classical addition).

Text grammar: ``-inf`` | a sum of signed terms, each a rational ``p`` /
``p/q`` or an infinitesimal term ``[coeff]e<tag>``, e.g. ``-1+e3`` or
``9/10-2e1+e2``.

Code space.  A ``Basis`` packs scalars into ints.  Over the sorted union
of their tags and the lcm D of their denominators a finite scalar has the
fields (D*std, D*c_t1, .., D*c_tk), packed into c0*B^k + .. + ck with
B = 2^w (the scalar 0 has the code 0 in every basis); ``-inf`` becomes
``None``.  The width w is the bit length of a bound on every |field| of
the basis's scalars plus 64 spare bits.  Packing is linear, so ``+``,
``-`` and multiplication by an int act field by field (the tropical
product, its residual and powers), and int order is the lex order of the
fields, which is the scalar order: where two codes first differ the gap
is one unit of that field's place, more than the lower fields can make
up.  Calling a basis decodes.  The rules that keep codes exact:

- a code always lives in a basis: ``encode``, the one packer, gives every
  matrix (``matrix.TropMatrix``) its basis as it is built; derived
  matrices share it; two bases meet only through one joint ``encode``,
  and bases of equal ``key`` share their codes;
- width: a basis holds sums of fewer than 2^62 of its codes.  Unit
  products add at most three codes and stay in the basis; a matrix
  product is encoded afresh, since iterated squaring doubles its sums;
- division by a cycle length k refines: x - S/k is the code k*x - S in
  ``refined(k)`` (sums of k + 1 parent codes), or x - S/k in the basis
  itself where k divides every field of S.  That is asked of each
  unpacked field, never of the packed int: with B = 4 the fields (1, 2)
  pack to 6, which 3 divides;
- a code ``None`` never leaves code space as a scalar, and ``NEG_INF``
  never enters it; ``free_basis_check`` stays on ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce, total_ordering
from itertools import chain
from math import lcm
from operator import or_
from typing import Iterable, Optional, Sequence, Union


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@total_ordering
class Value:
    """A finite scalar: rational standard part plus infinitesimal terms.

    Immutable.  ``eps`` is a tuple of (tag, coefficient) pairs, sorted by
    tag, with no zero coefficients stored.
    """

    __slots__ = ("std", "eps", "_hash")

    def __init__(self, std=0, eps: Iterable[tuple[int, Fraction]] = ()):
        object.__setattr__(self, "std", _frac(std))
        items = {}
        for tag, coeff in dict(eps).items():
            if not isinstance(tag, int) or tag < 0:
                raise ValueError(f"infinitesimal tag must be a natural number, got {tag!r}")
            coeff = _frac(coeff)
            if coeff != 0:
                items[tag] = coeff
        object.__setattr__(self, "eps", tuple(sorted(items.items())))
        # computed on first use: most scalars are never hashed
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Value is immutable")

    # -- arithmetic (classical, i.e. the tropical product structure) --

    def __add__(self, other: "Value") -> "Value":
        if not isinstance(other, Value):
            return NotImplemented
        coeffs = dict(self.eps)
        for tag, c in other.eps:
            coeffs[tag] = coeffs.get(tag, Fraction(0)) + c
        return Value(self.std + other.std, coeffs)

    def __neg__(self) -> "Value":
        return Value(-self.std, tuple((t, -c) for t, c in self.eps))

    def __sub__(self, other: "Value") -> "Value":
        if not isinstance(other, Value):
            return NotImplemented
        return self + (-other)

    def __abs__(self) -> "Value":
        return -self if self < ZERO else self

    def mul_int(self, k: int) -> "Value":
        return Value(self.std * k, tuple((t, c * k) for t, c in self.eps))

    def div_int(self, k: int) -> "Value":
        if k < 1:
            raise ValueError(f"divisor must be a positive integer, got {k}")
        return Value(self.std / k, tuple((t, c / k) for t, c in self.eps))

    # -- total order: standard part, then eps coordinates by tag --

    def _cmp(self, other: "Value") -> int:
        """The sign of self - other: of its std, else of its lowest-tagged term."""
        d = self - other
        lead = d.std or (d.eps[0][1] if d.eps else 0)
        return (lead > 0) - (lead < 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Value) and self.std == other.std and self.eps == other.eps

    def __lt__(self, other) -> bool:
        if isinstance(other, Value):
            return self._cmp(other) < 0
        if other is NEG_INF:
            return False
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.std, self.eps)))
        return self._hash

    def __repr__(self) -> str:
        return f"Value({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


@total_ordering
class _NegInf:
    """The semiring zero.  A singleton, below every finite scalar."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        if isinstance(other, Value):
            return True
        if other is self:
            return False
        return NotImplemented

    def __repr__(self):
        return "NEG_INF"

    def __str__(self):
        return "-inf"

    def __reduce__(self):
        return (_NegInf, ())


NEG_INF = _NegInf()
ZERO = Value(0)

TropScalar = Union[Value, _NegInf]


def is_finite(x: TropScalar) -> bool:
    return isinstance(x, Value)


def val(x) -> Value:
    """Coerce an int, Fraction or string to a finite scalar."""
    if isinstance(x, Value):
        return x
    if isinstance(x, (int, Fraction)):
        return Value(x)
    if isinstance(x, str):
        s = parse_scalar(x)
        if s is NEG_INF:
            raise ValueError("-inf is not a finite scalar")
        return s
    raise TypeError(f"cannot interpret {x!r} as a finite scalar")


def eps(tag: int, coeff=1) -> Value:
    """The infinitesimal unit e<tag>, optionally scaled."""
    return Value(0, ((tag, _frac(coeff)),))


# -- semiring operations --


def trop_add(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical sum: the maximum of the two scalars."""
    if a is NEG_INF:
        return b
    if b is NEG_INF:
        return a
    return a if a._cmp(b) >= 0 else b


def trop_mul(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical product: classical addition, absorbed by -inf."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


def trop_sum(items: Iterable[TropScalar]) -> TropScalar:
    acc: TropScalar = NEG_INF
    for x in items:
        acc = trop_add(acc, x)
    return acc


def free_basis_check(vals: Sequence[Value]) -> bool:
    """True iff no nontrivial integer combination of the scalars vanishes.

    That is linear independence over the rationals, decided by exact Gaussian
    elimination on the (infinitesimal-coordinate, standard) vectors: a value
    with a tag of its own, as the witness constructions place, is its own pivot.
    """
    vals = list(vals)
    if not vals:
        return True
    tags = sorted({t for v in vals for t, _ in v.eps})
    pos = {t: i for i, t in enumerate(tags)}
    width = 1 + len(tags)
    rows = []
    for v in vals:
        row = [Fraction(0)] * width
        row[-1] = v.std
        for t, c in v.eps:
            row[pos[t]] = c
        rows.append(row)
    rank = 0
    col = 0
    n = len(rows)
    while rank < n and col < width:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / lead
                for c in range(col, width):
                    rows[r][c] -= f * rows[rank][c]
        rank += 1
        col += 1
    return rank == len(vals)


# -- code space --

Code = Optional[int]

# spare bits above the bound on the fields of a basis: sums of fewer than
# 2^62 codes keep every field inside its slot
_SPARE_BITS = 64


class Basis:
    """The packing of scalars into codes: the lcm ``den`` of their
    denominators, their sorted tags and the field width ``shift`` (by
    default those of the scalar 0 alone), and the scalars decoded so far.
    Called on a code, it decodes it; ``key`` names the packing, so bases
    of equal keys share their codes."""

    __slots__ = ("den", "pos", "shift", "key", "table", "_refined")

    def __init__(self, den: int = 1, tags: Iterable[int] = (), shift: int = 1 + _SPARE_BITS):
        self.den, self.pos, self.shift = den, {t: k for k, t in enumerate(tags, 1)}, shift
        self.key = (den, tuple(self.pos), shift)
        self.table: dict = {None: NEG_INF, 0: ZERO}
        self._refined: dict = {}

    def refined(self, k: int) -> "Basis":
        """This basis over the denominator k*D: the same tags and field
        width, so that the code k*x - S of this basis reads x - S/k in it.
        Built once per positive integer k; ``refined(1)`` is this basis."""
        b = self if k == 1 else self._refined.get(k)
        if b is None:
            b = self._refined[k] = Basis(self.den * k, self.pos, self.shift)
        return b

    def pack(self, std: Fraction, coeffs) -> int:
        """The code of the scalar of standard part ``std`` and
        infinitesimal terms ``coeffs``."""
        den, shift, high = self.den, self.shift, self.shift * len(self.pos)
        code = std.numerator * (den // std.denominator) << high
        for t, c in coeffs:
            code += c.numerator * (den // c.denominator) << high - shift * self.pos[t]
        return code

    def fields(self, code: int) -> list[int]:
        """The signed fields of a code, high field first, taken off as
        centred remainders from the low field up."""
        shift = self.shift
        half, mask = 1 << (shift - 1), (1 << shift) - 1
        out = [0] * (len(self.pos) + 1)
        for i in range(len(out) - 1, -1, -1):
            out[i] = c = ((code + half) & mask) - half
            code = (code - c) >> shift
        return out

    def __call__(self, code: Code) -> TropScalar:
        """The scalar of a code, built once per code."""
        x = self.table.get(code)
        if x is None:
            row, d = self.fields(code), self.den
            x = self.table[code] = Value(
                Fraction(row[0], d),
                [(t, Fraction(row[i], d)) for t, i in self.pos.items() if row[i]],
            )
        return x


def encode(*groups: Iterable) -> tuple[list[tuple[Code, ...]], Basis]:
    """The codes of the entries of each group over one shared basis, and
    that basis, which decodes them.  An entry is any of ``scalar_fields``'
    inputs, and each distinct one is read once: keyed by value, so equal
    entries share one code.

    Decoding returns ``ZERO`` for the code 0, an encoded ``Value`` itself
    for its code (the first one, when equal scalars are held in distinct
    objects), and builds every other ``Value`` once per basis.
    """
    groups = [tuple(g) for g in groups]
    fields = {x: scalar_fields(x) for x in dict.fromkeys(chain.from_iterable(groups))}
    finite = [f for f in fields.values() if f is not None]
    rationals = [q for std, coeffs in finite for q in (std, *(c for _, c in coeffs))]
    # the bitwise or of the numerators' magnitudes has the bit length of
    # the largest, and each field is at most that numerator times D
    top = reduce(or_, (abs(q.numerator) for q in rationals), 0)
    den = lcm(1, *{q.denominator for q in rationals})
    tags = sorted({t for _, coeffs in finite for t, _ in coeffs})
    basis = Basis(den, tags, top.bit_length() + den.bit_length() + _SPARE_BITS)
    code_of = {}
    for x, f in fields.items():
        code_of[x] = code = None if f is None else basis.pack(*f)
        if isinstance(x, Value):
            basis.table.setdefault(code, x)
    return [tuple(map(code_of.__getitem__, g)) for g in groups], basis


# -- text format --

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)?e(\d+)|(\d+(?:/\d+)?))")


def _rational(token: str, text: str) -> Fraction:
    """The rational of a token ``p`` or ``p/q`` (digit strings)."""
    num, _, den = token.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def parse_scalar(text: str) -> TropScalar:
    """Parse the scalar grammar: ``-inf`` | signed rational and e-terms."""
    f = scalar_fields(text)
    return NEG_INF if f is None else Value(*f)


def scalar_fields(x) -> Optional[tuple[Fraction, tuple]]:
    """The standard part and the sorted nonzero (tag, coefficient) terms
    of a scalar, an int, a Fraction or a text in the scalar grammar; None
    for ``-inf``."""
    if isinstance(x, Value):
        return x.std, x.eps
    if isinstance(x, (int, Fraction)):
        return Fraction(x), ()
    if not isinstance(x, str):
        if x is NEG_INF:
            return None
        raise TypeError(f"cannot interpret {x!r} as a tropical scalar")
    text, s = x, x.strip()
    if s in ("-inf", "-Inf", "-INF"):
        return None
    if not s:
        raise ValueError("empty scalar")
    if any(ch.isspace() for ch in s):
        raise ValueError(f"scalar may not contain whitespace: {text!r}")
    std = Fraction(0)
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == m.start():
            raise ValueError(f"cannot parse scalar {text!r} at position {pos}")
        sign, ecoeff, etag, rat = m.groups()
        if not first and sign == "":
            raise ValueError(f"missing sign between terms in scalar {text!r}")
        sgn = -1 if sign == "-" else 1
        if etag is not None:
            c = _rational(ecoeff, text) if ecoeff else Fraction(1)
            tag = int(etag)
            coeffs[tag] = coeffs.get(tag, Fraction(0)) + sgn * c
        else:
            std += sgn * _rational(rat, text)
        pos = m.end()
        first = False
    return std, tuple(sorted((t, c) for t, c in coeffs.items() if c))


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x: TropScalar) -> str:
    """Canonical text form; round-trips through parse_scalar."""
    if x is NEG_INF:
        return "-inf"
    if not isinstance(x, Value):
        raise TypeError(f"not a tropical scalar: {x!r}")
    parts: list[str] = []
    if x.std != 0 or not x.eps:
        parts.append(_frac_str(x.std))
    for tag, c in x.eps:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else _frac_str(mag)
        parts.append(f"{sign}{coeff}e{tag}")
    out = "".join(parts)
    if out.startswith("+"):
        out = out[1:]
    return out
