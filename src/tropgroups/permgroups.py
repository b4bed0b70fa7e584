"""Finite permutation groups and 2-closure machinery.

Permutations are 0-indexed internally and 1-indexed in all text I/O
(cycle notation like ``(1,3,2)(5,10,7)``; the identity is ``()``).

Orders and membership come from a Sims table, ``_sims_table``: a
stabilizer chain with the points as base in their natural order, filled
by Knuth's deterministic sifting, so the order is the product of the
orbit lengths, no group is listed to count it, and no order is capped.
The greedy generating sequence, which the analysis reports and the
isomorphism test extends, is read off the table too
(``_greedy_generators``).

A paired group is one permutation group, ``joint``, on the n + m disjoint
points of its two sides, with one generator list: generators are joined
(``_join``) only where they come in as pairs, and read back by ``_split``.
Its faithfulness is read off the tables or, where it is listed, off the
list.

Every element list comes from ``_span``, which adds the generators one at
a time and skips each one already reached, so redundant generators (a
strong generating set has many) cost one lookup; the isomorphism test
grows its spans one generator at a time with the same ``_extend``.  It
works on image tuples.  A listing spends its size, read off the Sims table, from the
search budget before it starts (see ``search_budget``), so a group too
large for the budget is refused without listing any of it.  Orbits of
points come from the one traversal in ``graphs.components``.  Orbits of
pairs, the orbitals, come from ``_orbital_labels``, one int label per
pair code, which spends its cells from the search budget before it
builds any, so a 2-closure too large for the budget is refused at once.

A group is 2-closed when it already contains every permutation preserving
its orbits of ordered pairs, i.e. when it is the full automorphism group of
the coloured complete digraph whose colours are those orbits, held as
rows of colour ids and searched on int keys, one per pair of colours of
(v, u) and (u, v).  The paired variant colours the product of two vertex
sets and closes inside the product of the two symmetric groups.
Automorphism groups of coloured graphs are computed by backtracking over
a colour-refined partition, one base point at a time, so only generators
and the order are produced (the group itself is never listed), narrowing
each vertex's candidate images as the map grows.  Those images are held
as an int bit set, narrowed by one AND per unmapped vertex for each
vertex mapped, and the point to map next (fewest images, then lowest) is
found while narrowing and kept with the level.  The pair search of
``pairsearch`` is this engine on the pair colours of a matrix's rows and
columns, with a scaling fit added to each push.  That loop,
``base_and_orbit``, and the one depth-first walk,
``completions``, on an explicit stack (``complete`` is its first item),
drive both: the searches for generators of a coloured graph's
automorphism group and of the unit stabilizer Sigma skip each image of a
base point already in its orbit under the generators found there, and
keep a first completion of each other one; the walk alone lists the
units commuting with an idempotent.  A 2-closure starts from the group G
it closes: at each base point it skips the images G's own stabilizer
reaches, read off G's Sims table, counts the order from the orbits that
G and the completions span together, and returns G's generators, then
those.  All searches and listings in a ``search_budget`` block spend
from its budget; one outside every block has DEFAULT_MAX_NODES nodes of
its own.

Groups of different orders are not isomorphic, and equal permutation
groups are recognised as isomorphic from their tables.  Otherwise two
groups G and H of the same order are isomorphic exactly when some
list of images of a generating sequence of G, spanning H, makes the
subgroup of G x H generated by the pairs (generator, image) the graph of a
bijection.  Both projections of that subgroup are onto, so it is a graph
exactly when its order, read off its Sims table, is |G| (Seress, ch. 9).
The search for the images lists H but never G: G's side is its greedy
sequence and its table, and a candidate image must keep the orders and
commutations the generator has with the ones before it.
"""

from __future__ import annotations

import re
from contextvars import ContextVar
from itertools import islice
from math import factorial, lcm, prod
from operator import getitem
from typing import Iterable, Optional, Sequence

from .errors import SearchBudgetExceeded
from .graphs import ColouredBipartiteGraph, ColouredDigraph, components

DEFAULT_MAX_NODES = 2_000_000


class NotFaithful(ValueError):
    """A paired action where one side does not determine the other."""


_ONE_SIDED = "one-sided kernel element: the paired action is not faithful"


class Perm:
    """A permutation of {0, .., n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "Perm":
        """A Perm from an image tuple already known to be a permutation."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        """Apply self first, then other (matches matrix multiplication of
        the corresponding permutation matrices)."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm._of(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Perm":
        return Perm._of(_inverse(self.images))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point,
        sorted by that point, in one pass over the images."""
        images = self.images
        seen = bytearray(len(images))
        out = []
        for i, j in enumerate(images):
            if j != i and not seen[i]:
                cycle = [i]
                while j != i:
                    seen[j] = 1
                    cycle.append(j)
                    j = images[j]
                out.append(tuple(cycle))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "Perm"):
        return self.images < other.images

    def __repr__(self):
        return f"Perm({format_cycles(self)!r})"


_CYCLE = re.compile(r"\(\s*((?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?)\)\s*")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-indexed cycle notation of decimal points; the identity is
    ``()`` or `````` .  The cycles must be disjoint."""
    s = text.strip()
    images = list(range(degree))
    used: set[int] = set()
    pos = 0
    while pos < len(s):
        m = _CYCLE.match(s, pos)
        if m is None:
            raise ValueError(f"cannot parse cycle notation {text!r} at {pos}")
        body = m.group(1)
        if body:
            points = [int(tok) for tok in body.split(",")]
            if any(p < 1 or p > degree for p in points):
                raise ValueError(f"point out of range 1..{degree} in {text!r}")
            if len(set(points)) != len(points):
                raise ValueError(f"repeated point in cycle {text!r}")
            shared = used.intersection(points)
            if shared:
                raise ValueError(f"point {min(shared)} is in two cycles of {text!r}")
            used.update(points)
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b - 1
        pos = m.end()
    return Perm(images)


def format_cycles(p: Perm) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


def _span(
    generators: Iterable[tuple[int, ...]], identity: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The elements of the group the image tuples generate, in no promised
    order: the generators are added one at a time, and one the list has
    reached is skipped.  It spends nothing: ``elements`` spends the order
    before it lists, and the isomorphism test spans subgroups of a group
    it has listed."""
    out, seen, gens = [identity], {identity}, []
    for g in generators:
        if g not in seen:
            _extend(out, seen, gens, [g], None)
    return out


def _extend(out: list, seen: set, gens: list, new: list, stop: Optional[int]) -> None:
    """Grow ``out`` (with its set ``seen``), closed under right
    multiplication by ``gens``, to the closure under ``gens`` + ``new``,
    or until it holds ``stop`` elements, and append ``new`` to ``gens``.
    The elements already there need only the new generators."""
    done = len(out)
    gens += new
    # islice reads the elements appended while it runs
    for xs, by in ((out[:done], new), (islice(out, done, None), gens)):
        for x in xs:
            for g in by:
                y = tuple(map(g.__getitem__, x))  # x first, then g
                if y not in seen:
                    seen.add(y)
                    out.append(y)
                    if len(out) == stop:
                        return


def _join(g: Perm, h: Perm) -> tuple[int, ...]:
    """The images of the pair (g, h) on the n + m disjoint points of its
    two sides, the right side shifted by n = g.degree."""
    n = g.degree
    return g.images + tuple(n + y for y in h.images)


def _split(x: tuple[int, ...], n: int) -> tuple[Perm, Perm]:
    """The pair that ``_join`` joins to x, n points on the left."""
    return Perm._of(x[:n]), Perm._of(tuple(y - n for y in x[n:]))


def _inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(x)
    for i, y in enumerate(x):
        inv[y] = i
    return tuple(inv)


def _sims_table(generators: Sequence[tuple[int, ...]], degree: int) -> list[dict]:
    """A Sims table of the group the image tuples generate.

    Row k maps every point j of the orbit of k under the pointwise
    stabilizer of 0, .., k-1 to the inverse of one element of that
    stabilizer taking k to j (the identity at j = k).  It is filled one
    generator at a time by ``_sims_add``.
    """
    ident = tuple(range(degree))
    rows: list[dict] = [{k: ident} for k in range(degree)]
    strong: list[list] = [[] for _ in range(degree)]
    for g in generators:
        _sims_add(rows, strong, g)
    return rows


def _sims_add(rows: list[dict], strong: list[list], g: tuple[int, ...]) -> None:
    """Add g to the table ``rows``, whose levels have the generators
    ``strong``, by Knuth's deterministic algorithm ("Efficient
    representation of perm groups", *Combinatorica* 11, 1991).  Adding an
    element g to level k (it fixes 0, .., k-1) does nothing when g sifts
    through the rows from k on; otherwise g joins the level's generators
    and every representative times g is entered at level k.  Entering an
    element either fills a new orbit point, and then its products with the
    level's generators are entered too, or it meets the representative
    already there, and the quotient, which fixes k as well, is added to
    level k + 1.  The two steps run from one explicit stack, in the order
    their mutual recursion would take, so the depth does not grow with the
    input."""
    ident = tuple(range(len(g)))
    stack = [(0, g, True)]  # (level, element, add?)
    while stack:
        k, g, add = stack.pop()
        if add:
            if _sifts(rows, g, k):
                continue
            strong[k].append(g)
            reps = [_inverse(u) for u in rows[k].values()]
            stack.extend((k, tuple(map(g.__getitem__, t)), False) for t in reversed(reps))
            continue
        row = rows[k]
        u = row.get(g[k])
        if u is None:
            row[g[k]] = _inverse(g)
            stack.extend((k, tuple(map(s.__getitem__, g)), False) for s in reversed(strong[k]))
        else:
            h = tuple(map(u.__getitem__, g))  # g, then back to k
            if h != ident:
                stack.append((k + 1, h, True))


def _sifts(rows: list[dict], g: tuple[int, ...], k: int = 0) -> bool:
    """Whether g, which fixes 0, .., k-1, is a product of representatives
    of the rows from k on, that is, lies in the group of the table."""
    for i in range(k, len(g)):
        j = g[i]
        if j != i:
            u = rows[i].get(j)
            if u is None:
                return False
            g = tuple(map(u.__getitem__, g))
    return True


def _greedy_generators(rows: list[dict]) -> list[tuple[tuple[int, ...], int]]:
    """The greedy generating sequence of the group G of a Sims table: again
    and again the lex-least element of G not in the group H of the
    elements chosen so far, read off the table without listing G.  Each
    element comes with the order of the group its prefix generates.

    The elements agreeing with x on 0, .., k-1 are the stabilizer G^(k),
    then x; they split into children u_j, then x, for the representatives
    u_j of row k, ordered by x(j).  A child's subtree lies in H exactly
    when the child sifts through H's table and |G^(k+1)| = |H^(k+1)|, that
    is, H's rows from k + 1 on are as long as G's (H^(i) <= G^(i)).  The
    descent takes the first child whose subtree does not, until the
    stabilizer is trivial (the ordered base images of Butler, LNCS 559;
    the coset subtrees of Seress, ch. 9).  H's table grows one element at
    a time, and gives the prefix orders.
    """
    ident = tuple(range(len(rows)))
    reps = [list(map(_inverse, row.values())) for row in rows]
    depth = max((k + 1 for k, row in enumerate(rows) if len(row) > 1), default=0)
    h_rows: list[dict] = [{k: ident} for k in range(len(rows))]
    h_strong: list[list] = [[] for _ in rows]
    out = []
    while short := [k for k, row in enumerate(h_rows) if len(row) < len(rows[k])]:
        x = ident
        for k in range(depth):
            x = next(
                c
                for c in sorted(tuple(map(x.__getitem__, u)) for u in reps[k])
                if k < short[-1] or not _sifts(h_rows, c)
            )
        _sims_add(h_rows, h_strong, x)
        out.append((x, prod(map(len, h_rows))))
    return out


class PermGroup:
    """A finite permutation group given by generators."""

    __slots__ = ("degree", "generators", "_order", "_elements", "_table")

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm] = (),
        *,
        known_order: Optional[int] = None,
    ):
        gens = tuple(g for g in generators if not g.is_identity())
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_order", [known_order])
        object.__setattr__(self, "_elements", [None])
        object.__setattr__(self, "_table", [None])

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable")

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, ())

    @classmethod
    def from_cycles(cls, degree: int, gens: Iterable[str]) -> "PermGroup":
        return cls(degree, [parse_cycles(g, degree) for g in gens])

    def elements(self) -> frozenset[Perm]:
        """Product closure of the generators.  Every call spends the order,
        read off the Sims table, from the search budget before it lists
        anything, so a request spends the same whether or not an earlier
        one listed the group."""
        search_budget.current().spend("group listing", self.order())
        if self._elements[0] is None:
            gens = [g.images for g in self.generators]
            out = frozenset(map(Perm._of, _span(gens, tuple(range(self.degree)))))
            self._elements[0] = out
        return self._elements[0]

    def _sims(self) -> list[dict]:
        if self._table[0] is None:
            gens = [g.images for g in self.generators]
            self._table[0] = _sims_table(gens, self.degree)
        return self._table[0]

    def order(self) -> int:
        """The group order, known or read from the Sims table."""
        if self._order[0] is None:
            self._order[0] = prod(map(len, self._sims()))
        return self._order[0]

    def contains(self, p: Perm) -> bool:
        return p.degree == self.degree and _sifts(self._sims(), p.images)

    def __repr__(self):
        gens = ", ".join(format_cycles(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, <{gens}>)"


class PairedPermGroup:
    """A group acting on two sets, held as one group ``joint`` on the n + m
    disjoint points of the two sides (see ``_join``), built from generator
    pairs (left, right) or, by ``_of``, from image tuples on those points.
    ``generators`` reads the pairs off ``joint``'s one generator list, in
    its order; the order, table and ``known_order`` are those of ``joint``.
    Both coordinate projections must be faithful.  Every order that is not
    known checks that on the tables (``_checked``), every listing on the
    list, and the 2-closure checks a group built with ``known_order`` that
    nothing has checked yet."""

    __slots__ = ("degrees", "joint", "_elements", "_faithful")

    def __init__(
        self,
        degrees: tuple[int, int],
        generators: Iterable[tuple[Perm, Perm]] = (),
        *,
        known_order: Optional[int] = None,
    ):
        joined = []
        for g, h in generators:
            if g.degree != degrees[0] or h.degree != degrees[1]:
                raise ValueError("generator degree mismatch")
            joined.append(_join(g, h))
        self._init(degrees, joined, known_order)

    @classmethod
    def _of(cls, degrees, joined, known_order=None) -> "PairedPermGroup":
        """The group of side-keeping image tuples on the n + m joint points."""
        out = object.__new__(cls)
        out._init(degrees, joined, known_order)
        return out

    def _init(self, degrees, joined, known_order) -> None:
        joint = PermGroup(sum(degrees), map(Perm._of, joined), known_order=known_order)
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "_elements", [None])
        object.__setattr__(self, "_faithful", [False])

    def __setattr__(self, name, value):
        raise AttributeError("PairedPermGroup is immutable")

    @property
    def generators(self) -> tuple[tuple[Perm, Perm], ...]:
        """The generator pairs, read off ``joint``'s generators."""
        return tuple(_split(g.images, self.degrees[0]) for g in self.joint.generators)

    def elements(self) -> frozenset[tuple[Perm, Perm]]:
        """The pairs of the group; NotFaithful if one is the identity on
        exactly one side.  Every call spends the order of ``joint`` from
        the search budget before it lists anything, as ``PermGroup``'s."""
        search_budget.current().spend("group listing", self.joint.order())
        if self._elements[0] is None:
            n = self.degrees[0]
            joint = self.joint
            ident = tuple(range(joint.degree))
            listed = _span([g.images for g in joint.generators], ident)
            for x in listed:
                if (x[:n] == ident[:n]) != (x[n:] == ident[n:]):
                    raise NotFaithful(_ONE_SIDED)
            self._faithful[0] = True
            self._elements[0] = frozenset(_split(x, n) for x in listed)
        return self._elements[0]

    def _checked(self) -> None:
        """Check faithfulness on the tables, once: on the left exactly when
        the pointwise stabilizer of the n left points in ``joint`` is
        trivial, on the right exactly when the right side's group has the
        order of ``joint``'s table."""
        if self._faithful[0]:
            return
        n, m = self.degrees
        rows = self.joint._sims()
        right = PermGroup(m, [h for _, h in self.generators])
        if prod(map(len, rows[n:])) != 1 or right.order() != prod(map(len, rows)):
            raise NotFaithful(_ONE_SIDED)
        self._faithful[0] = True

    def greedy(self) -> "PairedPermGroup":
        """The same group on its greedy generating sequence, its order and
        faithfulness checked, without listing it, and its Sims table handed
        on: any table of a group gives its order, membership and greedy
        sequence.  With faithful sides the lex order on the n + m images is
        the one on the left images."""
        self._checked()
        rows = self.joint._sims()
        gens = [x for x, _ in _greedy_generators(rows)]
        out = PairedPermGroup._of(self.degrees, gens, self.joint.order())
        out.joint._table[0] = rows
        out._faithful[0] = True
        return out

    def order(self) -> int:
        """The order of ``joint``; one not known is read from its table
        after ``_checked``."""
        if self.joint._order[0] is None:
            self._checked()
        return self.joint.order()

    def left_group(self) -> PermGroup:
        return PermGroup(self.degrees[0], [g for g, _ in self.generators])

    def __repr__(self):
        return f"PairedPermGroup(degrees={self.degrees}, ngens={len(self.joint.generators)})"


# -- orbit colourings --


def _orbital_labels(g: PermGroup, n: int, m: int, shift: int) -> tuple[list[int], int]:
    """The orbit of each pair (i, shift + j), i < n, j < m, under the
    diagonal action of g, as the label of its code i·m + j, and the number
    of orbits.  With shift 0 (and n = m) these are all ordered pairs, and
    the diagonal, whose pairs have orbits of their own, is labelled -1.

    The orbits are numbered by their least code, that is by their least
    pair in lexicographic order.  Each is found by a breadth-first walk
    over the codes, the image of i·m + j under a generator p being
    left[i] + p[shift + j] with left[i] = p[i]·m - shift, one such table
    per generator.  The n·m cells, less the diagonal, are spent from the
    search budget, as "orbital colouring", before any of them is built."""
    cells = n * m - (n if shift == 0 else 0)
    search_budget.current().spend("orbital colouring", cells)
    label: list = [None] * (n * m)
    if shift == 0:
        label[:: n + 1] = [-1] * n
    tables = [([x * m - shift for x in p.images[:n]], p.images[shift:]) for p in g.generators]
    k = start = 0
    while cells:
        start = label.index(None, start)
        label[start] = k
        orbit = [start]
        for code in orbit:  # reads the codes appended while it runs
            i, j = divmod(code, m)
            for left, right in tables:
                image = left[i] + right[j]
                if label[image] is None:
                    label[image] = k
                    orbit.append(image)
        cells -= len(orbit)
        k += 1
    return label, k


def pair_orbit_colouring(g: PermGroup) -> ColouredDigraph:
    """Colour each ordered pair (i, j), i != j, by its orbit id under the
    diagonal action.  Orbit ids are numbered by the least pair they
    contain, in lexicographic order."""
    n = g.degree
    if n < 1:
        raise ValueError("need at least one vertex")
    label, count = _orbital_labels(g, n, n, 0)
    return ColouredDigraph._of([label[i * n:(i + 1) * n] for i in range(n)], range(count))


def paired_orbit_colouring(g: PairedPermGroup) -> ColouredBipartiteGraph:
    """Orbit colouring of the full product of the two vertex sets: the
    orbits of the pairs (i, n + j) under ``joint``."""
    n, m = g.degrees
    if n < 1 or m < 1:
        raise ValueError("both vertex sets must be nonempty")
    label, count = _orbital_labels(g.joint, n, m, n)
    return ColouredBipartiteGraph._of([label[i * m:(i + 1) * m] for i in range(n)], range(count))


# -- coloured-graph automorphisms --


class search_budget:
    """A budget of ``nodes`` search nodes.  Every search and listing run
    inside ``with search_budget(nodes) as block:`` spends from it: a search
    one node per image it tries, a listing one per element it will hold."""

    def __init__(self, nodes: int):
        self.nodes = self.left = nodes

    def __enter__(self) -> "search_budget":
        self._token = _BLOCK.set(self)
        return self

    def __exit__(self, *exc):
        _BLOCK.reset(self._token)

    @staticmethod
    def current() -> "search_budget":
        """The budget of the innermost block, else a new one of DEFAULT_MAX_NODES."""
        return _BLOCK.get() or search_budget(DEFAULT_MAX_NODES)

    def spend(self, search: str, nodes: int = 1) -> None:
        self.left -= nodes
        if self.left < 0:
            raise SearchBudgetExceeded(f"{search} exceeded the budget of {self.nodes} nodes")


_BLOCK: ContextVar[Optional[search_budget]] = ContextVar("search budget", default=None)


def base_and_orbit(search, base, act=None, known=None) -> tuple[list, int]:
    """Generators and the order of a group found point by point, the
    classical base-and-orbit backtrack (Seress, *Permutation Group
    Algorithms*, ch. 9).

    With the earlier base points fixed, every other candidate image of the
    next one is counted when a first-only completion exists, and that
    completion (from ``complete``) is kept as a generator; then the point
    is fixed.  The order is the product of the orbit lengths.  ``search``
    holds the live partial map: ``candidates(v)``, ``push(v, w)`` for one
    of them (False when w cannot extend the map), ``pop(v)``,
    ``next_point()`` (the point ``complete`` extends next, None once every
    point is mapped) and ``solution()``, the full map; and its ``budget``,
    spent one node per ``push`` in the name of the search, ``name``.

    With ``act(found, point)``, the image of a point under a solution, the
    orbit of the base point under the generators found at it is kept (they
    fix the earlier points), and a candidate already in it is counted
    without a search or a spend.  The generators still span the group, but
    fewer of them are found.  Without ``act`` every candidate is searched
    and every completion is kept.

    ``known``, with ``act`` and the base 0, 1, .., is the Sims table of a
    subgroup G of the group searched on the same points, as in a 2-closure.
    Its row v is the orbit of v under G's stabilizer of 0, .., v-1, so the
    orbit starts there, and it grows under the table's representatives of
    the rows from v on, which generate that stabilizer, and under the
    generators found at v.  G's generators and the ones found span the group.
    """
    generators: list = []
    order = 1
    for v in base:
        level = len(generators)  # the generators from here on are found at v
        # the identity always extends, and so does every element of G
        orbit = {v} if known is None else set(known[v])
        for w in search.candidates(v):
            if w in orbit or not _push(search, v, w):
                continue
            found = complete(search)
            search.pop(v)
            if found is None:
                continue
            generators.append(found)
            if act is None:
                orbit.add(w)
            else:
                here = generators[level:]
                if known is not None:
                    here += [u for row in known[v:] for u in row.values()]
                orbit = set(components([v], lambda x: [act(f, x) for f in here])[0])
        if not _push(search, v, v):
            raise AssertionError("a fixed base point does not extend")
        order *= len(orbit)
    return generators, order


def _push(search, v, w) -> bool:
    search.budget.spend(search.name)
    return search.push(v, w)


def completions(search):
    """Every completion of the live partial map of ``search`` (see
    ``base_and_orbit``), depth first, trying the candidates of each next
    point in their order; the map is as it was once the walk ends or is
    closed.  The points mapped so far wait on a stack with their untried
    images."""
    stack, v = [], search.next_point()
    untried = iter(search.candidates(v) if v is not None else ())
    try:
        while True:
            if v is None:
                yield search.solution()
            for w in untried:
                if _push(search, v, w):
                    stack.append((v, untried))
                    v = search.next_point()
                    untried = iter(search.candidates(v) if v is not None else ())
                    break
            else:
                if not stack:
                    return
                v, untried = stack.pop()
                search.pop(v)
    finally:
        for v, _ in reversed(stack):
            search.pop(v)


def complete(search):
    """The first of ``completions``, or None; the map is left as it was."""
    walk = completions(search)
    found = next(walk, None)
    walk.close()
    return found


class _AutomorphismSearch:
    """Backtracking automorphism engine over an edge-coloured structure on
    nv vertices, driven by ``base_and_orbit``.

    ``key[v][u]`` numbers the pair of edge colours (v to u, u to v), and
    is -1, which no pair has, on the diagonal; ``init`` is an initial
    vertex colouring (used to separate the sides of a bipartite structure).
    With ``onto``, a second key numbered alike, the search maps ``key``
    onto it, the two refined side by side so that their colours compare.

    ``fit[w]`` maps each number k to the bit set of the x whose pair to
    and from w is k in ``onto`` (or ``key``).  ``levels`` holds, per level,
    each unmapped vertex's images that agree with the map as a bit set: its
    refined colour class, narrowed by every ``push`` with one AND (forward
    checking, Haralick and Elliott, *Artificial Intelligence* 14, 1980, on
    the bit sets of McKay and Piperno, *J. Symbolic Comput.* 60, 2014);
    and the level's next point, found while narrowing.
    """

    name = "automorphism search"

    def __init__(self, nv, key, init, onto=None):
        self.budget = search_budget.current()
        self.nv = nv
        self.key = key
        bits = [1 << x for x in range(nv)]
        keys = [key] if onto is None else [key, onto]
        colour = self._refine(keys, list(init) * len(keys))
        colour, onto_colour = colour[:nv], colour[-nv:]
        self.fit = [_bit_sets(row, bits) for row in keys[-1]]
        classes = _bit_sets(onto_colour, bits)
        top = {v: classes.get(c, 0) for v, c in enumerate(colour)}
        self.levels = [(top, min(top, key=lambda u: (top[u].bit_count(), u), default=None))]
        self.image = list(range(nv))  # read only where every vertex is mapped

    @staticmethod
    def _refine(keys, colour):
        """The stable refinement of ``colour``, the vertex colours of the
        structures ``keys`` on nv vertices each, listed one after the other:
        each round splits classes by the multiset of (colour, key) pairs,
        and none splits once the number of classes stays the same."""
        nv, count = len(keys[0]), len(set(colour))
        while True:
            parts = [colour[k:k + nv] for k in range(0, len(colour), nv)]
            ids: dict = {}
            colour = [ids.setdefault((c, tuple(sorted(zip(part, row)))), len(ids))
                      for part, key in zip(parts, keys) for c, row in zip(part, key)]
            if len(ids) == count:
                return colour
            count = len(ids)

    def candidates(self, v):
        """v's images, ascending."""
        dom, out = self.levels[-1][0][v], []
        while dom:
            out.append((dom & -dom).bit_length() - 1)
            dom &= dom - 1
        return out

    def push(self, v, w) -> bool:
        """Map v to w, keeping in the domain of every other unmapped u the
        x != w whose edge colours to and from w are u's to and from v, and
        stack the next point; False when a domain empties."""
        key_v, fit_w = self.key[v], self.fit[w]
        narrowed, nxt, fewest = {}, None, self.nv + 1
        for u, dom in self.levels[-1][0].items():
            if u != v:
                # w is in v's refined class, so its row has every pair v's has
                dom &= fit_w[key_v[u]]
                if not dom:
                    return False
                narrowed[u] = dom
                if (size := dom.bit_count()) < fewest:
                    nxt, fewest = u, size
        self.levels.append((narrowed, nxt))
        self.image[v] = w
        return True

    _map = push  # the narrowing step, for a subclass whose own push adds to it

    def pop(self, v):
        self.levels.pop()

    def next_point(self):
        """The unmapped vertex with the fewest candidates, lowest first."""
        return self.levels[-1][1]

    def solution(self):
        return list(self.image)


def _bit_sets(labels, bits) -> dict:
    """Each label's bit set of the points that carry it, point x's bit bits[x]
    (the same int where x is the only one, as in every row of a regular
    group's key)."""
    out: dict = {}
    for k, b in zip(labels, bits):
        out[k] = out[k] | b if k in out else b
    return out


def _automorphisms(key: list[list[int]], init: list[int], known: Optional[PermGroup] = None):
    """Generators and order of the group of vertex permutations keeping
    the vertex colours `init` and the int keys ``key[v][u]``, one per
    pair of edge colours (v to u, u to v) and -1 on the diagonal, with
    `known` a subgroup of it on the same vertices, if given, whose own
    images the search skips (see ``base_and_orbit``).  What the search
    does depends only on which keys are equal, so any one-to-one numbering
    of the colour pairs makes the same pushes."""
    nv = len(key)
    search = _AutomorphismSearch(nv, key, init)
    if known is None:
        return base_and_orbit(search, range(nv), getitem)
    gens, order = base_and_orbit(search, range(nv), getitem, known._sims())
    return [g.images for g in known.generators] + gens, order


def coloured_automorphisms(d: ColouredDigraph, *, known: Optional[PermGroup] = None) -> PermGroup:
    """All vertex permutations preserving the edge colours, as generators
    with the exact order attached.  With ``known``, a group of such
    permutations, the search skips what it already reaches, and its
    generators come first.  The key of (v, u) is c(v, u)·k + c(u, v), for
    colour ids c of k colours."""
    n, rows, k = d.n, d.rows, len(d.palette)
    key = [[a * k + b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]
    for v in range(n):
        key[v][v] = -1  # which no push asks for
    gens, order = _automorphisms(key, [0] * n, known)
    return PermGroup(n, [Perm(g) for g in gens], known_order=order)


def coloured_bipartite_automorphisms(
    g: ColouredBipartiteGraph, *, known: Optional[PairedPermGroup] = None
) -> PairedPermGroup:
    """All side-preserving pair permutations preserving the edge colours;
    ``known`` as for ``coloured_automorphisms``.  An edge of colour id c
    is numbered c + 1, an absent edge 0: the key of a left point to a right
    one is its edge's number e, of a right point to a left one e + k, for
    k colours and the absent edge, and of two points on one side 2k."""
    n, m, k = g.n, g.m, len(g.palette) + 1
    key = [[2 * k] * n + [c + 1 for c in row] for row in g.rows]
    key += ([k + 1 + c for c in col] + [2 * k] * m for col in zip(*g.rows))
    for v in range(n + m):
        key[v][v] = -1
    joint = None if known is None else known.joint
    gens, order = _automorphisms(key, [0] * n + [1] * m, joint)
    return PairedPermGroup._of((n, m), map(tuple, gens), order)


# -- 2-closures --


def two_closure(g: PermGroup) -> PermGroup:
    """The largest group with g's orbits of ordered pairs, searched from g."""
    return coloured_automorphisms(pair_orbit_colouring(g), known=g)


def is_two_closed(g: PermGroup) -> bool:
    """Whether g is its 2-closure."""
    return g.order() == two_closure(g).order()


def paired_two_closure(g: PairedPermGroup) -> PairedPermGroup:
    """The largest subgroup of the product of the two symmetric groups
    preserving g's orbits on the product set, searched from g."""
    g._checked()
    return coloured_bipartite_automorphisms(paired_orbit_colouring(g), known=g)


def is_paired_two_closed(g: PairedPermGroup) -> bool:
    """Whether g is its paired 2-closure."""
    return g.order() == paired_two_closure(g).order()


# -- irreducibility of coloured bipartite graphs --


def is_irreducible(g: ColouredBipartiteGraph) -> bool:
    """False iff some vertex is isolated or two same-side vertices have
    identical coloured neighbourhoods: some row or column of colour ids
    is all -1, or two rows or two columns are equal."""
    for lines in (list(map(tuple, g.rows)), list(zip(*g.rows))):
        if len(set(lines)) < len(lines) or any(max(line) < 0 for line in lines):
            return False
    return True


# -- abstract isomorphism of groups --


def _is_abelian(g: PermGroup) -> bool:
    return all(a * b == b * a for a in g.generators for b in g.generators)


def _same_group(g: PermGroup, h: PermGroup) -> bool:
    """Whether g and h, of equal orders, are the same permutation group:
    same degree, every generator of g in h."""
    return g.degree == h.degree and all(map(h.contains, g.generators))


def groups_isomorphic(g: PermGroup, h: PermGroup) -> bool:
    """Exact abstract-group isomorphism: at once for groups of different
    orders, for equal permutation groups and for an abelian group against
    a non-abelian one, else by a search that lists H, spending its order
    from the search budget, and never lists G.

    Images in H are chosen for the greedy generating sequence g_0, g_1, ..
    of G one at a time, each candidate image h of g_k spending one node.
    A candidate is tried only if it keeps what every isomorphism keeps of
    g_k against the images h_i already chosen: its order, the order of
    each product h_i h and whether h commutes with each h_i; and only if
    the prefix then spans a subgroup of H as large as the matching prefix
    spans in G, grown from the previous prefix's span.  A full choice is
    an isomorphism iff the pairs (g_i, h_i) generate a subgroup of G x H
    of order |G| (see the module docstring), read off its Sims table.
    """
    order = g.order()
    if order != h.order():
        return False
    if _same_group(g, h):
        return True
    if _is_abelian(g) != _is_abelian(h):
        return False
    budget = search_budget.current()
    # H's elements by element order, each order computed once
    h_by_order: dict[int, list[Perm]] = {}
    for x in sorted(h.elements()):
        h_by_order.setdefault(x.order(), []).append(x)

    seq = _greedy_generators(g._sims())
    gens = [Perm._of(x) for x, _ in seq]
    # each g_k's order, and the order of g_i g_k and whether they commute, i < k
    profiles = [
        (x.order(), [((y * x).order(), y * x == x * y) for y in gens[:k]])
        for k, x in enumerate(gens)
    ]

    def keeps(k: int, images: list[Perm], cand: Perm) -> bool:
        return all(
            ((y * cand).order(), y * cand == cand * y) == kept
            for y, kept in zip(images, profiles[k][1])
        )

    def assign(k: int, images: list[Perm], span: list, seen: set) -> bool:
        if k == len(gens):
            joined = list(map(_join, gens, images))
            return prod(map(len, _sims_table(joined, g.degree + h.degree))) == order
        size = seq[k][1]
        for cand in h_by_order.get(profiles[k][0], ()):
            budget.spend("isomorphism test")
            if cand.images in seen or not keeps(k, images, cand):
                continue
            grown, reached = list(span), set(seen)
            _extend(grown, reached, [x.images for x in images], [cand.images], size + 1)
            if len(grown) == size and assign(k + 1, images + [cand], grown, reached):
                return True
        return False

    ident = tuple(range(h.degree))
    return assign(0, [], [ident], {ident})


# -- a small catalogue of recognisable groups --


_CATALOGUE = [
    (name, PermGroup.from_cycles(degree, gens))
    for name, degree, gens in [
        ("C2xC2", 4, ["(1,2)", "(3,4)"]),
        ("S3", 3, ["(1,2,3)", "(1,2)"]),
        ("D4", 4, ["(1,2,3,4)", "(1,3)"]),
        ("C4xC2", 6, ["(1,2,3,4)", "(5,6)"]),
        ("C2^3", 6, ["(1,2)", "(3,4)", "(5,6)"]),
        ("D5", 5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
        ("D6", 6, ["(1,2,3,4,5,6)", "(2,6)(3,5)"]),
        ("A4", 4, ["(1,2,3)", "(1,2)(3,4)"]),
        ("S4", 4, ["(1,2,3,4)", "(1,2)"]),
        ("A4xA4", 8, ["(1,2,3)", "(1,2)(3,4)", "(5,6,7)", "(5,6)(7,8)"]),
    ]
]


def identify_group(g: PermGroup) -> Optional[str]:
    """A standard name for the abstract group: C_k (``1``, ``S2`` for k =
    1, 2) for an abelian group whose exponent, the lcm of the generator
    orders, is its order k; else from the catalogue, first the entry of
    its order it equals as a permutation group, then the one it is
    isomorphic to; else S_k or A_k for a group of order k! or k!/2 that
    moves k points.  The order is known or read from the Sims table,
    whatever its size."""
    order = g.order()
    if _is_abelian(g) and lcm(*(p.order() for p in g.generators)) == order:
        return {1: "1", 2: "S2"}.get(order, f"C{order}")
    # the entries are pairwise non-isomorphic, so the one g equals is its name
    same_order = [(name, h) for name, h in _CATALOGUE if h.order() == order]
    for name, h in same_order:
        if _same_group(g, h):
            return name
    for name, h in same_order:
        if groups_isomorphic(g, h):
            return name
    k = len({i for p in g.generators for i, x in enumerate(p.images) if i != x})
    if order == factorial(k):
        return f"S{k}"
    if 2 * order == factorial(k):
        return f"A{k}"
    return None
