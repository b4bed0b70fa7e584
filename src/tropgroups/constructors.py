"""Witness matrices realising prescribed groups.

Two constructions are provided.  From an irreducible coloured bipartite
graph, a full-rank rectangular matrix whose stabilizer is the graph's
automorphism group times a scaling line: missing edges get a fresh colour,
colours are refined by vertex orbits, dominated orbits are removed, and
every surviving colour is assigned an exact value inside a prescribed
rational interval.  From a 2-closed permutation group (or a complete
coloured digraph), a full-rank idempotent whose maximal subgroup has the
group as its finite part: zero diagonal and orbit-coloured off-diagonal
entries strictly inside (-1.1, -0.9).

Rows and columns go through the same steps.  ``_side`` finds a side's
orbits and its active points, ``_undominated`` drops the first dominated
live orbit of one side (rows are tried before columns, until neither side
changes), and ``_live`` lists the orbits still active.  When more row
orbits than column orbits survive, the construction runs on the reversed
graph and transposes the result.

Both constructions place their values through one ``_place``.  The t-th
of T values needed inside (lo, hi) sits at lo + (hi - lo) * t / (T + 1),
and every value carries the next infinitesimal tag counted from
``tag_start``, which keeps the chosen entries rationally independent and
all interval inequalities strict.  When exactly two row orbits survive,
the groups of values aimed at the same interval are placed on graded grids
instead, so that all pairwise gaps in an earlier group exceed all gaps in
a later one (and the reverse on the second row orbit), as the rank
argument for that case requires.  Every value is recorded with its
interval in a ``ConstructionPlan``, which is validated before the matrix
is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import ColouredBipartiteGraph, ColouredDigraph, components
from .matrix import TropMatrix, idempotent_power, is_idempotent
from .permgroups import (
    PairedPermGroup,
    Perm,
    PermGroup,
    coloured_automorphisms,
    coloured_bipartite_automorphisms,
    is_irreducible,
    pair_orbit_colouring,
    paired_orbit_colouring,
    parse_cycles,
)
from .semiring import NEG_INF, Value, eps, is_finite, free_basis_check
from .spaces import has_full_rank
from .stabilizer import NotFullRank, NotIdempotent

TENTH = Fraction(1, 10)


class ReducibleInput(ValueError):
    """The bipartite graph has an isolated node or a twin pair."""


class HypothesisViolated(ValueError):
    """Trivial automorphism group with a side of at most two nodes."""


class NotTwoClosed(ValueError):
    """The requested group is not 2-closed, so no idempotent realises it."""


class DependentEntries(ValueError):
    """The supplied entries do not form a free basis."""


@dataclass(frozen=True)
class PlannedValue:
    low: Fraction
    high: Fraction
    value: Value


@dataclass(frozen=True)
class ConstructionPlan:
    """The exact value chosen for every colour, with its target interval."""

    assignments: tuple[PlannedValue, ...]

    def validate(self) -> None:
        for pv in self.assignments:
            if not (pv.low < pv.value.std < pv.high):
                raise AssertionError(
                    f"value {pv.value} not strictly inside ({pv.low}, {pv.high})"
                )
        if not free_basis_check([pv.value for pv in self.assignments]):
            raise AssertionError("chosen values are not a free basis")


def _place(plan: list, tags, lo: Fraction, hi: Fraction, stds) -> list[Value]:
    """One value std + eps(t) per standard part, t the next of `tags`, each
    recorded in `plan` with its interval (lo, hi)."""
    values = [Value(std) + eps(next(tags)) for std in stds]
    plan.extend(PlannedValue(lo, hi, v) for v in values)
    return values


def _side(size: int, perms: Sequence[Perm], trivial: bool):
    """The orbits of one side (sorted lists), the orbit index of each point
    and the active points: all of them when the group is trivial, else
    those in orbits of more than one point."""
    orbits = [sorted(o) for o in components(range(size), lambda x: [p(x) for p in perms])]
    orbit_of = {v: k for k, orb in enumerate(orbits) for v in orb}
    active = sorted(v for orb in orbits if trivial or len(orb) > 1 for v in orb)
    return orbits, orbit_of, active


def _live(orbits: list[list[int]], active: list[int]) -> list[list[int]]:
    """The orbits whose points are active (orbits are dropped whole)."""
    alive = set(active)
    return [orb for orb in orbits if orb[0] in alive]


def _undominated(orbits, active, others, colour) -> list[int]:
    """`active` without the first live orbit ob for which some node of
    another live orbit splits `others` into colour cells that each lie in
    a cell of some node of ob; `active` itself when there is none."""
    parts = {}
    for u in active:
        cells: dict = {}
        for s in others:
            cells.setdefault(colour(u, s), set()).add(s)
        parts[u] = [frozenset(cell) for cell in cells.values()]

    def refines(pa, pb):
        return all(any(cell <= other for other in pb) for cell in pa)

    for oa, ob in itertools.permutations(_live(orbits, active), 2):
        if any(refines(parts[u], parts[v]) for u in oa for v in ob):
            return sorted(set(active) - set(ob))
    return active


def _subdivide(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    return [lo + (hi - lo) * t / (count + 1) for t in range(1, count + 1)]


def _graded_grid(center: Fraction, gap: Fraction, count: int) -> list[Fraction]:
    return [center + (Fraction(2 * s - (count - 1), 2)) * gap for s in range(count)]


def construct_from_bipartite(d: ColouredBipartiteGraph, *, tag_start: int = 1) -> TropMatrix:
    """A full-rank matrix whose stabilizer is R x Aut(d).

    Requires d irreducible, and Aut(d) non-trivial or both sides larger
    than 2.  Entries realise the graph's orbit-refined colouring with
    exact values chosen inside the intervals that make the rank argument
    work; the resulting finite part is Aut(d) acting on the surviving
    (non-dominated) orbits.
    """
    return _from_bipartite(d, tag_start)[0]


def _from_bipartite(
    d: ColouredBipartiteGraph, tag_start: int = 1, aut: Optional[PairedPermGroup] = None
) -> tuple[TropMatrix, PairedPermGroup]:
    """``construct_from_bipartite``'s matrix, and the automorphism group
    ``aut`` of the completed graph, searched for unless it is given."""
    if not is_irreducible(d):
        raise ReducibleInput("the graph has an isolated node or a twin pair")
    full = d.completed()
    if aut is None:
        aut = coloured_bipartite_automorphisms(full)
    trivial = not aut.generators
    if trivial and not (d.n > 2 and d.m > 2):
        raise HypothesisViolated(
            "a trivial automorphism group needs more than two nodes per side"
        )

    row_orbits, row_orbit_of, active_rows = _side(d.n, [g for g, _ in aut.generators], trivial)
    col_orbits, col_orbit_of, active_cols = _side(d.m, [h for _, h in aut.generators], trivial)

    def refined(i: int, j: int):
        return (full.edges[(i, j)], row_orbit_of[i], col_orbit_of[j])

    # drop dominated orbits, rows before columns, until stable; with a
    # trivial group every orbit is a single point and all of them stay
    while not trivial:
        rows = _undominated(row_orbits, active_rows, active_cols, refined)
        if rows == active_rows:
            cols = _undominated(
                col_orbits, active_cols, active_rows, lambda j, i: refined(i, j)
            )
            if cols == active_cols:
                break
            active_cols = cols
        active_rows = rows

    live_row_orbits = _live(row_orbits, active_rows)
    live_col_orbits = _live(col_orbits, active_cols)
    k, kp = len(live_row_orbits), len(live_col_orbits)
    if k > kp:
        reversed_graph = ColouredBipartiteGraph(
            d.m, d.n, {(j, i): c for (i, j), c in d.edges.items()}
        )
        swapped = PairedPermGroup(
            (d.m, d.n), [(h, g) for g, h in aut.generators], known_order=aut.order()
        )
        return _from_bipartite(reversed_graph, tag_start, swapped)[0].transpose(), aut

    live_row_of = {v: t for t, orb in enumerate(live_row_orbits, 1) for v in orb}
    live_col_of = {v: t for t, orb in enumerate(live_col_orbits, 1) for v in orb}
    colour_group: dict = {}
    for s in active_rows:
        for t in active_cols:
            colour_group.setdefault(refined(s, t), (live_row_of[s], live_col_of[t]))
    colours = list(colour_group)

    value_of: dict = {}
    plan: list[PlannedValue] = []
    tags = itertools.count(tag_start)

    def place(group, lo, hi, stds):
        value_of.update(zip(group, _place(plan, tags, lo, hi, stds)))

    if k == 2:
        q = Fraction(1, max(Counter(colour_group.values()).values()) + 2)
        for j in range(1, kp + 1):
            for i, center, gap in (
                (1, Fraction(0), TENTH * q**j),
                (2, Fraction(-j), TENTH * q ** (kp + 1 - j)),
            ):
                group = [c for c in colours if colour_group[c] == (i, j)]
                if group:
                    grid = _graded_grid(center, gap, len(group))
                    place(group, center - TENTH, center + TENTH, grid)
        _check_gap_inequalities(colours, colour_group, value_of, kp)
    else:
        interval_of: dict = {}
        delta1 = live_row_orbits[0]
        for j, corb in enumerate(live_col_orbits, start=1):
            pj = corb[0]
            cells: dict = {}
            for u in delta1:
                cells.setdefault(refined(u, pj), []).append(u)
            ordered = sorted(cells.items(), key=lambda kv: min(kv[1]))
            acc = 0
            for colour, members in ordered:
                center = Fraction(-acc)
                interval_of[colour] = (center - TENTH, center + TENTH)
                acc += len(members)
        for c in colours:
            i, j = colour_group[c]
            if c in interval_of:
                continue
            if i == 1:
                raise AssertionError("first-orbit colour missed by the cell scan")
            if j == 1:
                center = Fraction(0)
            else:
                center = Fraction((-1) ** (i + j) * (i + j) * len(delta1))
            interval_of[c] = (center - TENTH, center + TENTH)
        by_interval: dict = {}
        for c in colours:
            by_interval.setdefault(interval_of[c], []).append(c)
        for (lo, hi), group in by_interval.items():
            place(group, lo, hi, _subdivide(lo, hi, len(group)))

    ConstructionPlan(tuple(plan)).validate()
    matrix = TropMatrix(
        [[value_of[refined(s, t)] for t in active_cols] for s in active_rows]
    )
    if not has_full_rank(matrix):
        raise AssertionError("constructed matrix is not full rank")
    return matrix, aut


def _check_gap_inequalities(colours, colour_group, value_of, kp):
    """The two-row-orbit case needs the pairwise-gap orderings between
    groups aimed at a common interval family."""

    def posdiffs(vals):
        return [x - y for x, y in itertools.permutations(vals, 2) if x > y]

    for row, increasing in ((1, False), (2, True)):
        groups = []
        for j in range(1, kp + 1):
            vals = [value_of[c] for c in colours if colour_group[c] == (row, j)]
            groups.append(posdiffs(vals))
        for ja, jb in itertools.combinations(range(kp), 2):
            da, db = groups[ja], groups[jb]
            if not da or not db:
                continue
            if increasing:
                assert max(da) < min(db)
            else:
                assert min(da) > max(db)


def construct_idempotent(
    target: Union[PermGroup, ColouredDigraph], *, tag_start: int = 1
) -> TropMatrix:
    """A full-rank idempotent whose maximal subgroup has the prescribed
    finite part.

    Accepts a 2-closed permutation group (rejected otherwise) or a
    complete coloured digraph (whose automorphism group is always
    2-closed).  Zero diagonal; off-diagonal entries are exact values
    strictly inside (-1.1, -0.9), one per orbit-refined colour.  The
    trivial group on one or two points uses the fixed small idempotents
    [[0]] and [[0, 0], [-inf, 0]].
    """
    return _idempotent(target, tag_start)[0]


def _idempotent(
    target: Union[PermGroup, ColouredDigraph], tag_start: int = 1
) -> tuple[TropMatrix, PermGroup]:
    """``construct_idempotent``'s matrix, and the group it realises: the
    target group, or the digraph's automorphism group."""
    if isinstance(target, PermGroup):
        group = target
        digraph = pair_orbit_colouring(group)
        if coloured_automorphisms(digraph, known=group).order() != group.order():
            raise NotTwoClosed(
                "only 2-closed groups arise from idempotents at their degree"
            )
    else:
        digraph = target
        group = coloured_automorphisms(digraph)
    n = group.degree

    if not group.generators and n <= 2:
        if n == 1:
            matrix = TropMatrix.from_rows([[0]])
        else:
            matrix = TropMatrix.from_rows([[0, 0], [NEG_INF, 0]])
        if not is_idempotent(matrix) or not has_full_rank(matrix):
            raise AssertionError("small idempotent failed its checks")
        return matrix, group

    _, orbit_of, _ = _side(n, group.generators, True)

    def refined(i: int, j: int):
        return (digraph.colours[(i, j)], orbit_of[i], orbit_of[j])

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    colours = list(dict.fromkeys(refined(i, j) for i, j in pairs))
    lo, hi = Fraction(-11, 10), Fraction(-9, 10)
    plan: list[PlannedValue] = []
    values = _place(plan, itertools.count(tag_start), lo, hi, _subdivide(lo, hi, len(colours)))
    ConstructionPlan(tuple(plan)).validate()
    value_of = dict(zip(colours, values))
    zero = Value(0)
    matrix = TropMatrix(
        [
            [zero if i == j else value_of[refined(i, j)] for j in range(n)]
            for i in range(n)
        ]
    )
    if not is_idempotent(matrix):
        raise AssertionError("constructed matrix is not idempotent")
    if not has_full_rank(matrix):
        raise AssertionError("constructed idempotent is not full rank")
    return matrix, group


def assemble_blocks(
    blocks: Sequence[tuple[TropMatrix, int]], fill
) -> TropMatrix:
    """Block-diagonal assembly with the off-blocks filled by -inf or 0."""
    if fill is not NEG_INF and fill != Value(0):
        raise ValueError("fill must be -inf or 0")
    expanded = []
    for block, mult in blocks:
        if mult < 1:
            raise ValueError("multiplicities must be positive")
        expanded.extend([block] * mult)
    if not expanded:
        raise ValueError("nothing to assemble")
    nrows = sum(b.nrows for b in expanded)
    ncols = sum(b.ncols for b in expanded)
    rows = [[fill] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in expanded:
        for i in range(b.nrows):
            rows[r0 + i][c0 : c0 + b.ncols] = list(b.entries[i])
        r0 += b.nrows
        c0 += b.ncols
    return TropMatrix(rows)


ALT4_GENERATORS = ("(1,2,3)", "(1,2)(3,4)")


def alt4_elements() -> list[Perm]:
    """The 12 even permutations of 4 points, in breadth-first product
    order from the generators (1,2,3) and (1,2)(3,4)."""
    gens = [parse_cycles(g, 4).images for g in ALT4_GENERATORS]
    (listed,) = components(
        [tuple(range(4))], lambda x: [tuple(map(g.__getitem__, x)) for g in gens]
    )  # x first, then g
    return [Perm(x) for x in listed]


def alt4_column_matrix(a: Value, b: Value, c: Value, d: Value) -> TropMatrix:
    """The 4 x 12 matrix whose columns are the even permutations of
    (a, b, c, d), acting by (g . V)_i = V_{g^{-1}(i)}."""
    vals = (a, b, c, d)
    if not free_basis_check(list(vals)):
        raise DependentEntries("the four entries must form a free basis")
    cols = []
    for g in alt4_elements():
        ginv = g.inverse()
        cols.append([vals[ginv(i)] for i in range(4)])
    return TropMatrix([[col[i] for col in cols] for i in range(4)])


def finite_approximant(e: TropMatrix, m: int) -> TropMatrix:
    """The finite idempotent obtained by replacing each -inf entry with a
    large negative multiple and taking the idempotent power.

    The replacement constant is m * N with N = -(sum of |finite entries|)
    - 1.  The result is verified against its closed form: unchanged on the
    finite entries, and row-max + m*N + column-max elsewhere.
    """
    if m < 1:
        raise ValueError("the approximation index must be a positive integer")
    if not e.is_square() or not is_idempotent(e):
        raise NotIdempotent("approximants are defined for idempotents")
    if not has_full_rank(e):
        raise NotFullRank("approximants are defined for full-rank idempotents")
    codes, decode = e.codes, e.basis
    total = decode(sum(abs(x) for row in codes for x in row if x is not None))
    repl = (-total - Value(1)).mul_int(m)
    substituted = TropMatrix(
        [[x if is_finite(x) else repl for x in row] for row in e.entries]
    )
    f = idempotent_power(substituted)
    row_max, col_max = (
        [decode(max((x for x in v if x is not None), default=None)) for v in vs]
        for vs in (codes, zip(*codes))
    )
    for i, row in enumerate(e.entries):
        for j, x in enumerate(row):
            expected = x if is_finite(x) else row_max[i] + repl + col_max[j]
            if f.entries[i][j] != expected:
                raise AssertionError("approximant disagrees with its closed form")
    return f


# -- construction specs (JSON) --


def _spec_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _spec_list(value, what: str, length: Optional[int] = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} items"
        raise ValueError(f"{what} must be {shape}, not {value!r:.40}")
    return value


def _spec_edges(data: dict, n: int, m: Optional[int] = None) -> dict:
    """The 0-based edges of a spec: from 1..n to 1..m, or between distinct
    points of 1..n when m is None, each listed once; errors name an edge
    as the spec does."""
    edges = {}
    for item in _spec_list(data.get("edges", []), "edges"):
        i, j, colour = _spec_list(item, "an edge", 3)
        if isinstance(colour, (list, dict)):
            raise ValueError("an edge colour must be a string, number, boolean or null")
        i, j = (_spec_int(x, "an edge end") for x in (i, j))
        if not (1 <= i <= n and 1 <= j <= (n if m is None else m)):
            raise ValueError(f"edge ({i}, {j}) out of range")
        if m is None and i == j:
            raise ValueError(f"edge ({i}, {j}) is a loop")
        if (i - 1, j - 1) in edges:
            raise ValueError(f"edge ({i}, {j}) is listed twice")
        edges[(i - 1, j - 1)] = colour
    return edges


def _spec_cycles(value, degree: int) -> Perm:
    if not isinstance(value, str):
        kind = type(value).__name__
        raise ValueError(f"a generator must be a cycle string, not {kind}")
    return parse_cycles(value, degree)


_SPEC_KEYS = {
    "omega": {"omega", "theta", "edges"},
    "vertices": {"vertices", "edges"},
    "bidegree": {"bidegree", "generators"},
    "degree": {"degree", "generators"},
}


def parse_construction_spec(data: dict):
    """Decode a construction request.

    Formats (all indices 1-based):
      {"omega": n, "theta": m, "edges": [[i, j, colour], ...]}
      {"vertices": n, "edges": [[i, j, colour], ...]}
      {"degree": n, "generators": ["(1,2)", ...]}
      {"bidegree": [n, m], "generators": [["(1,2)", "(1,2)"], ...]}

    Returns ("bipartite", graph) or ("idempotent", group-or-digraph).
    Raises ValueError on anything else: wrong types, list or object
    colours, edges out of range or looping, two kinds in one spec, or a
    key that is not its kind's.
    """
    if not isinstance(data, dict):
        raise ValueError("a construction spec must be a JSON object")
    named = [k for k in _SPEC_KEYS if k in data]
    if len(named) != 1:
        raise ValueError(f"a spec names one of omega, vertices, bidegree, degree, not {named}")
    (kind,) = named
    keys = _SPEC_KEYS[kind]
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}: a {kind!r} spec takes {sorted(keys)}")
    if kind == "omega":
        n, m = _spec_int(data["omega"], "omega"), _spec_int(data.get("theta"), "theta")
        return "bipartite", ColouredBipartiteGraph(n, m, _spec_edges(data, n, m))
    if kind == "vertices":
        n = _spec_int(data["vertices"], "vertices")
        return "idempotent", ColouredDigraph.from_partial(n, _spec_edges(data, n))
    gens = _spec_list(data.get("generators", []), "generators")
    if kind == "bidegree":
        degrees = _spec_list(data["bidegree"], "bidegree", 2)
        n, m = (_spec_int(x, "bidegree") for x in degrees)
        pairs = [_spec_list(pair, "a paired generator", 2) for pair in gens]
        paired = PairedPermGroup(
            (n, m), [(_spec_cycles(g, n), _spec_cycles(h, m)) for g, h in pairs]
        )
        return "bipartite", paired_orbit_colouring(paired)
    n = _spec_int(data["degree"], "degree")
    return "idempotent", PermGroup(n, [_spec_cycles(g, n) for g in gens])
