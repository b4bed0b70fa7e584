"""The unit-stabilizer group of a matrix and its structural description.

For a full-rank matrix A, the units P with C(P @ A) = C(A) form a group;
each such P pairs with a unique unit Q satisfying P @ A = A @ Q.  When the
finite-entry graph of A is connected every element has a single eigenvalue
(the common cycle mean of its pattern) and the group splits as a scaling
line times the finite group Sigma of eigenvalue-0 elements.  A Sigma
element is its unit pair (P, Q), two ``MonomialMatrix``es over one basis;
the public ``StabilizerElement`` adds the eigenvalue.  ``_block_sigma``
serves each connected block: the pair search's generators of Sigma give
the pattern group, off whose Sims table the analysis reads Sigma's order
and reported generators, and the common eigenvectors, the diagonal units
U, V of ``_eigenvector_units``.  ``_sigma_units`` scales any pattern pair
of that group by U and V into its unit pair: ``verify`` takes the
generators' pairs, and ``stabilizer_pairs`` lists the group of ``_sigma``.
The normal form B = U @ A @ V of ``normalize_eigenvectors``, on which Sigma
acts by plain permutations, is built only where it is read
(``_normal_form``).

Disconnected matrices decompose along component classes: the full group is
a direct product over classes of wreath-type factors, one (R x G_alpha) per
isomorphism class of component column spaces, wrapped by the symmetric
group permuting the h_alpha components of the class.  Its canonical finite
subgroup is one pattern group on all n + m points (``_sigma``), generated
by each class representative's Sigma and by the swaps of the
representative with each other member that the member's witness pair
(P, Q) gives; ``stabilizer_pairs`` lists it as it lists a connected
matrix's Sigma, and ``group_description`` records the factors
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Optional

from .components import (
    Component,
    ComponentPartition,
    class_partition,
    _restrict_unchecked,
)
from .graphs import support_components
from .matrix import (
    MonomialMatrix,
    TropMatrix,
    _joint,
    is_idempotent,
)
from .pairsearch import NotConnected, commuting_solutions, pair_solutions
from .permgroups import (
    PairedPermGroup,
    Perm,
    PermGroup,
    format_cycles,
    identify_group,
    is_paired_two_closed,
)
from .semiring import ZERO, Value
from .spaces import has_full_rank, reduce_full_rank


class NotFullRank(ValueError):
    """The operation requires a matrix of full row and column rank."""


class NotIdempotent(ValueError):
    """The operation requires an idempotent matrix."""


@dataclass(frozen=True)
class StabilizerElement:
    """A stabilizer pair: P @ A = A @ Q, normalised to eigenvalue 0."""

    P: MonomialMatrix
    Q: MonomialMatrix
    eigenvalue: Value


def _sorted_elements(elements: list[StabilizerElement]) -> list[StabilizerElement]:
    return sorted(elements, key=lambda e: (e.P.sigma, e.Q.sigma, e.P.scalings))


def _block_sigma(a: TropMatrix) -> tuple[PairedPermGroup, tuple[MonomialMatrix, MonomialMatrix]]:
    """The pattern group of the Sigma of a connected full-rank block, on
    the pattern pairs of the pair search's generators, and the block's
    eigenvector units (U, V) from those generators' unit pairs."""
    gens = [s.units for s in pair_solutions(a, a)]
    pairs = [(Perm._of(p.sigma), Perm._of(q.sigma)) for p, q in gens]
    return PairedPermGroup(a.shape, pairs), _eigenvector_units(a, gens)


def _sigma_units(a: TropMatrix, pairs, u: MonomialMatrix, v: MonomialMatrix):
    """The Sigma element (P, Q) of each pattern pair (g, h) in ``pairs``,
    P = U^-1 @ g @ U and Q = V @ h @ V^-1, given the units U, V of
    ``_eigenvector_units``.  U, V and A meet in one basis first (one
    joint encode where U and V are over a refinement of A's basis), which
    every P and Q shares, so that their products with A encode nothing."""
    (du, dv, _), basis = _joint(u, v, a)
    return [
        (
            MonomialMatrix._derived(s, [du[x] - du[i] for i, x in enumerate(s)], basis),
            MonomialMatrix._derived(t, [dv[j] - dv[y] for j, y in enumerate(t)], basis),
        )
        for s, t in ((g.images, h.images) for g, h in pairs)
    ]


def stabilizer_pairs(a: TropMatrix) -> list[StabilizerElement]:
    """The finite group Sigma of eigenvalue-0 stabilizer pairs of a
    full-rank matrix.

    For a connected finite-entry graph this is the whole eigenvalue-0
    subgroup; otherwise it is the canonical subgroup of ``_sigma``, which
    realises the product of the wreath factors.  Listing Sigma spends its
    order from the search budget (``search_budget``) before any element
    is built.
    """
    if not has_full_rank(a):
        raise NotFullRank("stabilizer pairs require a full-rank matrix")
    group, (u, v) = _sigma(a, class_partition(a))
    units = _sigma_units(a, group.elements(), u, v)
    return _sorted_elements([StabilizerElement(p, q, ZERO) for p, q in units])


def _sigma(a: TropMatrix, part: ComponentPartition):
    """The pattern group of the canonical Sigma of a full-rank matrix on
    its n + m joint points, and its diagonal units (U, V).  Its generators
    are each class representative's ``_block_sigma`` generators and, for
    each other member with witness (P, Q), the swap of representative row
    i and column j with member row P.sigma[i] and column Q.sigma[j].  U and
    V extend the representatives' units along the witnesses, by
    u[P.sigma[i]] = u_rep[i] + p_i and v[Q.sigma[j]] = v_rep[j] - q_j."""
    n, m = a.shape
    gens, blocks = [], []
    for cls in part.classes:
        rep = part.components[cls.representative]
        group, uv = _block_sigma(_restrict_unchecked(a, rep))
        for g, h in group.generators:
            x = list(range(n + m))
            for i, k in zip(rep.rows, g.images):
                x[i] = rep.rows[k]
            for j, k in zip(rep.cols, h.images):
                x[n + j] = n + rep.cols[k]
            gens.append(tuple(x))
        for member, (p, q) in zip(cls.members, cls.witnesses):
            comp = part.components[member]
            blocks.append((comp, uv, p, q))
            if member == cls.representative:
                continue
            x = list(range(n + m))
            for i, k in zip(rep.rows, p.sigma):
                x[i], x[comp.rows[k]] = comp.rows[k], i
            for j, k in zip(rep.cols, q.sigma):
                x[n + j], x[n + comp.cols[k]] = n + comp.cols[k], n + j
            gens.append(tuple(x))
    codes, basis = _joint(*(x for _, uv, p, q in blocks for x in (*uv, p, q)))
    du, dv = [None] * n, [None] * m
    for k, (comp, _, p, q) in enumerate(blocks):
        cu, cv, cp, cq = codes[4 * k : 4 * k + 4]
        for i, x in enumerate(p.sigma):
            du[comp.rows[x]] = cu[i] + cp[i]
        for j, y in enumerate(q.sigma):
            dv[comp.cols[y]] = cv[j] - cq[j]
    units = (MonomialMatrix._derived(range(len(d)), d, basis) for d in (du, dv))
    return PairedPermGroup._of((n, m), gens), tuple(units)


def commuting_units(e: TropMatrix) -> list[StabilizerElement]:
    """All units commuting with a full-rank idempotent, normalised to
    eigenvalue 0.  The finite-entry graph must be connected; disconnected
    idempotents are described per class by ``maximal_subgroup``."""
    if not e.is_square() or not is_idempotent(e):
        raise NotIdempotent("commutation search requires an idempotent")
    if not has_full_rank(e):
        raise NotFullRank("commutation search requires full rank")
    units = [MonomialMatrix(sigma, lam) for sigma, lam in commuting_solutions(e)]
    return _sorted_elements([StabilizerElement(p, p, ZERO) for p in units])


def _propagate(size: int, maps) -> list:
    """The code vector w that is 0 at the least point of each orbit
    and has w[s[x]] = w[x] + d[x] for every (s, d) in ``maps``, checked at
    every point for every map."""
    w: list = [None] * size
    for k in range(size):
        if w[k] is not None:
            continue
        w[k] = 0
        reached = [k]
        for x in reached:
            for s, d in maps:
                cand = w[x] + d[x]
                if w[s[x]] is None:
                    w[s[x]] = cand
                    reached.append(s[x])
                elif w[s[x]] != cand:
                    raise AssertionError("eigenvector construction disagreed")
    return w


def normalize_eigenvectors(
    a: TropMatrix, elements: Optional[list[StabilizerElement]] = None
) -> tuple[MonomialMatrix, MonomialMatrix, TropMatrix]:
    """Diagonal units U, V with B = U @ A @ V whose stabilizer fixes the
    all-zero vectors: every Sigma element of B is a plain permutation.

    ``elements`` may be all of Sigma or only generators of it (the default
    is generators from the pair search).  U and V are those of
    ``_eigenvector_units``, which the analysis keeps; B is ``_normal_form``.
    """
    pairs = None if elements is None else [(el.P, el.Q) for el in elements]
    u, v = _eigenvector_units(a, pairs)
    return u, v, _normal_form(a, u, v)


def _eigenvector_units(
    a: TropMatrix, pairs: Optional[list[tuple[MonomialMatrix, MonomialMatrix]]] = None
) -> tuple[MonomialMatrix, MonomialMatrix]:
    """The units U, V of ``normalize_eigenvectors``, without B, from the
    unit pairs (P, Q) of Sigma elements, or from the pair search's
    generators when ``pairs`` is None.

    The common right eigenvector u, with u_i = lam_i + u_sigma(i) for
    every pair, is propagated along the pairs from each least
    not-yet-covered coordinate, and the left eigenvector v, with
    v_tau(j) = v_j + mu_j, likewise.  Both equations are checked at every
    point for every pair; they are exactly the conditions for U and V
    to conjugate each pair to a permutation.  The support of A must be
    connected (an all--inf row or column is a component of its own).
    """
    support = [[x is not None for x in row] for row in a.codes]
    if len(support_components(support)) != 1:
        raise NotConnected("eigenvector normalisation needs a connected matrix")
    if pairs is None:
        if not has_full_rank(a):
            raise NotFullRank("eigenvector normalisation requires full rank")
        pairs = [s.units for s in pair_solutions(a, a)]

    n, m = a.shape
    # the units share A's basis or refinements of it, joined by one encode
    # where they differ; A meets U and V only where it is used with them
    # (``_normal_form``, ``_sigma_units``)
    units = [x for pair in pairs for x in pair]
    codes, basis = _joint(*units) if units else ([], a.basis)
    p_maps = [(p.sigma, [-x for x in c]) for (p, _), c in zip(pairs, codes[::2])]
    q_maps = [(q.sigma, c) for (_, q), c in zip(pairs, codes[1::2])]
    u, v = _propagate(n, p_maps), _propagate(m, q_maps)
    return tuple(
        MonomialMatrix._derived(range(len(w)), [-x for x in w], basis) for w in (u, v)
    )


def _normal_form(a: TropMatrix, u: MonomialMatrix, v: MonomialMatrix) -> TropMatrix:
    """B = U @ A @ V, the one builder of a normal form.  A, U and V meet
    in one basis first, so that the two products encode nothing."""
    _joint(u, v, a)
    return v.right_apply(u.left_apply(a))


@dataclass(frozen=True)
class Factor:
    """One wreath-type factor (R x G) wr S_h of a group description; its
    degrees and order are read off ``paired``, the pattern group."""

    finite_part: PermGroup
    paired: PairedPermGroup
    multiplicity: int
    component: Optional[Component]
    name: Optional[str]

    @property
    def degree(self) -> int:
        return self.paired.degrees[0]

    @property
    def col_degree(self) -> int:
        return self.paired.degrees[1]

    @property
    def order(self) -> int:
        return self.paired.order()


def make_factor(
    paired: PairedPermGroup,
    multiplicity: int,
    component: Optional[Component] = None,
) -> Factor:
    lefts = [g for g, _ in paired.generators]
    left = PermGroup(paired.degrees[0], lefts, known_order=paired.order())
    return Factor(left, paired, multiplicity, component, identify_group(left))


@dataclass(frozen=True)
class GroupDescription:
    """The product over classes of (R x G_alpha) wr S_{h_alpha}."""

    factors: tuple[Factor, ...]

    @property
    def r_rank(self) -> int:
        return sum(f.multiplicity for f in self.factors)

    @property
    def finite_order(self) -> int:
        total = 1
        for f in self.factors:
            total *= f.order ** f.multiplicity * factorial(f.multiplicity)
        return total

    def formula(self) -> str:
        parts = []
        for i, f in enumerate(self.factors):
            if f.order == 1:
                base = "R"
            else:
                base = f"(R x {f.name or f'G{i + 1}'})"
            if f.multiplicity > 1:
                base = f"{base} wr S_{f.multiplicity}"
            parts.append(base)
        return " x ".join(parts)

    def to_json_dict(self) -> dict:
        factors = []
        for f in self.factors:
            entry = {
                "degree": f.degree,
                "col_degree": f.col_degree,
                "multiplicity": f.multiplicity,
                "order": f.order,
                "name": f.name,
                "generators": [format_cycles(g) for g in f.finite_part.generators],
                "col_generators": [
                    format_cycles(h) for _, h in f.paired.generators
                ],
            }
            if f.component is not None:
                entry["component_rows"] = [i + 1 for i in f.component.rows]
                entry["component_cols"] = [j + 1 for j in f.component.cols]
            factors.append(entry)
        return {
            "factors": factors,
            "r_rank": self.r_rank,
            "finite_order": self.finite_order,
            "formula": self.formula(),
        }


@dataclass(frozen=True)
class Analysis:
    """Every stage of the analysis of one matrix, each computed once.

    ``reduced`` is the full-rank core on ``kept_rows`` x ``kept_cols``;
    ``restrictions`` holds one block of it per component of ``partition``;
    ``units`` and ``description.factors`` hold one entry per class: the
    eigenvector units (U, V) that ``_eigenvector_units`` finds for the
    class representative, and the wreath-type factor, whose ``paired`` is
    the group of the patterns of its Sigma.  ``normalisations`` adds each
    class's normal form B = U @ A @ V to its units; it is built on first
    read, since the reports read only the factors.
    """

    reduced: TropMatrix
    kept_rows: tuple[int, ...]
    kept_cols: tuple[int, ...]
    partition: ComponentPartition
    restrictions: tuple[TropMatrix, ...]
    units: tuple[tuple[MonomialMatrix, MonomialMatrix], ...]
    description: GroupDescription

    @cached_property
    def normalisations(self) -> tuple[tuple[MonomialMatrix, MonomialMatrix, TropMatrix], ...]:
        """(U, V, B) per class, B of the class representative."""
        return tuple(
            (u, v, _normal_form(self.restrictions[cls.representative], u, v))
            for cls, (u, v) in zip(self.partition.classes, self.units)
        )


def analyze_matrix(a: TropMatrix) -> Analysis:
    """Reduce to full rank, split into component classes, compute
    generators of the Sigma of each class representative, find its
    eigenvector units, and describe one finite factor per class."""
    z, rows, cols = reduce_full_rank(a)
    part = class_partition(z)
    restrictions = tuple(_restrict_unchecked(z, c) for c in part.components)
    units, factors = [], []
    for cls in part.classes:
        group, uv = _block_sigma(restrictions[cls.representative])
        units.append(uv)
        comp = part.components[cls.representative]
        factors.append(make_factor(group.greedy(), len(cls.members), comp))
    return Analysis(
        reduced=z,
        kept_rows=tuple(rows),
        kept_cols=tuple(cols),
        partition=part,
        restrictions=restrictions,
        units=tuple(units),
        description=GroupDescription(tuple(factors)),
    )


def group_description(a: TropMatrix) -> GroupDescription:
    """Reduce to full rank, split into component classes, and compute one
    finite factor per class from the Sigma of its representative."""
    return analyze_matrix(a).description


def maximal_subgroup(e: TropMatrix) -> GroupDescription:
    """The structure of the maximal subgroup attached to an idempotent."""
    require_idempotent(e)
    return group_description(e)


def require_idempotent(e: TropMatrix) -> None:
    """Raise NotIdempotent unless the matrix is a square idempotent."""
    if not e.is_square() or not is_idempotent(e):
        raise NotIdempotent("maximal subgroups are attached to idempotents")


def classification_conditions(desc: GroupDescription, n: int, m: int) -> bool:
    """The shape conditions a description must satisfy to arise from an
    n x m matrix: degree budgets on both sides, paired 2-closure of every
    finite part, at most one factor on a single point, and no three trivial
    factors within two points."""
    if sum(f.degree * f.multiplicity for f in desc.factors) > n:
        return False
    if sum(f.col_degree * f.multiplicity for f in desc.factors) > m:
        return False
    for f in desc.factors:
        if not is_paired_two_closed(f.paired):
            return False
    singles = sum(1 for f in desc.factors if min(f.degree, f.col_degree) == 1)
    if singles > 1:
        return False
    small_trivial = sum(
        1
        for f in desc.factors
        if f.order == 1 and min(f.degree, f.col_degree) <= 2
    )
    if small_trivial > 2:
        return False
    return True
