"""Connected-component structure of the finite-entry bipartite graph.

A matrix with no all--inf row or column induces a coloured directed
bipartite graph on row vertices and column vertices, one edge per finite
entry, coloured by the entry.  Connected components split the
unit-stabilizer computation into independent blocks; components whose
restricted column spaces are isomorphic are grouped into classes, each
member carrying a unit witnessing the isomorphism onto the class
representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import ColouredBipartiteGraph, support_components
from .matrix import MonomialMatrix, TropMatrix
from .pairsearch import pair_solutions
from .semiring import is_finite
from .spaces import col_space_equal


class DegenerateRowOrColumn(ValueError):
    """A row or column contains no finite entry."""


class NotAComponent(ValueError):
    """The vertex set is not a connected component of the graph."""


@dataclass(frozen=True)
class Component:
    """A connected component: the row and column indices it contains."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _check_non_degenerate(a: TropMatrix) -> None:
    codes = a.codes
    for i, row in enumerate(codes):
        if all(x is None for x in row):
            raise DegenerateRowOrColumn(f"row {i + 1} has no finite entry")
    for j, col in enumerate(zip(*codes)):
        if all(x is None for x in col):
            raise DegenerateRowOrColumn(f"column {j + 1} has no finite entry")


def bipartite_graph(a: TropMatrix) -> ColouredBipartiteGraph:
    """The coloured bipartite graph of the finite entries of the matrix."""
    _check_non_degenerate(a)
    edges = {
        (i, j): a.entries[i][j]
        for i in range(a.nrows)
        for j in range(a.ncols)
        if is_finite(a.entries[i][j])
    }
    return ColouredBipartiteGraph(a.nrows, a.ncols, edges)


def connected_components(a: TropMatrix) -> list[Component]:
    """Components of the underlying undirected graph, ordered by their
    smallest row index."""
    _check_non_degenerate(a)
    support = [[x is not None for x in row] for row in a.codes]
    return [Component(tuple(r), tuple(c)) for r, c in support_components(support)]


def restrict(a: TropMatrix, component: Component) -> TropMatrix:
    """The submatrix on the component's rows and columns (in index order)."""
    if component not in connected_components(a):
        raise NotAComponent(f"{component} is not a component of the matrix")
    return _restrict_unchecked(a, component)


def _restrict_unchecked(a: TropMatrix, component: Component) -> TropMatrix:
    return a.submatrix(component.rows, component.cols)


def _first_pair_solution(target: TropMatrix, source: TropMatrix) -> Optional[tuple]:
    """A unit pair (P, Q) with P @ source = target @ Q, if any."""
    if target.shape != source.shape:
        return None
    sols = pair_solutions(target, source, first_only=True)
    return sols[0].units if sols else None


def col_space_isomorphic(a: TropMatrix, b: TropMatrix) -> Optional[MonomialMatrix]:
    """A unit U with C(U @ B) = C(A), or None.

    Both matrices must have full rank.  Disconnected inputs are matched
    component by component; the blocks of U are the per-component
    witnesses.
    """
    if a.shape != b.shape:
        return None
    comps_a = connected_components(a)
    comps_b = connected_components(b)
    if len(comps_a) == 1 and len(comps_b) == 1:
        pair = _first_pair_solution(a, b)
        return pair and pair[0]
    if len(comps_a) != len(comps_b):
        return None
    if sorted((len(c.rows), len(c.cols)) for c in comps_a) != sorted(
        (len(c.rows), len(c.cols)) for c in comps_b
    ):
        return None
    restr_b = [_restrict_unchecked(b, c) for c in comps_b]
    # unit equivalence of blocks is an equivalence relation, so the first
    # unused equivalent block always extends to a full matching
    unused = list(range(len(comps_b)))
    matching = []
    for ca in comps_a:
        restr = _restrict_unchecked(a, ca)
        for j in unused:
            pair = _first_pair_solution(restr, restr_b[j])
            if pair is not None:
                unused.remove(j)
                matching.append((ca, comps_b[j], pair[0]))
                break
        else:
            return None
    n = a.nrows
    sigma = [-1] * n
    scalings: list = [None] * n
    for ca, cb, local in matching:
        for li, ga in enumerate(ca.rows):
            sigma[ga] = cb.rows[local.sigma[li]]
            scalings[ga] = local.scalings[li]
    u = MonomialMatrix(sigma, scalings)
    if not col_space_equal(u.left_apply(b), a):
        raise AssertionError("assembled witness failed verification")
    return u


@dataclass(frozen=True)
class ComponentClass:
    """Components with pairwise isomorphic restricted column spaces.

    ``members`` are indices into the component list; the representative is
    the first member.  ``witnesses[k]`` is the unit pair (P, Q) of the pair
    search with P @ A|_members[k] = A|_representative @ Q, the identity
    pair for the representative.  The swaps of row i and column j of the
    representative with row P.sigma[i] and column Q.sigma[j] of each member
    and the representative's Sigma generate the class's canonical subgroup.
    """

    members: tuple[int, ...]
    witnesses: tuple[tuple[MonomialMatrix, MonomialMatrix], ...]

    @property
    def representative(self) -> int:
        return self.members[0]


@dataclass(frozen=True)
class ComponentPartition:
    components: tuple[Component, ...]
    classes: tuple[ComponentClass, ...]


def class_partition(a: TropMatrix) -> ComponentPartition:
    """Group the components by column-space isomorphism of restrictions.

    Requires a full-rank matrix (restrictions are then full rank and their
    finite-entry graphs connected).  A block equal to an earlier one reuses
    the searches made for it."""
    comps = connected_components(a)
    restrs = [_restrict_unchecked(a, c) for c in comps]
    classes: list[tuple[list[int], list]] = []
    searched: dict[tuple[int, TropMatrix], Optional[tuple]] = {}
    for idx, restr in enumerate(restrs):
        for members, witnesses in classes:
            rep = restrs[members[0]]
            if rep.shape != restr.shape:
                continue
            if (members[0], restr) not in searched:
                searched[members[0], restr] = _first_pair_solution(rep, restr)
            w = searched[members[0], restr]
            if w is not None:
                members.append(idx)
                witnesses.append(w)
                break
        else:
            classes.append(([idx], [tuple(map(MonomialMatrix.identity, restr.shape))]))
    return ComponentPartition(
        tuple(comps),
        tuple(
            ComponentClass(tuple(members), tuple(witnesses))
            for members, witnesses in classes
        ),
    )
