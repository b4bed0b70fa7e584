"""Exact group computations for max-plus (tropical) matrices.

The package decides Green's relations of tropical matrices through their
column and row spaces, reduces matrices to full rank, computes the group
of units stabilizing a matrix's column space together with its structural
description as a product of wreath-type factors, checks (paired)
2-closure of permutation groups, and constructs witness matrices that
realise prescribed groups.
"""

from .semiring import (
    NEG_INF,
    TropScalar,
    Value,
    eps,
    format_scalar,
    free_basis_check,
    is_finite,
    parse_scalar,
    trop_add,
    trop_mul,
    val,
)
from .matrix import (
    MonomialMatrix,
    MultipleEigenvalues,
    NoIdempotentPower,
    NotMonomial,
    TropMatrix,
    idempotent_power,
    is_idempotent,
    mat_mul,
    monomial_eigenvalue,
    parse_matrix,
)
from .spaces import (
    SpanWitness,
    ZeroMatrix,
    col_space_equal,
    column_rank,
    h_related,
    has_full_rank,
    member,
    reduce_full_rank,
    row_rank,
    row_space_equal,
)
from .graphs import ColouredBipartiteGraph, ColouredDigraph
from .components import (
    Component,
    ComponentClass,
    ComponentPartition,
    DegenerateRowOrColumn,
    NotAComponent,
    bipartite_graph,
    class_partition,
    col_space_isomorphic,
    connected_components,
    restrict,
)
from .permgroups import (
    NotFaithful,
    PairedPermGroup,
    Perm,
    PermGroup,
    coloured_automorphisms,
    coloured_bipartite_automorphisms,
    format_cycles,
    groups_isomorphic,
    identify_group,
    is_irreducible,
    is_paired_two_closed,
    is_two_closed,
    pair_orbit_colouring,
    paired_orbit_colouring,
    paired_two_closure,
    parse_cycles,
    two_closure,
)
from .stabilizer import (
    Analysis,
    Factor,
    GroupDescription,
    NotFullRank,
    NotIdempotent,
    StabilizerElement,
    analyze_matrix,
    classification_conditions,
    commuting_units,
    group_description,
    make_factor,
    maximal_subgroup,
    normalize_eigenvectors,
    stabilizer_pairs,
)
from .constructors import (
    ConstructionPlan,
    DependentEntries,
    HypothesisViolated,
    NotTwoClosed,
    ReducibleInput,
    alt4_column_matrix,
    alt4_elements,
    assemble_blocks,
    construct_from_bipartite,
    construct_idempotent,
    finite_approximant,
)
from .pairsearch import NotConnected
from .errors import SearchBudgetExceeded

__version__ = "0.1.0"
