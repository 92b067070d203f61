"""Identifying, separating, dominating and locating-dominating codes in
finite graphs: verification at any radius, exact minimization by pruned
hitting-set search, generators and structural classification of the
extremal families, and constructive degree-based upper bounds."""

from .bound import (
    BoundReport,
    ball_size_limit,
    code_from_independent_set,
    constructive_upper_bound,
    greedy_independent_set,
    regular_constructive_bound,
    removable_vertex_in_ball,
)
from .classify import ClassificationResult, classify_extremal, recognize_band_graph
from .codes import (
    BipartiteMembershipGraph,
    CodeCertificate,
    check_code,
    is_discriminating,
    membership_graph,
)
from .families import (
    FamilySpec,
    band5_square_root,
    band_graph,
    complete_minus_matching,
    join_family,
    join_family_plus_universal,
    make_family,
    parse_family_spec,
    star_graph,
)
from .graph import (
    Graph,
    PreconditionError,
    TwinsError,
    canonical_form,
    complement,
    find_isomorphism,
    format_edge_list,
    induced_subgraph,
    is_connected,
    is_twin_free,
    join,
    parse_edge_list,
    power,
    twin_pairs,
)
from .solve import (
    SolveReport,
    enumerate_minimum_separating_sets,
    extend_code,
    forced_vertices,
    solve_minimum,
)

__version__ = "0.1.0"
