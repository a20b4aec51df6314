"""Graph energy, exact spectral moments, and moment-based energy bounds.

The library computes the energy of a simple graph (the sum of absolute
adjacency eigenvalues) exactly from the LAPACK spectrum, bounds it from the
walk counts n, M2, M4 through an optimal tangent quartic, proved in exact
integers and rounded up once, classifies the graphs attaining the bound, and
reads the optimal bounds of higher even degree off quadrature rules of the
moments.
"""

from .extremal import (
    EqualityClass,
    classify_equality,
    detect_complete,
    detect_design_incidence,
    detect_srg,
    spectrum_membership,
)
from .families import (
    FamilyError,
    FamilySpec,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    generate,
    generate_from_string,
    heawood,
    parse_family_spec,
    path,
    petersen,
    projective_plane_incidence,
    random_gnp,
    rook,
    star,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (
    Graph,
    GraphError,
    bipartition,
    is_connected,
    is_regular,
    parse_edge_list,
)
from .moments import (
    DegreeStats,
    MomentMismatchError,
    MomentSummary,
    NoEdgesError,
    ScaledMoments,
    codegree_matrix,
    degree_stats,
    moment_summary,
    scaled_moments,
)
from .polyopt import (
    LpInfeasibleError,
    LpProblem,
    LpSolution,
    SweepEntry,
    bound_sweep,
    lp_problem,
    solve_bound_lp,
)
from .quartic import (
    EvenPolynomial,
    best_quartic_bound,
    bound_at_tangency,
    optimal_tangency,
    tangent_quartic,
    van_dam_bound,
    verify_majorization,
)
from .report import BoundReport, analyze_graph, soundness_ok
from .spectral import (
    CapExceededError,
    Spectrum,
    adjacency_matrix,
    eigenvalues,
    energy,
    trace_moments,
)

__version__ = "0.1.0"
