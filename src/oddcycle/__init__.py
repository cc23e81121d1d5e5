"""Exact matching polynomials, skew spectra, and extremal structure for
graphs in which every cycle is odd.

Everything is integer or rational arithmetic end to end: matching profiles
come from a memoized deletion recurrence, roots are isolated with Sturm
sequences and compared as algebraic numbers, and skew characteristic
polynomials come from Berkowitz's recurrence, one per switching class.
"""

from .graphs import (
    Graph,
    Graph6Error,
    GraphTooLargeError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    is_isomorphic,
    is_odd_cycle_graph,
    long_odd_cycles,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from .polynomials import IntPolynomial
from .matching import (
    matching_polynomial,
    matching_profile,
    polynomial_from_profile,
)
from .roots import (
    EQ,
    GT,
    LT,
    AlgebraicRoot,
    NoRealRootError,
    compare_max_root,
    compare_roots,
    max_matching_root,
    max_real_root,
)
from .skew import (
    Orientation,
    all_orientations,
    max_skew_spectral_radius,
    skew_char_poly,
    skew_spectral_radius,
    switching_representatives,
)
from .kelmans import (
    DominanceVerdict,
    KelmansPhase,
    KelmansStep,
    ReductionInvariantError,
    ReductionTrace,
    dominance,
    kelmans_transform,
    reduce_to_F,
)
from .extremal import (
    VerificationReport,
    connected_odd_cycle_reps,
    edge_cap,
    make_F,
    make_H,
    merge_reports,
    verify_classification,
    verify_conjecture,
    verify_dominance,
    verify_identity,
    verify_monotonicity,
    verify_radius,
    verify_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicRoot",
    "DominanceVerdict",
    "EQ",
    "GT",
    "Graph",
    "Graph6Error",
    "GraphTooLargeError",
    "IntPolynomial",
    "KelmansPhase",
    "KelmansStep",
    "LT",
    "NoRealRootError",
    "Orientation",
    "ReductionInvariantError",
    "ReductionTrace",
    "VerificationReport",
    "all_orientations",
    "compare_max_root",
    "compare_roots",
    "complete_graph",
    "connected_odd_cycle_reps",
    "cycle_graph",
    "disjoint_union",
    "dominance",
    "edge_cap",
    "is_connected",
    "is_isomorphic",
    "is_odd_cycle_graph",
    "kelmans_transform",
    "long_odd_cycles",
    "make_F",
    "make_H",
    "matching_polynomial",
    "matching_profile",
    "max_matching_root",
    "max_real_root",
    "max_skew_spectral_radius",
    "merge_reports",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "polynomial_from_profile",
    "reduce_to_F",
    "skew_char_poly",
    "skew_spectral_radius",
    "star_graph",
    "switching_representatives",
    "verify_classification",
    "verify_conjecture",
    "verify_dominance",
    "verify_identity",
    "verify_monotonicity",
    "verify_radius",
    "verify_reduction",
    "write_graph6",
]
