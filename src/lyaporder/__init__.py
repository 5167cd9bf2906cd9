"""Lyapunov and Stein order domination for matrices in a bicommutant.

The package decides whether B Lyapunov dominates A (every Hermitian H with
H A + A* H PSD also has H B + B* H PSD) for Lyapunov-regular A given by its
Jordan data and B in the bicommutant of A, via the Hill-Pick matrix,
cross-validated by the Choi matrix of the composite map and a sampling
oracle.  The ``lyapctl`` command line wraps the same pipelines.  The
package exports what those pipelines call; the submodules hold the rest.
"""

from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    kron,
    psd_report,
    rank_tol,
)
from .jordan import (
    BicommElement,
    EigenBlock,
    JordanSpec,
    build_A,
    build_bicomm_element,
    build_bicomm_jordan,
    build_JA,
    check_bicomm_membership,
)
from .starmaps import StarLinearMap, choi_matrix, is_star_linear
from .hill import HillRep, minimal_hill_from_blocks, nonminimal_hill
from .domination import (
    LYAPUNOV,
    STEIN,
    DominationReport,
    HillPickMatrix,
    LyapunovProblem,
    Order,
    check_domination,
    domination_oracle,
    hill_pick_matrix,
    lyapunov_order_map,
    stein_domination,
    stein_order_map,
    upsilon_selection,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "kron",
    "psd_report",
    "rank_tol",
    "BicommElement",
    "EigenBlock",
    "JordanSpec",
    "build_A",
    "build_bicomm_element",
    "build_bicomm_jordan",
    "build_JA",
    "check_bicomm_membership",
    "StarLinearMap",
    "choi_matrix",
    "is_star_linear",
    "HillRep",
    "minimal_hill_from_blocks",
    "nonminimal_hill",
    "LYAPUNOV",
    "STEIN",
    "DominationReport",
    "HillPickMatrix",
    "LyapunovProblem",
    "Order",
    "check_domination",
    "domination_oracle",
    "hill_pick_matrix",
    "lyapunov_order_map",
    "stein_domination",
    "stein_order_map",
    "upsilon_selection",
]

__version__ = "0.4.0"
