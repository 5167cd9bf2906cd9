"""Lyapunov and Stein order domination for matrices in a bicommutant.

The package decides whether B Lyapunov dominates A (every Hermitian H with
H A + A* H PSD also has H B + B* H PSD) for Lyapunov-regular A given by its
Jordan data and B in the bicommutant of A, via Choi matrices, Hill
representations and the Hill-Pick matrix, cross-validated by a sampling
oracle.  The ``lyapctl`` command line wraps the same pipelines.
"""

from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    canonical_shuffle,
    is_psd,
    kron,
    psd_report,
    rank_tol,
    unvec,
    vec,
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
    extract_bicomm_coeffs,
)
from .starmaps import (
    StarLinearMap,
    apply_map,
    choi_matrix,
    compose,
    identity_map,
    is_completely_positive,
    is_star_linear,
    kraus_map,
    map_from_choi,
    positivity_sample_test,
)
from .hill import (
    HillRep,
    ahat_matrix,
    cp_via_hill,
    find_c1_witness,
    find_c2_witness,
    hill_from_choi,
    minimal_hill_from_blocks,
    nonminimal_hill,
    positivity_equals_cp_certificate,
    reconstruct_map,
)
from .domination import (
    LYAPUNOV,
    STEIN,
    DominationReport,
    HillPickMatrix,
    LyapunovProblem,
    Order,
    check_domination,
    closed_form_matricization,
    domination_oracle,
    hill_pick_coeff,
    hill_pick_matrix,
    is_lyapunov_regular,
    is_stein_regular,
    lyapunov_matricization,
    lyapunov_order_map,
    sample_lyapunov_solutions,
    stein_domination,
    stein_matricization,
    stein_order_map,
    upsilon_selection,
)

__version__ = "0.1.0"
