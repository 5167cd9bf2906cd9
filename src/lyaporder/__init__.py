"""Lyapunov and Stein order domination for matrices in a bicommutant.

The package decides whether B Lyapunov dominates A (every Hermitian H with
H A + A* H PSD also has H B + B* H PSD) for Lyapunov-regular A given by its
Jordan data and B in the bicommutant of A, via the Hill-Pick matrix,
cross-validated by the Choi matrix of the composite map and a sampling
oracle.  The ``lyapctl`` command line wraps the same pipelines.

The package exports what poses and answers that question: the problem's
data, the tolerances, the decisions and their reports.  The parts they are
built from stay in the submodules that define them: ``linalg`` (PSD and rank
tests), ``jordan`` (building A and B), ``starmaps`` (star-linear maps and
Choi matrices), ``hill`` (Hill representations) and ``domination`` (order
maps and the block selection).
"""

from .linalg import DEFAULT_TOLERANCES, Tolerances
from .jordan import BicommElement, EigenBlock, JordanSpec, check_bicomm_membership
from .domination import (
    LYAPUNOV,
    STEIN,
    DominationReport,
    HillPickMatrix,
    LyapunovProblem,
    check_domination,
    domination_oracle,
    hill_pick_matrix,
    stein_domination,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "BicommElement",
    "EigenBlock",
    "JordanSpec",
    "check_bicomm_membership",
    "LYAPUNOV",
    "STEIN",
    "DominationReport",
    "HillPickMatrix",
    "LyapunovProblem",
    "check_domination",
    "domination_oracle",
    "hill_pick_matrix",
    "stein_domination",
]

__version__ = "0.5.0"
