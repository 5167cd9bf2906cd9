"""Dense linear algebra helpers shared by the whole package.

Everything operates on plain numpy arrays with complex128 entries; vectors
are 1-D arrays.
The vectorization convention is column stacking throughout, so vec of
an m-by-n unit matrix with its 1 in position (l, k) is the standard basis
vector of index (k-1)*m + l (1-based), and

    vec(A @ X @ B.T) == kron(B, A) @ vec(X).

Rank and positive-semidefiniteness tests are tolerance-aware.
``psd_report`` returns a three-way verdict ("yes" / "no" / "marginal") so
callers can tell apart matrices whose smallest eigenvalue sits too close to
zero to call either way; "marginal" means the minimum eigenvalue lies inside
the ``psd_rel`` band around zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "NotHermitianError",
    "as_matrix",
    "kron",
    "block_diag",
    "frob",
    "rank_tol",
    "psd_report",
]


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for the rank, PSD and equality tests.

    rank_rel: singular values below rank_rel * sigma_max count as zero.
    psd_rel:  half-width (relative to 1 + spectral norm) of the band around
              zero inside which a minimum eigenvalue is deemed marginal.
    eq_rel:   relative Frobenius tolerance for matrix comparisons.

    Each must be finite and greater than 0: an infinite band would call
    every matrix "marginal" and every pair of matrices equal.
    """

    rank_rel: float = 1e-9
    psd_rel: float = 1e-9
    eq_rel: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel", "psd_rel", "eq_rel"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


class NotHermitianError(ValueError):
    """A matrix that should be Hermitian is not, within tolerance: a numerical failure."""


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product [a_ij * B] of two matrices, or of two broadcast stacks of them."""
    x, y = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if x.ndim < 2 or y.ndim < 2:
        raise ValueError(f"expected matrices, got arrays of shapes {x.shape} and {y.shape}")
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1]))


def block_diag(*blocks) -> np.ndarray:
    """Block-diagonal matrix with the given square blocks along the diagonal, in order."""
    mats = [as_matrix(b) for b in blocks]
    size = sum(m.shape[0] for m in mats)
    out = np.zeros((size, size), dtype=np.complex128)
    off = 0
    for m in mats:
        k = m.shape[0]
        out[off : off + k, off : off + k] = m
        off += k
    return out


def frob(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128)))


def rank_tol(m, tol: Tolerances | None = None) -> int:
    """Number of singular values above rank_rel * sigma_max (0 for the zero matrix)."""
    tol = tol or DEFAULT_TOLERANCES
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def _hermitian_parts(a: np.ndarray):
    """a + a* and the Frobenius norms of a + a* and a - a*, for a square matrix a.

    Each norm is one flat dot over a float view.  A non-finite entry of a
    makes both norms non-finite, and so does overflow of the squares;
    neither raises a RuntimeWarning.
    """
    d = a.T.copy()  # a copy, where a strided ufunc would take a buffer
    with np.errstate(invalid="ignore", over="ignore"):
        np.conjugate(d, out=d)
        h = np.add(a, d, order="C")  # C order, for the float views below
        np.subtract(a, d, out=d)
        x, y = h.view(np.float64).ravel(), d.view(np.float64).ravel()  # (re, im) pairs
        return h, math.sqrt(np.dot(x, x)), math.sqrt(np.dot(y, y))


def psd_report(m, tol: Tolerances | None = None) -> tuple[str, float]:
    """Classify a Hermitian matrix as PSD and report its minimum eigenvalue.

    Returns (verdict, lambda_min) with verdict "yes" when lambda_min clears
    the psd_rel band above zero, "no" when it falls below the band, and
    "marginal" inside the band, of half-width psd_rel * (1 + max |eigenvalue|).
    Raises NotHermitianError (a ValueError) when the input deviates from
    Hermitian by more than eq_rel in Frobenius norm, and numpy's LinAlgError
    on non-finite entries, or on finite ones whose a + a* overflows.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"PSD test needs a square matrix, got {a.shape}")
    if a.size == 0:
        return "yes", 0.0
    h, h_norm, skew = _hermitian_parts(a)
    if not math.isfinite(h_norm + skew) and not np.isfinite(h).all():
        raise np.linalg.LinAlgError("PSD test: non-finite entries in the matrix or a + a*")
    # ||a||^2 = (||a + a*||^2 + ||a - a*||^2) / 4, by the parallelogram law
    if skew > tol.eq_rel * (1.0 + math.hypot(h_norm, skew) / 2.0):
        raise NotHermitianError(f"matrix is not Hermitian within tolerance (deviation {skew:.3e})")
    eigs = np.linalg.eigvalsh(h / 2.0)
    lam_min = float(eigs[0])
    band = tol.psd_rel * (1.0 + max(abs(lam_min), abs(float(eigs[-1]))))
    if lam_min < -band:
        return "no", lam_min
    if lam_min <= band:
        return "marginal", lam_min
    return "yes", lam_min
