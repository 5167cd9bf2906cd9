"""Dense linear algebra helpers shared by the whole package.

Everything operates on plain numpy arrays with complex128 entries, except
that psd_screen keeps float64 stacks as they are; vectors are 1-D arrays.
The vectorization convention is column stacking throughout, so vec of
an m-by-n unit matrix with its 1 in position (l, k) is the standard basis
vector of index (k-1)*m + l (1-based), and

    vec(A @ X @ B.T) == kron(B, A) @ vec(X).

Rank and positive-semidefiniteness tests are tolerance-aware.
``psd_report`` returns a three-way verdict ("yes" / "no" / "marginal") so
callers can tell apart matrices whose smallest eigenvalue sits too close to
zero to call either way; "marginal" means the minimum eigenvalue lies inside
the ``psd_rel`` band around zero.  ``psd_screen`` proves with one batched
Cholesky that ``psd_report`` would neither call a matrix of a stack "no"
nor raise.
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
    "psd_screen",
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
    """a + a* and the Frobenius norms of a + a* and a - a*, per matrix of a stack.

    Each norm is one sum of squares over a float view: a flat dot for a
    single matrix, a stacked 1 x m by m x 1 matmul for a stack.  A
    non-finite entry of a makes both norms non-finite, and so does overflow
    of the squares; neither raises a RuntimeWarning.
    """
    d = a.swapaxes(-1, -2).copy()  # a copy, where a strided ufunc would take a buffer
    with np.errstate(invalid="ignore", over="ignore"):
        np.conjugate(d, out=d)
        h = np.add(a, d, order="C")  # C order, for the float views below
        np.subtract(a, d, out=d)
        if a.ndim == 2:
            x, y = h.view(np.float64).ravel(), d.view(np.float64).ravel()  # (re, im) pairs
            return h, math.sqrt(np.dot(x, x)), math.sqrt(np.dot(y, y))
        rows = [x.reshape(*x.shape[:-2], 1, -1).view(np.float64) for x in (h, d)]
        return h, *(np.sqrt((x @ x.swapaxes(-1, -2))[..., 0, 0]) for x in rows)


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


def psd_screen(stack, tol: Tolerances | None = None) -> bool:
    """True only if psd_report would neither call a matrix of the stack "no" nor raise.

    A batched Cholesky of each 2H + 2c I, H = (a + a*) / 2 the Hermitian part
    and c = psd_rel * (1 + ||H||_F / sqrt(n)) / 2 at most half of
    psd_report's band, proves lambda_min(H) > -band up to a backward error of
    about n (n + 1) u ||H|| (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.3).  So it declines when psd_rel < 8 n (n + 1) eps,
    on a Hermitian deviation above half of psd_report's limit, and when a
    norm is not finite (a non-finite entry, or squares that overflow).
    False proves nothing.  Real stacks stay float64.  The passes: a + a*
    and a - a* once each, into fresh arrays (the stack is not written), one
    sum of squares for each of their norms over a float view, c added to
    the diagonal in place, and the Cholesky.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = np.asarray(stack)
    a = a if a.dtype == np.float64 else a.astype(np.complex128, copy=False)
    n = a.shape[-1]
    if tol.psd_rel < 8 * n * (n + 1) * np.finfo(np.float64).eps:
        return False
    h, h_norm, skew = _hermitian_parts(a)  # h = 2H
    if not np.isfinite(h_norm + skew).all():
        return False
    if np.any(skew > tol.eq_rel * (1.0 + h_norm / 2.0) / 2.0):
        return False
    shift = tol.psd_rel * (1.0 + h_norm / (2.0 * np.sqrt(n)))  # 2c
    h.reshape(-1, n * n)[:, :: n + 1] += shift.reshape(-1, 1)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True
