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
nor raise: of the stack as it is, or, given a congruence S's scale, of
each S Y S* for the stack's Y, without forming it (Sylvester's law of
inertia, with a bound on the congruence's rounding).
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
_EPS = float(np.finfo(np.float64).eps)


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


def _hermitian_parts(a: np.ndarray, out=None):
    """a + a* and the Frobenius norms of a + a* and a - a*, per matrix of a stack.

    The two parts go into out (two arrays like a) or fresh arrays.  Each
    norm is one sum of squares over a float view: a flat dot for a single
    matrix, a stacked 1 x m by m x 1 matmul for a stack.  A non-finite entry
    of a makes both norms non-finite, and so does overflow of the squares;
    neither raises a RuntimeWarning.
    """
    h, d = out if out is not None else (np.empty(a.shape, a.dtype), np.empty(a.shape, a.dtype))
    with np.errstate(invalid="ignore", over="ignore"):
        np.copyto(d, a.swapaxes(-1, -2))  # a copy, where a strided ufunc would take a buffer
        np.conjugate(d, out=d)
        np.add(a, d, out=h)
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


def psd_screen(stack, tol: Tolerances | None = None, scratch=None, scale=None) -> bool:
    """True only if psd_report would neither call a cone C of the stack "no" nor raise.

    Without scale each C is the stack's matrix.  With scale = (hi, lo, rho)
    the stack holds Y and C = fl(fl(S Y) S*) for a congruence S that the
    caller bounds: hi >= ||S||_2^2, 0 <= lo <= sigma_min(S)^2 and
    ||C - S Y S*||_F <= rho ||Y||_F; C itself is never formed.  Real stacks
    stay float64.  Per matrix, with h = fl(Y + Y*), n_h = ||h||_F, n_d =
    ||Y - Y*||_F and u = eps / 2, the screen takes

        e = rho (n_h + n_d) / 2           >= ||C - S Y S*||_F (the congruence's rounding),
        f = lo n_h / 2 - e                <= ||C||_F and ||C + C*||_F / 2,
        b = psd_rel (1 + f / sqrt(n))     <= psd_report's band on C (its lower bound),
        s = b / hi                           (the shift, in Y's basis),

    and passes when every matrix has f >= 0 (so s > 0) and meets

        (1) hi n_d + 2 e <= eq_rel (1 + f) / 2      (half the Hermitian-deviation limit),
        (2) hi beta (sqrt(n) n_h + n s) + 2 e <= b / 2,  beta = gamma_{3n+5},
        (3) the Cholesky factorization of h + s I succeeds,

    gamma_k = k u / (1 - k u).  The bounds on e and f use ||S X S*||_F
    between sigma_min(S)^2 ||X||_F and ||S||_2^2 ||X||_F and ||Y||_F =
    hypot(n_h, n_d) / 2.  Proof that a pass is safe:

    - psd_report raises NotHermitianError when ||C - C*||_F exceeds eq_rel
      (1 + ||C||_F).  Here ||C - C*||_F <= hi n_d + 2 e, so (1) leaves a
      factor 2 for the rounding of both computed norms.
    - If (3) runs to completion, R* R = h + s I + D with ||D||_2 <= beta
      (sum |h_ii| + n s) <= beta (sqrt(n) n_h + n s): Cholesky's backward error
      |D| <= g |R*| |R| (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., Thm 10.3, g = gamma_{n+1}, at most sqrt(2)
      gamma_{2n+2} in complex arithmetic), where ||R||_F^2 = tr(R* R) gives
      ||D||_2 <= g tr(h + s I) / (1 - g), plus the roundings of forming h and
      adding s; gamma_{3n+5} covers all three.  So lambda_min((Y + Y*) / 2)
      >= -(s + ||D||_2) / 2, and by Ostrowski's theorem (Sylvester's law of
      inertia, with its constants) lambda_min(S (Y + Y*) S* / 2) >= -hi (s +
      ||D||_2) / 2 = -b / 2 - hi ||D||_2 / 2.  C's Hermitian part differs
      from that by at most e, so by (2) its lambda_min >= -3 b / 4.
    - psd_report calls "no" when its computed lambda_min falls below
      psd_rel (1 + max |lambda|), and ||(C + C*) / 2||_2 >= f / sqrt(n)
      makes that band at least b up to its rounding.  Forming (C + C*) / 2
      and eigvalsh move the eigenvalues by at most eta ||C + C*||_2 / 2
      (backward stability, eta far below psd_rel / 8 once psd_rel >= 8 n
      (n + 1) eps), under an eighth of the band: -3 b / 4 stays above it,
      with room for the rounding of the screen's own norms and terms.

    Without scale (S = I: hi = lo = 1, rho = 0, e = 0, f = n_h / 2) the
    screen checks (1) and (3) alone: psd_rel >= 8 n (n + 1) eps implies (2)
    for n >= 2 (b / 2 >= 4 sqrt(n) (n + 1) u n_h), and for n = 1, (3) is one
    square root, exact up to the roundings of h and s.  So the screen
    declines when psd_rel < 8 n (n + 1) eps, when f < 0, (1) or (2) fails,
    when a norm or the scale is not finite (a non-finite entry, or squares
    that overflow), and when hi (n_h + n_d) + 2 e, a bound on 2 ||C||_F,
    exceeds 2^500, where C's entries or their squares could overflow.
    False proves nothing.  The passes: a + a* and a - a* once each, into
    scratch (two arrays like the stack) when given, one sum of squares for
    each of their norms over a float view, s added to the diagonal in
    place, and the Cholesky.  With a scale, f, both sides of (1) and (2),
    the overflow bound and s are affine in (n_h, n_d): one (5, 2) product
    with the stacked norms and one comparison give them all.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = np.asarray(stack)
    a = a if a.dtype == np.float64 else a.astype(np.complex128, copy=False)
    n = a.shape[-1]
    if tol.psd_rel < 8 * n * (n + 1) * np.finfo(np.float64).eps:
        return False
    if scale is not None and not all(map(math.isfinite, scale)):
        return False
    h, h_norm, skew = _hermitian_parts(a, scratch)  # h = 2H
    if not np.isfinite(h_norm + skew).all():
        return False
    if scale is None:
        if np.any(skew > tol.eq_rel * (1.0 + h_norm / 2.0) / 2.0):
            return False
        shift = tol.psd_rel * (1.0 + h_norm / (2.0 * np.sqrt(n)))  # 2c
    else:
        hi, lo, rho = scale
        k = (3 * n + 5) * _EPS / 2.0
        beta, root = k / (1.0 - k), math.sqrt(n)
        f = ((lo - rho) / 2.0, -rho / 2.0)  # f = lo n_h / 2 - e
        q = (0.5 - beta * n) * tol.psd_rel  # (2): 2 e + hi beta root n_h <= q (1 + f / root)
        rows = np.array([  # -f, (1) and (2) less constants, 2 ||C||_F, s - psd_rel / hi
            [-f[0], -f[1]],
            [rho - tol.eq_rel / 2.0 * f[0], hi + rho - tol.eq_rel / 2.0 * f[1]],
            [rho + hi * beta * root - q / root * f[0], rho - q / root * f[1]],
            [hi + rho, hi + rho],
            [tol.psd_rel / (root * hi) * f[0], tol.psd_rel / (root * hi) * f[1]]])
        terms = rows @ np.stack((h_norm, skew))
        if not np.all(terms[:4] <= [[0.0], [tol.eq_rel / 2.0], [q], [2.0 ** 500]]):
            return False
        shift = terms[4] + tol.psd_rel / hi
    h.reshape(-1, n * n)[:, :: n + 1] += shift.reshape(-1, 1)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True
