"""Deciding Lyapunov (and Stein) domination for B in the bicommutant of A.

B Lyapunov dominates A when every Hermitian H with H A + A* H PSD also has
H B + B* H PSD.  For Lyapunov-regular A and B in the bicommutant of A this
reduces to a single PSD test: the composite map

    W  |->  lyap_B( lyap_A^{-1}(W) ),      lyap_Y(X) = X Y + Y* X,

is positive exactly when it is completely positive, i.e. when its Choi
matrix is PSD.  The same verdict is carried by a much smaller matrix, the
Hill-Pick matrix: the Hill coefficient matrix of the composite map for the
canonical block selection that walks down the first block column of each
eigenvalue's leading Jordan block.  For diagonal A it is the classical Pick
matrix with entries (conj(t_i) + t_j) / (conj(lam_i) + lam_j).

Three independent routes are provided and cross-validated: the closed-form
coefficient pipeline (complex field), the Choi PSD test, and a randomized
sampling oracle that draws Lyapunov solutions of A and checks them against
B directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from math import comb
from typing import Callable, Iterator, Optional

import numpy as np

from .jordan import (
    BicommElement,
    JordanSpec,
    bicomm_blocks,
    build_A,
    build_bicomm_element,
    eigenvalue_list,
    from_jordan_basis,
    inner_blocks,
    jordan_blocks,
    leading_blocks,
    validate_bicomm_element,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    block_diag,
    kron,
    psd_report,
    psd_screen,
)
from .starmaps import BlockSeparableMap, StarLinearMap, choi_matrix

__all__ = [
    "Order",
    "LYAPUNOV",
    "STEIN",
    "LyapunovProblem",
    "HillPickMatrix",
    "DominationReport",
    "lyapunov_matricization",
    "lyapunov_order_map",
    "closed_form_matricization",
    "hill_pick_coeff",
    "upsilon_selection",
    "hill_pick_matrix",
    "check_domination",
    "sample_lyapunov_solutions",
    "domination_oracle",
    "is_lyapunov_regular",
    "is_stein_regular",
    "stein_matricization",
    "stein_order_map",
    "stein_domination",
]

_VERDICT = {"yes": "dominates", "no": "not_dominates", "marginal": "marginal"}
# Most oracle trials solved at once: a batch holds this many n x n targets.
_MAX_BATCH = 64


@dataclass(eq=False)
class LyapunovProblem:
    """A given by Jordan data plus bicommutant data for B.

    Regularity of A is not checked here: it depends on the order, and each
    route that inverts an order's map checks it for that order.
    """

    spec: JordanSpec
    element: BicommElement
    tol: Tolerances = dataclass_field(default_factory=lambda: DEFAULT_TOLERANCES)

    def __post_init__(self):
        validate_bicomm_element(self.spec, self.element)


@dataclass(eq=False)
class HillPickMatrix:
    """The w x w Hill-Pick matrix with its block selection bookkeeping.

    upsilon lists the selected (row, col) block positions of the composite
    matricization in the Jordan basis (0-based, n x n blocking); offsets give
    the starting row of each eigenvalue's slice of the matrix.
    """

    matrix: np.ndarray
    upsilon: tuple[tuple[int, int], ...]
    block_offsets: tuple[int, ...]
    field: str

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class DominationReport:
    """Everything the order decision produced, all routes included.

    verdict is derived from the Hill-Pick minimum eigenvalue (Choi for the
    Stein order, where no closed-form Hill-Pick matrix is built); marginal
    means that eigenvalue sits inside the psd_rel band around zero.
    choi_min_eig is that of the Jordan-basis Choi matrix on its support
    (BlockSeparableMap): it has the inertia of the Choi matrix in A's own
    basis, not its eigenvalues.
    """

    verdict: str
    hill_pick_min_eig: Optional[float]
    choi_min_eig: float
    oracle_status: str
    oracle_witness: Optional[np.ndarray]
    methods_agree: bool
    hill_pick: Optional[HillPickMatrix]
    oracle_trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class Order:
    """A cone order: H lies in the cone of M when cone(H, M) is PSD.

    B dominates A in the order when every Hermitian H in the cone of A also
    lies in the cone of B.  For block diagonal M, X -> cone(X, M) sends each
    block X_IJ into the same block; two_sided(M_I, M_J) is its matricization
    there (on stacks of blocks too), and two_sided(M, M) that of the whole
    map.  Its eigenvalues for M = A are, up to sign, the values
    pair(lam_i, lam_j) over all eigenvalue pairs of A, so the map is
    invertible exactly when none of them vanishes; slack(lam_i, lam_j) is the
    scale that eq_rel is relative to.  singular names the vanishing condition.
    For A = P J inv(P), cone(S Y S*, A) = S cone(Y, J) S* with the S of
    congruence(P, inv(P)) = (S, inv(S)): P^{-*} for Lyapunov, P for Stein.
    """

    name: str
    two_sided: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pair: Callable[[np.ndarray, np.ndarray], np.ndarray]
    slack: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cone: Callable[[np.ndarray, np.ndarray], np.ndarray]
    congruence: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    singular: str

    def matricization(self, a, field: str = "complex") -> StarLinearMap:
        """Matricization of the map X -> cone(X, A)."""
        am = as_matrix(a)
        n = am.shape[0]
        if am.shape != (n, n):
            raise ValueError("A must be square")
        return StarLinearMap(self.two_sided(am, am), n, n, field)

    def regular(self, spec: JordanSpec, tol: Tolerances | None = None) -> bool:
        """True when no eigenvalue pair of A makes the order's map singular.

        A pair counts as singular when |pair| <= eq_rel * slack.  Over the
        real field the implicit conjugates of the listed pairs take part.
        """
        tol = tol or DEFAULT_TOLERANCES
        vals = np.array(eigenvalue_list(spec))
        a, b = vals[:, None], vals[None, :]
        return not np.any(np.abs(self.pair(a, b)) <= tol.eq_rel * self.slack(a, b))

    def require_regular(self, spec: JordanSpec, tol: Tolerances) -> None:
        if not self.regular(spec, tol):
            raise ValueError(
                f"not {self.name} regular: some pair of eigenvalues satisfies {self.singular}"
            )


LYAPUNOV = Order(
    "Lyapunov",  # kron(R.T, I) + kron(I, L*) is the matricization of X -> X R + L* X
    lambda l, r: (kron(r.swapaxes(-1, -2), np.eye(l.shape[-1]))
                  + kron(np.eye(r.shape[-1]), l.conj().swapaxes(-1, -2))),
    lambda a, b: a + b.conj(),
    lambda a, b: np.abs(a) + np.abs(b),
    lambda h, m: h @ m + m.conj().T @ h,
    lambda p, p_inv: (p_inv.conj().T, p.conj().T),
    "lam_i + conj(lam_j) == 0",
)
STEIN = Order(
    "Stein",  # I - kron(conj R, L) is the matricization of X -> X - L X R*
    lambda l, r: np.eye(l.shape[-1] * r.shape[-1]) - kron(r.conj(), l),
    lambda a, b: a * b.conj() - 1.0,
    lambda a, b: 1.0 + np.abs(a) * np.abs(b),
    lambda h, m: h - m @ h @ m.conj().T,
    lambda p, p_inv: (p, p_inv),
    "lam_i * conj(lam_j) == 1",
)
lyapunov_matricization = LYAPUNOV.matricization
stein_matricization = STEIN.matricization
is_lyapunov_regular = LYAPUNOV.regular
is_stein_regular = STEIN.regular


class _PairMaps:
    """cone(X, A) for A = diag(a_blocks) on each block X_IJ: L_A = order.two_sided(A_I, A_J).

    pairs holds one (rows, cols, L_A) per pair of block sizes, L_A[k, l]
    acting on block (rows[k], cols[l]).  composite is cone_B o cone_A^{-1}
    for B = diag(b_blocks), for the Choi route; plan serves the oracle and
    is float64 (dtype) for the real field, whose blocks are real.
    """

    def __init__(self, order: Order, a_blocks, b_blocks=None, field: str = "complex"):
        sizes = [len(blk) for blk in a_blocks]
        groups = [np.flatnonzero(np.equal(sizes, d)) for d in dict.fromkeys(sizes)]
        self.order, self.dims, self.b_blocks = order, tuple(sizes), b_blocks
        self.dtype = np.dtype(np.float64 if field == "real" else np.complex128)
        self.pairs = [(rows, cols, self._two_sided(a_blocks, rows, cols))
                      for rows in groups for cols in groups]

    def _two_sided(self, blocks, rows, cols) -> np.ndarray:
        return self.order.two_sided(np.stack([blocks[k] for k in rows])[:, None],
                                    np.stack([blocks[k] for k in cols])[None, :])

    @cached_property
    def composite(self) -> BlockSeparableMap:
        out = []
        for rows, cols, la in self.pairs:  # L_B inv(L_A), by L_A^T X^T = L_B^T
            lb = self._two_sided(self.b_blocks, rows, cols).swapaxes(-1, -2)
            out.append((rows, cols, np.linalg.solve(la.swapaxes(-1, -2), lb).swapaxes(-1, -2)))
        return BlockSeparableMap(self.dims, out)

    @cached_property
    def plan(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, np.ndarray]]]:
        """(perm, inverse perm, groups): the oracle's solve of cone(X, A) = W, W flat n x n.

        W.ravel()[perm] holds each pair's blocks contiguously, as the
        column-major vecs L_A acts on, in the order of its stack; group
        (start, stop, inv(L_A)) owns [start, stop), shaped (R, C, d_r d_c).
        For 1 x 1 blocks inv(L_A) is flat (R C,): the solve is a product.
        """
        n, offset = sum(self.dims), np.cumsum((0,) + self.dims)
        perm, groups = [], []
        for rows, cols, la in self.pairs:
            r = offset[rows][:, None, None, None] + np.arange(self.dims[rows[0]])[:, None]
            c = offset[cols][None, :, None, None] + np.arange(self.dims[cols[0]])
            start = sum(len(p) for p in perm)
            perm.append((r * n + c).swapaxes(-1, -2).ravel())
            la = la.real if self.dtype == np.float64 else la
            inverse = np.linalg.solve(la, np.eye(la.shape[-1]))
            groups.append((start, start + len(perm[-1]),
                           inverse.ravel() if inverse.shape[-1] == 1 else inverse))
        perm = np.concatenate(perm)
        return perm, np.argsort(perm), groups


def _jordan_setup(prob: LyapunovProblem, order: Order) -> _PairMaps:
    """One decision's Jordan-basis data, shared by its routes; A must be regular for the order."""
    spec = prob.spec
    order.require_regular(spec, prob.tol)
    return _PairMaps(order, jordan_blocks(spec), bicomm_blocks(spec, prob.element), spec.field)


def _order_map(prob: LyapunovProblem, order: Order) -> StarLinearMap:
    spec = prob.spec
    order.require_regular(spec, prob.tol)
    a = build_A(spec)
    b = build_bicomm_element(spec, prob.element)
    ((_, _, maps),) = _PairMaps(order, [a], [b]).composite.pairs
    return StarLinearMap(maps[0, 0], spec.dim, spec.dim, spec.field)


def lyapunov_order_map(prob: LyapunovProblem) -> StarLinearMap:
    """The composite map lyap_B o lyap_A^{-1} built from the problem data."""
    return _order_map(prob, LYAPUNOV)


def stein_order_map(prob: LyapunovProblem) -> StarLinearMap:
    """The composite Stein map stein_B o stein_A^{-1}."""
    return _order_map(prob, STEIN)


def hill_pick_coeff(
    prob: LyapunovProblem, eigen_j: int, shift_i: int, eigen_a: int, shift_c: int
) -> complex:
    """Closed-form coefficient of the composite map's Toeplitz expansion.

    This is the scalar weight of the shift_c-th subdiagonal of the blocks of
    eigenvalue eigen_a inside the shift_i-th coefficient matrix of eigenvalue
    eigen_j; the Hill-Pick matrix is assembled from these numbers.  Complex
    field only; the pair (lam_j, lam_a) must be Lyapunov regular.
    """
    if prob.spec.field != "complex":
        raise ValueError("closed-form coefficients are available for the complex field only")
    eigens = prob.spec.eigens
    lam_j = eigens[eigen_j].eigenvalue
    lam_a = eigens[eigen_a].eigenvalue
    t_j = prob.element.coeffs[eigen_j]
    t_a = prob.element.coeffs[eigen_a]
    if not 0 <= shift_i < eigens[eigen_j].sizes[0]:
        raise ValueError(f"shift_i out of range for eigenvalue {eigen_j}")
    if not 0 <= shift_c < eigens[eigen_a].sizes[0]:
        raise ValueError(f"shift_c out of range for eigenvalue {eigen_a}")
    denom = lam_j + lam_a.conjugate()
    if abs(denom) <= prob.tol.eq_rel * (abs(lam_j) + abs(lam_a)):
        LYAPUNOV.require_regular(prob.spec, prob.tol)  # raises: this pair is singular
    total = 0.0 + 0.0j
    for d in range(shift_c + 1):
        total += (
            comb(d + shift_i, d)
            * (-1) ** (d + shift_i)
            * t_a[shift_c - d].conjugate()
            / denom ** (d + shift_i + 1)
        )
    for l in range(shift_i + 1):
        total += (
            comb(shift_c + shift_i - l, shift_c)
            * (-1) ** (shift_i - l + shift_c)
            * t_j[l]
            / denom ** (shift_c + shift_i - l + 1)
        )
    return total


def _coefficient_block(prob: LyapunovProblem, eigen_j: int, shift_i: int) -> np.ndarray:
    """Block-diagonal coefficient matrix multiplying the shift of eigen_j's blocks."""
    parts = []
    for a, e in enumerate(prob.spec.eigens):
        for s in e.sizes:
            t = np.zeros((s, s), dtype=np.complex128)
            for c in range(s):
                t += hill_pick_coeff(prob, eigen_j, shift_i, a, c) * np.eye(s, k=-c)
            parts.append(t)
    return block_diag(*parts)


def closed_form_matricization(prob: LyapunovProblem) -> np.ndarray:
    """Matricization of the composite map assembled from closed-form coefficients.

    Built block by block from the Jordan structure (no matrix inversion) and
    conjugated back through the similarity; must agree with
    :func:`lyapunov_order_map` to working precision, which is the package's
    central cross-validation.  Complex field only.
    """
    spec = prob.spec
    if spec.field != "complex":
        raise ValueError("the closed-form pipeline covers the complex field only")
    LYAPUNOV.require_regular(spec, prob.tol)
    coeff_blocks = {
        (j, i): _coefficient_block(prob, j, i)
        for j, e in enumerate(spec.eigens)
        for i in range(e.sizes[0])
    }
    parts = []
    for j, e in enumerate(spec.eigens):
        for s in e.sizes:
            r = np.zeros((s * spec.dim, s * spec.dim), dtype=np.complex128)
            for i in range(s):
                r += np.kron(np.eye(s, k=-i), coeff_blocks[j, i])
            parts.append(r)
    jordan_side = block_diag(*parts)
    p = spec.similarity
    if p is None:
        return jordan_side
    q = kron(p.T, p.conj().T)
    return np.linalg.solve(q, jordan_side @ q)


def upsilon_selection(spec: JordanSpec) -> tuple[tuple[int, int], ...]:
    """Canonical block selection: first block column of each eigenvalue's leading block.

    Positions index the n x n blocking of the composite matricization in the
    Jordan basis, 0-based.  Per eigenvalue the selection has one entry per
    coefficient slot: the leading Jordan block size, doubled for the 2x2-pair
    eigenvalues of the real field.
    """
    return tuple((b.offset + a, b.offset) for b in leading_blocks(spec) for a in range(b.dim))


def hill_pick_matrix(prob: LyapunovProblem, support_choi=None) -> HillPickMatrix:
    """The Hill-Pick matrix: the composite map's Hill matrix at upsilon_selection.

    Over the complex field it is assembled from closed-form coefficients:
    block (i, j) has entries f[j, b | i, a] = hill_pick_coeff(j, b, i, a) for
    a, b ranging over the leading block sizes.  Over the real field it is
    the principal submatrix of the Jordan-basis support Choi matrix at the
    selection, whose entry (row, col) sits at Choi index (col, row); a caller
    that holds that matrix (choi_matrix of the Lyapunov setup's composite,
    whose construction checked regularity) passes it as support_choi.
    Either way, positive semidefiniteness of the result is equivalent to B
    Lyapunov dominating A.  A must be Lyapunov regular.
    """
    spec = prob.spec
    if support_choi is None:
        LYAPUNOV.require_regular(spec, prob.tol)
    sel = upsilon_selection(spec)
    # Each eigenvalue's slice starts at its diagonal block position.
    offsets = tuple(k for k, (row, col) in enumerate(sel) if row == col)
    if spec.field == "complex":  # entry ((i, a), (j, b)) is hill_pick_coeff(j, b, i, a)
        sizes = [blk.size for blk in leading_blocks(spec)]
        top, eig = max(sizes), np.repeat(np.arange(len(sizes)), sizes)
        t = np.array([row + (0,) * (top - len(row)) for row in prob.element.coeffs])
        lam = np.array([e.eigenvalue for e in spec.eigens])[eig]
        denom = lam + lam.conj()[:, None]  # lam_j + conj(lam_i)
        binom = np.array([[(-1) ** m * comb(m, k) for k in range(2 * top)] for m in range(2 * top)])
        shift = np.concatenate([np.arange(k) for k in sizes])
        a, b = shift[:, None], shift
        h = np.zeros(denom.shape, dtype=np.complex128)
        for d in range(top):  # the two sums of hill_pick_coeff, masked past each shift
            h += np.where(d <= a, binom[d + b, d] * t[eig, shift - d].conj()[:, None]
                          / denom ** (d + b + 1), 0.0)
        for l in range(top):
            h += np.where(l <= b, binom[a + b - l, a] * t[eig, l]
                          / denom ** (a + b - l + 1), 0.0)
    else:
        layout = inner_blocks(spec)
        start = dict(zip((b.offset for b in layout), np.cumsum([0] + [b.dim**2 for b in layout])))
        pos = [start[col] + row - col for row, col in sel]
        if support_choi is None:
            support_choi = _jordan_setup(prob, LYAPUNOV).composite.support_choi()
        h = support_choi[np.ix_(pos, pos)].real.astype(np.complex128)
    return HillPickMatrix(h, sel, offsets, spec.field)


def _cone_solutions(
    maps: _PairMaps, field: str, count: int, seed: int, congruence=None
) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]]:
    """Yield batches of Hermitian H with cone(H, A) = W for random PSD targets W = G G*.

    With (S, inv(S), S*) = congruence (S = I when None), cone(S Y S*, A) =
    S cone(Y, diag(blocks)) S*: each W becomes inv(S) W inv(S)*, is solved
    block pair by block pair (maps.plan: one gather, a product or a stacked
    matmul per size pair, one scatter), and maps back as H = S Y S*.
    Everything is of maps.dtype: float64 for the real field, whose G is real.
    Batches hold 1, 2, 4, ..., at most _MAX_BATCH trials: a caller that
    stops at the first trial pays for one small batch, and the cap bounds
    the workspace.  Each batch is one draw from a single default_rng(seed)
    stream, in the order of per-trial gaussian(rng, (n, n), field) draws, so
    trial k sees the same G however the trials are grouped.  Each stage
    writes into the next of three (size, n, n) buffers, made anew only when
    the batch size changes; a batch is yielded with the other two as scratch,
    all valid only until the next iteration, so a caller that keeps an H
    copies it.
    """
    n, k = sum(maps.dims), 2 if field == "complex" else 1
    perm, perm_inverse, groups = maps.plan
    s, s_inv, s_star = congruence or (None, None, None)
    rng = np.random.default_rng(seed)
    done, batch, bufs = 0, 1, []
    while done < count:
        size = min(batch, count - done)
        if not bufs or len(bufs[0]) != size:
            bufs = [np.empty((size, n, n), dtype=maps.dtype) for _ in range(3)]
        ring = itertools.cycle(bufs)
        g = next(ring)
        z = g.view(np.float64).reshape(-1)[: size * k * n * n].reshape(size, k, n, n)
        rng.standard_normal(out=z)
        if maps.dtype != np.float64:
            g = next(ring)
            g.real, g.imag = z[:, 0], z[:, 1] if k == 2 else 0.0
        g = g if s_inv is None else np.matmul(s_inv, g, out=next(ring))
        g_star = g if maps.dtype == np.float64 else np.conjugate(g, out=next(ring))
        w = np.matmul(g, g_star.swapaxes(-1, -2), out=next(ring)).reshape(size, n * n)
        v = np.take(w, perm, axis=1, out=next(ring).reshape(size, n * n), mode="clip")
        y = next(ring).reshape(size, n * n)
        for start, stop, inverse in groups:
            if inverse.ndim == 1:
                np.multiply(v[:, start:stop], inverse, out=y[:, start:stop])
            else:  # L_A^-1 @ vec on (R, C, d_r d_c, size) views
                shape = (size,) + inverse.shape[:-1]
                np.matmul(inverse, v[:, start:stop].reshape(shape).transpose(1, 2, 3, 0),
                          out=y[:, start:stop].reshape(shape).transpose(1, 2, 3, 0))
        y = np.take(y, perm_inverse, axis=1, out=next(ring).reshape(size, n * n), mode="clip")
        y = y.reshape(size, n, n)
        if s is not None:
            y = np.matmul(np.matmul(s, y, out=next(ring)), s_star, out=next(ring))
        t = next(ring)
        np.copyto(t, y.swapaxes(-1, -2))  # a copy, where a strided ufunc would take a buffer
        y += np.conjugate(t, out=t)
        y *= 0.5
        yield y, (t, next(ring))
        done += size
        batch = min(2 * batch, _MAX_BATCH)


def sample_lyapunov_solutions(
    a, count: int = 1, seed: int = 0, field: str = "complex"
) -> list[np.ndarray]:
    """Draw Hermitian H with H A + A* H PSD, by pulling random PSD targets back.

    Samples W = G G* with Gaussian G and solves the Lyapunov equation
    H A + A* H = W; every returned H is symmetrized and owns its data.  A
    must be Lyapunov regular (the map is inverted directly).
    """
    maps = _PairMaps(LYAPUNOV, [as_matrix(a)])
    return [h.copy() for hs, _ in _cone_solutions(maps, field, int(count), seed) for h in hs]


def _require_trials(trials: int) -> None:
    if int(trials) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def domination_oracle(
    prob: LyapunovProblem, trials: int = 1000, seed: int = 0, order: Order = LYAPUNOV,
    setup: Optional[_PairMaps] = None,
) -> tuple[str, Optional[np.ndarray]]:
    """Brute-force check of the order on sampled cone elements of A.

    Each trial draws H with cone(H, A) PSD by construction (H A + A* H for
    the Lyapunov order, H - A H A* for Stein) and tests whether cone(H, B)
    fails the PSD test outright ("no", beyond the tolerance band).  Returns
    ("violation", H) at the first failure, otherwise ("consistent", None);
    consistency is evidence, not proof.  cone(H, B) is computed a batch at a
    time.  A batch of two or more that passes one batched Cholesky screen
    (linalg.psd_screen) holds no "no" trial and is skipped; every other batch
    is PSD-tested per trial, in order, so the first violation, its witness
    and any NotHermitianError are those of a per-trial loop.  Real-field
    trials run in float64 (setup.dtype); the witness is complex128 either
    way.  setup is this order's _jordan_setup, built when not given.  A must
    be regular for the order, trials >= 1.
    """
    _require_trials(trials)
    spec = prob.spec
    setup = _jordan_setup(prob, order) if setup is None else setup
    real = setup.dtype == np.float64  # B, S and inv(S) are real: keep float64 copies
    b = from_jordan_basis(spec, block_diag(*setup.b_blocks))
    b = b.real.copy() if real else b
    p, congruence = spec.similarity, None
    if p is not None:
        s, s_inv = order.congruence(p, np.linalg.solve(p, np.eye(len(p))))
        s, s_inv = (s.real.copy(), s_inv.real.copy()) if real else (s, s_inv)
        congruence = s, s_inv, s.conj().T
    for hs, scratch in _cone_solutions(setup, spec.field, int(trials), seed, congruence):
        cones = order.cone(hs, b)
        if len(cones) > 1 and psd_screen(cones, prob.tol, scratch):
            continue
        for h, cone in zip(hs, cones):
            verdict, _ = psd_report(cone, prob.tol)
            if verdict == "no":  # a copy: hs is the next batch's workspace
                return "violation", h.astype(np.complex128)
    return "consistent", None


def check_domination(
    prob: LyapunovProblem, oracle_trials: int = 1000, seed: int = 0
) -> DominationReport:
    """Run all three routes and report the verdict with agreement data.

    The verdict comes from the Hill-Pick matrix; the Choi PSD test of the
    composite map, in A's Jordan basis on its support, is recorded
    alongside, and the two agree on every non-marginal problem (a
    disagreement indicates a bug, not a borderline instance).  The sampling
    oracle provides an independent witness when domination fails.
    """
    _require_trials(oracle_trials)
    tol = prob.tol
    setup = _jordan_setup(prob, LYAPUNOV)
    choi = choi_matrix(setup.composite)
    hp = hill_pick_matrix(prob, choi)
    hp_verdict, hp_eig = psd_report(hp.matrix, tol)
    choi_verdict, choi_eig = psd_report(choi, tol)
    status, witness = domination_oracle(prob, oracle_trials, seed, setup=setup)
    agree = hp_verdict == choi_verdict or "marginal" in (hp_verdict, choi_verdict)
    return DominationReport(
        verdict=_VERDICT[hp_verdict],
        hill_pick_min_eig=hp_eig,
        choi_min_eig=choi_eig,
        oracle_status=status,
        oracle_witness=witness,
        methods_agree=agree,
        hill_pick=hp,
        oracle_trials=int(oracle_trials),
        seed=int(seed),
    )


def stein_domination(
    prob: LyapunovProblem, oracle_trials: int = 1000, seed: int = 0
) -> DominationReport:
    """Stein-order analogue of :func:`check_domination`.

    The verdict is the Choi PSD test of the composite Stein map (no
    closed-form Hill-Pick matrix is assembled for this order); the sampling
    oracle draws H with H - A H A* PSD and tests H - B H B*.
    """
    _require_trials(oracle_trials)
    setup = _jordan_setup(prob, STEIN)
    choi_verdict, choi_eig = psd_report(choi_matrix(setup.composite), prob.tol)
    status, witness = domination_oracle(prob, oracle_trials, seed, STEIN, setup)
    agree = status == "consistent" or choi_verdict != "yes"
    return DominationReport(
        verdict=_VERDICT[choi_verdict],
        hill_pick_min_eig=None,
        choi_min_eig=choi_eig,
        oracle_status=status,
        oracle_witness=witness,
        methods_agree=agree,
        hill_pick=None,
        oracle_trials=int(oracle_trials),
        seed=int(seed),
    )
