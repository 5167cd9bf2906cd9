"""Deciding Lyapunov (and Stein) domination for B in the bicommutant of A.

B Lyapunov dominates A when every Hermitian H with H A + A* H PSD also has
H B + B* H PSD.  For Lyapunov-regular A and B in the bicommutant of A this
reduces to a single PSD test: the composite map

    W  |->  lyap_B( lyap_A^{-1}(W) ),      lyap_Y(X) = X Y + Y* X,

is positive exactly when it is completely positive, i.e. when its Choi
matrix is PSD.  The same verdict is carried by a much smaller matrix, the
Hill-Pick matrix: the composite's Hill matrix for the Toeplitz shift
factors (each lower shift on the Jordan blocks of one eigenvalue, at the
selection down the first block column of its leading block).  For diagonal
A it is the classical Pick matrix (conj(t_i) + t_j) / (conj(lam_i) + lam_j).

Three routes are cross-validated: the Hill-Pick matrix (by its displacement
recursion, over the real field by complexification), the Choi PSD test of
the composite, built in closed form from the order's operator in A's Jordan
basis, and a sampling oracle that applies that composite to random cone elements' images.
One body, _decide, runs the routes of either order and applies one
agreement rule: no route reads "yes" while another reads "no".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from .jordan import (
    BicommElement,
    MAX_BLOCK_SIZE,
    JordanSpec,
    build_A,
    build_bicomm_element,
    eigenvalue_list,
    inner_blocks,
    leading_blocks,
    validate_bicomm_element,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    kron,
    psd_report,
)
from .starmaps import BlockSeparableMap, StarLinearMap, choi_matrix

__all__ = [
    "Order",
    "LYAPUNOV",
    "STEIN",
    "LyapunovProblem",
    "HillPickMatrix",
    "DominationReport",
    "lyapunov_order_map",
    "upsilon_selection",
    "hill_pick_matrix",
    "check_domination",
    "domination_oracle",
    "stein_order_map",
    "stein_domination",
]

_VERDICT = {"yes": "dominates", "no": "not_dominates", "marginal": "marginal"}
_BATCH_ENTRIES = 64 * 16 * 16  # entries per array of a formed oracle batch: 64 trials at n = 16


def _batch_sizes(n: int, count: int) -> Iterator[int]:
    """The oracle's batches: one trial, so a refutation at trial 0 costs one, then full
    batches of n^2-scaled size.  Lazy: O(1) memory for any count."""
    cap = max(64, _BATCH_ENTRIES // (n * n))
    return itertools.chain((1,), (min(cap, count - done) for done in range(1, count, cap)))


@dataclass(frozen=True, eq=False)
class LyapunovProblem:
    """A given by Jordan data plus bicommutant data for B.

    The element is validated once, here, and the problem is frozen.  A's
    regularity depends on the order: each route that inverts an order's map
    checks it for that order.
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
    Stein order, which has no Hill-Pick route); marginal
    means that eigenvalue sits inside the psd_rel band around zero.
    choi_min_eig is that of the Jordan-basis Choi matrix on its support
    (BlockSeparableMap): it has the inertia of the Choi matrix in A's own
    basis, not its eigenvalues.  methods_agree is false when one route
    reads "yes" and another "no", where an oracle violation reads "no".
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

    On Toeplitz blocks l(N), r(N) (N the upper shift, l and r stacks of
    coefficient rows) the map is series(l, r), a polynomial in a left and a
    right shift: N^T X, X N for Lyapunov (shift = 1), N X, X N^T for Stein
    (shift = -1).  Decisions use series; cone and two_sided are the reference.
    """

    name: str
    two_sided: Callable[[np.ndarray, np.ndarray], np.ndarray]
    series: Callable[[np.ndarray, np.ndarray], np.ndarray]
    shift: int
    pair: Callable[[np.ndarray, np.ndarray], np.ndarray]
    slack: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cone: Callable[[np.ndarray, np.ndarray], np.ndarray]
    congruence: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    singular: str

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


_E0 = np.eye(1, MAX_BLOCK_SIZE)[0]  # (1, 0, 0, ...): the shifts' zeroth power
LYAPUNOV = Order(
    "Lyapunov",  # kron(R.T, I) + kron(I, L*) is the matricization of X -> X R + L* X
    lambda l, r: (kron(r.swapaxes(-1, -2), np.eye(l.shape[-1]))
                  + kron(np.eye(r.shape[-1]), l.conj().swapaxes(-1, -2))),
    lambda l, r: (l.conj()[..., :, None] * _E0[: r.shape[-1]]  # X r(N) + conj(l)(N^T) X
                  + _E0[: l.shape[-1], None] * r[..., None, :]),
    1,
    lambda a, b: a + b.conj(),
    lambda a, b: np.abs(a) + np.abs(b),
    lambda h, m: h @ m + m.conj().T @ h,
    lambda p, p_inv: (p_inv.conj().T, p.conj().T),
    "lam_i + conj(lam_j) == 0",
)
STEIN = Order(
    "Stein",  # I - kron(conj R, L) is the matricization of X -> X - L X R*
    lambda l, r: np.eye(l.shape[-1] * r.shape[-1]) - kron(r.conj(), l),
    lambda l, r: (_E0[: l.shape[-1], None] * _E0[: r.shape[-1]]  # X - l(N) X conj(r)(N^T)
                  - l[..., :, None] * r.conj()[..., None, :]),
    -1,
    lambda a, b: a * b.conj() - 1.0,
    lambda a, b: 1.0 + np.abs(a) * np.abs(b),
    lambda h, m: h - m @ h @ m.conj().T,
    lambda p, p_inv: (p, p_inv),
    "lam_i * conj(lam_j) == 1",
)

# _SPLIT[2] splits a real pair's 2 x 2 slot [[a, b], [-b, a]] into a + ib and a - ib.
# _FOLD[k_r, k_c][(u, v, u', v'), (s, t)]: part (s, t)'s weight in real slots (u, v) <- (u', v').
_SPLIT = {1: np.ones((1, 1)), 2: np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)}
_FOLD = {(k_r, k_c): np.einsum("us,vt,Us,Vt->uvUVst", _SPLIT[k_r], _SPLIT[k_c].conj(),
                               _SPLIT[k_r].conj(), _SPLIT[k_c]).reshape(-1, k_r * k_c)
         for k_r in (1, 2) for k_c in (1, 2)}
_OFFSETS = np.subtract.outer(np.arange(MAX_BLOCK_SIZE), np.arange(MAX_BLOCK_SIZE))  # i - j


def _expand(c: np.ndarray, shift: int) -> np.ndarray:
    """Matrices of sum c[i, j] left^i right^j on vec(X): entry (p, q) moves by shift * (i, j)."""
    (s_r, s_c), lead = c.shape[-2:], c.shape[:-2]
    pad = np.zeros(lead + (2 * s_r, 2 * s_c), dtype=c.dtype)
    pad[..., :s_r, :s_c] = c  # negative offsets wrap onto the zeros
    rows = _OFFSETS[:s_r, :s_r][::shift, ::shift]  # shift * (out - in)
    cols = _OFFSETS[:s_c, :s_c][::shift, ::shift]
    return pad[..., rows[:, None], cols[:, None, :, None]].reshape(lead + (s_r * s_c,) * 2)


class _PairMaps:
    """cone_A^{-1} and the composite cone_B o cone_A^{-1} on each block X_IJ, in closed form.

    pairs holds one (rows, cols, inv(L_A), L_B inv(L_A)) per pair (i, j) of
    block dims, made per pair of kinds (size, pair) for i <= j; both maps are
    *-linear, which gives the (j, i) maps.  composite is the BlockSeparableMap
    of the L_B inv(L_A) blocks, which the Choi route reads.  A real pair a + ib of
    size s is complexified by Q = I_s (x) _SPLIT[2] into (lam, t), (conj lam,
    conj t).  On a complex block pair L = mu I - K (Order.series), K nilpotent
    of index below s_r + s_c: inv(L_A) = sum_k K^k / mu^(k+1) (Horner), 1 / mu
    for 1 x 1 blocks.  Real blocks are folded back by Q, float64 (dtype).
    """

    def __init__(self, order: Order, spec: JordanSpec, element: BicommElement):
        blocks = inner_blocks(spec)
        self.dims = tuple(b.dim for b in blocks)
        self.dtype = np.dtype(np.float64 if spec.field == "real" else np.complex128)
        # rows[0, :, j]: J's coefficients (lam_j, 1, 0, ...), then B's, each read up
        # to a block's size; rows[1] conjugated, for the pairs' conj lam blocks.
        top = max(e.sizes[0] for e in spec.eigens)
        rows = np.zeros((1 + (spec.field == "real"), 2, len(spec.eigens), top), dtype=complex)
        rows[0, 0, :, 0] = [e.eigenvalue for e in spec.eigens]
        rows[0, 0, :, 1:2] = 1.0
        rows[0, 1] = [(row + (0.0,) * top)[:top] for row in element.coeffs]
        rows[1:] = rows[:1].conj()
        by_dim: dict[int, dict[tuple[int, int], list[int]]] = {}  # kind: (size, pair)
        for i, b in enumerate(blocks):
            by_dim.setdefault(b.dim, {}).setdefault((b.size, 1 + b.pair), []).append(i)
        groups = [(np.concatenate(list(kinds.values())),  # one stack per dim, for the plan
                   [rows[:k, :, [blocks[i].eigen_index for i in idx], :s]
                    for (s, k), idx in kinds.items()]) for kinds in by_dim.values()]
        done = {}
        for i, (r, lefts) in enumerate(groups):
            for j, (c, rights) in enumerate(groups):
                if j < i:  # X_IJ's map from X_JI's: Phi(X*) = Phi(X)*
                    d, maps = (self.dims[r[0]], self.dims[c[0]]), done[j, i]
                    maps = maps.reshape(maps.shape[:3] + d + d).transpose(0, 2, 1, 4, 3, 6, 5)
                    maps = maps.conj().reshape(2, len(r), len(c), d[0] * d[1], -1)
                else:
                    maps = [[self._pair(order, left, right) for right in rights] for left in lefts]
                    maps = maps[0][0] if len(lefts) == len(rights) == 1 else np.concatenate(
                        [np.concatenate(m, axis=2) for m in maps], axis=1)
                done[i, j] = np.ascontiguousarray(maps)  # for BLAS in the oracle's matmuls
        self.pairs = [(groups[i][0], groups[j][0], *m) for (i, j), m in done.items()]
        self.composite = BlockSeparableMap(self.dims, [(r, c, m) for r, c, _, m in self.pairs])

    def _pair(self, order: Order, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(inv(L_A), L_B inv(L_A)), (2, R, C, d_r d_c, d_r d_c), from rows (k, 2, R|C, s)."""
        (k_r, _, n_r, s_r), (k_c, _, n_c, s_c) = left.shape, right.shape
        c = order.series(left[:, None, :, :, None], right[None, :, :, None])
        mu = c[:, :, :1, :, :, :1, :1]  # c is (k_r, k_c, 2, R, C, s_r, s_c)
        if s_r == s_c == 1:
            maps = c / mu
            maps[:, :, :1] = 1.0 / mu
        else:
            maps, eye, mu = _expand(c, order.shift), np.eye(s_r * s_c), mu[:, :, 0]  # L_A, L_B
            k = np.add(eye, maps[:, :, 0] / -mu, out=maps[:, :, 0])  # K / mu = I - L_A / mu
            x = k + eye
            for _ in range(s_r + s_c - 3):  # Horner: sum_k (K / mu)^k
                x = k @ x + eye
            np.divide(x, mu, out=k)
            maps[:, :, 1] = maps[:, :, 1] @ k
        if k_r * k_c > 1:  # fold back: the congruence with Q on each block pair
            maps = np.matmul(_FOLD[k_r, k_c], maps.reshape(k_r * k_c, -1)).real
            maps = maps.reshape(k_r, k_c, k_r, k_c, 2, n_r, n_c, s_c, s_r, s_c, s_r)
            maps = maps.transpose(4, 5, 6, 7, 1, 8, 0, 9, 3, 10, 2)  # to the real blocks' vecs
        elif self.dtype == np.float64:
            maps = maps.real
        return maps.reshape(2, n_r, n_c, k_r * s_r * k_c * s_c, -1)

    @cached_property
    def plan(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, tuple]]]:
        """(perm, inverse perm, groups): the layout in which the oracle applies the pair maps.

        W.ravel()[perm] holds each pair's blocks contiguously, as the
        column-major vecs the maps act on, in the order of its stack; group
        (start, stop, (inv(L_A), L_B inv(L_A))) owns [start, stop), each map
        shaped (R, C, d_r d_c, d_r d_c), or flat (R C,) for 1 x 1 blocks,
        where it is a product.
        """
        n, offset = sum(self.dims), np.cumsum((0,) + self.dims)
        perm, groups = [], []
        for rows, cols, *maps in self.pairs:
            r = offset[rows][:, None, None, None] + np.arange(self.dims[rows[0]])[:, None]
            c = offset[cols][None, :, None, None] + np.arange(self.dims[cols[0]])
            start = sum(len(p) for p in perm)
            perm.append((r * n + c).swapaxes(-1, -2).ravel())
            groups.append((start, start + len(perm[-1]),
                           tuple(m.ravel() if m.shape[-1] == 1 else m for m in maps)))
        perm = np.concatenate(perm)
        return perm, np.argsort(perm), groups

    choi = cached_property(lambda self: choi_matrix(self.composite))  # C, the support Choi matrix

    @cached_property
    def certificate(self) -> Optional[tuple]:
        """(delta, skew, norm, traces, blocks, gammas) for _choi_screen: Herm(C) >= -delta I.

        For h = fl(C + C*), N x N, and beta = gamma_{3N+5}, a Cholesky of h +
        s I, s = beta sum |h_ii| (or 8 times that, for the rounding of C's own
        closed form), that succeeds gives R* R = h + s I + D with |D| <=
        gamma_{N+1} |R*| |R| (sqrt(2) gamma_{2N+2} complex; Higham 2002, Thm
        10.3) and ||R||_F^2 = tr(R* R): with the roundings of h and s, C + C*
        >= -(s + beta (sum |h_ii| + N s)) I, and delta is half that bound.
        None if both fail or a norm is not finite.  skew and norm are ||C -
        C*||_F and ||C||_F; T = traces is block diagonal, T_I[u, v] = sum_a
        C[(u, a), (v, a)], so tr Phi_J(g g*) = g^T T conj(g); blocks sums the
        squares of a float view of g into each ||g_I||^2.
        """
        c, n = (self.choi.real if self.dtype == np.float64 else self.choi), sum(self.dims)
        with np.errstate(invalid="ignore", over="ignore"):
            h = c + c.conj().T
            skew, norm = float(np.linalg.norm(c - c.conj().T)), float(np.linalg.norm(c))
            diag = float(np.abs(h.diagonal()).sum())
        beta, *gammas = [k / (2.0 ** 53 - k)  # gamma_k = k u / (1 - k u), u = 2^-53
                         for k in (3 * len(c) + 5, 2 * max(self.dims) ** 2 + 8, 5 * n + 12)]
        if not (math.isfinite(skew + norm + diag) and diag > 0.0):
            return None
        h_diag = h.diagonal().copy()
        for shift in (beta * diag, 8.0 * beta * diag):
            h.flat[:: len(c) + 1] = h_diag + shift
            try:
                np.linalg.cholesky(h)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            return None
        traces, sq = np.zeros((n, n), dtype=self.dtype), np.array(self.dims) ** 2
        for u, at, d in zip(np.cumsum((0,) + self.dims), np.cumsum(sq) - sq, self.dims):
            blk = c[at : at + d * d, at : at + d * d].reshape(d, d, d, d)  # [u, a, v, b]
            traces[u : u + d, u : u + d] = np.trace(blk, axis1=1, axis2=3)
        blocks = np.eye(len(self.dims))[np.repeat(np.arange(len(self.dims)), self.dims)]
        blocks = blocks if self.dtype == np.float64 else np.repeat(blocks, 2, axis=0)
        delta = (shift + beta * (diag + len(c) * shift)) / 2.0
        return delta, skew, norm, traces, blocks, (gammas[0], gammas[1] * max(self.dims) ** 0.5)


def _jordan_setup(prob: LyapunovProblem, order: Order) -> _PairMaps:
    """One decision's Jordan-basis maps, shared by its routes; the caller checks regularity."""
    return _PairMaps(order, prob.spec, prob.element)


def _order_map(prob: LyapunovProblem, order: Order) -> StarLinearMap:
    """L_B inv(L_A) on the whole of A and B, by the one solve L_A^T X^T = L_B^T."""
    spec = prob.spec
    order.require_regular(spec, prob.tol)
    ab = np.stack([build_A(spec), build_bicomm_element(spec, prob.element)])
    la, lb = order.two_sided(ab, ab)
    maps = np.linalg.solve(la.swapaxes(-1, -2), lb.swapaxes(-1, -2)).swapaxes(-1, -2)
    return StarLinearMap(maps, spec.dim, spec.dim, spec.field)


def lyapunov_order_map(prob: LyapunovProblem) -> StarLinearMap:
    """The composite map lyap_B o lyap_A^{-1} built from the problem data."""
    return _order_map(prob, LYAPUNOV)


def stein_order_map(prob: LyapunovProblem) -> StarLinearMap:
    """The composite Stein map stein_B o stein_A^{-1}."""
    return _order_map(prob, STEIN)


def upsilon_selection(spec: JordanSpec) -> tuple[tuple[int, int], ...]:
    """Canonical block selection: first block column of each eigenvalue's leading block.

    Positions index the n x n blocking of the composite matricization in the
    Jordan basis, 0-based.  Per eigenvalue the selection has one entry per
    coefficient slot: the leading Jordan block size, doubled for the 2x2-pair
    eigenvalues of the real field.
    """
    return tuple((b.offset + a, b.offset) for b in leading_blocks(spec) for a in range(b.dim))


def hill_pick_matrix(prob: LyapunovProblem) -> HillPickMatrix:
    """The Hill-Pick matrix: the composite map's Hill matrix at upsilon_selection.

    Over slot groups, each an eigenvalue lam with coefficients t, the complex
    H_c solves J* H + H J = conj(t) E^T + E t^T: J is the direct sum of the
    groups' leading Jordan blocks (lam on the diagonal, 1 above it), t stacks
    their coefficient rows and E marks each group's first slot.  Entry
    ((i, a), (j, b)), a and b below the leading sizes of groups i and j,
    follows from the anti-diagonal above it (terms at a shift of -1 are zero):

        (conj(lam_i) + lam_j) H[(i, a), (j, b)] = conj(t_i[a]) [b = 0] + t_j[b] [a = 0]
                                                  - H[(i, a - 1), (j, b)] - H[(i, a), (j, b - 1)].

    Over the real field this H_c is that of the complexified problem: a pair
    a + ib of leading size s gives the groups (lam, t) and (conj lam, conj t),
    both of size s; real eigenvalues stay as they are.  The real matrix is
    M* H_c M, with M[lam_k, 2k] = M[conj_k, 2k] = 1/2, M[lam_k, 2k + 1] = -i/2
    and M[conj_k, 2k + 1] = i/2 on each pair's 2s real slots (there M = U /
    sqrt(2), U unitary), and M the identity on real eigenvalues.  The result
    is PSD exactly when B Lyapunov dominates A.  A must be Lyapunov regular;
    a non-finite entry (an overflowing division) raises numpy's LinAlgError.
    """
    spec = prob.spec
    LYAPUNOV.require_regular(spec, prob.tol)
    sel = upsilon_selection(spec)
    offsets = tuple(k for k, (row, col) in enumerate(sel) if row == col)  # diagonal blocks
    leads = leading_blocks(spec)
    r, top = len(leads), max(blk.size for blk in leads)
    # Slot a of eigenvalue j: group j (j + r: a pair's conjugate), shift, column of M.
    group, shift, col, paired = np.array([
        (j + r * (a >= blk.size), a % blk.size, off + (1 + blk.pair) * (a % blk.size), blk.pair)
        for j, (off, blk) in enumerate(zip(offsets, leads)) for a in range(blk.dim)]).T
    data = np.array([(e.eigenvalue,) + row + (0,) * (top - len(row))  # group rows: lam, then t
                     for e, row in zip(spec.eigens, prob.element.coeffs)])
    data = np.concatenate((data, data.conj()))
    lam, t, w = data[group, 0], data[group, 1 + shift], len(group)
    up = np.where(shift > 0, np.arange(w) - 1, w)  # the slot one shift up; w: zeros
    first = shift == 0  # E
    rhs = np.outer(t.conj(), first) + np.outer(first, t)  # conj(t) E^T + E t^T
    denom = lam + lam.conj()[:, None]  # lam_j + conj(lam_i)
    h = np.zeros((w + 1, w + 1), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked below
        for _ in range(2 * top - 1):  # on the whole matrix: sweep d settles a + b = d
            h[:w, :w] = (rhs - h[up, :w] - h[:w, up]) / denom
        h = h[:w, :w].copy()
        if spec.field == "real":  # fold back: M* H_c M
            paired, rows = paired.astype(bool), np.arange(w)
            m = np.zeros(h.shape, dtype=np.complex128)
            m[rows, col] = np.where(paired, 0.5, 1.0)
            m[rows[paired], col[paired] + 1] = np.where(group >= r, 0.5j, -0.5j)[paired]
            h = (m.conj().T @ h @ m).real.astype(np.complex128)
    if not np.isfinite(h).all():  # JSON has no NaN or Infinity
        raise np.linalg.LinAlgError("Hill-Pick matrix: non-finite entries")
    return HillPickMatrix(h, sel, offsets, spec.field)


def _apply_groups(groups, which: int, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each group's map which (0: inv(L_A), 1: L_B inv(L_A)) on its slice of the gathered
    vecs v (size, n^2), into out."""
    for start, stop, maps in groups:
        maps = maps[which]
        if maps.ndim == 1:
            np.multiply(v[:, start:stop], maps, out=out[:, start:stop])
        else:  # maps @ vec on (R, C, d_r d_c, size) views
            shape = (len(v),) + maps.shape[:-1]
            np.matmul(maps, v[:, start:stop].reshape(shape).transpose(1, 2, 3, 0),
                      out=out[:, start:stop].reshape(shape).transpose(1, 2, 3, 0))
    return out


def _cone_solutions(
    maps: _PairMaps, count: int, seed: int, s_inv: Optional[np.ndarray] = None,
    screen: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield batches (Y, targets): Y = Phi_J(g' g'*) for random g, g' = inv(S) g.

    Phi_J is the composite cone_B o cone_A^{-1} in A's Jordan basis, so that
    cone(H, B) = S Y S* for the H with cone(H, A) = g g*; no H is formed
    (_pull_back makes it from targets, the rows of g' g'* gathered by
    maps.plan).  g is n normals per trial, 2n (real parts first) when
    maps.dtype is complex128; over the real field it is float64 and so is
    everything else.  Each g becomes inv(S) g (a matvec; g itself when s_inv
    is None), and its g' g'* has L_B inv(L_A) applied block pair by block
    pair (maps.plan: one gather, a product or a stacked matmul per size
    pair, one scatter).  screen takes a batch's rows g' and returns one
    bool per trial: of a batch of two or more, only the trials it declines
    (False) are formed and yielded, in trial order, and nothing when it
    passes them all.  Batches follow _batch_sizes, each one draw from a
    single default_rng(seed) stream, in the order of per-trial draws, so
    trial k sees the same g however the trials are grouped or skipped.
    Every array of a formed batch is made for it: nothing is kept from one
    batch to the next.
    """
    n, k = sum(maps.dims), 1 if maps.dtype == np.float64 else 2
    perm, perm_inverse, groups = maps.plan
    rng = np.random.default_rng(seed)
    for size in _batch_sizes(n, count):
        z = rng.standard_normal((size, k, n)).swapaxes(1, 2)  # z[i, j]: g[i, j], or its (Re, Im)
        g = np.ascontiguousarray(z).view(maps.dtype)[..., 0]
        g = g if s_inv is None else g @ s_inv.T  # rows inv(S) g
        if size > 1 and screen is not None:
            g = g[~screen(g)]  # the trials that screen declines, in order
        if not len(g):
            continue
        targets = np.take((g[:, :, None] * g.conj()[:, None]).reshape(len(g), n * n), perm, axis=1)
        y = _apply_groups(groups, 1, targets, np.empty_like(targets))
        y = np.take(y, perm_inverse, axis=1).reshape(len(g), n, n)
        yield y, targets


def _pull_back(maps: _PairMaps, targets: np.ndarray, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Hermitian H, (size, n, n) of maps.dtype, with cone(H, A) = S W S* per gathered target.

    targets are rows W'.ravel()[perm] as _cone_solutions keeps them, W' = inv(S) W
    inv(S)* (S = I when None): inv(L_A) is applied per block pair, the
    permutation undone, then S Y S* and the Hermitian part are formed.
    """
    _, perm_inverse, groups = maps.plan
    h = _apply_groups(groups, 0, targets, np.empty_like(targets))
    h = h[:, perm_inverse].reshape((len(h),) + (sum(maps.dims),) * 2)
    h = h if s is None else s @ h @ s.conj().T
    return (h + h.conj().swapaxes(-1, -2)) * 0.5


def _choi_screen(setup: _PairMaps, g: np.ndarray, scale, tol: Tolerances) -> np.ndarray:
    """One bool per trial: True only if psd_report would neither read "no" nor raise on its cone.

    g holds a batch's rows g' = inv(S) g; its cones, not formed here, are
    fl(fl(S Y) S*) (fl(Y) without P) for Y = fl(Phi_J(g' g'*)) as formed by
    _cone_solutions.  scale is _congruence_scale's (hi, lo, rho), (1, 1, 0)
    without P.  With C the support Choi matrix, indexed (u, a), u and a in
    one block I, Phi_J(g g*) = V* C V for V = (+)_I (conj g_I (x) I_{d_I}),
    and V* V = (+)_I ||g_I||^2 I.  Per trial, with m = max_I ||g'_I||^2,
    setup.certificate's (delta, skew, norm, T, .., (gy, gt)) and k = max d_I^2:

        r   = gy m norm,  gy = gamma_{2k+8}   >= ||fl(Y) - V* C V||_F (fl(g' g'*),
                                                 then products of k terms of C),
        e   = rho (m norm + r)                >= the congruence's rounding,
        tau = |Re g'^T T conj(g')| - gt n m norm <= |tr Herm(V* C V)| (gt =
              sqrt(max d_I) gamma_{5n+12}), and f = max(lo tau / n - hi r - e, 0).

    A trial passes when it meets (1) hi (m skew + 2 r) + 2 e <= eq_rel
    (1 + f) / 2, (2) hi (m delta + r) + e <= b / 2 with b = psd_rel (1 + f),
    and (3) hi (m norm + r) + e <= 2^499; psd_rel >= 8 n (n + 1) eps.
    Proof, by Ostrowski's theorem (S X S* has the eigenvalues of X, each
    times a factor in [lo, hi]): V* Herm(C) V >= -m delta I, so the cone's
    Hermitian part is >= -(hi (m delta + r) + e) I >= -b / 2 by (2).  Its
    max |lambda| >= lo |tr Herm(V* C V)| / n - hi r - e >= f, so
    psd_report's band, psd_rel (1 + max |lambda|), is at least b up to its
    rounding.  psd_report rounds each entry of a + a* once, and eigvalsh
    is backward stable: its eigenvalues are those of a matrix within about
    n (n + 1) u ||H||_2 of H (Householder reduction, then QR; Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 19).  As
    psd_rel >= 8 n (n + 1) eps = 16 n (n + 1) u, the two move eigenvalues
    by under an eighth of the band: no "no".  The cone's ||X - X*||_F <=
    hi (m skew + 2 r) + 2 e and ||X||_F >= f, so (1) leaves a factor 2
    under psd_report's Hermitian limit: no NotHermitianError; (3) bounds
    ||X||_F: no overflow, no LinAlgError.  A non-finite term fails its
    comparison.  Without a certificate, with a non-finite scale or with
    psd_rel < 8 n (n + 1) eps, every trial is declined.  False proves
    nothing.
    """
    n, (hi, lo, rho) = g.shape[-1], scale
    cert = setup.certificate if tol.psd_rel >= 8 * n * (n + 1) * np.finfo(np.float64).eps else None
    if cert is None or not math.isfinite(hi + lo + rho):
        return np.zeros(len(g), dtype=bool)
    delta, skew, norm, traces, blocks, (gamma_y, gamma_t) = cert
    r, e = gamma_y * norm, rho * norm * (1.0 + gamma_y)  # r and e per unit of m
    need = 2.0 * max((hi * (skew + 2.0 * r) + 2.0 * e) / tol.eq_rel,  # (1) and (2), over 1 + f
                     (hi * (delta + r) + e) / tol.psd_rel)
    with np.errstate(invalid="ignore", over="ignore"):
        x = g.view(np.float64)  # Re g' g'* and Re g'^T T conj(g') are sums over (re, im) pairs
        m = (np.square(x) @ blocks).max(axis=1)
        f = lo / n * np.abs(((g @ traces).view(np.float64) * x).sum(axis=1)) - (
            hi * r + e + lo * gamma_t * norm) * m
        return (m * need <= 1.0 + np.maximum(f, 0.0)) & (m * (hi * (norm + r) + e) <= 2.0 ** 499)


def _congruence_scale(s: np.ndarray) -> tuple[float, float, float]:
    """_choi_screen's scale (hi, lo, rho) for the oracle's congruence S, n x n.

    hi and lo bound ||S||_2^2 and sigma_min(S)^2 from the eigenvalues of
    fl(S* S), which lie within slack = 4 n eps ||S||_F^2 of sigma(S)^2: the
    product errs by at most gamma_{3n} ||S||_F^2 in norm and eigvalsh's
    backward error is a small multiple of eps ||S* S||_2.  rho bounds the
    rounding of the oracle's fl(fl(S Y) S*): each matmul errs entrywise by
    at most g |S| |Y| (g = gamma_{3n} covers gamma_n in real and sqrt(2)
    gamma_{2n} in complex arithmetic, Higham 2002, 3.6), so with f >=
    ||S||_F the error is at most g f (2 ||S||_2 + g f) ||Y||_F.
    """
    n, eps = len(s), float(np.finfo(np.float64).eps)
    gram = (s.conj().T @ s).astype(np.complex128, copy=False)  # psd_report's LAPACK path
    squares = np.linalg.eigvalsh(gram)
    fro2 = float(np.vdot(s, s).real) * (1.0 + n * n * eps)  # >= ||S||_F^2
    slack = 4 * n * eps * fro2
    hi, lo = float(squares[-1]) + slack, max(float(squares[0]) - slack, 0.0)
    g = 1.5 * n * eps / (1.0 - 1.5 * n * eps)
    f = math.sqrt(fro2)
    return hi, lo, g * f * (2.0 * math.sqrt(hi) + g * f)


def _require_trials(trials: int) -> None:
    if int(trials) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def domination_oracle(
    prob: LyapunovProblem, trials: int = 1000, seed: int = 0, order: Order = LYAPUNOV,
    setup: Optional[_PairMaps] = None,
) -> tuple[str, Optional[np.ndarray]]:
    """Brute-force check of the order on sampled cone elements of A.

    Each trial draws H with cone(H, A) = g g*, a random extreme ray of the PSD
    cone (H A + A* H for the Lyapunov order, H - A H A* for Stein), and tests
    whether cone(H, B) fails the PSD test outright ("no", beyond the tolerance
    band).  Returns ("violation", H) at the first failure, otherwise
    ("consistent", None); consistency is evidence, not proof.  cone(H, B) =
    S Y S*, with Y = Phi_J(W') the composite cone_B o cone_A^{-1} applied in
    A's Jordan basis to W' = g' g'*, g' = inv(S) g, in _cone_solutions'
    batches: one trial, then full batches.  Each trial is a congruence of
    the support Choi matrix C, Phi_J(g' g'*) = V(g')* C V(g'), so a trial
    of a batch of two or more is passed from its draw alone when
    _choi_screen (C's certificate from setup and the congruence's scale,
    each made once, at the first such batch) proves that psd_report would
    read no "no" and raise nothing on its cone; no Y is formed for it.  The
    first trial and each trial that screen declines have Y and then S Y S*
    formed, in arrays of their own (two matmuls), and are PSD-tested, in
    trial order, up to the first "no", so the first violation, its witness
    (_pull_back of that trial's target, the one place inv(L_A) is applied)
    and any NotHermitianError are those of a per-trial loop.  Without P,
    S = I and Y is the cone.  Real-field trials run in float64
    (setup.dtype); the witness is complex128 either way.  setup is this
    order's _jordan_setup, built (after the regularity check) when not
    given.  A must be regular for the order, trials >= 1.
    """
    _require_trials(trials)
    spec = prob.spec
    if setup is None:
        order.require_regular(spec, prob.tol)
        setup = _jordan_setup(prob, order)
    p, s, s_inv = spec.similarity, None, None
    if p is not None:  # real S and inv(S) for the real field: float64 copies
        s, s_inv = order.congruence(p, np.linalg.solve(p, np.eye(len(p))))
        s, s_inv = (s.real.copy(), s_inv.real.copy()) if setup.dtype == np.float64 else (s, s_inv)
    scale = cache(lambda: (1.0, 1.0, 0.0) if s is None else _congruence_scale(s))
    batches = _cone_solutions(setup, int(trials), seed, s_inv,
                              lambda g: _choi_screen(setup, g, scale(), prob.tol))
    for ys, targets in batches:
        cones = ys if s is None else s @ ys @ s.conj().T  # S Y S* in A's basis
        for k, cone in enumerate(cones):
            if psd_report(cone, prob.tol)[0] == "no":  # this trial's H, from its target
                return "violation", _pull_back(setup, targets[k : k + 1], s)[0].astype(complex)
    return "consistent", None


def _decide(prob: LyapunovProblem, order: Order, trials: int, seed: int) -> DominationReport:
    """Either order's decision: each route once, then one agreement rule.

    Trials, then regularity (once: hill_pick_matrix checks it for
    Lyapunov), the Hill-Pick route (Lyapunov only), one _jordan_setup, the
    Choi route and the oracle.  The verdict is the first matrix route's.  No
    route may read "yes" while another reads "no"; the oracle reads "no" at
    a violation, nothing when consistent (evidence, not proof).
    """
    _require_trials(trials)
    hp = hill_pick_matrix(prob) if order is LYAPUNOV else None
    if hp is None:  # hill_pick_matrix has checked Lyapunov regularity
        order.require_regular(prob.spec, prob.tol)
    routes = [psd_report(hp.matrix, prob.tol)] if hp is not None else []
    setup = _jordan_setup(prob, order)
    routes.append(psd_report(setup.choi, prob.tol))
    status, witness = domination_oracle(prob, trials, seed, order, setup)
    verdicts = {verdict for verdict, _ in routes} | ({"no"} if status == "violation" else set())
    return DominationReport(
        verdict=_VERDICT[routes[0][0]],
        hill_pick_min_eig=None if hp is None else routes[0][1],
        choi_min_eig=routes[-1][1],
        oracle_status=status, oracle_witness=witness,
        methods_agree=not {"yes", "no"} <= verdicts,
        hill_pick=hp,
        oracle_trials=int(trials),
        seed=int(seed),
    )


def check_domination(
    prob: LyapunovProblem, oracle_trials: int = 1000, seed: int = 0
) -> DominationReport:
    """Decide Lyapunov domination by three routes (see _decide).

    The verdict comes from the Hill-Pick matrix.  The Choi PSD test of the
    composite map, in A's Jordan basis on its support, and the sampling
    oracle, which gives a witness when domination fails, cross-check it: a
    "yes" against a "no" (an oracle violation reads "no") indicates a bug,
    not a borderline instance, and sets methods_agree false.

    One limit: agreement is vacuous when a matrix route reads "marginal"
    and the oracle finds nothing.  The support Choi matrix (of rank the
    Hill-Pick size) reads "marginal" on dominators with a Jordan block of
    size > 1 or an eigenvalue with two or more blocks.
    """
    return _decide(prob, LYAPUNOV, oracle_trials, seed)


def stein_domination(
    prob: LyapunovProblem, oracle_trials: int = 1000, seed: int = 0
) -> DominationReport:
    """Stein-order analogue of :func:`check_domination`.

    The verdict is the Choi PSD test of the composite Stein map (this order
    has no Hill-Pick route); the sampling oracle draws H with H - A H A* PSD
    and tests H - B H B*.
    """
    return _decide(prob, STEIN, oracle_trials, seed)
