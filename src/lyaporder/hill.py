"""Hill representations of *-linear maps, and the closed-form rank witness.

A Hill representation writes a *-linear map as

    L(V) = sum_{k,l} H[k, l] * A_l @ V @ A_k*

for matrices A_1..A_r in F^{n x q} and a Hermitian coefficient matrix H.
Equivalently, with Ahat the r-by-nq matrix whose k-th row is vec(A_k)*,

    matricization = sum_{k,l} H[k, l] * kron(conj(A_k), A_l)
    choi          = Ahat* @ H.T @ Ahat.

The representation is minimal when r equals the rank of the Choi matrix; the
A_k are then a basis of the span of the n x q blocks of the matricization
and the map is completely positive iff H is positive definite.  Non-minimal
representations built from a spanning block selection with pinned expansion
coefficients keep "completely positive iff H PSD" and satisfy
rank(H) == rank(choi) even when H is singular.  The Hill-Pick matrix is the
Lyapunov composite's Hill matrix for Toeplitz shift factors.

Positivity of a map upgrades to complete positivity whenever some vector z
makes Ahat @ kron(z, I_n) have full row rank (or some x does the same for
Ahat @ kron(I_q, x)).  For maps whose block span sits inside a triangular
Toeplitz algebra attached to Jordan data, such witnesses exist in closed
form (_structured_candidate): an indicator of the first (respectively last)
position of every Jordan block, transported through the similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jordan import JordanSpec, inner_blocks
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .starmaps import StarLinearMap, is_star_linear

__all__ = [
    "HillRep",
    "matricization_blocks",
    "hill_at_selection",
    "minimal_hill_from_blocks",
    "nonminimal_hill",
]


@dataclass(eq=False)
class HillRep:
    """One Hill representation: factors A_k, coefficient matrix H, block selection."""

    factors: list[np.ndarray]
    hill: np.ndarray
    selection: tuple[tuple[int, int], ...]
    minimal: bool
    out_dim: int
    in_dim: int
    field: str = "complex"
    choi_rank: int | None = None  # as the constructors below measure it; None when built by hand

    @property
    def size(self) -> int:
        return len(self.factors)


def matricization_blocks(m: StarLinearMap) -> np.ndarray:
    """View the matricization as an (n, q) grid of n x q blocks.

    Returns a 4-D array b with b[i, j] the (i, j) block, i.e.
    b[i, j, k, l] == matrix[i*n + k, j*q + l].
    """
    n, q = m.out_dim, m.in_dim
    return m.matrix.reshape(n, n, q, q).transpose(0, 2, 1, 3)


def _blocks_and_rank(m: StarLinearMap, tol: Tolerances) -> tuple[np.ndarray, float, int]:
    """The blocks of a *-linear m (ValueError otherwise), then sigma_max and the rank of their
    stack: a row and column permutation of the Choi matrix, so this one SVD is its rank."""
    if not is_star_linear(m, tol):
        raise ValueError("Hill representations require a *-linear map")
    blocks, nq = matricization_blocks(m), m.out_dim * m.in_dim
    svals = np.linalg.svd(blocks.reshape(nq, nq), compute_uv=False)
    sigma_max = float(svals[0]) if svals.size else 0.0
    return blocks, sigma_max, int(np.count_nonzero(svals > tol.rank_rel * sigma_max))


def _greedy_selection(blocks: np.ndarray, n: int, q: int, threshold: float):
    """Row-major scan keeping each block whose residual (Gram-Schmidt) exceeds threshold."""
    selection: list[tuple[int, int]] = []
    ortho: list[np.ndarray] = []
    for i in range(n):
        for j in range(q):
            r = blocks[i, j].flatten()
            for u in ortho * 2:  # two passes for numerical orthogonality
                r -= (u.conj() @ r) * u
            norm = float(np.linalg.norm(r))
            if norm > threshold:
                selection.append((i, j))
                ortho.append(r / norm)
    return selection


def _expansion_coefficients(blocks, selection, n, q, eq_rel, error=ValueError):
    """Least-squares expansion of every block over the selected ones, pinned.

    Returns alpha of shape (r, n*q) with column i*q+j holding the expansion of
    block (i, j); the column of each selected position is forced to the
    corresponding unit vector, which is always a valid expansion of itself.
    A selection that does not span every block raises error.
    """
    r = len(selection)
    basis = np.array([blocks[i, j].ravel() for (i, j) in selection]).T  # (nq, r)
    targets = blocks.reshape(n * q, n * q).T                            # (nq, n*q)
    if r == 0:
        if float(np.abs(targets).max(initial=0.0)) > 0.0:
            raise error("empty selection cannot span a nonzero map")
        return np.zeros((0, n * q), dtype=np.complex128)
    alpha, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    residual = basis @ alpha - targets
    norms = np.linalg.norm(targets, axis=0)
    bad = np.linalg.norm(residual, axis=0) > eq_rel * (1.0 + norms)
    if np.any(bad):
        flat = int(np.flatnonzero(bad)[0])
        raise error(
            f"selection does not span block ({flat // q}, {flat % q}) within tolerance"
        )
    for k, (i, j) in enumerate(selection):
        alpha[:, i * q + j] = 0.0
        alpha[k, i * q + j] = 1.0
    return alpha


def _factors_from_alpha(alpha, n, q):
    # A_k[i, j] = conj(alpha_k for block (i, j)); columns are ordered i*q + j.
    return [a.conj().reshape(n, q) for a in alpha]


def hill_at_selection(blocks: np.ndarray, selection) -> np.ndarray:
    """Matricization entries read at a block selection: H[k, l] = blocks[s_k][s_l].

    Entry (k, l) is the entry at in-block position selection[l] of the block
    at selection[k], for blocks as returned by :func:`matricization_blocks`.
    """
    rows, cols = np.array(selection, dtype=int).reshape(-1, 2).T
    return blocks[rows[:, None], cols[:, None], rows[None, :], cols[None, :]]


def minimal_hill_from_blocks(m: StarLinearMap, tol: Tolerances | None = None) -> HillRep:
    """Minimal Hill representation from a greedy independent block selection.

    One SVD gives the Choi rank and the greedy's threshold rank_rel * sigma_max
    (_blocks_and_rank).  The greedy, scanning row-major, must keep exactly rank-many
    blocks, and they must span every block: either failing is numerical and
    raises numpy's LinAlgError (a map that is not *-linear raises ValueError).
    Every block is expanded over the kept ones, and the Hill matrix is read
    directly off the matricization entries at the selected positions:
    H[k, l] is the (i_l, j_l) entry of the block at (i_k, j_k).
    """
    tol = tol or DEFAULT_TOLERANCES
    blocks, sigma_max, rank = _blocks_and_rank(m, tol)
    n, q = m.out_dim, m.in_dim
    selection = _greedy_selection(blocks, n, q, tol.rank_rel * sigma_max)
    if len(selection) != rank:
        raise np.linalg.LinAlgError(f"greedy block selection keeps {len(selection)} blocks, "
                                    f"the Choi rank is {rank}")
    alpha = _expansion_coefficients(blocks, selection, n, q, tol.eq_rel, np.linalg.LinAlgError)
    factors = _factors_from_alpha(alpha, n, q)
    h = hill_at_selection(blocks, selection)
    return HillRep(factors, h, tuple(selection), True, n, q, m.field, rank)


def nonminimal_hill(
    m: StarLinearMap, selection, tol: Tolerances | None = None
) -> HillRep:
    """Hill representation for an arbitrary spanning block selection.

    The selection (distinct block positions, possibly with repeated values
    and r > rank(choi)) must span all blocks of the matricization.  Expansion
    coefficients are pinned so that each selected block expands as itself;
    the resulting H is Hermitian with rank equal to the Choi rank, and the
    map is completely positive iff H is PSD.
    """
    tol = tol or DEFAULT_TOLERANCES
    blocks, _, rank = _blocks_and_rank(m, tol)
    n, q = m.out_dim, m.in_dim
    selection = [(int(i), int(j)) for i, j in selection]
    for i, j in selection:
        if not (0 <= i < n and 0 <= j < q):
            raise ValueError(f"block index ({i}, {j}) outside the {n}x{q} grid")
    if len(set(selection)) != len(selection):
        raise ValueError("selection must not repeat block positions")
    alpha = _expansion_coefficients(blocks, selection, n, q, tol.eq_rel)
    factors = _factors_from_alpha(alpha, n, q)
    # Pinned coefficients: H[k, l] = conj(blocks[s_l][s_k]), equal to
    # blocks[s_k][s_l] for a *-linear map.
    h = hill_at_selection(blocks, selection).T.conj()
    return HillRep(factors, h, tuple(selection), len(selection) == rank, n, q, m.field, rank)


# --------------------------------------------------------------------------
# Closed-form witness: a vector making the bilinear evaluation of Ahat surjective.
# --------------------------------------------------------------------------


def _indicator(spec: JordanSpec, last: bool) -> np.ndarray:
    """Indicator of the first (or last usable) position of every Jordan block.

    For the 2x2-pair blocks of the real field the "last" position is the
    next-to-last row, matching the triangular Toeplitz structure of the pair
    algebra.
    """
    z = np.zeros(spec.dim, dtype=np.complex128)
    for blk in inner_blocks(spec):
        if not last:
            z[blk.offset] = 1.0
        elif blk.pair:
            z[blk.offset + blk.dim - 2] = 1.0
        else:
            z[blk.offset + blk.dim - 1] = 1.0
    return z


def _structured_candidate(spec: JordanSpec, kind: str) -> np.ndarray:
    """Closed-form witness for maps whose block span lives in the bicommutant
    algebra of the adjoint of A (lower-triangular Toeplitz in the Jordan
    basis), transported through the similarity."""
    p = spec.similarity
    if kind == "c1":
        z0 = _indicator(spec, last=False)
        v = z0 if p is None else np.linalg.solve(p.conj().T, z0)
        return v.conj()
    x0 = _indicator(spec, last=True)
    return x0 if p is None else p @ x0
