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
from .linalg import DEFAULT_TOLERANCES, Tolerances, rank_tol
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


def _blocks_and_rank(m: StarLinearMap, tol: Tolerances) -> tuple[np.ndarray, int]:
    """The blocks of a *-linear m (ValueError otherwise) and the rank of their stack: a row
    and column permutation of the Choi matrix, so this one SVD is its rank."""
    if not is_star_linear(m, tol):
        raise ValueError("Hill representations require a *-linear map")
    blocks, nq = matricization_blocks(m), m.out_dim * m.in_dim
    return blocks, rank_tol(blocks.reshape(nq, nq), tol)


def _pivoted_selection(blocks: np.ndarray, rank: int) -> list[tuple[int, int]]:
    """rank blocks by Gram-Schmidt, largest residual first, listed row-major."""
    n, q = blocks.shape[:2]
    residual, picked = blocks.reshape(n * q, -1).copy(), []
    for _ in range(rank):
        k = int(np.argmax(np.linalg.norm(residual, axis=1)))
        u = residual[k] / np.linalg.norm(residual[k])
        for _ in range(2):  # two passes for numerical orthogonality
            residual -= np.outer(residual @ u.conj(), u)
        picked.append(k)
    return [divmod(k, q) for k in sorted(picked)]


def hill_at_selection(blocks: np.ndarray, selection) -> np.ndarray:
    """Matricization entries read at a block selection: H[k, l] = blocks[s_k][s_l].

    Entry (k, l) is the entry at in-block position selection[l] of the block
    at selection[k], for blocks as returned by :func:`matricization_blocks`.
    """
    rows, cols = np.array(selection, dtype=int).reshape(-1, 2).T
    return blocks[rows[:, None], cols[:, None], rows[None, :], cols[None, :]]


def _hill(m: StarLinearMap, selection, tol: Tolerances | None, error) -> HillRep:
    """Hill representation at a spanning block selection (None: a pivoted pick of rank(choi)).

    Every block is expanded over the selected ones by least squares, and the
    column of each selected block is pinned to its unit vector; a block that
    the selection does not span within eq_rel raises error.  The span test is
    relative to min(1, largest block norm) + the block's norm, so it rejects
    the same selections of c * m for every small c > 0.  With A_k[i, j] the
    conjugate of block (i, j)'s k-th coefficient, H[k, l] = conj(blocks[s_l][s_k]),
    which is blocks[s_k][s_l] for a *-linear map.
    """
    tol = tol or DEFAULT_TOLERANCES
    blocks, rank = _blocks_and_rank(m, tol)
    n, q = m.out_dim, m.in_dim
    if selection is None:
        selection = _pivoted_selection(blocks, rank)
    stack = blocks.reshape(n * q, n * q)  # row i*q + j is block (i, j)
    basis = stack[[i * q + j for i, j in selection]].T
    alpha = np.linalg.lstsq(basis, stack.T, rcond=None)[0]
    norms = np.linalg.norm(stack, axis=1)
    bad = np.linalg.norm(basis @ alpha - stack.T, axis=0) > tol.eq_rel * (
        min(1.0, norms.max(initial=0.0)) + norms)
    if np.any(bad):
        i, j = divmod(int(np.flatnonzero(bad)[0]), q)
        raise error(f"selection does not span block ({i}, {j}) within tolerance")
    for k, (i, j) in enumerate(selection):
        alpha[:, i * q + j] = 0.0
        alpha[k, i * q + j] = 1.0
    factors = [a.conj().reshape(n, q) for a in alpha]
    h = hill_at_selection(blocks, selection).T.conj()
    return HillRep(factors, h, tuple(selection), len(selection) == rank, n, q, m.field, rank)


def minimal_hill_from_blocks(m: StarLinearMap, tol: Tolerances | None = None) -> HillRep:
    """Minimal Hill representation at a pivoted selection of rank(choi) blocks.

    A selection that does not span every block is a numerical failure and
    raises numpy's LinAlgError (a map that is not *-linear raises ValueError).
    """
    return _hill(m, None, tol, np.linalg.LinAlgError)


def nonminimal_hill(m: StarLinearMap, selection, tol: Tolerances | None = None) -> HillRep:
    """Hill representation for a caller's spanning block selection (ValueError otherwise).

    The selection (distinct block positions, possibly with repeated values
    and r > rank(choi)) must span all blocks of the matricization.  Pinned
    expansion coefficients make H Hermitian with rank equal to the Choi rank,
    and the map completely positive iff H is PSD.
    """
    selection = [(int(i), int(j)) for i, j in selection]
    for i, j in selection:
        if not (0 <= i < m.out_dim and 0 <= j < m.in_dim):
            raise ValueError(f"block index ({i}, {j}) outside the {m.out_dim}x{m.in_dim} grid")
    if len(set(selection)) != len(selection):
        raise ValueError("selection must not repeat block positions")
    return _hill(m, selection, tol, ValueError)


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
