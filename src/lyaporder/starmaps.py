"""Linear matrix maps F^{q x q} -> F^{n x n} stored by their matricization.

A map L is kept as the n^2-by-q^2 matrix acting on column-stacked inputs:
``matrix @ vec(V) == vec(L(V))``.  Composition is then plain matrix product,
which is why the matricization (rather than the Choi matrix) is the primary
representation; the Choi matrix is an index permutation away and is derived
on demand.

Conventions, fixed once for the whole package:

* Choi matrix: the nq-by-nq block matrix whose (i, j) block of size n x n is
  the image of the (i, j) unit matrix of F^{q x q}.
* A map is *-linear (preserves adjoints) iff its Choi matrix is Hermitian,
  iff the matricization satisfies the entry symmetry
  L[i*n+k, j*q+l] == conj(L[k*n+i, l*q+j]).
* Complete positivity == Choi matrix PSD.  Plain positivity (PSD inputs map
  to PSD outputs) is equivalent to (z (x) x)^* Choi (z (x) x) >= 0 for all
  vectors, which sampling can refute but never certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOLERANCES, Tolerances, as_matrix, frob

__all__ = ["StarLinearMap", "BlockSeparableMap", "choi_matrix", "is_star_linear"]


@dataclass(eq=False)
class StarLinearMap:
    """A linear matrix map as its matricization plus dimensions and field."""

    matrix: np.ndarray
    out_dim: int
    in_dim: int
    field: str = "complex"

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix)
        n, q = int(self.out_dim), int(self.in_dim)
        if self.matrix.shape != (n * n, q * q):
            raise ValueError(
                f"matricization must be {n * n}x{q * q}, got {self.matrix.shape}"
            )
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.field == "real":
            drift = np.abs(self.matrix.imag).max(initial=0.0)
            if drift > 1e-12 * (1.0 + frob(self.matrix)):
                raise ValueError("real field: matricization has non-real entries")
            self.matrix = self.matrix.real.astype(np.complex128)


@dataclass(eq=False)
class BlockSeparableMap:
    """A map sending each d_I x d_J block X_IJ of its input into the same block.

    dims are the diagonal block sizes.  pairs holds a (rows, cols, maps) triple
    per pair of block sizes, maps[k, l] being the matricization on the block
    (rows[k], cols[l]).  The Choi matrix vanishes outside the indices (u, a)
    with u and a in one block; support_choi is it on there, of size sum(d_I^2).
    """

    dims: tuple[int, ...]
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def support_choi(self) -> np.ndarray:
        sq = np.array(self.dims) ** 2
        start, out = np.cumsum(sq) - sq, np.zeros((sq.sum(), sq.sum()), dtype=np.complex128)
        for rows, cols, maps in self.pairs:
            di, dj = self.dims[rows[0]], self.dims[cols[0]]
            # Block (I, J): Choi[(u, a), (v, b)] = maps[b*di + a, v*di + u].
            c = maps.reshape(len(rows), len(cols), dj, di, dj, di).transpose(0, 1, 5, 3, 4, 2)
            r = start[rows][:, None, None, None] + np.arange(di * di)[:, None]
            s = start[cols][None, :, None, None] + np.arange(dj * dj)
            out[r, s] = c.reshape(len(rows), len(cols), di * di, dj * dj)
        return out


def choi_matrix(m: StarLinearMap | BlockSeparableMap) -> np.ndarray:
    """Choi matrix of the map: an index permutation of the matricization, taken
    on its support for a :class:`BlockSeparableMap`."""
    if isinstance(m, BlockSeparableMap):
        return m.support_choi()
    n, q = m.out_dim, m.in_dim
    # Entry bookkeeping: Choi[u*n+a, v*n+b] = matrix[b*n+a, v*q+u].
    l4 = m.matrix.reshape(n, n, q, q)
    return l4.transpose(3, 1, 2, 0).reshape(n * q, n * q)


def is_star_linear(m: StarLinearMap, tol: Tolerances | None = None) -> bool:
    """True when the Choi matrix is Hermitian within eq_rel (adjoint-preserving map)."""
    tol = tol or DEFAULT_TOLERANCES
    c = choi_matrix(m)
    return float(np.linalg.norm(c - c.conj().T)) <= tol.eq_rel * (1.0 + frob(c))
