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

from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    frob,
    gaussian,
    kron,
    psd_report,
    unvec,
    vec,
)

__all__ = [
    "StarLinearMap",
    "BlockSeparableMap",
    "identity_map",
    "kraus_map",
    "apply_map",
    "choi_matrix",
    "map_from_choi",
    "is_star_linear",
    "entry_symmetry_holds",
    "is_completely_positive",
    "positivity_sample_test",
    "compose",
]


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


def identity_map(n: int, field: str = "complex") -> StarLinearMap:
    return StarLinearMap(np.eye(n * n, dtype=np.complex128), n, n, field)


def kraus_map(operators, field: str = "complex") -> StarLinearMap:
    """The completely positive map V -> sum_k X_k V X_k* for given X_k."""
    ops = [as_matrix(x) for x in operators]
    if not ops:
        raise ValueError("at least one operator is required")
    n, q = ops[0].shape
    if any(x.shape != (n, q) for x in ops):
        raise ValueError("all operators must share one shape")
    m = sum(kron(x.conj(), x) for x in ops)
    return StarLinearMap(m, n, q, field)


def apply_map(m: StarLinearMap, v) -> np.ndarray:
    """Evaluate the map on a q x q matrix."""
    w = as_matrix(v)
    if w.shape != (m.in_dim, m.in_dim):
        raise ValueError(f"input must be {m.in_dim}x{m.in_dim}, got {w.shape}")
    return unvec(m.matrix @ vec(w), m.out_dim, m.out_dim)


def choi_matrix(m: StarLinearMap | BlockSeparableMap) -> np.ndarray:
    """Choi matrix of the map: an index permutation of the matricization, taken
    on its support for a :class:`BlockSeparableMap`."""
    if isinstance(m, BlockSeparableMap):
        return m.support_choi()
    n, q = m.out_dim, m.in_dim
    # Entry bookkeeping: Choi[u*n+a, v*n+b] = matrix[b*n+a, v*q+u].
    l4 = m.matrix.reshape(n, n, q, q)
    return l4.transpose(3, 1, 2, 0).reshape(n * q, n * q)


def map_from_choi(bl, n: int, q: int, field: str = "complex") -> StarLinearMap:
    """Rebuild a map from its Choi matrix (inverse permutation of choi_matrix)."""
    b = as_matrix(bl)
    if b.shape != (n * q, n * q):
        raise ValueError(f"Choi matrix must be {n * q}x{n * q}, got {b.shape}")
    c4 = b.reshape(q, n, q, n)
    return StarLinearMap(c4.transpose(3, 1, 2, 0).reshape(n * n, q * q), n, q, field)


def is_star_linear(m: StarLinearMap, tol: Tolerances | None = None) -> bool:
    """True when the Choi matrix is Hermitian within eq_rel (adjoint-preserving map)."""
    tol = tol or DEFAULT_TOLERANCES
    c = choi_matrix(m)
    return float(np.linalg.norm(c - c.conj().T)) <= tol.eq_rel * (1.0 + frob(c))


def entry_symmetry_holds(m: StarLinearMap, tol: Tolerances | None = None) -> bool:
    """Equivalent matricization-level test: L[i*n+k, j*q+l] == conj(L[k*n+i, l*q+j])."""
    tol = tol or DEFAULT_TOLERANCES
    n, q = m.out_dim, m.in_dim
    l4 = m.matrix.reshape(n, n, q, q)
    mirrored = l4.transpose(1, 0, 3, 2).conj()
    return float(np.linalg.norm((l4 - mirrored).ravel())) <= tol.eq_rel * (
        1.0 + frob(m.matrix)
    )


def is_completely_positive(m: StarLinearMap, tol: Tolerances | None = None) -> str:
    """PSD verdict of the Choi matrix; requires a *-linear map."""
    tol = tol or DEFAULT_TOLERANCES
    if not is_star_linear(m, tol):
        raise ValueError("complete positivity is only defined for *-linear maps here")
    return psd_report(choi_matrix(m), tol)[0]


def positivity_sample_test(
    m: StarLinearMap,
    trials: int = 1000,
    seed: int = 0,
    tol: Tolerances | None = None,
):
    """Randomized refutation of positivity.

    Draws Gaussian pairs (z, x) and tests the quadratic form of the Choi
    matrix at z (x) x, i.e. the map evaluated on a rank-one PSD input.
    Returns a violating pair (z, x) when the form drops below the psd_rel
    band, and None otherwise: sampling can refute positivity, never certify
    it.  Real-field maps are probed with real vectors only.
    """
    tol = tol or DEFAULT_TOLERANCES
    if not is_star_linear(m, tol):
        raise ValueError("positivity test needs a *-linear map")
    c = choi_matrix(m)
    if c.size == 0:
        return None
    spectral = float(np.abs(np.linalg.eigvalsh((c + c.conj().T) / 2.0)).max())
    floor = -tol.psd_rel * (1.0 + spectral)
    rng = np.random.default_rng(seed)
    for _ in range(int(trials)):
        z = gaussian(rng, m.in_dim, m.field)
        x = gaussian(rng, m.out_dim, m.field)
        v = np.kron(z, x)
        value = float((v.conj() @ c @ v).real)
        if value < floor:
            return z, x
    return None


def compose(first: StarLinearMap, then: StarLinearMap) -> StarLinearMap:
    """The map V -> then(first(V)); matricization is then.matrix @ first.matrix."""
    if first.out_dim != then.in_dim:
        raise ValueError(
            f"cannot compose: first map produces {first.out_dim}x{first.out_dim}, "
            f"second expects {then.in_dim}x{then.in_dim}"
        )
    field = "real" if first.field == then.field == "real" else "complex"
    return StarLinearMap(then.matrix @ first.matrix, then.out_dim, first.in_dim, field)
