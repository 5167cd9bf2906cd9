"""Jordan data for a matrix A and the block-Toeplitz form of its bicommutant.

A is always specified *by* its Jordan data (eigenvalues, block sizes and an
optional similarity), never recovered from a raw matrix: numerical Jordan
decomposition is ill-posed.  Over the reals, a non-real eigenvalue a+ib is
listed once with b > 0 and contributes 2x2 rotation-like blocks

    C(a+ib) = [[a, b], [-b, a]],

its conjugate partner being implicit.

A matrix B commutes with everything that commutes with A (i.e. lies in the
bicommutant of A) exactly when, in the Jordan basis, it is block diagonal
with one upper-triangular Toeplitz block per Jordan block and the Toeplitz
coefficients shared across all Jordan blocks of the same eigenvalue.  That
coefficient data is the :class:`BicommElement`; raw matrices can be checked
against the pattern and their coefficients extracted.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .linalg import DEFAULT_TOLERANCES, Tolerances, as_matrix, block_diag, frob, rank_tol

__all__ = [
    "EigenBlock",
    "JordanSpec",
    "BicommElement",
    "InnerBlock",
    "MembershipResult",
    "MAX_BLOCK_SIZE",
    "inner_blocks",
    "leading_blocks",
    "eigenvalue_list",
    "bicomm_blocks",
    "jordan_blocks",
    "from_jordan_basis",
    "build_JA",
    "build_A",
    "validate_bicomm_element",
    "build_bicomm_jordan",
    "build_bicomm_element",
    "check_bicomm_membership",
]

# The largest Jordan block accepted; domination sizes its shift tables (_E0,
# _OFFSETS) by it.  Larger blocks mean little in float64: a perturbation of
# relative size u moves a size-s block's eigenvalue by about u^(1/s), 0.3 at 30.
MAX_BLOCK_SIZE = 30


@dataclass(frozen=True)
class EigenBlock:
    """One distinct eigenvalue with its Jordan block sizes (nonincreasing)."""

    eigenvalue: complex
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not np.isfinite(self.eigenvalue):  # NaN != NaN would pass the distinctness check
            raise ValueError(f"eigenvalue must be finite, got {self.eigenvalue}")
        if not self.sizes:
            raise ValueError("eigenvalue needs at least one Jordan block")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"block sizes must be positive, got {self.sizes}")
        if any(a < b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"block sizes must be nonincreasing, got {self.sizes}")
        if self.sizes[0] > MAX_BLOCK_SIZE:
            raise ValueError(f"block sizes above {MAX_BLOCK_SIZE} are not supported")


@dataclass(frozen=True, eq=False)
class JordanSpec:
    """Jordan data defining A = P @ J @ inv(P) over the given field."""

    field: str
    eigens: tuple[EigenBlock, ...]
    similarity: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        object.__setattr__(self, "eigens", tuple(self.eigens))
        if not self.eigens:
            raise ValueError("at least one eigenvalue is required")
        values = [e.eigenvalue for e in self.eigens]
        if len(set(values)) != len(values):
            raise ValueError("eigenvalues must be pairwise distinct")
        if self.field == "real":
            for e in self.eigens:
                if e.eigenvalue.imag < 0:
                    raise ValueError(
                        "real field: list each conjugate pair once, with positive imaginary part"
                    )
        if self.similarity is not None:
            p = as_matrix(self.similarity)
            n = self.dim
            if p.shape != (n, n):
                raise ValueError(f"similarity must be {n}x{n}, got {p.shape}")
            if self.field == "real" and np.any(p.imag != 0):
                raise ValueError("real field: similarity matrix must be real")
            if not np.isfinite(p).all():
                raise ValueError("similarity matrix has non-finite entries")
            if rank_tol(p) != n:
                raise ValueError("similarity matrix is singular within tolerance")
            object.__setattr__(self, "similarity", p)

    @property
    def dim(self) -> int:
        """Total matrix size, counting implicit conjugate blocks twice."""
        return sum(blk.dim for blk in self._layout)

    @cached_property
    def _layout(self) -> tuple[InnerBlock, ...]:
        """inner_blocks, walked once: the spec is frozen."""
        out, off = [], 0
        for j, e in enumerate(self.eigens):
            pair = self._is_pair(e)
            for s in e.sizes:
                d = 2 * s if pair else s
                out.append(InnerBlock(j, s, d, off, pair))
                off += d
        return tuple(out)

    def _is_pair(self, e: EigenBlock) -> bool:
        return self.field == "real" and e.eigenvalue.imag > 0


class InnerBlock(NamedTuple):
    """One Jordan block in the layout of J: position and kind."""

    eigen_index: int
    size: int      # Toeplitz length (number of coefficient slots)
    dim: int       # actual dimension: size, or 2*size for conjugate pairs
    offset: int    # starting row/column in J
    pair: bool     # True for the 2x2-represented complex pairs (real field)


def inner_blocks(spec: JordanSpec) -> tuple[InnerBlock, ...]:
    """Flat layout of all Jordan blocks of J in order."""
    return spec._layout


def leading_blocks(spec: JordanSpec) -> list[InnerBlock]:
    """Each eigenvalue's leading (largest) Jordan block, in eigenvalue order."""
    leads = {}
    for blk in inner_blocks(spec):
        leads.setdefault(blk.eigen_index, blk)  # the largest block comes first
    return list(leads.values())


def eigenvalue_list(spec: JordanSpec) -> list[complex]:
    """All eigenvalues of A, with implicit conjugates included (no multiplicity)."""
    vals = []
    for e in spec.eigens:
        vals.append(e.eigenvalue)
        if spec._is_pair(e):
            vals.append(e.eigenvalue.conjugate())
    return vals


def from_jordan_basis(spec: JordanSpec, m: np.ndarray) -> np.ndarray:
    """P @ M @ inv(P), by a solve rather than an explicit inverse; M without P."""
    p = spec.similarity
    if p is None:
        return m
    return np.linalg.solve(p.T, (p @ m).T).T


def _jordan_coeffs(spec: JordanSpec) -> list[tuple[complex, ...]]:
    """J's coefficient rows (lam, 1, 0, ...), one per eigenvalue."""
    return [((e.eigenvalue, 1.0) + (0.0,) * e.sizes[0])[: e.sizes[0]] for e in spec.eigens]


def jordan_blocks(spec: JordanSpec) -> list[np.ndarray]:
    """The diagonal blocks of J: the bicommutant element with coefficients (lam, 1, 0, ...).

    They come from the gather of :func:`bicomm_blocks`.
    """
    toeplitz = _toeplitz(spec, _jordan_coeffs(spec))
    return [toeplitz[b.eigen_index, : b.dim, : b.dim] for b in inner_blocks(spec)]


def build_JA(spec: JordanSpec) -> np.ndarray:
    """The Jordan matrix J."""
    return block_diag(*jordan_blocks(spec))


def build_A(spec: JordanSpec) -> np.ndarray:
    """A = P @ J @ inv(P); just J when no similarity is given."""
    return from_jordan_basis(spec, build_JA(spec))


@dataclass(frozen=True)
class BicommElement:
    """Per-eigenvalue Toeplitz coefficients defining an element of the bicommutant.

    coeffs[j][i] multiplies the i-th superdiagonal of every Jordan block of
    eigenvalue j; for conjugate-pair eigenvalues in the real field the complex
    coefficient is realized as its 2x2 rotation block.
    """

    coeffs: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(tuple(complex(c) for c in row) for row in self.coeffs)
        )


def validate_bicomm_element(spec: JordanSpec, elem: BicommElement) -> None:
    """Check the coefficient lists against the Jordan data's shape and field, and that
    every coefficient is finite."""
    if len(elem.coeffs) != len(spec.eigens):
        raise ValueError(
            f"expected coefficients for {len(spec.eigens)} eigenvalues, got {len(elem.coeffs)}"
        )
    for j, (e, row) in enumerate(zip(spec.eigens, elem.coeffs)):
        if len(row) != e.sizes[0]:
            raise ValueError(
                f"eigenvalue {j}: expected {e.sizes[0]} coefficients, got {len(row)}"
            )
        if not all(cmath.isfinite(c) for c in row):
            raise ValueError(f"eigenvalue {j}: coefficients must be finite, got {row}")
        if spec.field == "real" and not spec._is_pair(e):
            if any(c.imag != 0 for c in row):
                raise ValueError(f"eigenvalue {j}: real eigenvalue needs real coefficients")


def _toeplitz(spec: JordanSpec, rows) -> np.ndarray:
    """The Toeplitz matrices of unvalidated coefficient rows, from one gather.

    rows holds one row per eigenvalue; Jordan block b is out[b.eigen_index,
    :b.dim, :b.dim].  out is of the largest leading size, doubled when the
    real field has pairs, whose rows hold the 2x2 blocks [[a, b], [-b, a]]
    for a + ib.  Adding 0.0 turns -0.0 into +0.0, as a sum of shift
    matrices does.
    """
    top = max(e.sizes[0] for e in spec.eigens)
    k = np.arange(top)
    c = np.array([(0,) * (top - 1) + tuple(row) + (0,) * (top - len(row)) for row in rows],
                 dtype=np.complex128)
    t = c[:, top - 1 + k - k[:, None]] + 0.0
    pair = np.array([spec._is_pair(e) for e in spec.eigens])
    if not pair.any():
        return t
    rot = np.array([[t.real, t.imag], [-t.imag, t.real]]) + 0.0
    out = rot.transpose(2, 3, 0, 4, 1).reshape(len(c), 2 * top, 2 * top).astype(complex)
    out[~pair] = 0.0
    out[~pair, :top, :top] = t[~pair]
    return out


def bicomm_blocks(spec: JordanSpec, elem: BicommElement) -> list[np.ndarray]:
    """The element's diagonal Toeplitz blocks in the Jordan basis, one per Jordan block.

    elem is validated first.  All are views into one gather at the largest
    leading size (2x2 blocks [[a, b], [-b, a]] for a + ib at pairs); adding
    0.0 turns -0.0 into +0.0, as a sum of shift matrices does.
    """
    validate_bicomm_element(spec, elem)
    toeplitz = _toeplitz(spec, elem.coeffs)
    return [toeplitz[b.eigen_index, : b.dim, : b.dim] for b in inner_blocks(spec)]


def build_bicomm_jordan(spec: JordanSpec, elem: BicommElement) -> np.ndarray:
    """The bicommutant element in the Jordan basis (block diagonal Toeplitz)."""
    return block_diag(*bicomm_blocks(spec, elem))


def build_bicomm_element(spec: JordanSpec, elem: BicommElement) -> np.ndarray:
    """B = P @ Btilde @ inv(P) for the Toeplitz pattern Btilde."""
    return from_jordan_basis(spec, build_bicomm_jordan(spec, elem))


class MembershipResult(NamedTuple):
    member: bool
    witness: Optional[tuple[int, int]]   # first violating entry of inv(P) B P
    element: Optional[BicommElement]     # extracted coefficients when member


def _read_coeffs(spec: JordanSpec, bt: np.ndarray) -> BicommElement:
    """Read Toeplitz coefficients off the first row of each eigenvalue's largest block."""
    rows: list[tuple[complex, ...]] = []
    for blk in leading_blocks(spec):
        off = blk.offset
        if blk.pair:
            row = tuple(
                complex(bt[off, off + 2 * v].real, bt[off, off + 2 * v + 1].real)
                for v in range(blk.size)
            )
        else:
            coeff = bt[off, off : off + blk.size]
            if spec.field == "real":
                row = tuple(complex(c.real, 0.0) for c in coeff)
            else:
                row = tuple(complex(c) for c in coeff)
        rows.append(row)
    return BicommElement(tuple(rows))


def check_bicomm_membership(
    spec: JordanSpec, B, tol: Tolerances | None = None
) -> MembershipResult:
    """Decide whether B lies in the bicommutant of A, with an entry witness.

    Transforms Btilde = inv(P) B P, reads candidate coefficients off the
    leading blocks, rebuilds the implied pattern and compares entrywise; the
    first (row-major) entry violating the pattern beyond eq_rel is returned
    as the witness.  Nonmembership is a result, not an error.
    """
    tol = tol or DEFAULT_TOLERANCES
    b = as_matrix(B)
    n = spec.dim
    if b.shape != (n, n):
        raise ValueError(f"B must be {n}x{n}, got {b.shape}")
    if spec.field == "real" and np.any(b.imag != 0):
        raise ValueError("real field: B must have real entries")
    if not np.isfinite(b).all():  # a NaN entry would pass no comparison, leaving no witness
        raise ValueError("B has non-finite entries")
    p = spec.similarity
    bt = b if p is None else np.linalg.solve(p, b @ p)
    candidate = _read_coeffs(spec, bt)
    expected = build_bicomm_jordan(spec, candidate)
    scale = tol.eq_rel * (1.0 + frob(bt))
    diff = np.abs(bt - expected)
    if diff.max(initial=0.0) <= scale:
        return MembershipResult(True, None, candidate)
    bad = np.argwhere(diff > scale)
    witness = tuple(int(x) for x in bad[0])
    return MembershipResult(False, witness, None)
