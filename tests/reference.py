"""Reference implementations of the paper's general machinery, for the tests.

The package ships only what its decisions and the ``lyapctl`` command line
call.  The general tools below check the theorems those decisions rest on:
Hill's representation of *-linear maps (``reconstruct_map``,
``hill_from_choi``, ``cp_via_hill``), the rank witnesses by which positivity
and complete positivity coincide (``find_c1_witness``, ``find_c2_witness``,
``positivity_equals_cp_certificate``), the paper's closed form of one
Hill-Pick entry (``hill_pick_coeff``) and of the whole matrix
(``hill_pick_closed_form``), the Stein order's displacement recursion
(``stein_pick_recursion``), the composite map rebuilt from the Hill-Pick
matrix (``closed_form_matricization``), an order's dense map on A
(``matricization``) and the Lyapunov-solution sampler
(``sample_lyapunov_solutions``), plus small map and matrix utilities the
tests build their inputs with.

A Hill representation writes a *-linear map as

    L(V) = sum_{k,l} H[k, l] * A_l @ V @ A_k*

for matrices A_1..A_r in F^{n x q} and a Hermitian coefficient matrix H.
Equivalently, with Ahat the r-by-nq matrix whose k-th row is vec(A_k)*,

    matricization = sum_{k,l} H[k, l] * kron(conj(A_k), A_l)
    choi          = Ahat* @ H.T @ Ahat.

Positivity of a map upgrades to complete positivity whenever some vector z
makes Ahat @ kron(z, I_n) have full row rank (or some x does the same for
Ahat @ kron(I_q, x)).  For maps whose block span sits inside a triangular
Toeplitz algebra attached to Jordan data, such witnesses exist in closed
form: ``lyaporder.hill._structured_candidate``.
"""

from __future__ import annotations

from math import comb
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from lyaporder.domination import (
    LYAPUNOV,
    STEIN,
    LyapunovProblem,
    Order,
    _cone_solutions,
    _pull_back,
    hill_pick_matrix,
)
from lyaporder.hill import (
    HillRep,
    _structured_candidate,
    minimal_hill_from_blocks,
)
from lyaporder.jordan import BicommElement, JordanSpec, check_bicomm_membership
from lyaporder.linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    block_diag,
    frob,
    kron,
    psd_report,
    rank_tol,
)
from lyaporder.starmaps import StarLinearMap, choi_matrix, is_star_linear


# --------------------------------------------------------------------------
# Matrix utilities.
# --------------------------------------------------------------------------


def vec(m) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    return np.ravel(as_matrix(m), order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild a rows-by-cols matrix from a vector."""
    w = np.asarray(v, dtype=np.complex128).ravel()
    if w.size != rows * cols:
        raise ValueError(f"vector of length {w.size} cannot fill a {rows}x{cols} matrix")
    return w.reshape((rows, cols), order="F")


def canonical_shuffle(m: int, n: int) -> np.ndarray:
    """Permutation matrix S with S @ kron(u, v) = kron(v, u).

    Here u has length m and v length n.  S is unitary with inverse equal to
    canonical_shuffle(n, m).
    """
    if m < 1 or n < 1:
        raise ValueError("shuffle dimensions must be at least 1")
    s = np.zeros((m * n, m * n), dtype=np.complex128)
    i = np.repeat(np.arange(m), n)
    j = np.tile(np.arange(n), m)
    s[j * m + i, i * n + j] = 1.0
    return s


def gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """Standard Gaussian complex128 array; the complex field draws the real parts first."""
    g = rng.standard_normal(shape)
    if field == "complex":
        g = g + 1j * rng.standard_normal(shape)
    return g.astype(np.complex128)


def is_psd(m, tol: Tolerances | None = None) -> str:
    """Three-way PSD verdict; see :func:`lyaporder.linalg.psd_report`."""
    return psd_report(m, tol)[0]


# --------------------------------------------------------------------------
# The orders' maps on a dense A.
# --------------------------------------------------------------------------


def _square(a) -> np.ndarray:
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError("A must be square")
    return am


def matricization(order: Order, a, field: str = "complex") -> StarLinearMap:
    """Matricization of the map X -> order.cone(X, A), by order.two_sided."""
    am = _square(a)
    n = am.shape[0]
    return StarLinearMap(order.two_sided(am, am), n, n, field)


def sample_lyapunov_solutions(
    a, count: int = 1, seed: int = 0, field: str = "complex"
) -> list[np.ndarray]:
    """Draw Hermitian H with H A + A* H PSD, by pulling random PSD targets back.

    Samples rank-one W = g g* with Gaussian g, a random extreme ray of the
    PSD cone, and solves the Lyapunov equation H A + A* H = W; every
    returned H is complex128, symmetrized and owns its data.  The draw is
    the oracle's (domination._cone_solutions, float64 for the real field,
    whose A must be real) and so is the solve (domination._pull_back), on
    A as one block whose n^2 x n^2 map is inverted by one dense solve, so
    A must be Lyapunov regular.  The block has no B: its composite slot
    holds the same inverse, and the batches' Y go unused.
    """
    la = matricization(LYAPUNOV, a).matrix
    n = _square(a).shape[0]
    inverse = np.linalg.solve(la, np.eye(n * n))
    inverse = inverse.real.copy() if field == "real" else inverse
    inverse = inverse.ravel() if n == 1 else inverse[None, None]
    perm = np.arange(n * n).reshape(n, n).T.ravel()  # W.ravel()[perm] is vec(W)
    one_block = SimpleNamespace(dims=(n,), dtype=inverse.dtype,
                                plan=(perm, np.argsort(perm), [(0, n * n, (inverse, inverse))]))
    if int(count) < 1:  # _cone_solutions always runs its first trial
        return []
    batches = _cone_solutions(one_block, int(count), seed)
    return [h.astype(np.complex128) for _, targets in batches
            for h in _pull_back(one_block, targets)]


# --------------------------------------------------------------------------
# Linear matrix maps stored by their matricization.
# --------------------------------------------------------------------------


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


def map_from_choi(bl, n: int, q: int, field: str = "complex") -> StarLinearMap:
    """Rebuild a map from its Choi matrix (inverse permutation of choi_matrix)."""
    b = as_matrix(bl)
    if b.shape != (n * q, n * q):
        raise ValueError(f"Choi matrix must be {n * q}x{n * q}, got {b.shape}")
    c4 = b.reshape(q, n, q, n)
    return StarLinearMap(c4.transpose(3, 1, 2, 0).reshape(n * n, q * q), n, q, field)


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
    block: int = 512,
):
    """Randomized refutation of positivity.

    Draws Gaussian pairs (z, x) and tests the quadratic form of the Choi
    matrix at z (x) x, i.e. the map evaluated on a rank-one PSD input.
    Returns the first violating pair (z, x) when the form drops below the
    psd_rel band, and None otherwise: sampling can refute positivity, never
    certify it.  Real-field maps are probed with real vectors only.  Trials
    are drawn block at a time from one default_rng(seed) stream, as rows
    (z re, z im, x re, x im) (real parts only over the real field): the
    order of per-trial gaussian(rng, q, field), gaussian(rng, n, field)
    draws, so the pair returned does not depend on block.
    """
    tol = tol or DEFAULT_TOLERANCES
    if not is_star_linear(m, tol):
        raise ValueError("positivity test needs a *-linear map")
    c = choi_matrix(m)
    if c.size == 0:
        return None
    spectral = float(np.abs(np.linalg.eigvalsh((c + c.conj().T) / 2.0)).max())
    floor = -tol.psd_rel * (1.0 + spectral)
    rng, q, n, trials = np.random.default_rng(seed), m.in_dim, m.out_dim, int(trials)
    k = 2 if m.field == "complex" else 1
    for start in range(0, trials, block):
        rows = rng.standard_normal((min(block, trials - start), k * (q + n)))
        z, x = ((u[:, :d] + 1j * u[:, d:]) if k == 2 else u.astype(np.complex128)
                for u, d in ((rows[:, : k * q], q), (rows[:, k * q:], n)))
        v = (z[:, :, None] * x[:, None, :]).reshape(len(rows), q * n)
        values = np.einsum("ti,ij,tj->t", v.conj(), c, v).real
        bad = np.flatnonzero(values < floor)
        if bad.size:
            return z[bad[0]], x[bad[0]]
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


# --------------------------------------------------------------------------
# Hill representations: reconstruction, recovery from the Choi matrix, and
# the complete positivity verdict of H.
# --------------------------------------------------------------------------


def ahat_matrix(factors, n: int, q: int) -> np.ndarray:
    """Stack vec(A_k)* as rows; full row rank for any valid representation."""
    if not factors:
        return np.zeros((0, n * q), dtype=np.complex128)
    return np.array([vec(a).conj() for a in factors])


def hill_from_choi(m: StarLinearMap, ahat, tol: Tolerances | None = None) -> np.ndarray:
    """Recover H from the Choi matrix for a given full-row-rank Ahat.

    Solves choi == Ahat* @ H.T @ Ahat via H.T = inv(Ahat Ahat*) Ahat choi
    Ahat* inv(Ahat Ahat*), then verifies the factorization; a failure means
    ker(Ahat) is not contained in ker(choi).
    """
    tol = tol or DEFAULT_TOLERANCES
    if not is_star_linear(m, tol):
        raise ValueError("Hill representations require a *-linear map")
    a = np.asarray(ahat, dtype=np.complex128)
    r = a.shape[0]
    if rank_tol(a, tol) != r:
        raise ValueError("Ahat must have full row rank")
    c = choi_matrix(m)
    gram = a @ a.conj().T
    middle = a @ c @ a.conj().T
    # gram is Hermitian positive definite, so gram^{-H} == gram^{-1}.
    ht = np.linalg.solve(gram, np.linalg.solve(gram, middle.conj().T).conj().T)
    residual = float(np.linalg.norm(a.conj().T @ ht @ a - c))
    if residual > tol.eq_rel * (1.0 + frob(c)):
        raise ValueError(
            f"Choi matrix is not supported on the row space of Ahat (residual {residual:.3e})"
        )
    return ht.T


def reconstruct_map(rep: HillRep) -> StarLinearMap:
    """Assemble the matricization sum_{k,l} H[k,l] * kron(conj(A_k), A_l)."""
    n, q = rep.out_dim, rep.in_dim
    m = np.zeros((n * n, q * q), dtype=np.complex128)
    for k, ak in enumerate(rep.factors):
        for l, al in enumerate(rep.factors):
            coeff = rep.hill[k, l]
            if coeff != 0:
                m += coeff * kron(ak.conj(), al)
    return StarLinearMap(m, n, q, rep.field)


def cp_via_hill(rep: HillRep, tol: Tolerances | None = None) -> str:
    """Complete positivity verdict from the Hill matrix alone.

    PSD test of H; for a minimal representation a "yes" additionally needs H
    of full rank (positive definiteness), otherwise the verdict degrades to
    "marginal".
    """
    tol = tol or DEFAULT_TOLERANCES
    if rep.size == 0:
        return "yes"
    verdict = is_psd(rep.hill, tol)
    if rep.minimal and verdict == "yes" and rank_tol(rep.hill, tol) < rep.size:
        return "marginal"
    return verdict


# --------------------------------------------------------------------------
# Witness search: vectors making the bilinear evaluation of Ahat surjective.
# --------------------------------------------------------------------------


def _find_witness(rep: HillRep, kind: str, jordan, trials, seed, tol) -> Optional[np.ndarray]:
    """Both witness finders: the kind sets the length of v (q or n), the rank
    bound (n or q) and the evaluation (kron(v, I_n) or kron(I_q, v)).
    Jordan data must have the witness's length as its dimension."""
    tol = tol or DEFAULT_TOLERANCES
    r, n, q = rep.size, rep.out_dim, rep.in_dim
    length, bound = (q, n) if kind == "c1" else (n, q)
    if jordan is not None and jordan.dim != length:
        raise ValueError(f"Jordan data of dimension {jordan.dim} do not match "
                         f"the {kind} witness length {length}")
    if r == 0:
        return np.zeros(length, dtype=np.complex128)
    if r > bound:
        return None
    ahat = ahat_matrix(rep.factors, n, q)
    if jordan is not None:
        candidates = [_structured_candidate(jordan, kind)]
    else:
        rng = np.random.default_rng(seed)
        candidates = (gaussian(rng, length, rep.field) for _ in range(trials))
    for v in candidates:
        col = v.reshape(-1, 1)
        evaluation = np.kron(col, np.eye(n)) if kind == "c1" else np.kron(np.eye(q), col)
        if rank_tol(ahat @ evaluation, tol) == r:
            return v
    return None


def find_c1_witness(
    rep: HillRep,
    jordan: JordanSpec | None = None,
    trials: int = 32,
    seed: int = 0,
    tol: Tolerances | None = None,
) -> Optional[np.ndarray]:
    """Search for z with rank(Ahat @ kron(z, I_n)) == r.

    With Jordan data supplied the single structured candidate is tried (the
    first-position indicator, conjugate-transported through the similarity);
    otherwise Gaussian vectors are drawn.  Returns None when no candidate
    passes; no witness can exist when r exceeds the output dimension.
    """
    return _find_witness(rep, "c1", jordan, trials, seed, tol)


def find_c2_witness(
    rep: HillRep,
    jordan: JordanSpec | None = None,
    trials: int = 32,
    seed: int = 0,
    tol: Tolerances | None = None,
) -> Optional[np.ndarray]:
    """Mirror of :func:`find_c1_witness` for x with rank(Ahat @ kron(I_q, x)) == r."""
    return _find_witness(rep, "c2", jordan, trials, seed, tol)


class Certificate(NamedTuple):
    certified: bool
    kind: Optional[str]           # "c1" or "c2"
    witness: Optional[np.ndarray]


def positivity_equals_cp_certificate(
    m: StarLinearMap,
    tol: Tolerances | None = None,
    trials: int = 32,
    seed: int = 0,
) -> Certificate:
    """Try to certify that positivity and complete positivity coincide for m.

    Builds a minimal Hill representation and searches for a rank witness,
    first of the z kind, then of the x kind.  A certificate means a single
    Choi PSD test decides plain positivity of the map.  Absence of a
    certificate proves nothing (maps exist that are positive, not completely
    positive, and admit no witness).
    """
    tol = tol or DEFAULT_TOLERANCES
    rep = minimal_hill_from_blocks(m, tol)
    for kind in ("c1", "c2"):
        v = _find_witness(rep, kind, None, trials, seed, tol)
        if v is not None:
            return Certificate(True, kind, v)
    return Certificate(False, None, None)


# --------------------------------------------------------------------------
# Bicommutant coefficients and the closed-form Hill-Pick entries.
# --------------------------------------------------------------------------


def extract_bicomm_coeffs(
    spec: JordanSpec, B, tol: Tolerances | None = None
) -> BicommElement:
    """Coefficients of a verified bicommutant member; raises on nonmembers."""
    result = check_bicomm_membership(spec, B, tol)
    if not result.member:
        raise ValueError(
            f"matrix is not in the bicommutant: pattern violated at entry {result.witness}"
        )
    return result.element


def _pick_entry(lam_i: complex, t_i, a: int, lam_j: complex, t_j, b: int) -> complex:
    """The paper's closed form of the complex Hill-Pick entry ((i, a), (j, b)).

    With d = lam_j + conj(lam_i):

        sum_{k <= a} (-1)^(k+b) C(k+b, k) conj(t_i[a-k]) / d^(k+b+1)
      + sum_{l <= b} (-1)^(a+b-l) C(a+b-l, a) t_j[l] / d^(a+b-l+1).
    """
    d = lam_j + lam_i.conjugate()
    return (sum((-1) ** (k + b) * comb(k + b, k) * complex(t_i[a - k]).conjugate()
                / d ** (k + b + 1) for k in range(a + 1))
            + sum((-1) ** (a + b - l) * comb(a + b - l, a) * complex(t_j[l])
                  / d ** (a + b - l + 1) for l in range(b + 1)))


def hill_pick_coeff(
    prob: LyapunovProblem, eigen_j: int, shift_i: int, eigen_a: int, shift_c: int
) -> complex:
    """Closed-form coefficient of the composite map's Toeplitz expansion.

    This is the scalar weight of the shift_c-th subdiagonal of the blocks of
    eigenvalue eigen_a inside the shift_i-th coefficient matrix of eigenvalue
    eigen_j; entry ((i, a), (j, b)) of the complex Hill-Pick matrix is
    hill_pick_coeff(j, b, i, a).  Complex field only; the pair (lam_j, lam_a)
    must be Lyapunov regular.
    """
    if prob.spec.field != "complex":
        raise ValueError("closed-form coefficients are available for the complex field only")
    eigens = prob.spec.eigens
    for eigen, shift, name in ((eigen_j, shift_i, "shift_i"), (eigen_a, shift_c, "shift_c")):
        if not 0 <= eigen < len(eigens):
            raise ValueError(f"eigenvalue index {eigen} out of range for {len(eigens)} eigenvalues")
        if not 0 <= shift < eigens[eigen].sizes[0]:
            raise ValueError(f"{name} out of range for eigenvalue {eigen}")
    lam_j = eigens[eigen_j].eigenvalue
    lam_a = eigens[eigen_a].eigenvalue
    if abs(lam_j + lam_a.conjugate()) <= prob.tol.eq_rel * (abs(lam_j) + abs(lam_a)):
        LYAPUNOV.require_regular(prob.spec, prob.tol)  # raises: this pair is singular
    coeffs = prob.element.coeffs
    return _pick_entry(lam_a, coeffs[eigen_a], shift_c, lam_j, coeffs[eigen_j], shift_i)


def hill_pick_slots(prob: LyapunovProblem) -> tuple[list, np.ndarray]:
    """The Hill-Pick matrix's slots (lam, t, a) over the complex field, and the fold M.

    Slots follow upsilon_selection: each eigenvalue's leading-block shifts a.
    Over the real field a pair lam of leading size s gives the slots of lam
    with t, then those of conj(lam) with conj(t), and M takes them to the
    pair's real slots 2a, 2a + 1 (M[a, 2a] = M[s + a, 2a] = 1/2,
    M[a, 2a + 1] = -i/2, M[s + a, 2a + 1] = i/2); elsewhere M is the identity.
    The matrix over the slots is H_c, and the Hill-Pick matrix is M* H_c M.
    """
    slots, blocks = [], []
    for e, t in zip(prob.spec.eigens, prob.element.coeffs):
        s, lam, t = e.sizes[0], e.eigenvalue, tuple(complex(c) for c in t)
        slots += [(lam, t, a) for a in range(s)]
        if prob.spec.field == "real" and lam.imag > 0:
            slots += [(lam.conjugate(), tuple(c.conjugate() for c in t), a) for a in range(s)]
            m = np.zeros((2 * s, 2 * s), dtype=np.complex128)
            for a in range(s):
                m[a, 2 * a: 2 * a + 2] = 0.5, -0.5j
                m[s + a, 2 * a: 2 * a + 2] = 0.5, 0.5j
            blocks.append(m)
        else:
            blocks.append(np.eye(s))
    return slots, block_diag(*blocks)


def slot_displacement(slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J, E, t) of the displacement equations over hill_pick_slots' slots.

    J is the direct sum of the slot groups' leading Jordan blocks (lam on the
    diagonal, 1 above it), E the indicator of each group's first slot and
    t[k] = t_k[a_k] the stacked coefficient rows.
    """
    lam, t, shift = (np.array(x) for x in zip(*((lam, t[a], a) for lam, t, a in slots)))
    return np.diag(lam) + np.diag((shift[1:] > 0).astype(float), 1), (shift == 0) * 1.0, t


def hill_pick_closed_form(prob: LyapunovProblem) -> np.ndarray:
    """The Hill-Pick matrix M* H_c M by the paper's closed form, entry by entry.

    Reference for lyaporder.domination.hill_pick_matrix, which builds H_c by
    its displacement recursion instead.  A must be Lyapunov regular.
    """
    LYAPUNOV.require_regular(prob.spec, prob.tol)
    slots, m = hill_pick_slots(prob)
    h = np.array([[_pick_entry(*row, *col) for col in slots] for row in slots])
    return m.conj().T @ h @ m


def stein_pick_recursion(prob: LyapunovProblem) -> np.ndarray:
    """The solution of H - J* H J = E E^T - conj(t) t^T by its direct recursion.

    J, E and t are slot_displacement's; over diagonal A, H is the Stein
    Pick matrix (1 - conj(t_i) t_j) / (1 - conj(lam_i) lam_j).  Entry by
    entry, in row-major order, with C = E E^T - conj(t) t^T and terms at a
    shift of -1 zero:

        (1 - conj(lam_i) lam_j) H[a, b] = C[a, b] + conj(lam_i) H[a, b-1]
                                          + lam_j H[a-1, b] + H[a-1, b-1].

    A reference for a Stein Hill-Pick route.  Complex field only; A must be
    Stein regular.
    """
    if prob.spec.field != "complex":
        raise ValueError("the Stein recursion covers the complex field only")
    STEIN.require_regular(prob.spec, prob.tol)
    slots, _ = hill_pick_slots(prob)
    h = np.zeros((len(slots), len(slots)), dtype=np.complex128)
    for k, (lam_i, t_i, a) in enumerate(slots):
        for l, (lam_j, t_j, b) in enumerate(slots):
            total = (a == b == 0) - t_i[a].conjugate() * t_j[b]
            if b:
                total += lam_i.conjugate() * h[k, l - 1]
            if a:
                total += lam_j * h[k - 1, l] + (h[k - 1, l - 1] if b else 0)
            h[k, l] = total / (1 - lam_i.conjugate() * lam_j)
    return h


def closed_form_matricization(prob: LyapunovProblem) -> np.ndarray:
    """Matricization of the composite map, reconstructed from the Hill-Pick matrix.

    The Hill-Pick matrix is the composite's Hill matrix for the Toeplitz shift
    factors X_(j,i), in upsilon_selection order: the i-th lower shift on every
    Jordan block of eigenvalue j, moved into A's basis as S X inv(S) with
    (S, inv(S)) = LYAPUNOV.congruence(P, inv(P)).  Must agree with
    lyapunov_order_map to working precision.  Complex field only.
    """
    spec = prob.spec
    if spec.field != "complex":
        raise ValueError("the closed-form pipeline covers the complex field only")
    hp = hill_pick_matrix(prob)
    factors = [block_diag(*(np.eye(s, k=-i) * (a == j) for a, e in enumerate(spec.eigens)
                            for s in e.sizes))
               for j, lead in enumerate(spec.eigens) for i in range(lead.sizes[0])]
    p = spec.similarity
    if p is not None:
        s, s_inv = LYAPUNOV.congruence(p, np.linalg.solve(p, np.eye(len(p))))
        factors = [s @ x @ s_inv for x in factors]
    rep = HillRep(factors, hp.matrix.T, hp.upsilon, False, spec.dim, spec.dim, spec.field)
    return reconstruct_map(rep).matrix
