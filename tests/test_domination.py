import dataclasses
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from lyaporder import (
    DEFAULT_TOLERANCES,
    LYAPUNOV,
    STEIN,
    BicommElement,
    EigenBlock,
    JordanSpec,
    LyapunovProblem,
    Tolerances,
    check_domination,
    domination_oracle,
    hill_pick_matrix,
    stein_domination,
)
from lyaporder import domination, jordan, linalg
from lyaporder.domination import (
    Order,
    _jordan_setup,
    lyapunov_order_map,
    stein_order_map,
    upsilon_selection,
)
from lyaporder.hill import hill_at_selection, matricization_blocks
from lyaporder.jordan import (
    build_A,
    build_bicomm_element,
    build_bicomm_jordan,
    build_JA,
    inner_blocks,
)
from lyaporder.linalg import NotHermitianError, block_diag, psd_report, rank_tol
from lyaporder.starmaps import BlockSeparableMap, StarLinearMap, choi_matrix
from helpers import (
    a_element,
    conditioned,
    identity_element,
    problem_mix,
    random_element,
    random_jordan_spec,
    rational_dominator,
    stein_jordan_spec,
    stein_power_element,
)
import reference
from reference import (
    apply_map,
    closed_form_matricization,
    gaussian,
    hill_pick_closed_form,
    hill_pick_coeff,
    hill_pick_slots,
    is_psd,
    matricization,
    sample_lyapunov_solutions,
    slot_displacement,
    stein_pick_recursion,
    unvec,
    vec,
)


def diag_problem(lams, ts):
    spec = JordanSpec("complex", tuple(EigenBlock(l, (1,)) for l in lams))
    return LyapunovProblem(spec, BicommElement(tuple((t,) for t in ts)))


PICK_NOT_DOMINATED = diag_problem([1.0, 2.0], [1.0, 3.0])
PICK_MIN_EIG = 1.25 - np.sqrt(265.0) / 12.0  # eigenvalue of [[1, 4/3], [4/3, 3/2]]
B_IS_IDENTITY = diag_problem([1.0, 2.0], [1.0, 1.0])  # strictly dominates
STEIN_FLIP = diag_problem([0.5, 1.0 / 3.0], [0.5, -1.0 / 3.0])


def per_trial_solutions(prob, order, trials, seed):
    """Reference sampler: one target g g* and one n^2 x n^2 solve in A's own basis per trial."""
    spec = prob.spec
    n = spec.dim
    la = matricization(order, build_A(spec), spec.field).matrix
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        g = gaussian(rng, n, spec.field)
        h = unvec(np.linalg.solve(la, vec(np.outer(g, g.conj()))), n, n)
        yield (h + h.conj().T) / 2.0


def per_trial_violation(prob, order, trials, seed):
    """Reference oracle: one target, one solve and one PSD test per trial.

    Returns (trial index, H) of the first violation, or (None, None).
    """
    b = build_bicomm_element(prob.spec, prob.element)
    for k, h in enumerate(per_trial_solutions(prob, order, trials, seed)):
        if psd_report(order.cone(h, b), prob.tol)[0] == "no":
            return k, h
    return None, None


def per_trial_witness(prob, order, trials, seed):
    return per_trial_violation(prob, order, trials, seed)[1]


def block_pair_solutions(dims, las, dtype, field, count, seed, congruence=None):
    """Reference for _cone_solutions and _pull_back: a gather, solve and scatter per size pair.

    las holds (rows, cols, L_A) per pair of block kinds, L_A built by the
    test (pair_maps).  Each trial's W = g g* is formed from its own
    gaussian(rng, n, field) draw, moved by inv(S) @ g.  Each block of W is
    gathered as W[:, r, c], solved as inv(L_A) @ vec and scattered back, in
    fresh arrays per batch; the batch sizes and congruence are the oracle's.
    """
    n = sum(dims)
    offset = np.cumsum((0,) + tuple(dims))
    inverses = []
    for rows, cols, la in las:
        r = offset[rows][:, None, None, None] + np.arange(dims[rows[0]])[:, None]
        c = offset[cols][None, :, None, None] + np.arange(dims[cols[0]])
        la = la.real if dtype == np.float64 else la
        inverses.append((r, c, np.linalg.solve(la, np.eye(la.shape[-1]))))
    s, s_inv, s_star = congruence or (None, None, None)
    rng = np.random.default_rng(seed)
    for size in domination._batch_sizes(n, count):
        gs = [gaussian(rng, n, field) for _ in range(size)]
        gs = [g.real if dtype == np.float64 else g for g in gs]
        gs = gs if s_inv is None else [s_inv @ g for g in gs]
        w = np.array([np.outer(g, g.conj()) for g in gs])
        y = np.empty_like(w)
        for r, c, inverse in inverses:
            t = w[:, r, c].swapaxes(-1, -2)  # t[i, k, l].ravel(): vec of block (k, l) of W_i
            sol = inverse @ t.reshape(*t.shape[:3], -1).transpose(1, 2, 3, 0)
            y[:, r, c] = sol.transpose(3, 0, 1, 2).reshape(t.shape).swapaxes(-1, -2)
        y = y if s is None else s @ y @ s_star
        yield (y + y.conj().swapaxes(-1, -2)) / 2.0


def past_the_cap(n):
    """(count, cap): trials that run one trial, one full batch of cap and 9 more, at size n."""
    cap = max(64, 64 * 16 * 16 // (n * n))  # the oracle's batch budget, 64 trials at n = 16
    return cap + 10, cap


def pair_maps(setup, prob, order):
    """(rows, cols, L_A, L_B) per pair of the setup's block kinds, by order.two_sided.

    L_A and L_B act on the blocks (rows[k], cols[l]) of J's and B's Toeplitz
    blocks, dense and complex128 in both fields.
    """
    a_blocks = jordan.jordan_blocks(prob.spec)
    b_blocks = jordan.bicomm_blocks(prob.spec, prob.element)
    out = []
    for rows, cols, *_ in setup.pairs:
        la, lb = (order.two_sided(np.stack([blocks[i] for i in rows])[:, None],
                                  np.stack([blocks[j] for j in cols])[None, :])
                  for blocks in (a_blocks, b_blocks))
        out.append((rows, cols, la, lb))
    return out


def setup_solutions(setup, prob, order, field, count, seed, congruence=None):
    """block_pair_solutions on the setup's layout, with L_A from pair_maps."""
    las = [(rows, cols, la) for rows, cols, la, _ in pair_maps(setup, prob, order)]
    return block_pair_solutions(setup.dims, las, setup.dtype, field, count, seed, congruence)


def faulty_maps(fault):
    """_cone_solutions with fault applied in place to the composite's maps after the first trial.

    The first trial sees the maps as they are.  Every later batch, and the
    support Choi matrix that the Choi screen certifies (built at the first
    batch of two or more when the oracle is called without _decide), see
    the fault, so it reaches the screen and psd_report.
    """
    real = domination._cone_solutions

    def cone_solutions(maps, *args, **kwargs):
        batches = real(maps, *args, **kwargs)
        yield next(batches)
        for *_, m in maps.pairs:
            fault(m)
        yield from batches

    return cone_solutions


def mixed_block_problems():
    """(k, field, order, similar, problem) for the 208 solve-plan specs.

    Fields, orders and P alternate with k; every spec mixes 1 x 1 Jordan
    blocks with larger ones.
    """
    rng = np.random.default_rng(33)
    for k in range(208):
        field, order, similar = ("complex", "real")[k % 2], (LYAPUNOV, STEIN)[k // 2 % 2], k // 4 % 2
        while True:
            spec = random_jordan_spec(rng, field=field, max_dim=7)
            dims = [b.dim for b in inner_blocks(spec)]
            if 1 in dims and max(dims) > 1:
                break
        prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)), order)
        if not similar:
            prob = LyapunovProblem(JordanSpec(field, prob.spec.eigens), prob.element)
        yield k, field, order, similar, prob


def oracle_congruence(prob, order, dtype):
    """(S, inv(S), S*) as domination_oracle builds it, or None without P."""
    p = prob.spec.similarity
    if p is None:
        return None
    s, s_inv = order.congruence(p, np.linalg.solve(p, np.eye(len(p))))
    s, s_inv = (s.real.copy(), s_inv.real.copy()) if dtype == np.float64 else (s, s_inv)
    return s, s_inv, s.conj().T


def with_similarity(rng, prob, order=LYAPUNOV):
    """The problem under P = I + 0.3 G / sqrt(n), a well-conditioned similarity.

    For the Stein order the eigenvalues are divided by 3 first, which puts
    the positive-stable test spectra inside the unit disk.
    """
    spec = prob.spec
    n = spec.dim
    g = rng.standard_normal((n, n))
    if spec.field == "complex":
        g = g + 1j * rng.standard_normal((n, n))
    scale = 3.0 if order is STEIN else 1.0
    eigens = tuple(EigenBlock(e.eigenvalue / scale, e.sizes) for e in spec.eigens)
    p = np.eye(n) + 0.3 * g / np.sqrt(n)
    return LyapunovProblem(JordanSpec(spec.field, eigens, p), prob.element)


SIMILAR_EIGENS = {  # (field, n): Jordan data with blocks of several kinds
    ("complex", 8): (EigenBlock(1 + 0.5j, (3, 2)), EigenBlock(2 - 0.3j, (2, 1))),
    ("complex", 16): (EigenBlock(1 + 0.5j, (3, 2)), EigenBlock(2 - 0.3j, (2, 1)),
                      EigenBlock(0.7, (4,)), EigenBlock(1.5 + 1j, (2, 1, 1))),
    ("real", 8): (EigenBlock(1 + 0.5j, (2,)), EigenBlock(0.7, (2, 1)), EigenBlock(2.0, (1,))),
    ("real", 16): (EigenBlock(1 + 0.5j, (2, 1)), EigenBlock(0.7, (3, 2)),
                   EigenBlock(1.5 + 0.8j, (2,)), EigenBlock(2.0, (1,))),
}


def similar_dominator(rng, field, n, order):
    """A dominator of size n under with_similarity's P: alpha I + beta A + gamma inv(A), or A^2.

    For the Stein order the eigenvalues are divided by 3 first, into the unit disk.
    """
    eigens = SIMILAR_EIGENS[field, n]
    if order is STEIN:
        eigens = tuple(EigenBlock(e.eigenvalue / 3.0, e.sizes) for e in eigens)
    spec = JordanSpec(field, eigens)
    element = rational_dominator(rng, spec) if order is LYAPUNOV else stein_power_element(spec, 2)
    return with_similarity(rng, LyapunovProblem(spec, element))


def with_condition(rng, prob, cond):
    """prob under a P of condition number cond (helpers.conditioned)."""
    p = conditioned(rng, prob.spec.dim, cond, prob.spec.field)
    return LyapunovProblem(JordanSpec(prob.spec.field, prob.spec.eigens, p), prob.element)


def counting_oracle(monkeypatch, decline_choi=False):
    """Counts of the oracle's psd_report calls and of its Choi screens.

    Returns a dict, updated as calls happen: "report", "scale" (calls of
    _congruence_scale), "choi" (Choi screens, one per batch of two or more,
    from the draws alone), and "choi_trials" and "choi_passed" (the trials
    they see and pass).  With decline_choi the Choi screens decline every
    trial without running: the oracle then tests every trial by psd_report.
    """
    counts = dict.fromkeys(("report", "scale", "choi", "choi_trials", "choi_passed"), 0)
    report, choi = domination.psd_report, domination._choi_screen
    scale = domination._congruence_scale

    def counting_report(m, tol):
        counts["report"] += 1
        return report(m, tol)

    def counting_choi(setup, g, sc, tol):
        passed = decline(g) if decline_choi else choi(setup, g, sc, tol)
        counts["choi"] += 1
        counts["choi_trials"] += len(passed)
        counts["choi_passed"] += int(passed.sum())
        return passed

    def counting_scale(s):
        counts["scale"] += 1
        return scale(s)

    monkeypatch.setattr(domination, "psd_report", counting_report)
    monkeypatch.setattr(domination, "_choi_screen", counting_choi)
    monkeypatch.setattr(domination, "_congruence_scale", counting_scale)
    return counts


def decline(g):
    """A screen's verdict that declines every trial of the batch g."""
    return np.zeros(len(g), dtype=bool)


def no_screen(monkeypatch):
    """Make the oracle's Choi screen decline every trial."""
    monkeypatch.setattr(domination, "_choi_screen", lambda setup, g, scale, tol: decline(g))


def patterned_screen(passes):
    """A screen that passes trial k, numbered over the whole call, exactly when passes(k).

    It numbers the trials of each batch it sees from 1, the first trial
    (never screened) being trial 0.
    """
    start = 1

    def screen(g):
        nonlocal start
        k = np.arange(start, start + len(g))
        start += len(g)
        return passes(k)

    return screen


def deciding_reads(prob, order):
    """The verdict of the route that decides: Hill-Pick for Lyapunov, Choi for Stein."""
    if order is LYAPUNOV:
        return psd_report(hill_pick_matrix(prob).matrix, prob.tol)[0]
    return psd_report(choi_matrix(_jordan_setup(prob, order).composite), prob.tol)[0]


def bumped(element, bump, eps, keep=1.0):
    """keep * element + eps * bump, coefficient by coefficient."""
    return BicommElement(tuple(tuple(keep * a + eps * b for a, b in zip(row, extra))
                               for row, extra in zip(element.coeffs, bump.coeffs)))


def just_past_the_boundary(prob, order, inside, steps=30):
    """prob with element (1 - s) D + s B, s within 2^-steps above where the verdict turns "no".

    D (inside) does not read "no" on the deciding route and prob's element
    B does.  Bisection keeps that: the returned problem reads "no" by a few
    bands at most, so a rank-one target can land inside the band.
    """
    def at(s):
        return LyapunovProblem(prob.spec, bumped(inside, prob.element, s, 1.0 - s), prob.tol)

    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if deciding_reads(at(mid), order) == "no" else (mid, hi)
    return at(hi)


def near_boundary_problems(family, count):
    """(order, dominator, problem) with problem = dominator + eps * noise, eps in [1e-4, 1e-1].

    diagonal: complex diagonal A, n = 3..8, t = lam + 1 (B = A + I).  jordan:
    random_jordan_spec with P and a block of size > 1, rational_dominator.
    stein: stein_jordan_spec, B = A^2 (stein_power_element).  The noise is
    random_element; eps is log-uniform.
    """
    rng = np.random.default_rng({"diagonal": 41, "jordan": 42, "stein": 43}[family])
    for _ in range(count):
        if family == "diagonal":
            n, lams = int(rng.integers(3, 9)), []
            while len(lams) < n:
                lam = complex(rng.uniform(0.4, 2.2), rng.uniform(-1.5, 1.5))
                lams += [lam] if all(abs(lam - mu) > 0.05 for mu in lams) else []
            spec = JordanSpec("complex", tuple(EigenBlock(lam, (1,)) for lam in lams))
            order, inside = LYAPUNOV, BicommElement(tuple((lam + 1.0,) for lam in lams))
        elif family == "jordan":
            spec = random_jordan_spec(rng, max_dim=8, similarity=True)
            while max(e.sizes[0] for e in spec.eigens) == 1:
                spec = random_jordan_spec(rng, max_dim=8, similarity=True)
            order, inside = LYAPUNOV, rational_dominator(rng, spec)
        else:
            spec = stein_jordan_spec(rng, max_dim=6, max_eigens=3)
            order, inside = STEIN, stein_power_element(spec, 2)
        eps = 10.0 ** rng.uniform(-4.0, -1.0)
        problem = LyapunovProblem(spec, bumped(inside, random_element(rng, spec), eps))
        yield order, LyapunovProblem(spec, inside), problem


def support_indices(spec):
    """Full Choi indices u*n + a with u and a in one Jordan block, in increasing order."""
    n = spec.dim
    return np.array([(b.offset + u) * n + b.offset + a
                     for b in inner_blocks(spec) for u in range(b.dim) for a in range(b.dim)])


def inertia(m, tol=DEFAULT_TOLERANCES):
    """(n-, n+): eigenvalues below and above the psd_rel band around zero."""
    eigs = np.linalg.eigvalsh(m)
    band = tol.psd_rel * (1.0 + np.abs(eigs).max())
    return int(np.sum(eigs < -band)), int(np.sum(eigs > band))


ORDER_MAPS = {"Lyapunov": lyapunov_order_map, "Stein": stein_order_map}


class TestMatricization:
    def test_scalar(self):
        m = matricization(LYAPUNOV, np.array([[1 + 2j]]))
        assert np.allclose(m.matrix, [[2.0]])

    def test_diagonal(self):
        m = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        assert np.array_equal(m.matrix, np.diag([2.0, 3.0, 3.0, 4.0]).astype(complex))

    def test_acts_as_lyapunov_operator(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = matricization(LYAPUNOV, a)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(apply_map(m, x), x @ a + a.conj().T @ x)


class TestOrderMap:
    def test_b_equals_a_is_identity(self):
        prob = diag_problem([1.0, 2.0], [1.0, 2.0])
        assert np.allclose(lyapunov_order_map(prob).matrix, np.eye(4))

    def test_composition_definition(self):
        rng = np.random.default_rng(1)
        spec = random_jordan_spec(rng, similarity=True, max_dim=5)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        m = lyapunov_order_map(prob)
        a = build_A(spec)
        b = build_bicomm_element(spec, prob.element)
        la = matricization(LYAPUNOV, a).matrix
        n = spec.dim
        for _ in range(5):
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            inner = unvec(np.linalg.solve(la, vec(h)), n, n)
            assert np.allclose(apply_map(m, h), inner @ b + b.conj().T @ inner, atol=1e-8)

    def test_diagonal_entries_are_pick_ratios(self):
        lams = [1.0 + 0.5j, 2.0 - 1.0j]
        ts = [0.7 + 0.1j, 3.0 + 0j]
        prob = diag_problem(lams, ts)
        m = lyapunov_order_map(prob).matrix
        assert np.allclose(m, np.diag(np.diag(m)))
        for l in range(2):
            for k in range(2):
                expect = (ts[l] + np.conj(ts[k])) / (lams[l] + np.conj(lams[k]))
                assert m[l * 2 + k, l * 2 + k] == pytest.approx(expect)


class TestClosedForm:
    def test_b_equals_a(self):
        prob = diag_problem([1.0, 2.0], [1.0, 2.0])
        assert np.allclose(closed_form_matricization(prob), np.eye(4), atol=1e-12)

    def test_matches_composite_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec = random_jordan_spec(rng, similarity=True)
            prob = LyapunovProblem(spec, random_element(rng, spec))
            lhs = closed_form_matricization(prob)
            rhs = lyapunov_order_map(prob).matrix
            assert np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(rhs)) <= 1e-8

    def test_single_jordan_block(self):
        spec = JordanSpec("complex", (EigenBlock(1.0 + 1.0j, (3,)),))
        prob = LyapunovProblem(spec, BicommElement(((0.5 - 0.2j, 1.3, -0.4j),)))
        lhs = closed_form_matricization(prob)
        rhs = lyapunov_order_map(prob).matrix
        assert np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(rhs)) <= 1e-10

    def test_real_field_rejected(self):
        spec = JordanSpec("real", (EigenBlock(1.0, (1,)),))
        prob = LyapunovProblem(spec, BicommElement(((1.0,),)))
        with pytest.raises(ValueError):
            closed_form_matricization(prob)


class TestHillPickCoeff:
    def test_diagonal_reduces_to_pick_entry(self):
        lams = [1.0 + 0.3j, 2.0]
        ts = [0.4 - 1.0j, 1.5]
        prob = diag_problem(lams, ts)
        for j in range(2):
            for a in range(2):
                expect = (np.conj(ts[a]) + ts[j]) / (lams[j] + np.conj(lams[a]))
                assert hill_pick_coeff(prob, j, 0, a, 0) == pytest.approx(expect)

    def test_b_equals_a_diagonal_is_one(self):
        prob = diag_problem([1.0 + 1j, 3.0], [1.0 + 1j, 3.0])
        for j in range(2):
            assert hill_pick_coeff(prob, j, 0, j, 0) == pytest.approx(1.0)

    def test_reflexivity(self):
        rng = np.random.default_rng(3)
        spec = random_jordan_spec(rng, max_dim=6)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        r = len(spec.eigens)
        for j in range(r):
            for a in range(r):
                for i in range(spec.eigens[j].sizes[0]):
                    for c in range(spec.eigens[a].sizes[0]):
                        lhs = hill_pick_coeff(prob, j, i, a, c)
                        rhs = np.conj(hill_pick_coeff(prob, a, c, j, i))
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_range_guard(self):
        prob = diag_problem([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            hill_pick_coeff(prob, 0, 1, 0, 0)
        for args in ((-1, 0, 0, 0), (0, 0, -1, 0), (2, 0, 0, 0), (0, 0, 2, 0)):
            with pytest.raises(ValueError, match="eigenvalue index"):
                hill_pick_coeff(prob, *args)

    def test_singular_pair_raises_regularity_error(self):
        prob = diag_problem([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="not Lyapunov regular"):
            hill_pick_coeff(prob, 0, 0, 1, 0)
        assert hill_pick_coeff(prob, 0, 0, 0, 0) == pytest.approx(1.0)  # a regular pair


class TestHillPickMatrix:
    def test_frozen_violation_example(self):
        hp = hill_pick_matrix(PICK_NOT_DOMINATED)
        assert np.allclose(hp.matrix, [[1.0, 4.0 / 3.0], [4.0 / 3.0, 1.5]], atol=1e-14)
        verdict, lam = psd_report(hp.matrix)
        assert verdict == "no"
        assert lam == pytest.approx(PICK_MIN_EIG, abs=1e-12)

    def test_frozen_inverse_example(self):
        hp = hill_pick_matrix(diag_problem([1.0, 2.0], [1.0, 0.5]))
        assert np.allclose(hp.matrix, [[1.0, 0.5], [0.5, 0.25]], atol=1e-14)
        assert rank_tol(hp.matrix) == 1
        assert psd_report(hp.matrix)[1] >= -1e-12

    def test_single_jordan_block_b_equals_a(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (2,)),))
        prob = LyapunovProblem(spec, BicommElement(((1.0, 1.0),)))
        hp = hill_pick_matrix(prob)
        assert np.allclose(hp.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_hermitian(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            spec = random_jordan_spec(rng)
            prob = LyapunovProblem(spec, random_element(rng, spec))
            h = hill_pick_matrix(prob).matrix
            assert np.linalg.norm(h - h.conj().T) <= 1e-10 * (1 + np.linalg.norm(h))

    def test_upsilon_frozen_complex(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (2, 1)), EigenBlock(2.0, (1,))))
        assert upsilon_selection(spec) == ((0, 0), (1, 0), (3, 3))

    def test_upsilon_frozen_real(self):
        spec = JordanSpec("real", (EigenBlock(1 + 1j, (1,)), EigenBlock(2.0, (2,))))
        assert upsilon_selection(spec) == ((0, 0), (1, 0), (2, 2), (3, 2))

    def test_block_offsets_frozen(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (2, 1)), EigenBlock(2.0, (1,))))
        hp = hill_pick_matrix(LyapunovProblem(spec, BicommElement(((1.0, 0.0), (1.0,)))))
        assert hp.block_offsets == (0, 2) and hp.field == "complex"
        spec = JordanSpec("real", (EigenBlock(1 + 1j, (1,)), EigenBlock(2.0, (2,))))
        hp = hill_pick_matrix(LyapunovProblem(spec, BicommElement(((1 + 1j,), (2.0, 0.0)))))
        assert hp.block_offsets == (0, 2) and hp.field == "real"

    def test_matches_extraction_from_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            spec = random_jordan_spec(rng)  # no similarity: jordan basis
            prob = LyapunovProblem(spec, random_element(rng, spec))
            big = lyapunov_order_map(prob)  # built by solves, not from the Hill-Pick matrix
            extracted = hill_at_selection(matricization_blocks(big), upsilon_selection(spec)).T
            assert np.allclose(hill_pick_matrix(prob).matrix, extracted, atol=1e-9)

    def test_matches_scalar_coefficients(self):
        def scalar_loop(prob):
            """One hill_pick_coeff call per entry, as the matrix was assembled before."""
            leads = [e.sizes[0] for e in prob.spec.eigens]
            off = np.cumsum([0] + leads)
            h = np.zeros((off[-1], off[-1]), dtype=np.complex128)
            for i, li in enumerate(leads):
                for j, lj in enumerate(leads):
                    for a in range(li):
                        for b in range(lj):
                            h[off[i] + a, off[j] + b] = hill_pick_coeff(prob, j, b, i, a)
            return h

        rng = np.random.default_rng(41)
        for k in range(60):
            lams = [complex(0.4 + 0.6 * m + 0.3 * rng.random(), rng.uniform(-1.5, 1.5))
                    for m in range(int(rng.integers(1, 4)))]
            sizes = [tuple(sorted(rng.integers(1, 5, size=int(rng.integers(1, 4))), reverse=True))
                     for _ in lams]
            sizes[0] = (int(rng.integers(2, 5)), 1)  # an eigenvalue with several blocks
            spec = JordanSpec("complex", tuple(EigenBlock(l, s) for l, s in zip(lams, sizes)))
            prob = LyapunovProblem(spec, random_element(rng, spec))
            expect = scalar_loop(prob)
            np.testing.assert_allclose(hill_pick_matrix(prob).matrix, expect, rtol=0,
                                       atol=1e-12 * np.abs(expect).max())
        spec = JordanSpec("complex", (EigenBlock(1.0, (3, 1)), EigenBlock(-1.0, (2,))))
        singular = LyapunovProblem(spec, BicommElement(((1.0, 0.5, 0.2), (1.0, 0.3))))
        real_singular = LyapunovProblem(JordanSpec("real", (EigenBlock(1j, (1,)),)),
                                        BicommElement(((1.0,),)))
        for prob in (singular, real_singular):
            with pytest.raises(ValueError, match="not Lyapunov regular"):
                hill_pick_matrix(prob)

    def test_recursion_matches_closed_form(self):
        # The displacement recursion against the paper's closed form, and the
        # equation J* H_c + H_c J = conj(t) E^T + E t^T that it solves, with
        # H_c unfolded from M* H_c M over the real field.
        fields = set()
        for k, field, order, similar, prob in mixed_block_problems():
            if order is not LYAPUNOV:
                continue
            got, want = hill_pick_matrix(prob).matrix, hill_pick_closed_form(prob)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
            slots, m = hill_pick_slots(prob)
            j, e, t = slot_displacement(slots)
            m_inv = np.linalg.inv(m)
            h = m_inv.conj().T @ got @ m_inv
            residual = j.conj().T @ h + h @ j - np.outer(t.conj(), e) - np.outer(e, t)
            scale = np.abs(j).max() * np.abs(h).max() + np.abs(t).max()
            assert np.abs(residual).max() <= 1e-13 * scale
            fields.add(field)
        assert fields == {"complex", "real"}

    def test_matches_pinned_hill_transpose(self):
        from lyaporder.hill import nonminimal_hill

        rng = np.random.default_rng(6)
        spec = random_jordan_spec(rng, max_dim=5)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        ja = build_JA(spec)
        bt = build_bicomm_jordan(spec, prob.element)
        la = matricization(LYAPUNOV, ja).matrix
        lb = matricization(LYAPUNOV, bt).matrix
        jordan_map = StarLinearMap(np.linalg.solve(la.T, lb.T).T, spec.dim, spec.dim)
        rep = nonminimal_hill(jordan_map, upsilon_selection(spec))
        assert np.allclose(hill_pick_matrix(prob).matrix, rep.hill.T, atol=1e-9)
        assert rank_tol(rep.hill) == rank_tol(choi_matrix(jordan_map))

    def test_overflow_raises_without_warnings(self):
        # lam + conj(lam) = 2e-320: the division overflows to inf and nan.
        # The matrix is refused as it is built, with no RuntimeWarning, and
        # the decision that starts from it raises the same error.
        prob = diag_problem([1e-320], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (hill_pick_matrix, check_domination):
                with pytest.raises(np.linalg.LinAlgError, match="^Hill-Pick matrix: non-finite"):
                    route(prob)


class TestHillPickReal:
    def test_real_diagonal_is_classical_pick(self):
        spec = JordanSpec("real", (EigenBlock(1.0, (1,)), EigenBlock(3.0, (1,))))
        prob = LyapunovProblem(spec, BicommElement(((0.5,), (2.0,))))
        hp = hill_pick_matrix(prob)
        expect = [[1.0 / 2.0, 2.5 / 4.0], [2.5 / 4.0, 4.0 / 6.0]]
        assert np.allclose(hp.matrix, expect, atol=1e-12)

    def test_pair_b_equals_a_psd(self):
        spec = JordanSpec("real", (EigenBlock(1 + 1j, (1,)),))
        prob = LyapunovProblem(spec, a_element(spec))
        hp = hill_pick_matrix(prob)
        assert psd_report(hp.matrix)[1] >= -1e-12

    def test_verdict_matches_complexified_choi(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = random_jordan_spec(rng, field="real", similarity=True)
            prob = LyapunovProblem(spec, random_element(rng, spec))
            hp_verdict = is_psd(hill_pick_matrix(prob).matrix)
            choi_verdict = is_psd(choi_matrix(lyapunov_order_map(prob)))
            if "marginal" not in (hp_verdict, choi_verdict):
                assert hp_verdict == choi_verdict

    def test_real_is_congruent_to_complexified(self):
        # Each pair a + ib becomes the eigenvalues lam and conj(lam), with
        # coefficients t and conj(t); M takes their slots k to the real slots
        # 2k and 2k + 1, and is the identity on real eigenvalues.
        rng = np.random.default_rng(36)
        folded = 0
        while folded < 40:
            lams = [complex(-rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.5) * rng.integers(0, 2))
                    for _ in range(int(rng.integers(1, 4)))]
            if not any(lam.imag for lam in lams) or any(
                    abs(x - y) < 0.2 for i, x in enumerate(lams) for y in lams[i + 1:]):
                continue
            eigens, coeffs, c_eigens, c_coeffs, blocks = [], [], [], [], []
            for lam in lams:
                sizes = sorted(rng.integers(1, 5, size=int(rng.integers(1, 3))), reverse=True)
                s = sizes[0]
                t = tuple(rng.standard_normal(s) + 1j * rng.standard_normal(s) * (lam.imag > 0))
                eigens.append(EigenBlock(lam, sizes))
                coeffs.append(t)
                if lam.imag > 0:
                    c_eigens += [eigens[-1], EigenBlock(lam.conjugate(), sizes)]
                    c_coeffs += [t, tuple(np.conj(t))]
                    m = np.zeros((2 * s, 2 * s), dtype=complex)
                    for k in range(s):
                        m[k, 2 * k], m[k, 2 * k + 1] = 0.5, -0.5j
                        m[s + k, 2 * k], m[s + k, 2 * k + 1] = 0.5, 0.5j
                    blocks.append(m)
                else:
                    c_eigens.append(eigens[-1])
                    c_coeffs.append(t)
                    blocks.append(np.eye(s))
            real = LyapunovProblem(JordanSpec("real", tuple(eigens)), BicommElement(tuple(coeffs)))
            complexified = LyapunovProblem(JordanSpec("complex", tuple(c_eigens)),
                                           BicommElement(tuple(c_coeffs)))
            m = block_diag(*blocks)
            expect = m.conj().T @ hill_pick_matrix(complexified).matrix @ m
            got = hill_pick_matrix(real).matrix
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
            assert not got.imag.any()
            folded += 1

    def test_no_jordan_setup_or_choi(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Hill-Pick route used the Choi route's setup")

        monkeypatch.setattr(domination, "_jordan_setup", refuse)
        monkeypatch.setattr(BlockSeparableMap, "support_choi", refuse)
        rng = np.random.default_rng(37)
        for _ in range(10):
            spec = random_jordan_spec(rng, field="real", similarity=True)
            hp = hill_pick_matrix(LyapunovProblem(spec, random_element(rng, spec)))
            assert hp.field == "real" and hp.size == len(upsilon_selection(spec))


class TestCheckDomination:
    def test_problem_is_frozen(self):
        # The setup trusts the element check made when the problem was built.
        prob = diag_problem([1.0, 2.0], [1.0, 3.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.element = BicommElement(((1.0, 2.0), (3.0,)))
        assert prob.element == BicommElement(((1.0,), (3.0,)))

    def test_scalar_b_equals_a(self):
        prob = diag_problem([2.0], [2.0])
        report = check_domination(prob, oracle_trials=100, seed=0)
        assert report.verdict == "dominates"
        assert report.hill_pick_min_eig == pytest.approx(1.0)
        assert report.oracle_status == "consistent"
        assert report.methods_agree

    def test_frozen_violation(self):
        report = check_domination(PICK_NOT_DOMINATED, oracle_trials=1000, seed=0)
        assert report.verdict == "not_dominates"
        assert report.hill_pick_min_eig == pytest.approx(PICK_MIN_EIG, abs=1e-12)
        assert report.oracle_status == "violation"
        h = report.oracle_witness
        a, b = np.diag([1.0, 2.0]), np.diag([1.0, 3.0])
        assert is_psd(h @ a + a.T @ h) in ("yes", "marginal")
        assert psd_report(h @ b + b.T @ h)[1] < 0

    def test_strict_dominator(self):
        rng = np.random.default_rng(8)
        spec = random_jordan_spec(rng, similarity=True)
        prob = LyapunovProblem(spec, rational_dominator(rng, spec))
        report = check_domination(prob, oracle_trials=300, seed=1)
        assert report.verdict == "dominates"
        assert report.oracle_status == "consistent"
        assert report.methods_agree

    @pytest.mark.parametrize("decide,prob", [
        (check_domination, B_IS_IDENTITY),
        (stein_domination, diag_problem([0.5], [0.25])),
    ], ids=["lyapunov", "stein"])
    def test_oracle_violation_against_yes_breaks_agreement(self, monkeypatch, decide, prob):
        # Both orders share one agreement rule, in which an oracle violation
        # reads "no": against a strict dominator's "yes" the cross-check fails,
        # while the verdict stays the matrix route's.
        def violating(prob, trials, seed, order=LYAPUNOV, setup=None):
            return "violation", np.eye(prob.spec.dim, dtype=complex)

        assert decide(prob, oracle_trials=50).methods_agree
        monkeypatch.setattr(domination, "domination_oracle", violating)
        report = decide(prob, oracle_trials=50)
        assert report.verdict == "dominates" and report.oracle_status == "violation"
        assert report.methods_agree is False

    def test_boundary_reports_marginal(self):
        prob = diag_problem([1.0, 2.0], [1.0, 2.0])  # B = A: all-ones Pick matrix
        report = check_domination(prob, oracle_trials=200, seed=0)
        assert report.verdict == "marginal"
        assert np.allclose(report.hill_pick.matrix, np.ones((2, 2)))
        assert report.oracle_status == "consistent"

    def test_regularity_enforced(self):
        # The problem can be built; each route that inverts lyap_A refuses it.
        prob = diag_problem([1.0, -1.0], [1.0, 1.0])
        message = re.escape(
            "not Lyapunov regular: some pair of eigenvalues satisfies lam_i + conj(lam_j) == 0"
        )
        routes = (
            check_domination,
            hill_pick_matrix,
            domination_oracle,
            lyapunov_order_map,
            closed_form_matricization,
        )
        for route in routes:
            with pytest.raises(ValueError, match=message):
                route(prob)

    def test_regularity_checked_once_per_decision(self, monkeypatch):
        # hill_pick_matrix checks it for the Lyapunov decision, _decide for
        # Stein; a non-regular A still raises the same error.
        calls = []
        real = Order.require_regular
        monkeypatch.setattr(Order, "require_regular",
                            lambda self, spec, tol: calls.append(self.name) or real(self, spec, tol))
        prob = diag_problem([0.5, 0.3 + 0.2j], [0.25, 0.4 + 0.1j])
        check_domination(prob, oracle_trials=50)
        assert calls == ["Lyapunov"]
        calls.clear()
        stein_domination(prob, oracle_trials=50)
        assert calls == ["Stein"]
        calls.clear()
        with pytest.raises(ValueError, match="^not Lyapunov regular: "):
            check_domination(diag_problem([1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match="^not Stein regular: "):
            stein_domination(diag_problem([2.0, 0.5], [2.0, 0.5]))
        assert calls == ["Lyapunov", "Stein"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_coefficients_are_an_input_error(self, bad):
        # Rejected with the problem, not as a route's numerical failure
        # (LinAlgError): A = diag(1, 2) for Lyapunov, A = 0.5 for Stein.
        diagonal = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
        scalar = JordanSpec("complex", (EigenBlock(0.5, (1,)),))
        for decide, spec, coeffs in ((check_domination, diagonal, ((bad,), (1.0,))),
                                     (stein_domination, scalar, ((bad,),))):
            with pytest.raises(ValueError, match="^eigenvalue 0: coefficients must be finite") \
                    as info:
                decide(LyapunovProblem(spec, BicommElement(coeffs)))
            assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trial_count_below_one_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            domination_oracle(PICK_NOT_DOMINATED, trials=trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_domination(PICK_NOT_DOMINATED, oracle_trials=trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            stein_domination(STEIN_FLIP, oracle_trials=trials)

    @pytest.mark.parametrize("decide", [check_domination, stein_domination])
    def test_trial_count_checked_before_any_route(self, monkeypatch, decide):
        called = []
        for name in ("hill_pick_matrix", "_jordan_setup", "_PairMaps", "choi_matrix",
                     "psd_report", "domination_oracle"):
            monkeypatch.setattr(domination, name, lambda *a, _name=name, **k: called.append(_name))
        with pytest.raises(ValueError, match="trials must be at least 1"):
            decide(STEIN_FLIP, oracle_trials=0)
        assert called == []

    def test_decisions_build_no_p_basis_map(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a P-basis order map was built")

        for name in ("lyapunov_order_map", "stein_order_map", "_order_map"):
            monkeypatch.setattr(domination, name, refuse)
        rng = np.random.default_rng(32)
        spec = random_jordan_spec(rng, max_dim=5)
        prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)))
        check_domination(prob, oracle_trials=20)
        stein_domination(with_similarity(rng, prob, STEIN), oracle_trials=20)

    def test_decisions_build_pair_maps_once(self, monkeypatch):
        # One setup per decision, in closed form: every pair of Jordan blocks
        # is covered by exactly one pair of block kinds; no dense matrix is
        # built from the Jordan blocks, no Toeplitz block is gathered and B's
        # element is not validated again (the frozen problem was, when made);
        # the decision calls two_sided and kron nowhere, and _jordan_setup
        # makes no solve.  The oracle's solve for inv(P) is the only one.
        log = {"built": [], "two_sided": [], "solve": [], "kron": 0, "gather": 0,
               "validate": 0, "setup": []}
        monkeypatch.setattr(domination, "_PairMaps", counting_pair_maps(log))
        monkeypatch.setattr(np.linalg, "solve", counting_solve(log, np.linalg.solve))
        for module in (domination, linalg):
            monkeypatch.setattr(module, "kron", counting(log, "kron", linalg.kron))
        for key, name in (("gather", "_toeplitz"), ("validate", "validate_bicomm_element")):
            monkeypatch.setattr(jordan, name, counting(log, key, getattr(jordan, name)))
        monkeypatch.setattr(domination, "validate_bicomm_element",
                            counting(log, "validate", jordan.validate_bicomm_element))
        for order in (LYAPUNOV, STEIN):
            monkeypatch.setattr(domination, order.name.upper(), counting_order(log, order))
        real_setup = domination._jordan_setup

        def setup(prob, order):
            before = len(log["solve"]), len(log["two_sided"]), log["kron"]
            out = real_setup(prob, order)
            log["setup"].append(before == (len(log["solve"]), len(log["two_sided"]), log["kron"]))
            return out

        monkeypatch.setattr(domination, "_jordan_setup", setup)

        def refuse(*args):
            raise AssertionError("a dense Jordan matrix was built")

        for module, name in ((domination, "build_A"), (domination, "build_bicomm_element"),
                             (jordan, "build_JA"), (jordan, "build_bicomm_jordan"),
                             (jordan, "build_A"), (jordan, "build_bicomm_element"),
                             (jordan, "block_diag")):
            monkeypatch.setattr(module, name, refuse)
        rng = np.random.default_rng(42)
        seen = set()
        for k in range(8):
            field, order = ("complex", "real")[k % 2], (LYAPUNOV, STEIN)[k // 2 % 2]
            spec = random_jordan_spec(rng, field=field, max_dim=6)
            prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)), order)
            log.update(built=[], two_sided=[], solve=[], kron=0, gather=0, validate=0, setup=[])
            decide = check_domination if order is LYAPUNOV else stein_domination
            decide(prob, oracle_trials=20)
            ((name, maps),) = log["built"]
            assert name == order.name and log["setup"] == [True]
            cover = np.zeros((len(maps.dims),) * 2, dtype=int)
            for rows, cols, *_ in maps.pairs:
                cover[np.ix_(rows, cols)] += 1
            assert (cover == 1).all()
            assert (log["gather"], log["validate"], log["kron"], log["two_sided"]) == (0, 0, 0, [])
            assert [a is prob.spec.similarity for a, _ in log["solve"]] == [True]
            seen.add((field, order.name))
        assert len(seen) == 4

    def test_order_map_and_sampling_solve_one_half(self, monkeypatch):
        # lyapctl hill's order map solves for L_B inv(L_A) alone, and the
        # reference sampler, which has no B, for inv(L_A) alone: one
        # two_sided call on A and one solve against I.
        log = {"two_sided": [], "solve": []}
        monkeypatch.setattr(np.linalg, "solve", counting_solve(log, np.linalg.solve))
        for module in (domination, reference):
            monkeypatch.setattr(module, "LYAPUNOV", counting_order(log, LYAPUNOV))
        rng = np.random.default_rng(43)
        spec = random_jordan_spec(rng, max_dim=5)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        n = spec.dim
        lyapunov_order_map(prob)
        ((a, b),) = log["solve"]
        assert a.shape == b.shape == (n * n, n * n)
        a = build_A(spec)
        log.update(two_sided=[], solve=[])
        sample_lyapunov_solutions(a, count=3, seed=1)
        ((l, r),) = log["two_sided"]
        np.testing.assert_array_equal(l, a)  # A's maps only
        np.testing.assert_array_equal(r, a)
        ((la, rhs),) = log["solve"]
        assert la.shape == rhs.shape == (n * n, n * n)
        np.testing.assert_array_equal(rhs, np.eye(n * n))

    def test_setup_matches_separate_solves(self):
        # The closed form against the dense solves written here, on L_A and
        # L_B built by two_sided from J's and B's Toeplitz blocks: the
        # composite against solve(L_A^T, L_B^T)^T and the inverse against
        # solve(L_A, I) (on float64 L_A for the real field).
        seen = set()
        for k, field, order, similar, prob in mixed_block_problems():
            assert_setup_matches_dense(_jordan_setup(prob, order), prob, order)
            seen.add((field, order.name, similar))
        assert len(seen) == 8

    def test_setup_does_not_use_hill_pick(self, monkeypatch):
        # The Choi route stays independent of the Hill-Pick route: the setup
        # calls neither hill_pick_matrix nor the selection and leading blocks
        # the Hill-Pick matrix is built from.
        def refuse(*args, **kwargs):
            raise AssertionError("the setup used the Hill-Pick route")

        for name in ("hill_pick_matrix", "upsilon_selection", "leading_blocks"):
            monkeypatch.setattr(domination, name, refuse)
        seen = set()
        for k, field, order, similar, prob in itertools.islice(mixed_block_problems(), 16):
            assert_setup_matches_dense(_jordan_setup(prob, order), prob, order)
            seen.add((field, order.name, similar))
        assert len(seen) == 8


def assert_setup_matches_dense(setup, prob, order):
    """Each pair's composite and inverse within 1e-13 of the block's max-norm of dense solves."""
    for (_, _, la, lb), (_, _, inv, comp) in zip(
            pair_maps(setup, prob, order), setup.pairs, strict=True):
        assert comp.dtype == inv.dtype == setup.dtype
        want = np.linalg.solve(la.swapaxes(-1, -2), lb.swapaxes(-1, -2)).swapaxes(-1, -2)
        np.testing.assert_allclose(comp, want, rtol=0, atol=1e-13 * np.abs(want).max())
        la = la.real if setup.dtype == np.float64 else la
        want = np.linalg.solve(la, np.eye(la.shape[-1]))
        np.testing.assert_allclose(inv, want, rtol=0, atol=1e-13 * np.abs(want).max())


def counting(log, key, fn):
    def wrapped(*args, **kwargs):
        log[key] += 1
        return fn(*args, **kwargs)
    return wrapped


def counting_pair_maps(log):
    class CountingPairMaps(domination._PairMaps):
        def __init__(self, *args):
            super().__init__(*args)
            log["built"].append((args[0].name, self))
    return CountingPairMaps


def counting_order(log, order):
    """order, with each two_sided call's stacks logged."""
    def two_sided(l, r):
        log["two_sided"].append((l, r))
        return order.two_sided(l, r)
    return dataclasses.replace(order, two_sided=two_sided)


def counting_solve(log, solve):
    def wrapped(a, b):
        log["solve"].append((a, b))
        return solve(a, b)
    return wrapped


class TestSampling:
    def test_scalar_halves(self):
        hs = sample_lyapunov_solutions(np.array([[1.0]]), count=5, seed=0)
        for h in hs:
            assert h[0, 0].real >= 0

    def test_samples_solve_inequality(self):
        rng = np.random.default_rng(9)
        spec = random_jordan_spec(rng, similarity=True, max_dim=5)
        a = build_A(spec)
        for h in sample_lyapunov_solutions(a, count=20, seed=1):
            assert np.allclose(h, h.conj().T)
            assert is_psd(h @ a + a.conj().T @ h) in ("yes", "marginal")

    def test_positive_stable_gives_definite_solutions(self):
        a = np.diag([1.0, 2.0, 3.0])
        for h in sample_lyapunov_solutions(a, count=10, seed=2):
            assert is_psd(h) == "yes"

    def test_smaller_count_is_a_prefix(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        assert sample_lyapunov_solutions(a, count=0, seed=5) == []
        for k, m in ((1, 1), (3, 4), (5, 6)):
            short = sample_lyapunov_solutions(a, count=k, seed=5)
            long = sample_lyapunov_solutions(a, count=k + m, seed=5)
            assert len(short) == k and len(long) == k + m
            for h_short, h_long in zip(short, long):
                np.testing.assert_allclose(h_short, h_long, rtol=0, atol=1e-12)

    def test_non_square_a_is_an_input_error(self):
        with pytest.raises(ValueError, match="A must be square") as info:
            sample_lyapunov_solutions(np.ones((2, 3)), count=1)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_cone_combinations(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        h1, h2 = sample_lyapunov_solutions(a, count=2, seed=3)
        combo = 0.3 * h1 + 1.7 * h2
        assert is_psd(combo @ a + a.conj().T @ combo) in ("yes", "marginal")

    @pytest.mark.parametrize("count", [20, 200])
    def test_samples_own_their_memory(self, count):
        # Each H is an array of its own, not a view of its batch's targets:
        # at n = 16, 200 trials run batches of 1, 64, 64, 64 and 7, so the
        # batch cap is crossed.
        spec = JordanSpec("complex", (EigenBlock(1.0 + 0.5j, (4, 3)), EigenBlock(2.0 - 0.3j, (5,)),
                                      EigenBlock(0.8, (2, 1, 1))))
        assert spec.dim == 16
        a = build_A(with_similarity(np.random.default_rng(12), LyapunovProblem(
            spec, identity_element(spec))).spec)
        hs = sample_lyapunov_solutions(a, count=count, seed=7)
        assert len(hs) == count
        assert not any(np.shares_memory(x, y) for k, x in enumerate(hs) for y in hs[k + 1:])
        one = [(np.zeros(1, dtype=int),) * 2 + (LYAPUNOV.two_sided(a, a)[None, None],)]
        batches = block_pair_solutions((len(a),), one, np.complex128, "complex", count, 7)
        expect = [h for batch in batches for h in batch]
        for h, want in zip(hs, expect):
            assert h.dtype == np.complex128
            np.testing.assert_allclose(h, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestOracle:
    @pytest.mark.parametrize("n", [1, 8, 16, 40])
    def test_batch_schedule(self, n):
        # One trial, then batches of at most cap, as the list the schedule once was;
        # the largest is the cap, or all the trials after the first.
        cap = max(64, 64 * 16 * 16 // (n * n))
        for count in (1, 2, 63, 64, 65, 257, 1000):
            sizes = list(domination._batch_sizes(n, count))
            expect = [1] + [min(cap, count - done) for done in range(1, count, cap)]
            assert sizes == expect and max(sizes) == min(cap, max(count - 1, 1))

    def test_batch_schedule_of_a_huge_count_is_lazy(self):
        # 10**12 trials would be a list of 1.6e10 sizes: the schedule takes
        # constant memory.  No oracle runs here.
        tracemalloc.start()
        try:
            sizes = domination._batch_sizes(16, 10**12)
            head = list(itertools.islice(sizes, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert head == [1, 64, 64] and peak < 10_000

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_formed_batches_share_no_memory(self, field):
        # With a screen that declines every trial, past_the_cap's trials form
        # batches of 1, cap and 9, and each yields a Y and targets of its own:
        # no array of one batch is a view of, or shares a buffer with, another's.
        rng = np.random.default_rng(34)
        spec = JordanSpec(field, SIMILAR_EIGENS[field, 8])
        prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)))
        maps = _jordan_setup(prob, LYAPUNOV)
        s_inv = oracle_congruence(prob, LYAPUNOV, maps.dtype)[1]
        count, cap = past_the_cap(spec.dim)
        batches = list(domination._cone_solutions(maps, count, 0, s_inv, decline))
        assert [len(ys) for ys, _ in batches] == [1, cap, 9]
        for k, batch in enumerate(batches):
            for other in batches[k + 1:]:
                assert not any(np.shares_memory(x, y) for x in batch for y in other)

    def test_consistent_for_dominator(self):
        prob = diag_problem([1.0, 2.0], [1.0, 0.5])
        assert domination_oracle(prob, trials=1000, seed=0)[0] == "consistent"

    def test_violation_found(self):
        status, h = domination_oracle(PICK_NOT_DOMINATED, trials=1000, seed=0)
        assert status == "violation" and h is not None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_witness_matches_per_trial_loop(self, seed):
        for prob in (PICK_NOT_DOMINATED, STEIN_FLIP):
            status, h = domination_oracle(prob, trials=1000, seed=seed)
            expect = per_trial_witness(prob, LYAPUNOV, 1000, seed)
            assert status == "violation"
            np.testing.assert_allclose(h, expect, rtol=0, atol=1e-12)
        rng = np.random.default_rng(30 + seed)
        for prob, order in ((PICK_NOT_DOMINATED, LYAPUNOV), (STEIN_FLIP, STEIN)):
            prob = with_similarity(rng, prob)
            status, h = domination_oracle(prob, trials=200, seed=seed, order=order)
            expect = per_trial_witness(prob, order, 200, seed)
            assert status == "violation"
            np.testing.assert_allclose(h, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("order", [LYAPUNOV, STEIN], ids=["lyapunov", "stein"])
    def test_every_trial_matches_per_trial_loop(self, monkeypatch, order, field):
        # With every PSD test passing, all trials run: one, a full batch and
        # 9 more (past_the_cap), so the batch cap is crossed.  The Choi
        # screen is made to decline every trial, so every cone reaches
        # psd_report.
        rng = np.random.default_rng(31)
        spec = random_jordan_spec(rng, field=field, max_dim=6)
        prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)), order)
        count, _ = past_the_cap(spec.dim)
        tested = []
        no_screen(monkeypatch)
        monkeypatch.setattr(domination, "psd_report",
                            lambda m, tol: tested.append(m.copy()) or ("yes", 1.0))
        assert domination_oracle(prob, trials=count, seed=6, order=order) == ("consistent", None)
        b = build_bicomm_element(prob.spec, prob.element)
        expect = np.array([order.cone(h, b) for h in per_trial_solutions(prob, order, count, 6)])
        assert len(tested) == count
        np.testing.assert_allclose(np.array(tested), expect, rtol=0,
                                   atol=1e-12 * np.abs(expect).max())

    def test_screened_batches_keep_the_hermitian_check(self, monkeypatch):
        # After the first trial, the composite's off-diagonal map is skewed:
        # the support Choi matrix C and every later cone deviate from
        # Hermitian beyond eq_rel, while their Hermitian parts stay positive
        # definite.  So only the Choi screen's Hermitian check (of C - C*)
        # sends the trials on to psd_report, which raises on the first.
        def skew(maps):
            maps[0, 1] *= 1.0 + 1e-6

        monkeypatch.setattr(domination, "_cone_solutions", faulty_maps(skew))
        with pytest.raises(NotHermitianError):
            domination_oracle(B_IS_IDENTITY, trials=10, seed=0)

    def test_nan_cone_is_tested_as_per_trial(self, monkeypatch):
        def with_nan(maps):  # the block (1, 0) of every later cone
            maps[1, 0] = np.nan

        monkeypatch.setattr(domination, "_cone_solutions", faulty_maps(with_nan))
        seen = []
        real = domination.psd_report
        monkeypatch.setattr(domination, "psd_report", lambda m, tol: seen.append(m) or real(m, tol))

        def outcome():
            try:
                status, h = domination_oracle(B_IS_IDENTITY, trials=10, seed=0)
            except ValueError as exc:  # LinAlgError and NotHermitianError included
                return type(exc), str(exc)
            return status, None if h is None else h.tobytes()

        error = (np.linalg.LinAlgError, "PSD test: non-finite entries in the matrix or a + a*")
        assert outcome() == error
        assert any(np.isnan(m).any() for m in seen)
        no_screen(monkeypatch)
        assert outcome() == error

    @pytest.mark.parametrize("similar", [False, True], ids=["jordan", "similar"])
    @pytest.mark.parametrize("order", [LYAPUNOV, STEIN], ids=["lyapunov", "stein"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_trials_run_in_the_problem_field(self, monkeypatch, field, order, similar):
        # The Choi screen sees float64 draws, and psd_report float64 cones,
        # on real-field problems and complex128 ones otherwise; witnesses
        # are complex128 and match the per-trial reference, which works in
        # complex128 throughout.
        rng = np.random.default_rng(32)
        spec = random_jordan_spec(rng, field=field, max_dim=6)
        if order is STEIN:  # the Stein tests keep the spectrum inside the unit disk
            spec = JordanSpec(field, tuple(EigenBlock(e.eigenvalue / 3.0, e.sizes)
                                           for e in spec.eigens))
        dtypes = []
        report, choi = domination.psd_report, domination._choi_screen
        monkeypatch.setattr(domination, "psd_report", lambda m, tol:
                            dtypes.append(m.dtype) or report(m, tol))
        monkeypatch.setattr(domination, "_choi_screen", lambda setup, g, scale, tol:
                            dtypes.append(g.dtype) or choi(setup, g, scale, tol))
        refuted = 0
        for seed in range(4):
            element = identity_element(spec) if seed == 0 else random_element(rng, spec)
            prob = LyapunovProblem(spec, element)
            if similar:
                prob = with_similarity(rng, prob)
            status, h = domination_oracle(prob, trials=200, seed=seed, order=order)
            expect = per_trial_witness(prob, order, 200, seed)
            if expect is None:
                assert (status, h) == ("consistent", None)
                continue
            refuted += 1
            assert status == "violation" and h.dtype == np.complex128
            np.testing.assert_allclose(h, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
        assert refuted > 0
        assert set(dtypes) == {np.dtype(np.float64 if field == "real" else np.complex128)}
        a = build_A(spec)
        for h in sample_lyapunov_solutions(a, count=3, seed=0, field=field):
            assert h.dtype == np.complex128

    def test_screen_is_off_below_its_precision(self, monkeypatch):
        # psd_rel = 1e-15 is below 8 n (n + 1) eps for every n, so every
        # trial of a consistent run is tested by psd_report.
        tol = Tolerances(psd_rel=1e-15)
        calls = []
        real = domination.psd_report
        monkeypatch.setattr(domination, "psd_report", lambda m, t: calls.append(1) or real(m, t))
        for base in (B_IS_IDENTITY, PICK_NOT_DOMINATED):
            prob = LyapunovProblem(base.spec, base.element, tol)
            calls.clear()
            status, h = domination_oracle(prob, trials=200, seed=3)
            expect = per_trial_witness(prob, LYAPUNOV, 200, 3)
            if expect is None:
                assert (status, h, len(calls)) == ("consistent", None, 200)
            else:
                assert status == "violation"
                np.testing.assert_allclose(h, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    def test_screen_leaves_three_psd_reports_on_a_dominator(self, monkeypatch):
        # Hill-Pick, Choi and the single-trial first batch; every later batch
        # of a strict dominator passes the screen.  A non-dominator refuted
        # past the first batch still takes its witness from psd_report.  A
        # rank-one target refutes most non-dominators at trial 0, so this one
        # reads "no" by a few bands only: just past the boundary.
        spec = JordanSpec("complex", (EigenBlock(1 + 0.5j, (3, 2)), EigenBlock(2 - 0.3j, (2, 1))))
        verdicts = []
        real = domination.psd_report

        def counting(m, tol):
            result = real(m, tol)
            verdicts.append(result[0])
            return result

        monkeypatch.setattr(domination, "psd_report", counting)
        rng = np.random.default_rng(0)
        prob = with_similarity(rng, LyapunovProblem(spec, rational_dominator(rng, spec)))
        report = check_domination(prob, oracle_trials=1000, seed=0)
        assert (report.verdict, report.oracle_status) == ("dominates", "consistent")
        assert len(verdicts) == 3
        rng = np.random.default_rng(108)
        inside = rational_dominator(rng, spec)
        outside = LyapunovProblem(spec, bumped(inside, random_element(rng, spec), 0.3))
        prob = just_past_the_boundary(outside, LYAPUNOV, inside)
        verdicts.clear()
        report = check_domination(prob, oracle_trials=1000, seed=0)
        assert report.oracle_status == "violation" and verdicts[-1] == "no"
        assert len(verdicts) > 3
        expect = per_trial_witness(prob, LYAPUNOV, 1000, 0)
        np.testing.assert_allclose(report.oracle_witness, expect, rtol=0,
                                   atol=1e-12 * np.abs(expect).max())

    def test_late_refutation_inside_a_full_batch(self, monkeypatch):
        # n = 8 runs one trial, then batches of 256.  This non-dominator, just
        # past the boundary, is first refuted at trial 174, inside the first
        # full batch: its C has no certificate, the Choi screen declines each
        # trial of that batch, and psd_report tests trial 0 and then trials
        # 1..174 of the batch, none after the first "no".
        spec = JordanSpec("complex", (EigenBlock(1 + 0.5j, (3, 2)), EigenBlock(2 - 0.3j, (2, 1))))
        rng = np.random.default_rng(108)
        inside = rational_dominator(rng, spec)
        outside = LyapunovProblem(spec, bumped(inside, random_element(rng, spec), 0.3))
        prob = just_past_the_boundary(outside, LYAPUNOV, inside)
        index, expect = per_trial_violation(prob, LYAPUNOV, 1000, 20)
        sizes = domination._batch_sizes(spec.dim, 1000)
        assert list(itertools.islice(sizes, 2)) == [1, 256] and 64 < index < 1 + 256
        screens, reports = [], []
        real_screen, real_report = domination._choi_screen, domination.psd_report
        monkeypatch.setattr(domination, "_choi_screen", lambda setup, g, scale, tol:
                            screens.append(real_screen(setup, g, scale, tol)) or screens[-1])
        monkeypatch.setattr(domination, "psd_report",
                            lambda m, tol: reports.append(1) or real_report(m, tol))
        status, h = domination_oracle(prob, trials=1000, seed=20)
        assert status == "violation"
        np.testing.assert_allclose(h, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
        assert [len(passed) for passed in screens] == [256] and not screens[0].any()
        assert len(reports) == 1 + (index - 1 + 1)  # trial 0, then the batch from its start

    @pytest.mark.parametrize("similar", [False, True], ids=["jordan", "similar"])
    def test_only_the_declined_trials_are_formed(self, monkeypatch, similar):
        # A screen that passes every third trial before the first violation
        # (sound: the per-trial loop reads no "no" there) and declines the
        # rest.  _cone_solutions forms exactly the declined trials, in trial
        # order, each with the targets and Y it has when its whole batch is
        # formed, and the oracle's status, witness and psd_report count are
        # those of a per-trial loop over them.
        spec = JordanSpec("complex", (EigenBlock(1 + 0.5j, (3, 2)), EigenBlock(2 - 0.3j, (2, 1))))
        rng = np.random.default_rng(108)
        inside = rational_dominator(rng, spec)
        outside = LyapunovProblem(spec, bumped(inside, random_element(rng, spec), 0.3))
        prob = just_past_the_boundary(outside, LYAPUNOV, inside)
        if similar:
            prob = with_similarity(np.random.default_rng(3), prob)
        index, expect = per_trial_violation(prob, LYAPUNOV, 1000, 20)
        assert index == (28 if similar else 174)  # inside the first full batch
        maps = _jordan_setup(prob, LYAPUNOV)
        s_inv = None if not similar else oracle_congruence(prob, LYAPUNOV, maps.dtype)[1]

        def passes(k):
            return (k % 3 == 1) & (k < index)

        def stacked(screen):
            batches = list(domination._cone_solutions(maps, 1000, 20, s_inv, screen))
            return [len(ys) for ys, _ in batches], *(np.concatenate(x) for x in zip(*batches))

        _, all_ys, all_targets = stacked(decline)
        sizes, ys, targets = stacked(patterned_screen(passes))
        trials = np.arange(1000)
        formed = np.flatnonzero(~passes(trials))
        starts = np.cumsum([0] + list(domination._batch_sizes(spec.dim, 1000)))
        assert sizes == [np.count_nonzero(~passes(trials[a:b])) for a, b in zip(starts, starts[1:])]
        np.testing.assert_array_equal(targets, all_targets[formed])
        np.testing.assert_allclose(ys, all_ys[formed], rtol=0, atol=1e-14 * np.abs(all_ys).max())
        reports, real_report = [], domination.psd_report
        monkeypatch.setattr(domination, "psd_report",
                            lambda m, tol: reports.append(1) or real_report(m, tol))
        screen = patterned_screen(passes)
        monkeypatch.setattr(domination, "_choi_screen", lambda setup, g, scale, tol: screen(g))
        status, h = domination_oracle(prob, trials=1000, seed=20)
        assert status == "violation"
        np.testing.assert_allclose(h, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
        assert len(reports) == np.count_nonzero(formed <= index)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("order", [LYAPUNOV, STEIN], ids=["lyapunov", "stein"])
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_dominator_with_a_similarity_is_screened_in_the_jordan_basis(
            self, monkeypatch, field, order, n):
        # One psd_report (the single first trial), one Choi screen per batch
        # of two or more, passing all its trials, and one scale per call.
        # With cond(P) = 1e6 the Choi screens decline every trial, and the
        # outcome and counts equal those of screens that decline without
        # running: psd_report tests every trial.
        rng = np.random.default_rng(48 + n)
        prob = similar_dominator(rng, field, n, order)
        batches = len(list(domination._batch_sizes(n, 1000))) - 1  # after the first trial
        counts = counting_oracle(monkeypatch)
        assert domination_oracle(prob, trials=1000, seed=1, order=order) == ("consistent", None)
        assert counts == {"report": 1, "scale": 1, "choi": batches, "choi_trials": 999,
                          "choi_passed": 999}
        ill = with_condition(rng, prob, 1e6)
        outcomes = []
        for decline_choi in (True, False):
            counts = counting_oracle(monkeypatch, decline_choi)
            try:
                outcomes.append(domination_oracle(ill, trials=1000, seed=1, order=order)[0])
            except ValueError as exc:  # NotHermitianError included
                outcomes.append(type(exc))
            outcomes.append({k: v for k, v in counts.items() if not k.startswith("choi")})
        assert outcomes[0:2] == outcomes[2:4]
        assert outcomes[0] == "consistent" and outcomes[1]["report"] == 1000
        assert counts["choi"] == batches and counts["choi_trials"] == 999
        assert counts["choi_passed"] == 0

    def test_no_scale_for_a_refutation_at_trial_zero(self, monkeypatch):
        # The scale (an eigvalsh of S* S) and the Choi matrix's certificate
        # (a Cholesky) are made once per call, at the first batch of two or
        # more: never when trial 0 refutes.
        rng = np.random.default_rng(49)
        spec = JordanSpec("complex", SIMILAR_EIGENS["complex", 16])
        prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)))
        counts = counting_oracle(monkeypatch)
        report = check_domination(prob, oracle_trials=1000, seed=0)
        assert report.oracle_status == "violation"
        assert counts["scale"] == counts["choi"] == counts["choi_trials"] == 0
        assert counts["report"] == 3  # Hill-Pick, Choi, trial 0
        setup = _jordan_setup(prob, LYAPUNOV)
        assert domination_oracle(prob, seed=0, setup=setup)[0] == "violation"
        assert "choi" not in vars(setup) and "certificate" not in vars(setup)

    def test_solve_plan_matches_block_pair_reference(self):
        # _pull_back of each batch's kept targets is the reference's H.  The
        # trials run batches of 1, then a full batch of the workspace cap and
        # 9 more (past_the_cap); every spec mixes 1 x 1 blocks with larger
        # ones, so both kinds of size pair (a product, a stacked matmul)
        # meet in one plan.
        seen = set()
        for k, field, order, similar, prob in mixed_block_problems():
            maps = _jordan_setup(prob, order)
            congruence = oracle_congruence(prob, order, maps.dtype)
            count, cap = past_the_cap(prob.spec.dim)
            s, s_inv = (None, None) if congruence is None else congruence[:2]
            sizes = []
            for (_, targets), want in zip(
                    domination._cone_solutions(maps, count, k, s_inv),
                    setup_solutions(maps, prob, order, field, count, k, congruence), strict=True):
                hs = domination._pull_back(maps, targets, s)
                assert hs.dtype == maps.dtype and hs.shape == want.shape
                np.testing.assert_allclose(hs, want, rtol=0, atol=1e-12 * np.abs(want).max())
                sizes.append(len(hs))
            assert sizes == [1, cap, 9]
            seen.add((field, order.name, similar))
        assert len(seen) == 8

    def test_oracle_cones_match_block_pair_reference(self):
        # The oracle's cone stacks are Y = Phi_J(W'), formed in A's Jordan
        # basis from the targets by the composite without any H: each S Y S*
        # (Y itself without P) must be cone(H, B) of the reference H, on
        # every batch of past_the_cap's trials.  A violation past the
        # first batch must still return the per-trial witness, pulled back
        # from its own target.  Rank-one targets refute these random B at
        # trial 0, so the first non-dominator of each kind is also moved just
        # past the boundary from a dominator (I for Lyapunov, I / 2 for Stein).
        seen, late = set(), 0
        for k, field, order, similar, prob in mixed_block_problems():
            maps = _jordan_setup(prob, order)
            congruence = oracle_congruence(prob, order, maps.dtype)
            b = build_bicomm_element(prob.spec, prob.element)
            count, _ = past_the_cap(prob.spec.dim)
            s_inv = None if congruence is None else congruence[1]
            for (cones, targets), hs in zip(
                    domination._cone_solutions(maps, count, k, s_inv),
                    setup_solutions(maps, prob, order, field, count, k, congruence), strict=True):
                want = order.cone(hs, b)
                assert cones.dtype == maps.dtype and cones.shape == want.shape
                assert targets.shape == (len(hs), prob.spec.dim ** 2)
                if congruence is not None:
                    cones = congruence[0] @ cones @ congruence[2]
                np.testing.assert_allclose(cones, want, rtol=0, atol=1e-12 * np.abs(want).max())
            if (field, order.name, similar) not in seen and deciding_reads(prob, order) == "no":
                inside = identity_element(prob.spec)
                inside = inside if order is LYAPUNOV else bumped(inside, inside, -0.5)  # I / 2
                near = just_past_the_boundary(prob, order, inside)
                index, expect = per_trial_violation(near, order, 200, k)
                if index is not None and index > 0:
                    status, h = domination_oracle(near, trials=200, seed=k, order=order,
                                                  setup=_jordan_setup(near, order))
                    assert status == "violation"
                    np.testing.assert_allclose(h, expect, rtol=0,
                                               atol=1e-12 * np.abs(expect).max())
                    late += 1
            seen.add((field, order.name, similar))
        assert len(seen) == 8
        assert late > 0

    @pytest.mark.parametrize("family", ["diagonal", "jordan", "stein"])
    def test_refutes_near_boundary_non_dominators(self, family):
        # Dominators bumped by eps in [1e-4, 1e-1]: every bumped problem the
        # deciding route reads "no" on is refuted within the default 1000
        # trials, and every tenth dominator stays consistent.  Full-rank
        # targets G G*, deep inside the PSD cone, miss most of these.
        refuted = 0
        for k, (order, dominator, prob) in enumerate(near_boundary_problems(family, 200)):
            if k % 10 == 0:
                assert domination_oracle(dominator, seed=k, order=order) == ("consistent", None)
            if deciding_reads(prob, order) == "no":
                assert domination_oracle(prob, seed=k, order=order)[0] == "violation", k
                refuted += 1
        assert refuted >= 30

    def test_witness_owns_its_data(self):
        # The witness is an array of its own, not a view of its batch's
        # targets: a second call on the same setup leaves it as it was.
        for prob, order in ((PICK_NOT_DOMINATED, LYAPUNOV), (STEIN_FLIP, STEIN)):
            setup = _jordan_setup(prob, order)
            status, h = domination_oracle(prob, trials=1000, seed=1, order=order, setup=setup)
            assert status == "violation" and h.base is None
            kept = h.copy()
            domination_oracle(prob, trials=1000, seed=2, order=order, setup=setup)
            np.testing.assert_array_equal(h, kept)

    @pytest.mark.parametrize("case", ["stein-complex-16", "lyapunov-real-32",
                                      "stein-complex-8", "stein-complex-4"])
    def test_traced_peak_of_a_dominator(self, case):
        # All 1000 trials run.  Every batch after the first passes the Choi
        # screen, so only the single first trial's arrays are formed.  The
        # bounds are the traced peaks (bytes) of these calls when formed
        # batches still wrote into a kept (4, size, n, n) workspace, plus at
        # most 25%: 241,390, 809,702, 170,602 and 277,691.  With fresh arrays
        # per formed batch they read 232,798, 801,406, 167,885 and 276,473
        # (numpy 2.4).
        stein = {16: (EigenBlock(0.5 + 0.2j, (3, 2)), EigenBlock(-0.4 + 0.1j, (2, 1, 1)),
                      EigenBlock(0.3 - 0.5j, (4,)), EigenBlock(0.6j, (1, 1, 1))),
                 8: (EigenBlock(0.5 + 0.2j, (3, 2)), EigenBlock(-0.4 + 0.1j, (2, 1))),
                 4: (EigenBlock(0.5 + 0.2j, (2,)), EigenBlock(-0.4 + 0.1j, (1, 1)))}
        bound = {"stein-complex-16": 300_000, "lyapunov-real-32": 1_000_000,
                 "stein-complex-8": 210_000, "stein-complex-4": 345_000}[case]
        if case.startswith("stein"):
            field, order, seed = "complex", STEIN, int(case.split("-")[-1])
            eigens = stein[seed]
            coeffs = [(e.eigenvalue ** 2, 2 * e.eigenvalue, 1.0, 0.0) for e in eigens]  # B = A^2
        else:
            field, order, seed = "real", LYAPUNOV, 32
            eigens = (EigenBlock(1.0 + 0.5j, (2, 2)), EigenBlock(0.7, (3, 2, 1)),
                      EigenBlock(1.5 + 0.8j, (3, 1)), EigenBlock(2.0, (4,)),
                      EigenBlock(0.9 + 1.2j, (1, 1, 1)))
            coeffs = [(0.8 + 0.5 * e.eigenvalue, 0.5, 0.0, 0.0) for e in eigens]  # B = 0.8 + A/2
        n = JordanSpec(field, eigens).dim
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        if field == "complex":
            g = g + 1j * rng.standard_normal((n, n))
        spec = JordanSpec(field, eigens, np.eye(n) + 0.3 * g / np.sqrt(n))
        prob = LyapunovProblem(spec, BicommElement(tuple(
            c[: e.sizes[0]] for c, e in zip(coeffs, eigens))))
        assert n == seed
        domination_oracle(prob, trials=20, seed=0, order=order)  # numpy's lazy set-up
        tracemalloc.start()
        try:
            assert domination_oracle(prob, trials=1000, seed=0, order=order)[0] == "consistent"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_positive_scaling_consistent(self):
        rng = np.random.default_rng(10)
        spec = random_jordan_spec(rng, similarity=True, max_dim=5)
        scaled = BicommElement(tuple(tuple(1.7 * c for c in row) for row in a_element(spec).coeffs))
        prob = LyapunovProblem(spec, scaled)
        assert domination_oracle(prob, trials=500, seed=4)[0] == "consistent"


def screened_batches(setup, prob, order, count, seed):
    """(g', Y, congruence) for each of the oracle's batches of two or more, all formed.

    The screen hook keeps each batch's rows g' = inv(S) g and declines
    every trial, so _cone_solutions forms Y = Phi_J(g' g'*) for all of them.
    """
    congruence = oracle_congruence(prob, order, setup.dtype)
    rows = []
    s_inv = None if congruence is None else congruence[1]
    for ys, _ in domination._cone_solutions(setup, count, seed, s_inv,
                                            lambda g: rows.append(g.copy()) or decline(g)):
        if len(ys) > 1:
            yield rows[-1], ys, congruence


def support_congruence(dims, g):
    """V = (+)_I (conj g_I (x) I_{d_I}) per row of g, (size, N, n), in C's (u, a) indexing."""
    n, sq = sum(dims), np.array(dims) ** 2
    rows, cols, src = np.array([(at + u * d + a, o + a, o + u) for o, at, d in zip(
        np.cumsum((0,) + tuple(dims)), np.cumsum(sq) - sq, dims)
        for u in range(d) for a in range(d)]).T
    v = np.zeros((len(g), sq.sum(), n), dtype=np.clongdouble)
    v[:, rows, cols] = g[:, src].conj()
    return v


def gamma(k, eps=np.finfo(np.float64).eps):
    return k * eps / 2.0 / (1.0 - k * eps / 2.0)


def boundary_population():
    """(order, problem) at or near the boundary, under P of condition 1 .. 1e6.

    Per near_boundary_problems family, six dominators: each moved toward its
    non-dominator by 1e-9, 1e-12 and 1e-15, B = A, and B scaled by 1e-8 and
    1e8; then without P and under P of condition 1e2, 1e4 and 1e6, scaled
    by 10^-3 .. 10^3.
    """
    rng = np.random.default_rng(51)
    for family in ("diagonal", "jordan", "stein"):
        for order, dominator, problem in itertools.islice(near_boundary_problems(family, 6), 6):
            spec, inside = dominator.spec, dominator.element
            elements = [bumped(inside, problem.element, s, 1.0 - s) for s in (1e-9, 1e-12, 1e-15)]
            elements += [a_element(spec)] + [bumped(inside, inside, c - 1.0) for c in (1e-8, 1e8)]
            for element in elements:
                prob = LyapunovProblem(JordanSpec(spec.field, spec.eigens), element)
                yield order, prob
                for cond in (1e2, 1e4, 1e6):
                    p = conditioned(rng, spec.dim, cond, spec.field) * 10.0 ** rng.uniform(-3, 3)
                    yield order, LyapunovProblem(JordanSpec(spec.field, spec.eigens, p), element)


class TestChoiScreen:
    def test_trials_are_congruences_of_the_choi_matrix(self):
        # Phi_J(g g*) = V* C V for the support Choi matrix C, on the oracle's
        # own rows g' = inv(S) g: each formed Y lies within the Choi screen's
        # rounding bound r = gamma_{2k+8} m ||C||_F of V* C V, which is
        # evaluated in extended precision (plus its own rounding, for
        # platforms without a wider type), on both orders and fields, with
        # and without P.
        u = float(np.finfo(np.longdouble).eps)
        seen, worst = set(), 0.0
        for k, field, order, similar, prob in mixed_block_problems():
            setup = _jordan_setup(prob, order)
            c, dims = setup.choi, setup.dims
            norm, top = np.linalg.norm(c), max(dims) ** 2
            for g, ys, _ in screened_batches(setup, prob, order, 20, k):
                v = support_congruence(dims, g)
                want = v.conj().swapaxes(-1, -2) @ c.astype(np.clongdouble) @ v
                m = max((np.abs(g[:, o : o + d]) ** 2).sum(axis=1).max()
                        for o, d in zip(np.cumsum((0,) + dims), dims))
                bound = (gamma(2 * top + 8) + gamma(4 * len(c) + 8, u)) * m * norm
                error = np.sqrt((np.abs(ys - want) ** 2).sum(axis=(1, 2))).max()
                assert error <= bound
                worst = max(worst, float(error / bound))
            seen.add((field, order.name, similar))
        assert len(seen) == 8 and worst > 0.0

    @staticmethod
    def screened_verdicts(order, prob, setup, seed):
        """(passed, tried, refuted): the Choi screen on each batch of two or more.

        Every trial's cone is formed as the oracle forms it and tested by
        psd_report, which must neither read "no" nor raise where the screen
        passes the trial.  passed counts the batches whose every trial
        passes, refuted the batches holding a cone that reads "no".
        """
        def verdict(cone, strict):
            try:
                return psd_report(cone, prob.tol)[0]
            except ValueError:  # NotHermitianError and LinAlgError included
                if strict:
                    raise
                return "raised"

        passed = tried = refuted = 0
        for g, ys, congruence in screened_batches(setup, prob, order, 65, seed):
            scale = (1.0, 1.0, 0.0) if congruence is None else (
                domination._congruence_scale(congruence[0]))
            ok = domination._choi_screen(setup, g, scale, prob.tol)
            assert ok.shape == (len(g),) and ok.dtype == bool
            cones = ys if congruence is None else np.matmul(
                np.matmul(congruence[0], ys), congruence[2])
            verdicts = [verdict(cone, passes) for cone, passes in zip(cones, ok)]
            assert not any(passes and v == "no" for passes, v in zip(ok, verdicts))
            passed, tried, refuted = passed + ok.all(), tried + 1, refuted + ("no" in verdicts)
        return passed, tried, refuted

    def test_passes_only_what_psd_report_accepts(self):
        # Wherever the Choi screen passes a trial, psd_report on its cone
        # neither reads "no" nor raises (boundary_population: C singular or
        # barely indefinite, and congruences up to cond(P)^2 = 1e12).  It
        # passes every trial of most batches without P, and of no batch
        # under cond(P) = 1e6, where the band is far below Cholesky's
        # backward error times cond(P)^2 for all but a few trials.
        counts = {"plain": [0, 0], "ill": [0, 0]}
        for k, (order, prob) in enumerate(boundary_population()):
            passed, tried, _ = self.screened_verdicts(order, prob, _jordan_setup(prob, order), k)
            p = prob.spec.similarity
            kind = "plain" if p is None else "ill" if np.linalg.cond(p) > 1e5 else None
            if kind:
                counts[kind] = [counts[kind][0] + passed, counts[kind][1] + tried]
        assert counts["plain"][0] > 0.5 * counts["plain"][1]
        assert counts["ill"][0] == 0 and counts["ill"][1] > 20

    def test_is_sound_for_any_certificate(self, monkeypatch):
        # The proof needs only Herm(C) >= -delta I.  With delta from C's own
        # eigenvalues (lambda_min, less eigvalsh's backward error) a
        # certificate exists for non-dominators too: near_boundary_problems'
        # bumped problems, under P of condition 10 and 100 that makes the
        # congruence large (sigma_min(S)^2 >= 1e4), so m delta is small and
        # only the factor hi in hi m delta keeps their amplified negative
        # directions out.  The screen still passes no trial that reads "no",
        # and a quarter of these batches hold one.
        rng = np.random.default_rng(52)
        refuted = tried = 0
        for family in ("diagonal", "jordan", "stein"):
            for k, (order, _, problem) in enumerate(near_boundary_problems(family, 8)):
                spec = problem.spec
                grow = 1e3 if order is STEIN else 1e-3  # S = P for Stein, inv(P)* for Lyapunov
                p = conditioned(rng, spec.dim, (10.0, 100.0)[k % 2], spec.field) * grow
                prob = LyapunovProblem(JordanSpec(spec.field, spec.eigens, p), problem.element)
                setup = _jordan_setup(prob, order)
                c = setup.choi
                eigs = np.linalg.eigvalsh((c + c.conj().T) / 2.0)
                delta = max(0.0, -eigs[0]) + 8 * len(c) * np.finfo(float).eps * np.abs(eigs).max()
                with monkeypatch.context() as patched:  # the certificate's other fields, for any C
                    patched.setattr(np.linalg, "cholesky", lambda h: h)
                    setup.certificate
                setup.__dict__["certificate"] = (delta,) + setup.certificate[1:]
                _, batches, no = self.screened_verdicts(order, prob, setup, k)
                refuted, tried = refuted + no, tried + batches
        assert refuted > 0.25 * tried

    def test_declines_a_non_finite_scale(self):
        # The scale enters every term of the screen: a NaN or an infinity
        # in any of (hi, lo, rho) declines every trial of a batch that a
        # finite scale passes.
        setup = _jordan_setup(B_IS_IDENTITY, LYAPUNOV)
        g = np.random.default_rng(47).standard_normal((16, 2)) + 0j
        tol = B_IS_IDENTITY.tol
        assert domination._choi_screen(setup, g, (1.0, 1.0, 0.0), tol).all()
        assert domination._choi_screen(setup, g, (2.0, 0.5, 1e-14), tol).all()
        for bad in (np.nan, np.inf):
            for k in range(3):
                scale = [2.0, 0.5, 1e-14]
                scale[k] = bad
                assert not domination._choi_screen(setup, g, tuple(scale), tol).any()

    def test_declines_without_a_certificate(self):
        # A non-dominator's C is indefinite beyond any rounding: its Cholesky
        # fails, there is no certificate, and no trial passes.
        setup = _jordan_setup(PICK_NOT_DOMINATED, LYAPUNOV)
        g = np.random.default_rng(48).standard_normal((16, 2)) + 0j
        assert setup.certificate is None
        passed = domination._choi_screen(setup, g, (1.0, 1.0, 0.0), PICK_NOT_DOMINATED.tol)
        assert passed.shape == (16,) and not passed.any()


class TestStein:
    def test_matricization(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = matricization(STEIN, a)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(apply_map(m, x), x - a @ x @ a.conj().T)

    def test_regularity_guard(self):
        assert not STEIN.regular(JordanSpec("complex", (EigenBlock(1.0, (1,)),)))
        assert STEIN.regular(JordanSpec("complex", (EigenBlock(0.5, (1,)),)))
        spec = JordanSpec("complex", (EigenBlock(2.0, (1,)), EigenBlock(0.5, (1,))))
        assert not STEIN.regular(spec)  # 2 * conj(0.5) == 1
        prob = LyapunovProblem(spec, BicommElement(((2.0,), (0.5,))))
        for route in (stein_order_map, stein_domination,
                      lambda p: domination_oracle(p, order=STEIN)):
            with pytest.raises(ValueError, match="not Stein regular"):
                route(prob)

    def test_pick_recursion_matches_dense_solve(self):
        # The reference Stein recursion solves H - J* H J = E E^T - conj(t) t^T.
        rng = np.random.default_rng(43)
        for k in range(60):
            spec = stein_jordan_spec(rng)
            power = 2 + k % 2
            prob = LyapunovProblem(spec, stein_power_element(spec, power) if k % 3
                                   else random_element(rng, spec))
            j, e, t = slot_displacement(hill_pick_slots(prob)[0])
            w = len(e)
            c = np.outer(e, e) - np.outer(t.conj(), t)
            dense = np.linalg.solve(np.eye(w * w) - np.kron(j.T, j.conj().T), c.ravel(order="F"))
            dense = dense.reshape((w, w), order="F")
            np.testing.assert_allclose(stein_pick_recursion(prob), dense, rtol=0,
                                       atol=1e-13 * np.abs(dense).max())
        lams, ts = np.array([0.5, -0.3 + 0.4j]), np.array([0.25, 0.7j])
        pick = (1 - np.outer(ts.conj(), ts)) / (1 - np.outer(lams.conj(), lams))
        assert np.allclose(stein_pick_recursion(diag_problem(lams, ts)), pick, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "a,b,expect",
        [
            (0.5, 0.25, "dominates"),      # (1 - 1/16) / (1 - 1/4) > 0
            (0.5, 2.0, "not_dominates"),   # (1 - 4) / (1 - 1/4) < 0
            (2.0, 3.0, "dominates"),       # (1 - 9) / (1 - 4) > 0
        ],
    )
    def test_scalar_closed_form(self, a, b, expect):
        prob = diag_problem([a], [b])
        report = stein_domination(prob, oracle_trials=100, seed=0)
        assert report.verdict == expect
        assert report.choi_min_eig == pytest.approx((1 - b * b) / (1 - a * a))

    def test_scalar_b_equals_a(self):
        report = stein_domination(diag_problem([0.5], [0.5]), oracle_trials=100, seed=0)
        assert report.verdict == "dominates"

    def test_lyapunov_singular_a_is_decided(self):
        # Both A are Stein regular, but lam_i + conj(lam_j) == 0 for some pair.
        nilpotent = LyapunovProblem(
            JordanSpec("complex", (EigenBlock(0.0, (2,)),)), BicommElement(((1.0, 0.0),))
        )
        report = stein_domination(nilpotent, oracle_trials=200, seed=0)
        assert report.verdict == "marginal"  # B = I: the Stein composite is zero
        assert report.choi_min_eig == 0.0
        assert report.oracle_status == "consistent"
        report = stein_domination(diag_problem([0.5, -0.5], [2.0, 0.25]), oracle_trials=1000)
        assert report.verdict == "not_dominates"
        assert report.oracle_status == "violation"

    @pytest.mark.xfail(strict=True, raises=NotHermitianError,
                       reason="the support Choi matrix is not Hermitian within tolerance")
    def test_square_near_the_unit_circle_is_marginal(self):
        # B = A^2 is on the boundary of the Stein order: the right verdict is
        # "marginal".  The composite's Choi matrix deviates from Hermitian by
        # 2.9e-5 relative here, and psd_report refuses it.
        lams = (-0.98581402 - 0.15403808j, -0.35365875 + 0.24578270j)
        spec = JordanSpec("complex", tuple(EigenBlock(lam, (3, 1)) for lam in lams))
        square = BicommElement(tuple((lam * lam, 2 * lam, 1.0) for lam in lams))
        report = stein_domination(LyapunovProblem(spec, square), oracle_trials=100)
        assert report.verdict == "marginal"

    def test_square_dominates(self):
        spec = stein_jordan_spec(np.random.default_rng(12))
        prob = LyapunovProblem(spec, stein_power_element(spec, 2))
        report = stein_domination(prob, oracle_trials=500, seed=0)
        assert report.verdict in ("dominates", "marginal")
        assert report.oracle_status == "consistent"

    def test_flip_violates(self):
        report = stein_domination(STEIN_FLIP, oracle_trials=1000, seed=0)
        assert report.verdict == "not_dominates"
        assert report.oracle_status == "violation"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_witness_matches_per_trial_loop(self, seed):
        report = stein_domination(STEIN_FLIP, oracle_trials=1000, seed=seed)
        expect = per_trial_witness(STEIN_FLIP, STEIN, 1000, seed)
        assert report.oracle_status == "violation"
        np.testing.assert_allclose(report.oracle_witness, expect, rtol=0, atol=1e-12)

    def test_orders_carry_their_cone(self):
        rng = np.random.default_rng(14)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for order in (LYAPUNOV, STEIN):
            x = order.cone(h, m)
            assert np.allclose(vec(x), matricization(order, m).matrix @ vec(h))


class TestSimilarityInvariance:
    def test_verdicts_stable_under_basis_change(self):
        rng = np.random.default_rng(13)
        from helpers import random_invertible

        for _ in range(5):
            spec = random_jordan_spec(rng, similarity=True, max_dim=6)
            elem = random_element(rng, spec)
            prob1 = LyapunovProblem(spec, elem)
            spec2 = JordanSpec(spec.field, spec.eigens, random_invertible(rng, spec.dim, spec.field))
            prob2 = LyapunovProblem(spec2, elem)
            r1 = check_domination(prob1, oracle_trials=50, seed=0)
            r2 = check_domination(prob2, oracle_trials=50, seed=0)
            assert r1.verdict == r2.verdict  # hill-pick route only sees jordan data
            c1 = is_psd(choi_matrix(lyapunov_order_map(prob1)))
            c2 = is_psd(choi_matrix(lyapunov_order_map(prob2)))
            if "marginal" not in (c1, c2):
                assert c1 == c2


# Jordan data regular for both orders: right half-plane, inside the unit disk.
JORDAN_CASES = [
    ("complex", ((0.5 + 0.3j, (2, 1)), (0.3 - 0.2j, (1,)), (0.7, (3,)))),
    ("real", ((0.4 + 0.3j, (2,)), (0.6, (1,)), (0.2 + 0.5j, (1,)))),
    ("real", ((0.3, (2, 2)), (0.5 + 0.1j, (1,)))),
]


class TestJordanBasis:
    @pytest.mark.parametrize("field,eigens", JORDAN_CASES)
    @pytest.mark.parametrize("order", [LYAPUNOV, STEIN], ids=["lyapunov", "stein"])
    def test_support_choi_is_the_full_choi_on_its_support(self, order, field, eigens):
        spec = JordanSpec(field, tuple(EigenBlock(lam, sizes) for lam, sizes in eigens))
        prob = LyapunovProblem(spec, random_element(np.random.default_rng(33), spec))
        full = choi_matrix(ORDER_MAPS[order.name](prob))  # no P: the Jordan basis
        support = choi_matrix(_jordan_setup(prob, order).composite)
        idx = support_indices(spec)
        assert support.shape == (sum(b.dim**2 for b in inner_blocks(spec)),) * 2
        np.testing.assert_allclose(support, full[np.ix_(idx, idx)], rtol=0,
                                   atol=1e-12 * np.abs(full).max())
        off = np.ones(len(full), dtype=bool)
        off[idx] = False
        assert not full[off].any() and not full[:, off].any()

    def test_inertia_matches_p_basis_choi(self):
        # Sylvester: the P-basis Choi matrix is congruent to the Jordan-basis
        # one, which is the support Choi matrix padded with zeros.
        rng = np.random.default_rng(34)
        compared = 0
        for k in range(80):
            order = (LYAPUNOV, STEIN)[k % 2]
            spec = random_jordan_spec(rng, field=("complex", "real")[k // 2 % 2], max_dim=6)
            prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)), order)
            full = choi_matrix(ORDER_MAPS[order.name](prob))
            assert inertia(choi_matrix(_jordan_setup(prob, order).composite)) == inertia(full)
            compared += 1
        assert compared == 80

    def test_real_hill_pick_matches_full_solve(self):
        rng = np.random.default_rng(35)
        for k in range(20):
            spec = random_jordan_spec(rng, field="real", max_dim=8, similarity=k % 2 == 1)
            prob = LyapunovProblem(spec, random_element(rng, spec))
            # The n^2 x n^2 Jordan-basis composite, read at upsilon.
            la = matricization(LYAPUNOV, build_JA(spec), "real").matrix
            lb = matricization(LYAPUNOV, build_bicomm_jordan(spec, prob.element), "real").matrix
            jordan_map = StarLinearMap(np.linalg.solve(la.T, lb.T).T, spec.dim, spec.dim, "real")
            expect = hill_at_selection(matricization_blocks(jordan_map), upsilon_selection(spec)).T
            for hp in (hill_pick_matrix(prob), check_domination(prob, oracle_trials=1).hill_pick):
                np.testing.assert_allclose(hp.matrix, expect.real, rtol=0,
                                           atol=1e-12 * np.abs(expect).max())

    def test_support_choi_is_hill_pick_for_diagonal_a(self):
        # For complex diagonal A both routes build the Pick matrix
        # (conj(t_i) + t_j) / (conj(lam_i) + lam_j), each its own way.
        rng = np.random.default_rng(36)
        for n in (1, 2, 5, 16, 24):
            lams = rng.uniform(0.2, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
            prob = diag_problem(lams, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            hp = hill_pick_matrix(prob).matrix
            choi = choi_matrix(_jordan_setup(prob, LYAPUNOV).composite)
            np.testing.assert_allclose(choi, hp, rtol=0, atol=1e-14 * np.abs(hp).max())

    @pytest.mark.parametrize("order", [LYAPUNOV, STEIN], ids=["lyapunov", "stein"])
    def test_real_pair_choi_has_the_complexified_inertia(self, order):
        # A real-pair problem and its complexification (each pair a + ib as
        # lam and conj lam, with t and conj t) are congruent, block pair by
        # block pair: their support Choi matrices have one inertia.
        rng = np.random.default_rng(37)
        signs = set()
        for k in range(24):
            sizes = (1,) if k % 3 else (2, 1)
            m = 1 + k % 4
            if order is LYAPUNOV:
                lams = rng.uniform(0.3, 2.0, m) + 1j * rng.uniform(0.2, 1.5, m)
            else:
                lams = rng.uniform(0.2, 0.8, m) * np.exp(1j * rng.uniform(0.2, 3.0, m))
            coeffs = [tuple(rng.standard_normal(2) @ (1.0, 1j) for _ in range(sizes[0]))
                      for _ in range(m)]
            if k % 2:  # a dominator: B = 2I + A (Lyapunov), B = A^2 (Stein)
                coeffs = [((2 + lam, 1.0) if order is LYAPUNOV else (lam * lam, 2 * lam))
                          [: sizes[0]] for lam in lams]
            real = LyapunovProblem(JordanSpec("real", tuple(EigenBlock(l, sizes) for l in lams)),
                                   BicommElement(tuple(coeffs)))
            complexified = LyapunovProblem(
                JordanSpec("complex",
                           tuple(EigenBlock(l, sizes) for l in np.r_[lams, lams.conj()])),
                BicommElement(tuple(coeffs) + tuple(tuple(np.conj(row)) for row in coeffs)))
            got = inertia(choi_matrix(_jordan_setup(real, order).composite))
            assert got == inertia(choi_matrix(_jordan_setup(complexified, order).composite))
            signs.add(got[0] > 0)
        assert signs == {False, True}

    def test_choi_route_decides_diagonal_dominators(self):
        # For diagonal A the support Choi matrix is the n x n Pick matrix, so a
        # strict dominator reads "dominates" on the Choi route too.
        report = check_domination(diag_problem([1.0, 2.0 + 1j, 3.0], [2.0, 3.0 + 1j, 4.0]),
                                  oracle_trials=50)
        assert report.verdict == "dominates" and report.methods_agree
        assert report.choi_min_eig == pytest.approx(report.hill_pick_min_eig, rel=1e-9)

    @pytest.mark.parametrize("decide", [check_domination, stein_domination])
    def test_memory_stays_below_n4(self, decide):
        # One n^2 x n^2 complex matrix at n = 48 alone takes 81 MiB.
        n = 48
        # Dominators (B = 2A; B = A^2 for Stein), so that all 100 trials run.
        if decide is check_domination:
            lams = [complex(0.5 + 0.03 * k, 0.02 * k) for k in range(n)]
            prob = diag_problem(lams, [2.0 * lam for lam in lams])
        else:
            lams = [0.7 * (0.5 + 0.5 * k / n) * np.exp(2j * np.pi * k / n) for k in range(n)]
            prob = diag_problem(lams, [lam * lam for lam in lams])
        tracemalloc.start()
        try:
            assert decide(prob, oracle_trials=100, seed=0).oracle_status == "consistent"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestScaling:
    """Domination does not change under B -> cB (c > 0) or (A, B) -> (sA, sB)."""

    LAMS = (1.0, 2.0 + 1j, 3.0)

    @pytest.mark.parametrize("c", [
        1.0,
        1e-4,
        # The Hill-Pick min eigenvalue scales with c (5.2e-11 and 5.2e-15 here)
        # and falls inside psd_report's fixed band of 1e-9 * (1 + max|eig|).
        pytest.param(1e-8, marks=pytest.mark.xfail(strict=True, reason="fixed band, B -> cB")),
        pytest.param(1e-12, marks=pytest.mark.xfail(strict=True, reason="fixed band, B -> cB")),
    ])
    def test_scaled_dominator_dominates(self, c):
        prob = diag_problem(self.LAMS, [c * (lam + 1.0) for lam in self.LAMS])
        assert check_domination(prob).verdict == "dominates"

    @pytest.mark.parametrize("s", [1e-8, 1e8])
    def test_jointly_scaled_dominator_dominates(self, s):
        prob = diag_problem([s * lam for lam in self.LAMS], [s * (lam + 1.0) for lam in self.LAMS])
        assert check_domination(prob).verdict == "dominates"


def invariant_population():
    """(order, problem) pairs, with ids, for the hard invariants.

    problem_mix on both fields with P; Stein data with B = A^2 or random B,
    with and without a P; and the near-boundary problems of each family.
    """
    rng = np.random.default_rng(90)
    for field in ("complex", "real"):
        for k, prob in enumerate(problem_mix(rng, 36, field=field)):
            yield pytest.param(LYAPUNOV, prob, id=f"mix-{field}-{k}")
    rng = np.random.default_rng(91)
    for k in range(18):
        spec = stein_jordan_spec(rng)
        for kind, elem in (("square", stein_power_element(spec, 2)),
                           ("random", random_element(rng, spec))):
            prob = LyapunovProblem(spec, elem)
            yield pytest.param(STEIN, prob, id=f"stein-{kind}-{k}")
            # with_similarity's default order keeps the eigenvalues, inside the unit disk.
            yield pytest.param(STEIN, with_similarity(rng, prob), id=f"stein-{kind}-p-{k}")
    for family in ("diagonal", "jordan", "stein"):
        for k, (order, _, prob) in enumerate(near_boundary_problems(family, 24)):
            yield pytest.param(order, prob, id=f"near-{family}-{k}")


class TestHardInvariants:
    """On a seeded population: no exception, no route conflict, no refuted "dominates".

    Every oracle witness H is checked against the order's definition in A's
    own basis: cone(H, A) does not read "no" and cone(H, B) does.  A problem
    that breaks an invariant stays in the population as a strict xfail, so
    that its fix has to flip it.
    """

    @pytest.mark.parametrize("order,prob", invariant_population())
    def test_invariants(self, order, prob):
        decide = check_domination if order is LYAPUNOV else stein_domination
        report = decide(prob)
        assert report.methods_agree
        assert not (report.verdict == "dominates" and report.oracle_status == "violation")
        h = report.oracle_witness
        if h is not None:
            a, b = build_A(prob.spec), build_bicomm_element(prob.spec, prob.element)
            assert psd_report(order.cone(h, a), prob.tol)[0] != "no"
            assert psd_report(order.cone(h, b), prob.tol)[0] == "no"
