import dataclasses
import re
import tracemalloc

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
    apply_map,
    build_A,
    build_bicomm_element,
    check_domination,
    choi_matrix,
    closed_form_matricization,
    domination_oracle,
    hill_pick_coeff,
    hill_pick_matrix,
    is_psd,
    is_stein_regular,
    lyapunov_matricization,
    lyapunov_order_map,
    psd_report,
    rank_tol,
    sample_lyapunov_solutions,
    stein_domination,
    stein_matricization,
    stein_order_map,
    upsilon_selection,
    vec,
    unvec,
)
from lyaporder import domination, jordan
from lyaporder.domination import _jordan_setup
from lyaporder.hill import hill_at_selection, matricization_blocks
from lyaporder.jordan import build_bicomm_jordan, build_JA, inner_blocks
from lyaporder.linalg import NotHermitianError, block_diag
from lyaporder.starmaps import StarLinearMap
from helpers import (
    a_element,
    identity_element,
    random_element,
    random_jordan_spec,
    rational_dominator,
    stein_jordan_spec,
    stein_power_element,
)


def diag_problem(lams, ts):
    spec = JordanSpec("complex", tuple(EigenBlock(l, (1,)) for l in lams))
    return LyapunovProblem(spec, BicommElement(tuple((t,) for t in ts)))


PICK_NOT_DOMINATED = diag_problem([1.0, 2.0], [1.0, 3.0])
PICK_MIN_EIG = 1.25 - np.sqrt(265.0) / 12.0  # eigenvalue of [[1, 4/3], [4/3, 3/2]]
B_IS_IDENTITY = diag_problem([1.0, 2.0], [1.0, 1.0])  # strictly dominates
STEIN_FLIP = diag_problem([0.5, 1.0 / 3.0], [0.5, -1.0 / 3.0])


def per_trial_solutions(prob, order, trials, seed):
    """Reference sampler: one target and one n^2 x n^2 solve in A's own basis per trial."""
    spec = prob.spec
    n = spec.dim
    la = order.matricization(build_A(spec), spec.field).matrix
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        g = rng.standard_normal((n, n))
        if spec.field == "complex":
            g = g + 1j * rng.standard_normal((n, n))
        h = unvec(np.linalg.solve(la, vec(g @ g.conj().T)), n, n)
        yield (h + h.conj().T) / 2.0


def per_trial_witness(prob, order, trials, seed):
    """Reference oracle: one target, one solve and one PSD test per trial."""
    b = build_bicomm_element(prob.spec, prob.element)
    for h in per_trial_solutions(prob, order, trials, seed):
        if psd_report(order.cone(h, b), prob.tol)[0] == "no":
            return h
    return None


def block_pair_solutions(maps, field, count, seed, congruence=None):
    """Reference for _cone_solutions: a fancy-index gather, solve and scatter per size pair.

    Each block of W is gathered as W[:, r, c], solved as inv(L_A) @ vec and
    scattered back, in fresh arrays per batch; the draw, batch sizes and
    congruence are those of the oracle.
    """
    n = sum(maps.dims)
    offset = np.cumsum((0,) + maps.dims)
    inverses = []
    for rows, cols, la in maps.pairs:
        r = offset[rows][:, None, None, None] + np.arange(maps.dims[rows[0]])[:, None]
        c = offset[cols][None, :, None, None] + np.arange(maps.dims[cols[0]])
        la = la.real if maps.dtype == np.float64 else la
        inverses.append((r, c, np.linalg.solve(la, np.eye(la.shape[-1]))))
    s, s_inv, s_star = congruence or (None, None, None)
    rng = np.random.default_rng(seed)
    done, batch = 0, 1
    while done < count:
        size = min(batch, count - done)
        z = rng.standard_normal((size, 2 if field == "complex" else 1, n, n))
        g = (z[:, 0] + 1j * z[:, 1] if field == "complex" else z[:, 0]).astype(maps.dtype)
        g = g if s_inv is None else s_inv @ g
        w = g @ g.conj().swapaxes(-1, -2)
        y = np.empty_like(w)
        for r, c, inverse in inverses:
            t = w[:, r, c].swapaxes(-1, -2)  # t[i, k, l].ravel(): vec of block (k, l) of W_i
            sol = inverse @ t.reshape(*t.shape[:3], -1).transpose(1, 2, 3, 0)
            y[:, r, c] = sol.transpose(3, 0, 1, 2).reshape(t.shape).swapaxes(-1, -2)
        y = y if s is None else s @ y @ s_star
        yield (y + y.conj().swapaxes(-1, -2)) / 2.0
        done += size
        batch = min(2 * batch, domination._MAX_BATCH)


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
        m = lyapunov_matricization(np.array([[1 + 2j]]))
        assert np.allclose(m.matrix, [[2.0]])

    def test_diagonal(self):
        m = lyapunov_matricization(np.diag([1.0, 2.0]))
        assert np.array_equal(m.matrix, np.diag([2.0, 3.0, 3.0, 4.0]).astype(complex))

    def test_acts_as_lyapunov_operator(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = lyapunov_matricization(a)
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
        la = lyapunov_matricization(a).matrix
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
            big = StarLinearMap(closed_form_matricization(prob), spec.dim, spec.dim)
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
        with pytest.raises(ValueError, match="not Lyapunov regular"):
            hill_pick_matrix(singular)

    def test_matches_pinned_hill_transpose(self):
        from lyaporder import nonminimal_hill

        rng = np.random.default_rng(6)
        spec = random_jordan_spec(rng, max_dim=5)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        ja = build_JA(spec)
        bt = build_bicomm_jordan(spec, prob.element)
        la = lyapunov_matricization(ja).matrix
        lb = lyapunov_matricization(bt).matrix
        jordan_map = StarLinearMap(np.linalg.solve(la.T, lb.T).T, spec.dim, spec.dim)
        rep = nonminimal_hill(jordan_map, upsilon_selection(spec))
        assert np.allclose(hill_pick_matrix(prob).matrix, rep.hill.T, atol=1e-9)
        assert rank_tol(rep.hill) == rank_tol(choi_matrix(jordan_map))


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


class TestCheckDomination:
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
        for name in ("hill_pick_matrix", "_jordan_setup", "choi_matrix", "psd_report",
                     "domination_oracle", "jordan_blocks", "bicomm_blocks"):
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
        # One setup per decision: A's pair maps are built once, B's once (for
        # the composite), and the only dense matrix built from the Jordan
        # blocks is B in the P basis, for the oracle's cone test.
        built, two_sided, dense = [], [], []

        class CountingPairMaps(domination._PairMaps):
            def __init__(self, *args):
                built.append(args[0].name)
                super().__init__(*args)

            def _two_sided(self, *args):
                two_sided.append(args[0] is self.b_blocks)
                return super()._two_sided(*args)

        def refuse(*args):
            raise AssertionError("a dense Jordan matrix was built")

        monkeypatch.setattr(domination, "_PairMaps", CountingPairMaps)
        monkeypatch.setattr(domination, "block_diag",
                            lambda *blocks: dense.append(len(blocks)) or block_diag(*blocks))
        for module, name in ((domination, "build_A"), (domination, "build_bicomm_element"),
                             (jordan, "build_JA"), (jordan, "build_bicomm_jordan"),
                             (jordan, "build_A"), (jordan, "build_bicomm_element")):
            monkeypatch.setattr(module, name, refuse)
        rng = np.random.default_rng(42)
        for k in range(8):
            field, order = ("complex", "real")[k % 2], (LYAPUNOV, STEIN)[k // 2 % 2]
            spec = random_jordan_spec(rng, field=field, max_dim=6)
            prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)), order)
            for log in (built, two_sided, dense):
                log.clear()
            decide = check_domination if order is LYAPUNOV else stein_domination
            decide(prob, oracle_trials=20)
            groups = len({b.dim for b in inner_blocks(prob.spec)}) ** 2
            assert built == [order.name]
            assert two_sided == [False] * groups + [True] * groups
            assert dense == [len(inner_blocks(prob.spec))]


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
        for k, m in ((1, 1), (3, 4), (5, 6)):
            short = sample_lyapunov_solutions(a, count=k, seed=5)
            long = sample_lyapunov_solutions(a, count=k + m, seed=5)
            assert len(short) == k and len(long) == k + m
            for h_short, h_long in zip(short, long):
                np.testing.assert_allclose(h_short, h_long, rtol=0, atol=1e-12)

    def test_cone_combinations(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        h1, h2 = sample_lyapunov_solutions(a, count=2, seed=3)
        combo = 0.3 * h1 + 1.7 * h2
        assert is_psd(combo @ a + a.conj().T @ combo) in ("yes", "marginal")

    @pytest.mark.parametrize("count", [20, 200])
    def test_samples_own_their_memory(self, count):
        # Each H is copied out of its batch's workspace, which the next batch
        # of the same size overwrites (200 trials run two batches of 64).
        rng = np.random.default_rng(12)
        a = build_A(random_jordan_spec(rng, similarity=True, max_dim=5))
        hs = sample_lyapunov_solutions(a, count=count, seed=7)
        assert len(hs) == count
        assert not any(np.shares_memory(x, y) for k, x in enumerate(hs) for y in hs[k + 1:])
        maps = domination._PairMaps(LYAPUNOV, [a])
        expect = [h for batch in block_pair_solutions(maps, "complex", count, 7) for h in batch]
        for h, want in zip(hs, expect):
            assert h.dtype == np.complex128
            np.testing.assert_allclose(h, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestOracle:
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
        # With every PSD test passing, all 200 trials run: batches of
        # 1, 2, ..., 64, then 64 and 9, so the batch cap is crossed.  The
        # batch screen is made to fail, so every cone reaches psd_report.
        rng = np.random.default_rng(31)
        spec = random_jordan_spec(rng, field=field, max_dim=6)
        prob = with_similarity(rng, LyapunovProblem(spec, random_element(rng, spec)), order)
        tested = []
        monkeypatch.setattr(domination, "psd_screen", lambda stack, tol, scratch=None: False)
        monkeypatch.setattr(domination, "psd_report",
                            lambda m, tol: tested.append(m) or ("yes", 1.0))
        assert domination_oracle(prob, trials=200, seed=6, order=order) == ("consistent", None)
        b = build_bicomm_element(prob.spec, prob.element)
        expect = np.array([order.cone(h, b) for h in per_trial_solutions(prob, order, 200, 6)])
        assert len(tested) == 200
        np.testing.assert_allclose(np.array(tested), expect, rtol=0,
                                   atol=1e-12 * np.abs(expect).max())

    def test_screened_batches_keep_the_hermitian_check(self):
        # The last cone of each batch of two or more is skewed beyond eq_rel
        # while its Hermitian part stays positive definite, so only the
        # screen's own Hermitian check sends it on to psd_report.
        def skewed(h, m):
            cone = LYAPUNOV.cone(h, m)
            if len(cone) > 1:
                cone[-1] += 1e-6 * np.triu(cone[-1], 1)
            return cone

        order = dataclasses.replace(LYAPUNOV, cone=skewed)
        with pytest.raises(NotHermitianError):
            domination_oracle(B_IS_IDENTITY, trials=10, seed=0, order=order)

    def test_nan_cone_is_tested_as_per_trial(self, monkeypatch):
        def with_nan(h, m):
            cone = LYAPUNOV.cone(h, m)
            if len(cone) > 1:
                cone[-1, 1, 0] = np.nan
            return cone

        order = dataclasses.replace(LYAPUNOV, cone=with_nan)
        seen = []
        real = domination.psd_report
        monkeypatch.setattr(domination, "psd_report", lambda m, tol: seen.append(m) or real(m, tol))

        def outcome():
            try:
                status, h = domination_oracle(B_IS_IDENTITY, trials=10, seed=0, order=order)
            except ValueError as exc:  # LinAlgError and NotHermitianError included
                return type(exc), str(exc)
            return status, None if h is None else h.tobytes()

        error = (np.linalg.LinAlgError, "PSD test: non-finite entries in the matrix or a + a*")
        assert outcome() == error
        assert any(np.isnan(m).any() for m in seen)
        monkeypatch.setattr(domination, "psd_screen", lambda stack, tol, scratch=None: False)
        assert outcome() == error

    @pytest.mark.parametrize("similar", [False, True], ids=["jordan", "similar"])
    @pytest.mark.parametrize("order", [LYAPUNOV, STEIN], ids=["lyapunov", "stein"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_trials_run_in_the_problem_field(self, monkeypatch, field, order, similar):
        # The screen sees float64 stacks on real-field problems and complex128
        # ones otherwise; witnesses are complex128 and match the per-trial
        # reference, which works in complex128 throughout.
        rng = np.random.default_rng(32)
        spec = random_jordan_spec(rng, field=field, max_dim=6)
        if order is STEIN:  # the Stein tests keep the spectrum inside the unit disk
            spec = JordanSpec(field, tuple(EigenBlock(e.eigenvalue / 3.0, e.sizes)
                                           for e in spec.eigens))
        dtypes = []
        real = domination.psd_screen
        monkeypatch.setattr(domination, "psd_screen",
                            lambda stack, tol, scratch=None:
                            dtypes.append(stack.dtype) or real(stack, tol, scratch))
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
        # past the first batch still takes its witness from psd_report.
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
        near = zip(rational_dominator(rng, spec).coeffs, random_element(rng, spec).coeffs)
        prob = LyapunovProblem(spec, BicommElement(tuple(
            tuple(a + 0.3 * b for a, b in zip(row, bump)) for row, bump in near)))
        verdicts.clear()
        report = check_domination(prob, oracle_trials=1000, seed=0)
        assert report.oracle_status == "violation" and verdicts[-1] == "no"
        assert len(verdicts) > 3
        expect = per_trial_witness(prob, LYAPUNOV, 1000, 0)
        np.testing.assert_allclose(report.oracle_witness, expect, rtol=0,
                                   atol=1e-12 * np.abs(expect).max())

    def test_solve_plan_matches_block_pair_reference(self):
        # 200 trials run batches of 1, 2, ..., 64, then 64 and 9; every spec
        # mixes 1 x 1 blocks with larger ones, so both kinds of size pair
        # (a product, a stacked matmul) meet in one plan.
        rng = np.random.default_rng(33)
        seen = set()
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
            maps = _jordan_setup(prob, order)
            congruence = oracle_congruence(prob, order, maps.dtype)
            sizes = []
            for (hs, _), want in zip(domination._cone_solutions(maps, field, 200, k, congruence),
                                     block_pair_solutions(maps, field, 200, k, congruence),
                                     strict=True):
                assert hs.dtype == maps.dtype and hs.shape == want.shape
                np.testing.assert_allclose(hs, want, rtol=0, atol=1e-12 * np.abs(want).max())
                sizes.append(len(hs))
            assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 9]
            seen.add((field, order.name, similar))
        assert len(seen) == 8

    def test_witness_owns_its_data(self):
        # The witness is copied out of the oracle's workspace: a second call
        # on the same setup leaves it as it was.
        for prob, order in ((PICK_NOT_DOMINATED, LYAPUNOV), (STEIN_FLIP, STEIN)):
            setup = _jordan_setup(prob, order)
            status, h = domination_oracle(prob, trials=1000, seed=1, order=order, setup=setup)
            assert status == "violation" and h.base is None
            kept = h.copy()
            domination_oracle(prob, trials=1000, seed=2, order=order, setup=setup)
            np.testing.assert_array_equal(h, kept)

    @pytest.mark.parametrize("case", ["stein-complex-16", "lyapunov-real-32"])
    def test_traced_peak_of_a_dominator(self, case):
        # All 1000 trials run.  The bounds are the traced peaks (bytes) of
        # the per-batch arrays this workspace replaced, on the same calls:
        # the workspace holds no more than they had alive at once.
        if case == "stein-complex-16":
            field, order, bound, seed = "complex", STEIN, 1_735_163, 16
            eigens = (EigenBlock(0.5 + 0.2j, (3, 2)), EigenBlock(-0.4 + 0.1j, (2, 1, 1)),
                      EigenBlock(0.3 - 0.5j, (4,)), EigenBlock(0.6j, (1, 1, 1)))
            coeffs = [(e.eigenvalue ** 2, 2 * e.eigenvalue, 1.0, 0.0) for e in eigens]  # B = A^2
        else:
            field, order, bound, seed = "real", LYAPUNOV, 3_753_739, 32
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
        assert n == (16 if field == "complex" else 32)
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


class TestStein:
    def test_matricization(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = stein_matricization(a)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(apply_map(m, x), x - a @ x @ a.conj().T)

    def test_regularity_guard(self):
        assert not is_stein_regular(JordanSpec("complex", (EigenBlock(1.0, (1,)),)))
        assert is_stein_regular(JordanSpec("complex", (EigenBlock(0.5, (1,)),)))
        spec = JordanSpec("complex", (EigenBlock(2.0, (1,)), EigenBlock(0.5, (1,))))
        assert not is_stein_regular(spec)  # 2 * conj(0.5) == 1
        with pytest.raises(ValueError, match="Stein regular"):
            stein_order_map(LyapunovProblem(spec, BicommElement(((2.0,), (0.5,)))))

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
            assert np.allclose(vec(x), order.matricization(m).matrix @ vec(h))


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
            la = lyapunov_matricization(build_JA(spec), "real").matrix
            lb = lyapunov_matricization(build_bicomm_jordan(spec, prob.element), "real").matrix
            jordan_map = StarLinearMap(np.linalg.solve(la.T, lb.T).T, spec.dim, spec.dim, "real")
            expect = hill_at_selection(matricization_blocks(jordan_map), upsilon_selection(spec)).T
            for hp in (hill_pick_matrix(prob), check_domination(prob, oracle_trials=1).hill_pick):
                np.testing.assert_allclose(hp.matrix, expect.real, rtol=0,
                                           atol=1e-12 * np.abs(expect).max())

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
