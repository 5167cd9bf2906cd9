import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lyaporder.linalg import (
    DEFAULT_TOLERANCES,
    NotHermitianError,
    Tolerances,
    kron,
    psd_report,
    rank_tol,
)
from lyaporder.domination import _congruence_scale
from helpers import conditioned
from reference import canonical_shuffle, is_psd, unvec, vec

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


class TestVec:
    def test_unit_matrix_index(self):
        e21 = np.zeros((2, 2))
        e21[1, 0] = 1
        assert np.array_equal(vec(e21), np.array([0, 1, 0, 0], dtype=complex))

    def test_scalar(self):
        assert np.array_equal(vec([[1.0]]), np.array([1.0 + 0j]))

    def test_column_stacking(self):
        assert np.array_equal(vec([[1, 3], [2, 4]]), np.array([1, 2, 3, 4], dtype=complex))

    def test_unvec_examples(self):
        assert np.array_equal(unvec([1, 2, 3, 4], 2, 2), np.array([[1, 3], [2, 4]], dtype=complex))
        e2 = np.array([0, 1, 0, 0])
        out = unvec(e2, 2, 2)
        expect = np.zeros((2, 2), dtype=complex)
        expect[1, 0] = 1
        assert np.array_equal(out, expect)

    def test_unvec_length_mismatch(self):
        with pytest.raises(ValueError):
            unvec([1, 2, 3], 2, 2)

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.float64, (3, 2), elements=finite))
    def test_round_trip_exact(self, m):
        assert np.array_equal(unvec(vec(m), 3, 2), m.astype(complex))


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6, dtype=complex))
        out = kron([[0, 1], [0, 0]], [[2]])
        assert np.array_equal(out, np.array([[0, 2], [0, 0]], dtype=complex))

    def test_vec_of_product(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, x, b = cmat(rng, 2, 2), cmat(rng, 2, 2), cmat(rng, 2, 2)
            lhs = vec(a @ x @ b.T)
            rhs = kron(b, a) @ vec(x)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, (2, 3), elements=finite),
        arrays(np.float64, (2, 2), elements=finite),
        arrays(np.float64, (3, 2), elements=finite),
        arrays(np.float64, (2, 3), elements=finite),
    )
    def test_mixed_product(self, a, b, c, d):
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


class TestShuffle:
    def test_degenerate(self):
        assert np.array_equal(canonical_shuffle(1, 4), np.eye(4, dtype=complex))

    def test_inverse(self):
        s = canonical_shuffle(2, 3)
        assert np.array_equal(s @ canonical_shuffle(3, 2), np.eye(6, dtype=complex))

    def test_swap_law_example(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        s = canonical_shuffle(2, 2)
        assert np.array_equal(s @ np.kron(u, v), np.kron(v, u))

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, (3,), elements=finite),
        arrays(np.float64, (2,), elements=finite),
    )
    def test_swap_law(self, u, v):
        s = canonical_shuffle(3, 2)
        assert np.array_equal(s @ np.kron(u, v), np.kron(v, u).astype(complex))

    def test_permutation(self):
        s = canonical_shuffle(3, 4).real
        assert np.array_equal(s.sum(axis=0), np.ones(12))
        assert np.array_equal(s.sum(axis=1), np.ones(12))
        assert set(np.unique(s)) == {0.0, 1.0}

    def test_transposes_vec(self):
        rng = np.random.default_rng(1)
        a = cmat(rng, 3, 2)
        s = canonical_shuffle(3, 2)
        assert np.allclose(s @ vec(a.T), vec(a))


class TestRank:
    def test_zero(self):
        assert rank_tol(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank_tol(np.eye(4)) == 4

    def test_rank_one_outer(self):
        v = vec(np.eye(2))
        assert rank_tol(np.outer(v, v.conj())) == 1


class TestPsd:
    def test_identity(self):
        assert is_psd(np.eye(3)) == "yes"

    def test_indefinite(self):
        assert is_psd(np.diag([1.0, -1.0])) == "no"

    def test_boundary_is_marginal(self):
        # all-ones matrix has eigenvalues {2, 0}: exactly on the cone boundary
        assert is_psd(np.ones((2, 2))) == "marginal"

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_reference_bitwise(self):
        def reference(a, tol=DEFAULT_TOLERANCES):
            """Two conjugate transposes and max |eigenvalue| over the whole spectrum."""
            if np.linalg.norm(a - a.conj().T) > tol.eq_rel * (1.0 + np.linalg.norm(a)):
                raise ValueError("not Hermitian")
            eigs = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
            lam_min = float(eigs[0])
            band = tol.psd_rel * (1.0 + float(np.abs(eigs).max()))
            return ("no" if lam_min < -band else "marginal" if lam_min <= band else "yes"), lam_min

        rng = np.random.default_rng(43)
        verdicts = set()
        for k in range(400):
            n = int(rng.integers(1, 7))
            g = cmat(rng, n, n) * 10.0 ** int(rng.integers(-9, 4))
            m = (g @ g.conj().T, (g + g.conj().T) / 2, -(g @ g.conj().T),
                 np.outer(g[0], g[0].conj()))[k % 4]
            m = m + 1e-13 * np.abs(m).max() * cmat(rng, n, n)  # skew inside eq_rel
            got, want = psd_report(m), reference(m)
            assert got[0] == want[0] and np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            verdicts.add(got[0])
        assert verdicts == {"yes", "no", "marginal"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        # NaN used to pass as ("yes", nan) on [[1, 0], [nan, 1]] and as
        # ("no", -1.0) on -I with a NaN on the diagonal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, (i, j) in ((np.eye(2), (1, 0)), (-np.eye(3), (1, 1)), (np.eye(3), (0, 2))):
                m = m.astype(complex)
                m[i, j] = bad
                with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                    psd_report(m)
            # Entries whose squares overflow are finite: still a verdict.
            assert psd_report(1e155 * np.eye(2)) == ("yes", 1e155)
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                psd_report(np.diag([1.5e308, 1.0]))  # a + a* overflows

    def test_min_eig_reported(self):
        verdict, lam = psd_report(np.diag([2.0, -0.5]))
        assert verdict == "no" and lam == pytest.approx(-0.5)

    def test_agrees_with_quadratic_forms(self):
        rng = np.random.default_rng(2)
        mats = [
            np.eye(3),
            np.diag([1.0, -1.0]),
            np.ones((2, 2)),
            np.array([[1, 4 / 3], [4 / 3, 1.5]]),
        ]
        for _ in range(6):
            g = cmat(rng, 4, 4)
            mats.append((g + g.conj().T) / 2)
            mats.append(g @ g.conj().T)
        for m in mats:
            m = np.asarray(m, dtype=complex)
            verdict, lam_min = psd_report(m)
            eigs, vecs = np.linalg.eigh((m + m.conj().T) / 2)
            band = DEFAULT_TOLERANCES.psd_rel * (1 + np.abs(eigs).max())
            samples = []
            for _ in range(1000):
                x = rng.standard_normal(m.shape[0]) + 1j * rng.standard_normal(m.shape[0])
                x /= np.linalg.norm(x)
                samples.append(float((x.conj() @ m @ x).real))
            if verdict in ("yes", "marginal"):
                assert min(samples) >= -band
            else:
                witness = vecs[:, 0]
                assert float((witness.conj() @ m @ witness).real) < -band


def band_edge_stacks(rng, n, count, psd_rel, dtype, low_band=-2.0):
    """count n x n Hermitian matrices Q diag(eigs) Q* whose spectra straddle psd_report's -band.

    Spectra have their top at `scale` (10^-6 .. 10^6), lambda_min in
    [low_band, 0] psd_rel (1 + scale) and up to n - 2 more eigenvalues in
    [lambda_min, 0]; low_band = 0 gives PSD stacks.  Q is complex for odd n
    on complex128 stacks, real on float64 stacks.
    """
    scale = 10.0 ** rng.uniform(-6, 6, count)
    lam_min = low_band * psd_rel * (1.0 + scale) * rng.uniform(0, 1, count)
    eigs = scale[:, None] * rng.uniform(0, 1, (count, n))
    low = np.arange(n) < rng.integers(1, n, count)[:, None]
    eigs = np.where(low, lam_min[:, None] * rng.uniform(0, 1, (count, n)), eigs)
    eigs[:, 0], eigs[:, -1] = lam_min, scale
    g = rng.standard_normal((count, n, n))
    if dtype == np.complex128:
        g = g + 1j * rng.standard_normal((count, n, n)) * (n % 2)
    q = np.linalg.qr(g)[0]
    stack = (q * eigs[:, None, :]) @ q.conj().swapaxes(-1, -2)
    assert stack.dtype == dtype
    return stack


class TestPsdScreen:
    """The congruence scale with which the oracle's Choi screen passes trials."""

    @pytest.mark.parametrize("psd_rel", [1e-9, 1e-6, 1e-12])
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_congruence_scale_is_sound(self, dtype, psd_rel):
        # Y = inv(S) C inv(S)* from band-edge and PSD stacks C, with S of
        # condition 1 to 1e6, scaled by 10^-2 .. 10^2.  _congruence_scale's
        # (hi, lo, rho) bracket S's squared singular values, and rho ||Y||_F
        # bounds the rounding of the oracle's fl(fl(S Y) S*), measured
        # against the product in extended precision where the platform has
        # one.
        rng = np.random.default_rng(46 + int(-np.log10(psd_rel)))
        field = "complex" if dtype == np.complex128 else "real"
        wide = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
        for cond in (1.0, 3.0, 10.0, 1e2, 1e4, 1e6):
            for n in (2, 3, 5, 8, 13, 21, 34):
                s = conditioned(rng, n, cond, field) * 10.0 ** rng.uniform(-2, 2)
                s_inv = np.linalg.inv(s)
                hi, lo, rho = _congruence_scale(s)
                sigma = np.linalg.svd(s, compute_uv=False)
                assert lo <= sigma[-1] ** 2 and sigma[0] ** 2 <= hi
                for low_band in (-2.0, 0.0):
                    stack = band_edge_stacks(rng, n, 24, psd_rel, dtype, low_band)
                    ys = s_inv @ stack @ s_inv.conj().T
                    cones = np.matmul(np.matmul(s, ys), s.conj().T)  # as the oracle forms them
                    if wide:
                        big = np.clongdouble if dtype == np.complex128 else np.longdouble
                        exact = (s.astype(big) @ ys.astype(big)) @ s.conj().T.astype(big)
                        error = np.sqrt((np.abs(cones - exact) ** 2).sum(axis=(1, 2)))
                        assert np.all(error <= rho * np.linalg.norm(ys, axis=(1, 2)))


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOLERANCES.rank_rel == 1e-9
        assert DEFAULT_TOLERANCES.psd_rel == 1e-9
        assert DEFAULT_TOLERANCES.eq_rel == 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    def test_positivity_enforced(self, bad):
        with pytest.raises(ValueError):
            Tolerances(rank_rel=bad)

    @pytest.mark.parametrize("name", ["rank_rel", "psd_rel", "eq_rel"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_finiteness_enforced(self, name, bad):
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: bad})
