import numpy as np
import pytest

from lyaporder import DEFAULT_TOLERANCES, LYAPUNOV
from lyaporder.linalg import rank_tol
from lyaporder.starmaps import StarLinearMap, choi_matrix, is_star_linear
from helpers import random_cp_map, random_star_linear
from reference import (
    apply_map,
    canonical_shuffle,
    compose,
    entry_symmetry_holds,
    gaussian,
    identity_map,
    is_completely_positive,
    is_psd,
    kraus_map,
    map_from_choi,
    matricization,
    positivity_sample_test,
    vec,
)


def transpose_map(n):
    return StarLinearMap(canonical_shuffle(n, n), n, n)


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(apply_map(identity_map(3), v), v)

    def test_scalar_conjugation(self):
        m = kraus_map([np.array([[2.0]])])
        assert np.allclose(apply_map(m, [[3.0]]), [[12.0]])

    def test_adjoint_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = random_star_linear(rng, 3, 2)
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.allclose(apply_map(m, v.conj().T), apply_map(m, v).conj().T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_map(identity_map(2), np.eye(3))


class TestChoi:
    def test_identity_map(self):
        c = choi_matrix(identity_map(2))
        v = vec(np.eye(2))
        assert np.array_equal(c, np.outer(v, v.conj()))
        assert rank_tol(c) == 1
        assert is_psd(c) in ("yes", "marginal")

    def test_zero_map(self):
        z = StarLinearMap(np.zeros((4, 9)), 2, 3)
        assert not choi_matrix(z).any()

    def test_conjugation_choi_is_rank_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = choi_matrix(kraus_map([x]))
        vx = vec(x)
        assert np.allclose(c, np.outer(vx, vx.conj()))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_permutation_matches_brute_force(self, dims):
        # pins the Choi <-> matricization index permutation, bit for bit
        n, q = dims
        rng = np.random.default_rng(3)
        l = rng.standard_normal((n * n, q * q)) + 1j * rng.standard_normal((n * n, q * q))
        m = StarLinearMap(l, n, q)
        brute = np.zeros((n * q, n * q), dtype=complex)
        for i in range(q):
            for j in range(q):
                e = np.zeros((q, q))
                e[i, j] = 1.0
                brute[i * n : (i + 1) * n, j * n : (j + 1) * n] = apply_map(m, e)
        assert np.array_equal(choi_matrix(m), brute)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(4)
        l = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        m = StarLinearMap(l, 3, 2)
        back = map_from_choi(choi_matrix(m), 3, 2)
        assert np.array_equal(back.matrix, m.matrix)

    def test_from_choi_examples(self):
        assert not map_from_choi(np.zeros((4, 4)), 2, 2).matrix.any()
        v = vec(np.eye(2))
        m = map_from_choi(np.outer(v, v.conj()), 2, 2)
        assert np.array_equal(m.matrix, np.eye(4, dtype=complex))


class TestStarLinearity:
    def test_conjugation_is_star_linear(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_star_linear(kraus_map([x]))

    def test_non_hermitian_choi_fails(self):
        bad = map_from_choi(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2)
        assert not is_star_linear(bad)

    def test_lyapunov_map_is_star_linear(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert is_star_linear(matricization(LYAPUNOV, a))

    def test_choi_and_entry_symmetry_agree(self):
        rng = np.random.default_rng(7)
        for k in range(100):
            n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            if k % 2 == 0:
                m = random_star_linear(rng, n, q)
                expect = True
            else:
                m = random_star_linear(rng, n, q)
                noise = rng.standard_normal(m.matrix.shape) * 1e-3
                m = StarLinearMap(m.matrix + noise * 1j + noise[::-1, ::-1], n, q)
                expect = is_star_linear(m)
            assert entry_symmetry_holds(m) is expect

    def test_zero_block_pattern_equivalence(self):
        # a zero block of the matricization mirrors a zero entry pattern across blocks
        rng = np.random.default_rng(8)
        n = q = 3
        m = random_star_linear(rng, n, q)
        l4 = m.matrix.reshape(n, n, q, q)
        i, j = 1, 2
        l4[i, :, j, :] = 0.0        # zero out block (i, j)
        l4[:, i, :, j] = 0.0        # and the (i, j) entry of every block
        planted = StarLinearMap(l4.reshape(n * n, q * q), n, q)
        assert is_star_linear(planted)
        blocks = planted.matrix.reshape(n, n, q, q).transpose(0, 2, 1, 3)
        for bi in range(n):
            for bj in range(q):
                block_zero = not blocks[bi, bj].any()
                pattern_zero = not blocks[:, :, bi, bj].any()
                assert block_zero == pattern_zero


class TestCompletePositivity:
    def test_conjugation(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert is_completely_positive(kraus_map([x])) in ("yes", "marginal")

    def test_transpose_map_not_cp(self):
        assert is_completely_positive(transpose_map(2)) == "no"

    def test_zero_map(self):
        assert is_completely_positive(StarLinearMap(np.zeros((4, 4)), 2, 2)) in ("yes", "marginal")

    def test_requires_star_linear(self):
        bad = map_from_choi(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2)
        with pytest.raises(ValueError):
            is_completely_positive(bad)


class TestPositivitySampling:
    def test_cp_maps_never_refuted(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = random_cp_map(rng, n, q)
            assert positivity_sample_test(m, trials=10_000, seed=11) is None

    def test_negation_refuted_instantly(self):
        m = StarLinearMap(-np.eye(4), 2, 2)
        witness = positivity_sample_test(m, trials=10, seed=0)
        assert witness is not None
        z, x = witness
        v = np.kron(z, x)
        assert (v.conj() @ choi_matrix(m) @ v).real < 0

    def test_transpose_map_is_positive(self):
        # positive but not completely positive: sampling stays silent
        assert positivity_sample_test(transpose_map(2), trials=10_000, seed=1) is None

    def test_real_field_uses_real_vectors(self):
        # X -> X A + A^T X is not positive: sampling refutes it with real z, x
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        m = matricization(LYAPUNOV, a, field="real")
        witness = positivity_sample_test(m, trials=50, seed=2)
        assert witness is not None
        z, x = witness
        assert not z.imag.any() and not x.imag.any()
        v = np.kron(z, x)
        assert (v.conj() @ choi_matrix(m) @ v).real < 0

    def test_blocks_match_per_trial_loop(self):
        # The block draw returns the per-trial loop's first violating pair,
        # bit for bit, wherever it falls relative to the blocks of 7.
        def per_trial(m, trials, seed):
            c = choi_matrix(m)
            floor = -DEFAULT_TOLERANCES.psd_rel * (1.0 + np.abs(np.linalg.eigvalsh(c)).max())
            rng = np.random.default_rng(seed)
            for trial in range(trials):
                z, x = gaussian(rng, m.in_dim, m.field), gaussian(rng, m.out_dim, m.field)
                v = np.kron(z, x)
                if (v.conj() @ c @ v).real < floor:
                    return trial, z, x
            return None

        rng = np.random.default_rng(5)
        first = []
        for k in range(60):
            # A CP map's Choi matrix shifted into one negative direction.
            field, n, q = ("complex", "real")[k % 2], *(int(d) for d in rng.integers(1, 4, 2))
            c = choi_matrix(random_cp_map(rng, n, q, field, terms=n * q))
            ev = np.linalg.eigvalsh(c)
            shift = ev[0] + rng.uniform(0.02, 1.0) * (ev[1] - ev[0] if len(ev) > 1 else 1.0)
            m = map_from_choi(c - shift * np.eye(n * q), n, q, field)
            want, got = per_trial(m, 200, k), positivity_sample_test(m, 200, seed=k, block=7)
            if want is None:
                assert got is None
                continue
            trial, z, x = want
            assert np.array_equal(got[0], z) and np.array_equal(got[1], x)
            first.append(trial)
        assert len(first) >= 40 and max(first) >= 7 and len({t % 7 for t in first}) >= 4


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(11)
        f = random_star_linear(rng, 2, 2)
        out = compose(identity_map(2), f)
        assert np.allclose(out.matrix, f.matrix)

    def test_inverse_recovers_identity(self):
        a = np.diag([1.0, 2.0])
        la = matricization(LYAPUNOV, a)
        inv = StarLinearMap(np.linalg.inv(la.matrix), 2, 2)
        assert np.allclose(compose(la, inv).matrix, np.eye(4))

    def test_application_order(self):
        rng = np.random.default_rng(12)
        f = random_star_linear(rng, 3, 2)   # 2x2 -> 3x3
        g = random_star_linear(rng, 2, 3)   # 3x3 -> 2x2
        h = compose(f, g)                   # 2x2 -> 2x2
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(apply_map(h, v), apply_map(g, apply_map(f, v)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        f = random_star_linear(rng, 3, 2)
        with pytest.raises(ValueError):
            compose(f, f)


class TestFieldHandling:
    def test_real_map_accepts_real(self):
        m = matricization(LYAPUNOV, np.array([[1.0, 0.5], [0.0, 2.0]]), field="real")
        assert m.field == "real"
        assert not m.matrix.imag.any()

    def test_real_map_rejects_complex(self):
        with pytest.raises(ValueError):
            StarLinearMap(np.eye(4) * 1j, 2, 2, field="real")
