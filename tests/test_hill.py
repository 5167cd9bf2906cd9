import numpy as np
import pytest

from lyaporder import (
    LYAPUNOV,
    BicommElement,
    EigenBlock,
    JordanSpec,
    LyapunovProblem,
)
from lyaporder import hill
from lyaporder.domination import lyapunov_order_map
from lyaporder.hill import HillRep, minimal_hill_from_blocks, nonminimal_hill
from lyaporder.linalg import kron, rank_tol
from lyaporder.starmaps import StarLinearMap, choi_matrix
from helpers import (
    random_cp_map,
    random_element,
    random_jordan_spec,
    random_star_linear,
    rational_dominator,
)
from reference import (
    ahat_matrix,
    canonical_shuffle,
    cp_via_hill,
    find_c1_witness,
    find_c2_witness,
    hill_from_choi,
    is_completely_positive,
    kraus_map,
    matricization,
    positivity_equals_cp_certificate,
    reconstruct_map,
    vec,
)


def reconstruction_error(rep, m):
    return np.linalg.norm(reconstruct_map(rep).matrix - m.matrix) / (
        1 + np.linalg.norm(m.matrix)
    )


def choi_factorization_error(rep, m):
    ahat = ahat_matrix(rep.factors, rep.out_dim, rep.in_dim)
    return np.linalg.norm(ahat.conj().T @ rep.hill.T @ ahat - choi_matrix(m)) / (
        1 + np.linalg.norm(choi_matrix(m))
    )


def null_projector(a):
    _, s, vh = np.linalg.svd(a)
    r = int(np.count_nonzero(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    basis = vh[r:].conj().T
    return basis @ basis.conj().T


class TestMinimal:
    def test_rank_one_conjugation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        m = kraus_map([x])
        rep = minimal_hill_from_blocks(m)
        assert rep.size == 1 and rep.minimal
        assert rep.hill[0, 0].real > 0 and abs(rep.hill[0, 0].imag) < 1e-12
        assert reconstruction_error(rep, m) <= 1e-12

    def test_identity_map_frozen(self):
        from reference import identity_map

        rep = minimal_hill_from_blocks(identity_map(2))
        assert rep.size == 1
        assert rep.selection == ((0, 0),)
        assert np.allclose(rep.factors[0], np.eye(2), atol=1e-12)
        assert np.array_equal(rep.hill, np.array([[1.0 + 0j]]))

    def test_lyapunov_map_frozen(self):
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        rep = minimal_hill_from_blocks(la)
        assert rep.size == 2
        assert rep.selection == ((0, 0), (1, 1))
        assert np.array_equal(rep.hill, np.array([[2, 3], [3, 4]], dtype=complex))

    def test_random_maps_reconstruct(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = random_star_linear(rng, n, q)
            rep = minimal_hill_from_blocks(m)
            assert rep.size == rank_tol(choi_matrix(m))
            assert reconstruction_error(rep, m) <= 1e-9
            assert choi_factorization_error(rep, m) <= 1e-9
            assert np.linalg.norm(rep.hill - rep.hill.conj().T) <= 1e-9 * (
                1 + np.linalg.norm(rep.hill)
            )

    def test_kernel_equality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_cp_map(rng, 2, 2, terms=1)  # rank-deficient choi
            rep = minimal_hill_from_blocks(m)
            ahat = ahat_matrix(rep.factors, 2, 2)
            diff = null_projector(ahat) - null_projector(choi_matrix(m))
            assert np.linalg.norm(diff) <= 1e-8

    @pytest.mark.parametrize("selection", [[(0, 0)], [(0, 0), (0, 1)]])
    def test_greedy_failures_are_numerical(self, monkeypatch, selection):
        # Choi rank 2, spanned by blocks (0, 0) and (1, 1).  A greedy selection of
        # another size, or of rank-many blocks that do not span, raises LinAlgError;
        # the same selection from a caller is a ValueError.
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        monkeypatch.setattr(hill, "_greedy_selection", lambda *args: list(selection))
        with pytest.raises(np.linalg.LinAlgError):
            minimal_hill_from_blocks(la)
        with pytest.raises(ValueError, match="span") as caller:
            nonminimal_hill(la, selection)
        assert not isinstance(caller.value, np.linalg.LinAlgError)

    def test_rejects_non_star_linear(self):
        rng = np.random.default_rng(3)
        l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            minimal_hill_from_blocks(StarLinearMap(l, 2, 2))


class TestHillFromChoi:
    def test_agrees_with_block_route(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_star_linear(rng, 2, 3)
            rep = minimal_hill_from_blocks(m)
            ahat = ahat_matrix(rep.factors, 2, 3)
            h = hill_from_choi(m, ahat)
            assert np.allclose(h, rep.hill, atol=1e-8)

    def test_basis_change_keeps_factorization(self):
        rng = np.random.default_rng(5)
        m = random_star_linear(rng, 2, 2)
        rep = minimal_hill_from_blocks(m)
        ahat = ahat_matrix(rep.factors, 2, 2)
        t = rng.standard_normal((rep.size, rep.size)) + 1j * rng.standard_normal(
            (rep.size, rep.size)
        )
        t += rep.size * np.eye(rep.size)  # keep it invertible
        ahat2 = t @ ahat
        h2 = hill_from_choi(m, ahat2)
        assert np.allclose(ahat2.conj().T @ h2.T @ ahat2, choi_matrix(m), atol=1e-8)

    def test_unsupported_rowspace_rejected(self):
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))  # choi rank 2
        ahat = vec(np.eye(2)).conj().reshape(1, -1)       # spans one direction only
        with pytest.raises(ValueError):
            hill_from_choi(la, ahat)


class TestNonMinimal:
    def test_minimal_selection_coincides(self):
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        rep_min = minimal_hill_from_blocks(la)
        rep = nonminimal_hill(la, rep_min.selection)
        assert rep.minimal
        assert np.allclose(rep.hill, rep_min.hill.conj())  # same matrix up to convention
        assert reconstruction_error(rep, la) <= 1e-12

    def test_redundant_selection_keeps_rank(self):
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        rep = nonminimal_hill(la, [(0, 0), (1, 1), (0, 1)])  # (0,1) block is zero
        assert not rep.minimal
        assert rep.size == 3
        assert rank_tol(rep.hill) == 2 == rank_tol(choi_matrix(la))
        assert reconstruction_error(rep, la) <= 1e-12

    def test_repeated_block_value(self):
        from reference import identity_map

        m = identity_map(2)
        rep = nonminimal_hill(m, [(0, 0), (1, 1)])
        assert rep.size == 2 and not rep.minimal
        assert np.allclose(rep.hill, np.ones((2, 2)))
        assert rank_tol(rep.hill) == 1
        assert reconstruction_error(rep, m) <= 1e-12

    def test_cp_map_redundant_selection_psd(self):
        rng = np.random.default_rng(6)
        m = random_cp_map(rng, 2, 2, terms=2)
        rep_min = minimal_hill_from_blocks(m)
        extra = [(i, j) for i in range(2) for j in range(2) if (i, j) not in rep_min.selection]
        rep = nonminimal_hill(m, list(rep_min.selection) + extra[:1])
        assert cp_via_hill(rep) in ("yes", "marginal")
        assert rank_tol(rep.hill) == rank_tol(choi_matrix(m))

    def test_duplicate_positions_rejected(self):
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            nonminimal_hill(la, [(0, 0), (0, 0)])

    def test_non_spanning_selection_rejected(self):
        la = matricization(LYAPUNOV, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="span"):
            nonminimal_hill(la, [(0, 0), (0, 1)])


class TestCpViaHill:
    def test_conjugation_yes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert cp_via_hill(minimal_hill_from_blocks(kraus_map([x]))) == "yes"

    def test_transpose_no(self):
        tm = StarLinearMap(canonical_shuffle(2, 2), 2, 2)
        assert cp_via_hill(minimal_hill_from_blocks(tm)) == "no"

    def test_identity_composite_yes(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
        prob = LyapunovProblem(spec, BicommElement(((1.0,), (2.0,))))
        rep = minimal_hill_from_blocks(lyapunov_order_map(prob))
        assert cp_via_hill(rep) == "yes"

    def test_agreement_with_choi_route(self):
        rng = np.random.default_rng(8)
        for k in range(40):
            n, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = random_cp_map(rng, n, q) if k % 2 == 0 else random_star_linear(rng, n, q)
            hill_v = cp_via_hill(minimal_hill_from_blocks(m))
            choi_v = is_completely_positive(m)
            if "marginal" not in (hill_v, choi_v):
                assert hill_v == choi_v


def toeplitz_rep(n, lower=True, r=None):
    """Hill data whose factors span the (lower or upper) triangular Toeplitz algebra."""
    r = r or n
    shift = np.eye(n, k=-1 if lower else 1)
    factors = [np.linalg.matrix_power(shift, k).astype(complex) for k in range(r)]
    return HillRep(factors, np.eye(r, dtype=complex), tuple((k, 0) for k in range(r)), True, n, n)


class TestWitnesses:
    def test_lower_toeplitz_first_basis_vector(self):
        rep = toeplitz_rep(3, lower=True)
        ahat = ahat_matrix(rep.factors, 3, 3)
        z = np.zeros(3, dtype=complex)
        z[0] = 1.0
        assert rank_tol(ahat @ np.kron(z.reshape(-1, 1), np.eye(3))) == rep.size

    def test_lower_toeplitz_last_basis_vector_dual(self):
        rep = toeplitz_rep(3, lower=True)
        ahat = ahat_matrix(rep.factors, 3, 3)
        x = np.zeros(3, dtype=complex)
        x[2] = 1.0
        assert rank_tol(ahat @ np.kron(np.eye(3), x.reshape(-1, 1))) == rep.size

    def test_upper_toeplitz_duality(self):
        # adjoint span flips the witnesses: e_n for the z kind, e_1 for the x kind
        rep = toeplitz_rep(3, lower=False)
        ahat = ahat_matrix(rep.factors, 3, 3)
        last = np.zeros(3, dtype=complex)
        last[2] = 1.0
        first = np.zeros(3, dtype=complex)
        first[0] = 1.0
        assert rank_tol(ahat @ np.kron(last.reshape(-1, 1), np.eye(3))) == rep.size
        assert rank_tol(ahat @ np.kron(np.eye(3), first.reshape(-1, 1))) == rep.size

    def test_column_span_scalar_input(self):
        factors = [np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)]
        rep = HillRep(factors, np.eye(2, dtype=complex), ((0, 0), (1, 0)), True, 2, 1)
        z = find_c1_witness(rep, trials=4, seed=0)
        assert z is not None and z.shape == (1,)

    def test_structured_on_jordan_composites(self):
        rng = np.random.default_rng(9)
        for field in ("complex", "real"):
            for _ in range(5):
                spec = random_jordan_spec(rng, field=field, max_dim=6)
                prob = LyapunovProblem(spec, random_element(rng, spec))
                rep = minimal_hill_from_blocks(lyapunov_order_map(prob))
                for finder in (find_c1_witness, find_c2_witness):
                    w = finder(rep, jordan=spec)
                    assert w is not None

    def test_structured_through_similarity(self):
        rng = np.random.default_rng(10)
        spec = random_jordan_spec(rng, similarity=True, max_dim=5)
        prob = LyapunovProblem(spec, rational_dominator(rng, spec))
        rep = minimal_hill_from_blocks(lyapunov_order_map(prob))
        assert find_c1_witness(rep, jordan=spec) is not None
        assert find_c2_witness(rep, jordan=spec) is not None

    def test_randomized_soundness(self):
        rng = np.random.default_rng(11)
        spec = random_jordan_spec(rng, similarity=True, max_dim=5)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        rep = minimal_hill_from_blocks(lyapunov_order_map(prob))
        z = find_c1_witness(rep, trials=32, seed=3)
        assert z is not None
        ahat = ahat_matrix(rep.factors, rep.out_dim, rep.in_dim)
        assert rank_tol(ahat @ np.kron(z.reshape(-1, 1), np.eye(rep.out_dim))) == rep.size

    def test_oversized_rank_returns_none(self):
        tm = StarLinearMap(canonical_shuffle(2, 2), 2, 2)  # choi rank 4 > n = 2
        rep = minimal_hill_from_blocks(tm)
        assert find_c1_witness(rep, trials=8, seed=0) is None

    def test_c2_rank_bound_and_empty_witness_lengths(self):
        # n = 3 outputs, q = 1 input: a c2 witness x has length n and needs r <= q.
        factors = [np.array([[1.0], [0.0], [0.0]], dtype=complex),
                   np.array([[0.0], [1.0], [0.0]], dtype=complex)]
        rep = HillRep(factors, np.eye(2, dtype=complex), ((0, 0), (1, 0)), True, 3, 1)
        assert find_c2_witness(rep, trials=8, seed=0) is None
        empty = HillRep([], np.zeros((0, 0), dtype=complex), (), True, 3, 1)
        for finder, length in ((find_c1_witness, 1), (find_c2_witness, 3)):
            w = finder(empty)
            assert w.shape == (length,) and not w.any()

    def test_jordan_dimension_mismatch_is_named(self):
        # A 3 x 3 map with 2 x 2 Jordan data: both kinds name the mismatch
        # instead of failing inside a matrix product.
        rep = HillRep([np.eye(3, dtype=complex)], np.eye(1, dtype=complex), ((0, 0),), True, 3, 3)
        spec = JordanSpec("complex", (EigenBlock(1.0, (2,)),))
        for finder, kind in ((find_c1_witness, "c1"), (find_c2_witness, "c2")):
            with pytest.raises(ValueError, match=f"dimension 2 do not match the {kind} witness length 3"):
                finder(rep, jordan=spec)


class TestCertificate:
    def test_composites_certified(self):
        rng = np.random.default_rng(12)
        spec = random_jordan_spec(rng, max_dim=5)
        prob = LyapunovProblem(spec, random_element(rng, spec))
        cert = positivity_equals_cp_certificate(lyapunov_order_map(prob))
        assert cert.certified and cert.kind in ("c1", "c2")

    def test_conjugation_certified(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert positivity_equals_cp_certificate(kraus_map([x])).certified

    def test_transpose_uncertified(self):
        tm = StarLinearMap(canonical_shuffle(2, 2), 2, 2)
        cert = positivity_equals_cp_certificate(tm)
        assert not cert.certified
