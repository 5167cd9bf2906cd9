import numpy as np
import pytest

from lyaporder import (
    LYAPUNOV,
    STEIN,
    BicommElement,
    EigenBlock,
    JordanSpec,
    check_bicomm_membership,
)
from lyaporder.domination import upsilon_selection
from lyaporder.jordan import (
    InnerBlock,
    bicomm_blocks,
    build_A,
    build_bicomm_element,
    build_bicomm_jordan,
    build_JA,
    inner_blocks,
)
from lyaporder.linalg import block_diag, rank_tol
from helpers import a_element, random_element, random_invertible, random_jordan_spec
from reference import extract_bicomm_coeffs, matricization


class TestBuildJordan:
    def test_scalar(self):
        spec = JordanSpec("complex", (EigenBlock(5.0, (1,)),))
        assert np.array_equal(build_JA(spec), np.array([[5.0 + 0j]]))

    def test_single_block(self):
        spec = JordanSpec("complex", (EigenBlock(2.0, (2,)),))
        assert np.array_equal(build_JA(spec), np.array([[2, 1], [0, 2]], dtype=complex))

    def test_real_pair_block(self):
        spec = JordanSpec("real", (EigenBlock(1j, (1,)),))
        assert np.array_equal(build_JA(spec), np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_real_pair_jordan_structure(self):
        spec = JordanSpec("real", (EigenBlock(1 + 2j, (2,)),))
        j = build_JA(spec).real
        c = np.array([[1, 2], [-2, 1]])
        expect = np.block([[c, np.eye(2)], [np.zeros((2, 2)), c]])
        assert np.array_equal(j, expect)

    def test_blocks_bitwise_equal_to_sum_of_shifts(self):
        def reference(spec, elem):
            """The blocks as a sum of row[v] times the v-th shift (kron with 2x2 for pairs)."""
            parts = []
            for blk in inner_blocks(spec):
                row = elem.coeffs[blk.eigen_index]
                shifts = [np.eye(blk.size, k=v, dtype=np.complex128) for v in range(blk.size)]
                if blk.pair:
                    rot = [np.array([[c.real, c.imag], [-c.imag, c.real]], dtype=np.complex128)
                           for c in row]
                    t = sum(np.kron(shifts[v], rot[v]) for v in range(blk.size))
                else:
                    t = sum(row[v] * shifts[v] for v in range(blk.size))
                parts.append(np.atleast_2d(t))
            return parts

        rng = np.random.default_rng(40)
        with_pairs = 0
        for k in range(400):
            spec = random_jordan_spec(rng, field=("complex", "real")[k % 2], max_dim=10)
            # Signed zeros too, which the sum of shifts turns into +0.0.
            zero = lambda c: (complex(-0.0, c.imag), complex(c.real, -0.0), c)[int(rng.integers(3))]
            elem = BicommElement(tuple(tuple(zero(c) for c in row)
                                       for row in random_element(rng, spec).coeffs))
            jordan = BicommElement(tuple(((e.eigenvalue, 1.0) + (0.0,) * e.sizes[0])[: e.sizes[0]]
                                         for e in spec.eigens))
            want = reference(spec, elem)
            assert [b.tobytes() for b in bicomm_blocks(spec, elem)] == [b.tobytes() for b in want]
            assert build_bicomm_jordan(spec, elem).tobytes() == block_diag(*want).tobytes()
            assert build_JA(spec).tobytes() == block_diag(*reference(spec, jordan)).tobytes()
            with_pairs += any(b.pair and b.size > 1 for b in inner_blocks(spec))
        assert with_pairs >= 20

    def test_build_A_without_similarity(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
        assert np.array_equal(build_A(spec), np.diag([1.0, 2.0]).astype(complex))

    def test_build_A_conjugates(self):
        p = np.array([[1.0, 1.0], [0.0, 1.0]])
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))), p)
        assert np.allclose(build_A(spec), np.array([[1, 1], [0, 2]]))

    def test_eigenvalues_round_trip(self):
        rng = np.random.default_rng(3)
        spec = random_jordan_spec(rng, similarity=True)
        got = sorted(np.linalg.eigvals(build_A(spec)), key=lambda z: (z.real, z.imag))
        want = []
        for e in spec.eigens:
            want.extend([e.eigenvalue] * sum(e.sizes))
        want = sorted(want, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-6)

    def test_singular_similarity_rejected(self):
        with pytest.raises(ValueError):
            JordanSpec(
                "complex", (EigenBlock(1.0, (2,)),), np.array([[1.0, 1.0], [1.0, 1.0]])
            )


class TestSpecValidation:
    def test_sizes_must_decrease(self):
        with pytest.raises(ValueError):
            EigenBlock(1.0, (1, 2))

    def test_distinct_eigenvalues(self):
        with pytest.raises(ValueError):
            JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(1.0, (2,))))

    def test_real_field_negative_imag_rejected(self):
        with pytest.raises(ValueError):
            JordanSpec("real", (EigenBlock(1 - 1j, (1,)),))

    def test_real_similarity_must_be_real(self):
        with pytest.raises(ValueError):
            JordanSpec("real", (EigenBlock(1.0, (2,)),), np.eye(2) * (1 + 1j))

    @pytest.mark.parametrize("lam", [np.nan, complex(1.0, np.nan), np.inf, complex(0.0, -np.inf)])
    def test_non_finite_eigenvalue_rejected(self, lam):
        # Two NaN eigenvalues would pass the distinctness check (NaN != NaN)
        # and the decision would end in a LinAlgError of the Hill-Pick route.
        with pytest.raises(ValueError, match="eigenvalue must be finite") as info:
            EigenBlock(lam, (1,))
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_similarity_rejected(self, bad):
        # An input error, not the LinAlgError of rank_tol's SVD.
        p = np.eye(2)
        p[0, 1] = bad
        with pytest.raises(ValueError, match="similarity matrix has non-finite") as info:
            JordanSpec("complex", (EigenBlock(1.0, (2,)),), p)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_dim_counts_pairs_twice(self):
        spec = JordanSpec("real", (EigenBlock(1 + 1j, (2, 1)), EigenBlock(2.0, (1,))))
        assert spec.dim == 7


class TestLayout:
    def test_cached_layout_matches_a_fresh_walk(self):
        def walk(spec):
            """The layout walked block by block, as it was on every call before."""
            out, off = [], 0
            for j, e in enumerate(spec.eigens):
                pair = spec.field == "real" and e.eigenvalue.imag > 0
                for s in e.sizes:
                    d = 2 * s if pair else s
                    out.append(InnerBlock(j, s, d, off, pair))
                    off += d
            return tuple(out)

        rng = np.random.default_rng(46)
        for k in range(200):
            spec = random_jordan_spec(rng, field=("complex", "real")[k % 2], max_dim=10,
                                      similarity=k % 4 < 2)
            want = walk(spec)
            assert inner_blocks(spec) == want and inner_blocks(spec) is inner_blocks(spec)
            n = sum(b.dim for b in want)
            assert spec.dim == n
            leads = {b.eigen_index: b for b in reversed(want)}.values()
            assert upsilon_selection(spec) == tuple(
                (b.offset + a, b.offset) for b in sorted(leads) for a in range(b.dim))
            j = np.zeros((n, n), dtype=np.complex128)
            for b in want:
                lam = spec.eigens[b.eigen_index].eigenvalue
                c = [[lam.real, lam.imag], [-lam.imag, lam.real]] if b.pair else [[lam]]
                j[b.offset : b.offset + b.dim, b.offset : b.offset + b.dim] = (
                    np.kron(np.eye(b.size), c) + np.eye(b.dim, k=len(c)))
            assert build_JA(spec).tobytes() == j.tobytes()


class TestRegularity:
    def test_regular_diagonal(self):
        assert LYAPUNOV.regular(JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,)))))

    def test_imaginary_axis_fails(self):
        assert not LYAPUNOV.regular(JordanSpec("complex", (EigenBlock(1j, (1,)),)))

    def test_mirror_pair_fails(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(-1.0, (1,))))
        assert not LYAPUNOV.regular(spec)

    def test_real_field_implicit_conjugates(self):
        # 1+i and implicit 1-i are fine; i alone is on the imaginary axis
        assert LYAPUNOV.regular(JordanSpec("real", (EigenBlock(1 + 1j, (1,)),)))
        assert not LYAPUNOV.regular(JordanSpec("real", (EigenBlock(1j, (1,)),)))

    def test_matches_matricization_invertibility(self):
        cases = (
            (LYAPUNOV, (EigenBlock(1 + 1j, (2,)), EigenBlock(0.5, (1,))), True),
            (LYAPUNOV, (EigenBlock(1.0, (1,)), EigenBlock(-1.0, (2,))), False),
            # Lyapunov singular (0 + conj 0 == 0, 0.5j + conj 0.5j == 0) but Stein regular.
            (STEIN, (EigenBlock(0.0, (2,)), EigenBlock(0.5j, (1,))), True),
            (STEIN, (EigenBlock(2.0, (1,)), EigenBlock(0.5, (2,))), False),
        )
        for order, eigens, expect in cases:
            spec = JordanSpec("complex", eigens)
            n = spec.dim
            la = matricization(order, build_A(spec)).matrix
            assert (rank_tol(la) == n * n) is expect
            assert order.regular(spec) is expect


class TestBicommBuild:
    def test_identity_coefficients(self):
        spec = JordanSpec("complex", (EigenBlock(1.5, (2, 1)),))
        elem = BicommElement(((1.0, 0.0),))
        assert np.array_equal(build_bicomm_element(spec, elem), np.eye(3, dtype=complex))

    def test_reproduces_A(self):
        rng = np.random.default_rng(4)
        for field in ("complex", "real"):
            spec = random_jordan_spec(rng, field=field, similarity=True)
            b = build_bicomm_element(spec, a_element(spec))
            assert np.allclose(b, build_A(spec), atol=1e-10)

    def test_toeplitz_assembly(self):
        p = random_invertible(np.random.default_rng(5), 3)
        spec = JordanSpec("complex", (EigenBlock(2.0, (2, 1)),), p)
        elem = BicommElement(((4.0, 7.0),))
        expect_jordan = np.array([[4, 7, 0], [0, 4, 0], [0, 0, 4]], dtype=complex)
        got = build_bicomm_element(spec, elem)
        assert np.allclose(got, p @ expect_jordan @ np.linalg.inv(p))
        a = build_A(spec)
        assert np.linalg.norm(a @ got - got @ a) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(got)

    def test_commutes_with_A(self):
        rng = np.random.default_rng(6)
        for field in ("complex", "real"):
            for _ in range(5):
                spec = random_jordan_spec(rng, field=field, similarity=True)
                a = build_A(spec)
                b = build_bicomm_element(spec, random_element(rng, spec))
                assert np.linalg.norm(a @ b - b @ a) <= 1e-10 * (
                    1 + np.linalg.norm(a) * np.linalg.norm(b)
                )

    def test_shape_validation(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (2,)),))
        with pytest.raises(ValueError):
            build_bicomm_element(spec, BicommElement(((1.0,),)))
        with pytest.raises(ValueError):
            build_bicomm_element(spec, BicommElement(((1.0, 0.0), (2.0,))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_coeffs_rejected(self, bad):
        spec = JordanSpec("real", (EigenBlock(1.0 + 0.5j, (2,)),))
        with pytest.raises(ValueError, match="^eigenvalue 0: coefficients must be finite"):
            build_bicomm_element(spec, BicommElement(((1.0, bad),)))

    def test_real_eigen_needs_real_coeffs(self):
        spec = JordanSpec("real", (EigenBlock(1.0, (2,)),))
        with pytest.raises(ValueError):
            build_bicomm_element(spec, BicommElement(((1.0, 1j),)))


class TestMembership:
    def test_constructed_members_pass(self):
        rng = np.random.default_rng(7)
        for field in ("complex", "real"):
            for _ in range(5):
                spec = random_jordan_spec(rng, field=field, similarity=True)
                b = build_bicomm_element(spec, random_element(rng, spec))
                if field == "real":
                    b = b.real
                assert check_bicomm_membership(spec, b).member

    def test_polynomials_in_A_pass(self):
        rng = np.random.default_rng(8)
        spec = random_jordan_spec(rng, similarity=True)
        a = build_A(spec)
        n = spec.dim
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        poly = sum(c * np.linalg.matrix_power(a, k) for k, c in enumerate(coeffs))
        assert check_bicomm_membership(spec, poly).member
        assert check_bicomm_membership(spec, a @ a).member

    def test_off_diagonal_violation(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
        res = check_bicomm_membership(spec, np.array([[1.0, 0.5], [0.0, 2.0]]))
        assert not res.member
        assert res.witness == (0, 1)

    def test_compression_coupling_enforced(self):
        # same eigenvalue on two blocks must share coefficients
        spec = JordanSpec("complex", (EigenBlock(2.0, (1, 1)),))
        res = check_bicomm_membership(spec, np.diag([3.0, 4.0]))
        assert not res.member

    @pytest.mark.parametrize("b", [[[1.0, np.nan], [0.0, 3.0]], np.diag([np.nan, 3.0]),
                                   np.diag([np.inf, 3.0])], ids=["nan-off", "nan-diag", "inf"])
    def test_non_finite_b_rejected(self, b):
        # A NaN entry fails both diff <= scale and diff > scale, which left
        # no witness entry to report (an IndexError).
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
        with pytest.raises(ValueError, match="B has non-finite entries"):
            check_bicomm_membership(spec, np.array(b))

    def test_witness_is_first_violation(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (2,)),))
        b = np.array([[1.0, 0.0], [0.7, 1.0]])
        res = check_bicomm_membership(spec, b)
        assert not res.member and res.witness == (1, 0)


class TestExtraction:
    def test_identity(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (2,)), EigenBlock(3.0, (1,))))
        elem = extract_bicomm_coeffs(spec, np.eye(3))
        assert elem.coeffs == ((1.0, 0.0), (1.0,))

    def test_A_itself(self):
        spec = JordanSpec("complex", (EigenBlock(2.5, (2,)),))
        elem = extract_bicomm_coeffs(spec, build_A(spec))
        assert elem.coeffs == ((2.5, 1.0),)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for field in ("complex", "real"):
            for _ in range(5):
                spec = random_jordan_spec(rng, field=field, similarity=True)
                elem = random_element(rng, spec)
                b = build_bicomm_element(spec, elem)
                if field == "real":
                    b = b.real
                back = extract_bicomm_coeffs(spec, b)
                for row, expect in zip(back.coeffs, elem.coeffs):
                    assert np.allclose(row, expect, atol=1e-9)

    def test_nonmember_raises(self):
        spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
        with pytest.raises(ValueError, match="bicommutant"):
            extract_bicomm_coeffs(spec, np.array([[1.0, 1.0], [0.0, 2.0]]))
