"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``[criterion N] PASS`` line on success (run with
``pytest -rA`` or ``-s`` to see them).  The shared pool of 100 random
complex problems mixes generic bicommutant elements, strict dominators
(alpha*I + beta*A + gamma*inv(A)), and boundary cases (B = A, B = inv(A)).
"""

import time

import numpy as np
import pytest

from lyaporder import (
    BicommElement,
    EigenBlock,
    JordanSpec,
    LyapunovProblem,
    domination_oracle,
    hill_pick_matrix,
    stein_domination,
)
from lyaporder.domination import lyapunov_order_map
from lyaporder.hill import minimal_hill_from_blocks, nonminimal_hill
from lyaporder.linalg import psd_report, rank_tol
from lyaporder.starmaps import choi_matrix
from helpers import (
    a_element,
    problem_mix,
    random_cp_map,
    random_element,
    random_invertible,
    random_jordan_spec,
    random_star_linear,
    rational_dominator,
    stein_jordan_spec,
    stein_power_element,
)
from reference import (
    ahat_matrix,
    closed_form_matricization,
    cp_via_hill,
    find_c1_witness,
    find_c2_witness,
    is_completely_positive,
    reconstruct_map,
)

BAND = 1e-9


def ok(n, message):
    print(f"[criterion {n}] PASS: {message}")


@pytest.fixture(scope="module")
def complex_pool():
    rng = np.random.default_rng(20240817)
    return problem_mix(rng, 100, field="complex", max_dim=8, similarity=True)


def test_criterion_1_closed_form_validation(complex_pool):
    start = time.monotonic()
    worst = 0.0
    for prob in complex_pool:
        lhs = closed_form_matricization(prob)
        rhs = lyapunov_order_map(prob).matrix
        err = np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs))
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0
    ok(1, f"closed form == composite on 100 problems, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hill_pick_equals_choi(complex_pool):
    disagreements = 0
    compared = 0
    for prob in complex_pool:
        hp_verdict, _ = psd_report(hill_pick_matrix(prob).matrix, prob.tol)
        choi_verdict, _ = psd_report(choi_matrix(lyapunov_order_map(prob)), prob.tol)
        if "marginal" in (hp_verdict, choi_verdict):
            continue
        compared += 1
        if hp_verdict != choi_verdict:
            disagreements += 1
    assert disagreements == 0
    assert compared > 0
    ok(2, f"hill-pick vs choi verdicts agree on {compared} non-marginal problems")


def test_criterion_3_oracle_consistency(complex_pool):
    dominating = [
        p for p in complex_pool if psd_report(hill_pick_matrix(p).matrix, p.tol)[0] == "yes"
    ]
    assert dominating, "the pool must contain strict dominators"
    for prob in dominating:
        status, _ = domination_oracle(prob, trials=1000, seed=99)
        assert status == "consistent"

    spec = JordanSpec("complex", (EigenBlock(1.0, (1,)), EigenBlock(2.0, (1,))))
    fixed = LyapunovProblem(spec, BicommElement(((1.0,), (3.0,))))
    hp = hill_pick_matrix(fixed).matrix
    assert np.allclose(hp, [[1.0, 4.0 / 3.0], [4.0 / 3.0, 1.5]], atol=1e-14)
    assert np.linalg.det(hp).real == pytest.approx(-5.0 / 18.0, abs=1e-14)
    status, witness = domination_oracle(fixed, trials=1000, seed=0)
    assert status == "violation" and witness is not None
    ok(3, f"oracle consistent on {len(dominating)} dominators; fixed pair refuted")


def test_criterion_4_pick_reduction():
    rng = np.random.default_rng(17)
    lams = [complex(rng.uniform(0.5, 2.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
    ts = [complex(*rng.standard_normal(2)) for _ in range(4)]
    spec = JordanSpec("complex", tuple(EigenBlock(l, (1,)) for l in lams))
    prob = LyapunovProblem(spec, BicommElement(tuple((t,) for t in ts)))
    hp = hill_pick_matrix(prob).matrix
    expect = np.array(
        [[(np.conj(ts[i]) + ts[j]) / (np.conj(lams[i]) + lams[j]) for j in range(4)] for i in range(4)]
    )
    assert np.abs(hp - expect).max() <= 1e-12

    same = LyapunovProblem(spec, BicommElement(tuple((l,) for l in lams)))
    ones = hill_pick_matrix(same).matrix
    assert np.abs(ones - np.ones((4, 4))).max() <= 1e-12
    assert rank_tol(ones) == 1
    assert psd_report(ones)[1] >= -BAND * (1 + 4.0)
    ok(4, "hill-pick equals the classical Pick matrix; B=A gives the all-ones matrix")


def _null_projector(a, tol=1e-9):
    _, s, vh = np.linalg.svd(a)
    r = int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0
    basis = vh[r:].conj().T
    return basis @ basis.conj().T


def test_criterion_5_hill_representation_suite():
    rng = np.random.default_rng(5150)
    disagreements = 0
    compared = 0
    for k in range(200):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(2, 4))
        m = random_cp_map(rng, n, q) if k % 2 == 0 else random_star_linear(rng, n, q)
        rep = minimal_hill_from_blocks(m)
        rel = 1.0 + np.linalg.norm(m.matrix)
        assert np.linalg.norm(reconstruct_map(rep).matrix - m.matrix) <= 1e-9 * rel

        choi = choi_matrix(m)
        ahat = ahat_matrix(rep.factors, n, q)
        assert np.linalg.norm(ahat.conj().T @ rep.hill.T @ ahat - choi) <= 1e-9 * (
            1 + np.linalg.norm(choi)
        )
        assert np.linalg.norm(_null_projector(ahat) - _null_projector(choi)) <= 1e-8

        unused = [(i, j) for i in range(n) for j in range(q) if (i, j) not in rep.selection]
        selection = list(rep.selection) + unused[: min(2, len(unused))]
        nm = nonminimal_hill(m, selection)
        assert rank_tol(nm.hill) == rank_tol(choi)
        assert np.linalg.norm(reconstruct_map(nm).matrix - m.matrix) <= 1e-9 * rel
        if len(selection) > rep.size:
            nm_ahat = ahat_matrix(nm.factors, n, q)
            assert np.linalg.norm(choi @ _null_projector(nm_ahat)) <= 1e-8 * (
                1 + np.linalg.norm(choi)
            )

        hill_verdict = cp_via_hill(rep)
        choi_verdict = is_completely_positive(m)
        if "marginal" not in (hill_verdict, choi_verdict):
            compared += 1
            if hill_verdict != choi_verdict:
                disagreements += 1
    assert disagreements == 0 and compared > 0
    ok(5, f"reconstruction, factorization, kernels and CP agreement on 200 maps ({compared} compared)")


def test_criterion_6_witness_machinery():
    rng = np.random.default_rng(4242)
    structured_hits = 0
    randomized_hits = 0
    for _ in range(100):
        spec = random_jordan_spec(rng, field="complex", max_dim=6)  # jordan basis
        prob = LyapunovProblem(spec, random_element(rng, spec))
        rep = minimal_hill_from_blocks(lyapunov_order_map(prob))
        ahat = ahat_matrix(rep.factors, rep.out_dim, rep.in_dim)
        z = find_c1_witness(rep, jordan=spec)
        x = find_c2_witness(rep, jordan=spec)
        if z is None or x is None:
            continue
        n, q, r = rep.out_dim, rep.in_dim, rep.size
        assert rank_tol(ahat @ np.kron(z.reshape(-1, 1), np.eye(n))) == r
        assert rank_tol(ahat @ np.kron(np.eye(q), x.reshape(-1, 1))) == r
        structured_hits += 1

        basis = random_invertible(rng, spec.dim, "complex")
        spec_p = JordanSpec("complex", spec.eigens, basis)
        prob_p = LyapunovProblem(spec_p, prob.element)
        rep_p = minimal_hill_from_blocks(lyapunov_order_map(prob_p))
        if find_c1_witness(rep_p, trials=32, seed=7) is not None:
            randomized_hits += 1
    assert structured_hits == 100
    assert randomized_hits == 100
    ok(6, "structured witnesses 100/100 (P=I); randomized within 32 trials 100/100 (random P)")


def test_criterion_7_real_field_cross_check():
    rng = np.random.default_rng(777)
    problems = problem_mix(rng, 50, field="real", max_dim=8, similarity=True)
    assert any(
        any(e.eigenvalue.imag > 0 for e in p.spec.eigens) for p in problems
    ), "the pool must exercise conjugate-pair eigenvalues"
    disagreements = 0
    compared = 0
    for prob in problems:
        hp_verdict, _ = psd_report(hill_pick_matrix(prob).matrix, prob.tol)
        choi_verdict, _ = psd_report(choi_matrix(lyapunov_order_map(prob)), prob.tol)
        if "marginal" in (hp_verdict, choi_verdict):
            continue
        compared += 1
        if hp_verdict != choi_verdict:
            disagreements += 1
    assert disagreements == 0 and compared > 0
    ok(7, f"real-field hill-pick vs choi verdicts agree on {compared} non-marginal problems")


def test_criterion_8_similarity_invariance():
    rng = np.random.default_rng(88)
    checked = 0
    for i in range(50):
        field = "complex" if i % 2 == 0 else "real"
        spec = random_jordan_spec(rng, field=field, max_dim=6, similarity=True)
        elem = rational_dominator(rng, spec) if i % 3 == 0 else random_element(rng, spec)
        other = JordanSpec(field, spec.eigens, random_invertible(rng, spec.dim, field))
        verdicts = []
        for s in (spec, other):
            prob = LyapunovProblem(s, elem)
            hp_verdict, _ = psd_report(hill_pick_matrix(prob).matrix, prob.tol)
            choi_verdict, _ = psd_report(choi_matrix(lyapunov_order_map(prob)), prob.tol)
            verdicts.append((hp_verdict, choi_verdict))
        (hp1, c1), (hp2, c2) = verdicts
        assert hp1 == hp2  # the hill-pick route only sees the jordan data
        if "marginal" not in (c1, c2):
            assert c1 == c2
            checked += 1
    assert checked > 0
    ok(8, f"verdicts invariant under similarity replacement, 50/50 cases ({checked} choi-comparable)")


def test_criterion_9_stein_pipeline():
    # scalar closed form: domination iff (1 - |b|^2) / (1 - |a|^2) >= 0
    for a, b, expect in ((0.5, 0.25, "dominates"), (0.5, 2.0, "not_dominates"), (2.0, 3.0, "dominates")):
        spec = JordanSpec("complex", (EigenBlock(a, (1,)),))
        report = stein_domination(
            LyapunovProblem(spec, BicommElement(((b,),))), oracle_trials=200, seed=0
        )
        assert report.verdict == expect
        assert report.choi_min_eig == pytest.approx((1 - b * b) / (1 - a * a))

    spec = JordanSpec("complex", (EigenBlock(0.5, (1,)),))
    same = stein_domination(
        LyapunovProblem(spec, BicommElement(((0.5,),))), oracle_trials=200, seed=0
    )
    assert same.verdict == "dominates"

    rng = np.random.default_rng(909)
    refuted = 0
    for i in range(20):
        spec = stein_jordan_spec(rng)
        if i % 3 == 0:
            elem = stein_power_element(spec, 2)
        elif i % 3 == 1:
            scale = rng.uniform(0.3, 1.0)
            elem = BicommElement(
                tuple(tuple(scale * c for c in row) for row in a_element(spec).coeffs)
            )
        else:
            elem = random_element(rng, spec)
        report = stein_domination(LyapunovProblem(spec, elem), oracle_trials=1000, seed=10 + i)
        if report.verdict in ("dominates", "marginal"):
            assert report.oracle_status == "consistent"
        else:
            refuted += report.oracle_status == "violation"
    flip = LyapunovProblem(
        JordanSpec("complex", (EigenBlock(0.5, (1,)), EigenBlock(1.0 / 3.0, (1,)))),
        BicommElement(((0.5,), (-1.0 / 3.0,))),
    )
    report = stein_domination(flip, oracle_trials=1000, seed=0)
    assert report.verdict == "not_dominates" and report.oracle_status == "violation"
    ok(9, f"stein scalar closed forms, B=A, and 20 random problems ({refuted} violations witnessed)")
