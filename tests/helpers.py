"""Shared random generators for the test suite.

All generators take an explicit numpy Generator so tests stay reproducible.
Jordan specs are drawn positive stable (every eigenvalue has real part
bounded away from zero), which guarantees Lyapunov regularity and makes
alpha*I + beta*A + gamma*inv(A) with alpha > 0 a strictly dominating choice
of B (used wherever tests need a "dominates" verdict that is not on the
boundary of the cone).
"""

import numpy as np

from lyaporder import BicommElement, EigenBlock, JordanSpec, LyapunovProblem
from lyaporder.jordan import build_JA
from reference import extract_bicomm_coeffs, kraus_map, map_from_choi


def random_invertible(rng, n, field="complex", max_cond=50.0):
    while True:
        p = rng.standard_normal((n, n))
        if field == "complex":
            p = p + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(p) <= max_cond:
            return p


def conditioned(rng, n, cond, field="complex"):
    """U diag(sigma) V*, sigma log-spaced over [1 / cond, 1], U and V random (real for "real")."""
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + (
        1j * rng.standard_normal((n, n)) if field == "complex" else 0.0))[0] for _ in range(2))
    return (u * np.logspace(0.0, -np.log10(cond), n)) @ v.conj().T


def random_partition(rng, total, max_parts=3):
    """Nonincreasing positive parts summing to total."""
    parts = []
    remaining = total
    while remaining > 0 and len(parts) < max_parts:
        if len(parts) == max_parts - 1:
            take = remaining
        else:
            take = int(rng.integers(1, remaining + 1))
        parts.append(take)
        remaining -= take
    return tuple(sorted(parts, reverse=True))


def _distinct(values, spacing=0.2):
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            if abs(a - b) < spacing:
                return False
    return True


def random_jordan_spec(rng, field="complex", max_dim=8, max_eigens=3, similarity=False):
    """Positive-stable Jordan data; real-field specs mix pairs and real eigenvalues."""
    while True:
        r = int(rng.integers(1, max_eigens + 1))
        if field == "complex":
            total = int(rng.integers(r, max_dim + 1))
            cuts = sorted(rng.choice(np.arange(1, total), size=r - 1, replace=False)) if r > 1 else []
            budgets = np.diff([0, *cuts, total])
            values = [
                complex(rng.uniform(0.4, 2.2), rng.uniform(-1.5, 1.5)) for _ in range(r)
            ]
            if not _distinct(values):
                continue
            eigens = tuple(
                EigenBlock(v, random_partition(rng, int(b))) for v, b in zip(values, budgets)
            )
        else:
            eigens_list = []
            values = []
            dim = 0
            for _ in range(r):
                pair = bool(rng.integers(0, 2))
                sizes = random_partition(rng, int(rng.integers(1, 3)))
                cost = (2 if pair else 1) * sum(sizes)
                if dim + cost > max_dim:
                    continue
                if pair:
                    v = complex(rng.uniform(0.4, 2.0), rng.uniform(0.4, 1.5))
                else:
                    v = complex(rng.uniform(0.4, 2.2), 0.0)
                values.append(v)
                eigens_list.append(EigenBlock(v, sizes))
                dim += cost
            if not eigens_list or not _distinct(values):
                continue
            eigens = tuple(eigens_list)
        spec = JordanSpec(field, eigens)
        if similarity:
            spec = JordanSpec(field, eigens, random_invertible(rng, spec.dim, field))
        return spec


def bare(spec):
    """Same Jordan data without the similarity."""
    return JordanSpec(spec.field, spec.eigens)


def identity_element(spec):
    return BicommElement(
        tuple((1.0,) + (0.0,) * (e.sizes[0] - 1) for e in spec.eigens)
    )


def a_element(spec):
    """Coefficients reproducing A itself."""
    rows = []
    for e in spec.eigens:
        lead = e.eigenvalue if (spec.field == "complex" or e.eigenvalue.imag > 0) else e.eigenvalue.real
        row = (lead,) + ((1.0,) if e.sizes[0] > 1 else ()) + (0.0,) * max(0, e.sizes[0] - 2)
        rows.append(row)
    return BicommElement(tuple(rows))


def ainv_element(spec):
    j = build_JA(spec)
    m = np.linalg.inv(j)
    if spec.field == "real":
        m = m.real
    return extract_bicomm_coeffs(bare(spec), m)


def rational_dominator(rng, spec):
    """Coefficients of alpha*I + beta*A + gamma*inv(A): strictly dominating for alpha > 0."""
    alpha = rng.uniform(0.6, 1.6)
    beta = rng.uniform(0.0, 1.2)
    gamma = rng.uniform(0.0, 1.2)
    j = build_JA(spec)
    m = alpha * np.eye(spec.dim) + beta * j + gamma * np.linalg.inv(j)
    if spec.field == "real":
        m = m.real
    return extract_bicomm_coeffs(bare(spec), m)


def random_element(rng, spec):
    rows = []
    for e in spec.eigens:
        k = e.sizes[0]
        if spec.field == "real" and e.eigenvalue.imag == 0:
            row = tuple(complex(x, 0.0) for x in rng.standard_normal(k))
        else:
            row = tuple(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        rows.append(row)
    return BicommElement(tuple(rows))


def problem_mix(rng, count, field="complex", max_dim=8, similarity=True, seed_offset=0):
    """A reproducible mix of problems: random B, strict dominators and boundary cases."""
    problems = []
    for i in range(count):
        spec = random_jordan_spec(rng, field=field, max_dim=max_dim, similarity=similarity)
        kind = i % 4
        if kind == 1:
            elem = rational_dominator(rng, spec)
        elif kind == 3:
            elem = a_element(spec) if i % 8 == 3 else ainv_element(spec)
        else:
            elem = random_element(rng, spec)
        problems.append(LyapunovProblem(spec, elem))
    return problems


def random_star_linear(rng, n, q, field="complex"):
    """Generic *-linear map from a random Hermitian Choi matrix."""
    g = rng.standard_normal((n * q, n * q))
    if field == "complex":
        g = g + 1j * rng.standard_normal((n * q, n * q))
    return map_from_choi((g + g.conj().T) / 2.0, n, q, field)


def random_cp_map(rng, n, q, field="complex", terms=None):
    terms = terms or int(rng.integers(1, 4))
    ops = []
    for _ in range(terms):
        x = rng.standard_normal((n, q))
        if field == "complex":
            x = x + 1j * rng.standard_normal((n, q))
        ops.append(x)
    return kraus_map(ops, field)


def stein_jordan_spec(rng, max_dim=5, max_eigens=2):
    """Jordan data with all eigenvalues strictly inside the unit disk."""
    while True:
        r = int(rng.integers(1, max_eigens + 1))
        values = []
        for _ in range(r):
            rad = rng.uniform(0.2, 0.8)
            ang = rng.uniform(0, 2 * np.pi)
            values.append(complex(rad * np.cos(ang), rad * np.sin(ang)))
        if not _distinct(values, spacing=0.15):
            continue
        budgets = []
        remaining = max_dim
        ok = True
        eigens = []
        for v in values:
            if remaining < 1:
                ok = False
                break
            b = int(rng.integers(1, min(remaining, 3) + 1))
            remaining -= b
            eigens.append(EigenBlock(v, random_partition(rng, b)))
        if not ok:
            continue
        return JordanSpec("complex", tuple(eigens))


def stein_power_element(spec, power=2):
    j = build_JA(spec)
    return extract_bicomm_coeffs(bare(spec), np.linalg.matrix_power(j, power))
