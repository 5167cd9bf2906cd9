"""Seeded problem documents for the benchmark workloads.

Every document is a plain problem file (see ``schemas/problem.json``) tagged
with the class of B that the generator knows it to be:

* ``strict``   B = alpha I + beta A + gamma inv(A), alpha > 0, with every
  eigenvalue of A in the open right half-plane (Lyapunov order);
* ``boundary`` B = A (Lyapunov order);
* ``power``    B = A^2 or A^3 with every eigenvalue in the unit disk (Stein
  order);
* ``random``   random Toeplitz coefficients, with one eigenvalue of B put
  outside the cone (see _random_coeffs), so that B does not dominate.

The first three dominate by construction and the last does not, which is
what the output checks rely on.  A problem file in problems/ that SHIPPED
does not list is ``unknown``: no claim either way.  A and B are also rebuilt here, independently of the program, by
:func:`matrices`, so that witnesses can be checked against the benchmark's own
matrices.  Nothing here imports the program or the test suite.
"""

from __future__ import annotations

from math import comb, pi

import numpy as np

KNOWN_DOMINATORS = frozenset({"strict", "boundary", "power"})

# Classes of the problem files shipped in problems/ (read as CLI inputs).
SHIPPED = {
    "jordan_block_dominator.json": "strict",     # B = I
    "pick_boundary.json": "boundary",            # B = A
    "pick_not_dominated.json": "random",         # B = diag(1, 3), A = diag(1, 2)
    "raw_transpose_map.json": "boundary",        # B = A = I
    "real_pair_matrix.json": "strict",           # B = 2I + A
    "scalar_b_equals_a.json": "boundary",        # B = A
}

WORKLOADS = ("cli", "ladder", "stein")

# (field, shape) of A; "pairs" is real-field 2x2 conjugate-pair blocks.
_LADDER_SHAPES = (("complex", "diag"), ("complex", "jordan"), ("real", "pairs"))
_STEIN_SHAPES = (
    ("complex", "jordan"),
    ("real", "jordan"),
    ("complex", "diag"),
    ("real", "pairs"),
)

# Decisions per (rung, B kind) in one ladder round; see ladder_plan.
LADDER_COUNTS = {
    (8, "random"): 18, (8, "strict"): 12,
    (16, "random"): 84, (16, "strict"): 2,
    (24, "random"): 1, (24, "strict"): 1,
    (32, "random"): 1, (32, "strict"): 1,
}
LADDER_VARIANTS = 2 * len(_LADDER_SHAPES)   # each shape without and with P


def _encode(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _encode_matrix(m: np.ndarray) -> list:
    return [[_encode(x) for x in row] for row in m]


def _scalar(node) -> complex:
    if isinstance(node, list):
        return complex(float(node[0]), float(node[1]))
    return complex(float(node), 0.0)


def decode_matrix(node) -> np.ndarray:
    """A matrix of scalars as written in problem files and lyapctl --json output."""
    return np.array([[_scalar(x) for x in row] for row in node], dtype=np.complex128)


# --------------------------------------------------------------------------
# Jordan data and B, drawn from a numpy Generator.
# --------------------------------------------------------------------------


def _eigenvalue(rng, order: str, field: str, pair: bool) -> complex:
    if order == "lyapunov":            # open right half-plane
        re = rng.uniform(0.5, 2.0)
        if field == "complex":
            return complex(re, rng.uniform(-1.5, 1.5))
        return complex(re, rng.uniform(0.3, 1.5) if pair else 0.0)
    radius = rng.uniform(0.2, 0.8)     # unit disk, Stein order
    if field == "real" and not pair:
        return complex(radius if rng.random() < 0.5 else -radius, 0.0)
    angle = rng.uniform(-pi, pi) if field == "complex" else rng.uniform(0.3, pi - 0.3)
    return complex(radius * np.cos(angle), radius * np.sin(angle))


def _eigen_structure(rng, n: int, order: str, field: str, shape: str):
    """List of (eigenvalue, sizes, pair) filling dimension n exactly."""
    eigens = []
    left = n
    while left > 0:
        if shape == "diag":
            pair, sizes = False, [1]
        elif shape == "pairs":
            pair, sizes = left >= 2, [1]
        else:
            pair = field == "real" and left >= 2 and rng.random() < 0.3
            dim = 2 if pair else 1
            lead = int(rng.integers(1, 5))
            lead = min(lead, left // dim)
            sizes = [lead]
            rest = left // dim - lead
            if rest > 0 and lead > 1 and rng.random() < 0.3:
                sizes.append(int(rng.integers(1, min(lead, rest) + 1)))
        eigens.append((_eigenvalue(rng, order, field, pair), sizes, pair))
        left -= (2 if pair else 1) * sum(sizes)
    return eigens


def _taylor(kind: str, params: tuple, lam: complex, s: int) -> list[complex]:
    """Coefficients f^(m)(lam)/m!, m < s, of the function defining B = f(A)."""
    if kind == "power":
        (k,) = params
        return [comb(k, m) * lam ** (k - m) if m <= k else 0j for m in range(s)]
    alpha, beta, gamma = params       # f(z) = alpha + beta z + gamma / z
    c = [gamma * (-1) ** m / lam ** (m + 1) for m in range(s)]
    c[0] += alpha + beta * lam
    if s > 1:
        c[1] += beta
    return c


def _random_coeffs(rng, order: str, complex_coeffs: bool, s: int, outside: bool) -> list[complex]:
    """Random Toeplitz coefficients; with `outside`, B's eigenvalue c_0 leaves the cone.

    An eigenvalue of B in the open left half-plane (Lyapunov) or outside the
    closed unit disk (Stein) rules domination out: every positive definite
    H in A's cone then fails for B, so the oracle refutes at its first trial.
    """
    if order == "lyapunov":
        re = rng.uniform(-1.0, -0.2) if outside else rng.uniform(-1.0, 2.0)
        c0 = complex(re, rng.uniform(-1.5, 1.5) if complex_coeffs else 0.0)
    else:
        radius = rng.uniform(1.2, 1.6) if outside else rng.uniform(0.3, 1.2)
        if complex_coeffs:
            angle = rng.uniform(-pi, pi)
            c0 = complex(radius * np.cos(angle), radius * np.sin(angle))
        else:
            c0 = complex(radius if rng.random() < 0.5 else -radius, 0.0)
    rest = [complex(0.5 * rng.standard_normal(), 0.0) for _ in range(s - 1)]
    return [c0] + rest


def _similarity(rng, n: int, field: str) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if field == "complex":
        g = g + 1j * rng.standard_normal((n, n))
    return np.eye(n) + 0.4 * g / np.sqrt(n)


def make_doc(rng, n: int, order: str, field: str, shape: str, b_kind: str,
             with_p: bool = False, b_matrix: bool = False) -> dict:
    """One problem document of dimension n.

    b_kind is "strict", "a" (B = A), "square", "cube" or "random"; the
    class tag of the result follows from it.
    """
    eigens = _eigen_structure(rng, n, order, field, shape)
    if b_kind == "strict":
        kind, params = "rational", (rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    elif b_kind == "a":
        kind, params = "rational", (0.0, 1.0, 0.0)
    elif b_kind in ("square", "cube"):
        kind, params = "power", (2 if b_kind == "square" else 3,)
    elif b_kind == "random":
        kind, params = "random", ()
    else:
        raise ValueError(f"unknown B kind {b_kind!r}")
    coeffs = []
    for k, (lam, sizes, pair) in enumerate(eigens):
        if kind == "random":
            coeffs.append(_random_coeffs(rng, order, field == "complex" or pair, sizes[0], k == 0))
        else:
            c = _taylor(kind, params, lam, sizes[0])
            if field == "real" and not pair:
                c = [complex(x.real, 0.0) for x in c]
            coeffs.append(c)
    doc = {
        "field": field,
        "eigenvalues": [{"lambda": _encode(lam), "sizes": sizes} for lam, sizes, _ in eigens],
    }
    if with_p:
        p = _similarity(rng, n, field)
        doc["P"] = _encode_matrix(p)
    doc["B"] = {"coeffs": [[_encode(c) for c in row] for row in coeffs]}
    if b_matrix:
        _, b = matrices(doc)
        if field == "real":
            b = b.real
        doc["B"] = {"matrix": _encode_matrix(b)}
    doc["seed"] = int(rng.integers(0, 2**31 - 1))
    return doc


def doc_class(b_kind: str) -> str:
    return {"strict": "strict", "a": "boundary",
            "square": "power", "cube": "power", "random": "random"}[b_kind]


# --------------------------------------------------------------------------
# The benchmark's own A and B.
# --------------------------------------------------------------------------


def _rotation(z: complex) -> np.ndarray:
    return np.array([[z.real, z.imag], [-z.imag, z.real]])


def _block_diag(parts) -> np.ndarray:
    n = sum(p.shape[0] for p in parts)
    out = np.zeros((n, n), dtype=np.complex128)
    off = 0
    for p in parts:
        k = p.shape[0]
        out[off:off + k, off:off + k] = p
        off += k
    return out


def _layout(doc: dict):
    """(eigen index, offset, size, pair) of every Jordan block, in listed order."""
    out, off = [], 0
    for j, e in enumerate(doc["eigenvalues"]):
        lam = _scalar(e["lambda"])
        pair = doc["field"] == "real" and lam.imag > 0
        for s in e["sizes"]:
            out.append((j, off, s, pair))
            off += (2 if pair else 1) * s
    return out


def matrices(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """A = P J inv(P) and B from a problem document, built without the program."""
    lams = [_scalar(e["lambda"]) for e in doc["eigenvalues"]]
    j_parts, b_parts = [], []
    coeffs = doc["B"].get("coeffs")
    for j, _, s, pair in _layout(doc):
        shift = [np.eye(s, k=m) for m in range(max(s, 2))]
        if pair:
            j_parts.append(np.kron(np.eye(s), _rotation(lams[j])) + np.kron(shift[1], np.eye(2)))
        else:
            j_parts.append(lams[j] * np.eye(s) + shift[1])
        if coeffs is not None:
            row = [_scalar(c) for c in coeffs[j]]
            if pair:
                b_parts.append(sum(np.kron(shift[m], _rotation(row[m])) for m in range(s)))
            else:
                b_parts.append(sum(row[m] * shift[m] for m in range(s)))
    a = _block_diag(j_parts)
    p = None
    if "P" in doc:
        p = decode_matrix(doc["P"])
    if coeffs is not None:
        b = _block_diag(b_parts)
        if p is not None:
            b = p @ b @ np.linalg.inv(p)
    else:
        b = decode_matrix(doc["B"]["matrix"])
    if p is not None:
        a = p @ a @ np.linalg.inv(p)
    return a, b


def pick_reference(doc: dict) -> np.ndarray | None:
    """Classical Pick matrix (conj t_i + t_j)/(conj lam_i + lam_j) for diagonal complex A.

    t_i is B's value on eigenvalue i.  None when A is not diagonal over the
    complex field (the Pick form is then not the Hill-Pick matrix).
    """
    if doc["field"] != "complex" or any(e["sizes"] != [1] for e in doc["eigenvalues"]):
        return None
    lam = np.array([_scalar(e["lambda"]) for e in doc["eigenvalues"]])
    if "coeffs" in doc["B"]:
        t = np.array([_scalar(row[0]) for row in doc["B"]["coeffs"]])
    else:
        _, b = matrices(doc)
        if "P" in doc:
            p = decode_matrix(doc["P"])
            b = np.linalg.solve(p, b @ p)
        t = np.diag(b).copy()
    return (t.conj()[:, None] + t[None, :]) / (lam.conj()[:, None] + lam[None, :])


# --------------------------------------------------------------------------
# Workload plans.  A plan lists the documents and one round of decisions on
# them; the timed pass repeats whole rounds, so every run measures the same
# mix.
# --------------------------------------------------------------------------


def _case(doc: dict, b_kind: str, order: str) -> dict:
    return {"doc": doc, "cls": doc_class(b_kind), "order": order}


def _interleave(lists: list[list]) -> list:
    """Merge lists, spreading each one's items evenly over the result."""
    keyed = [((i + 0.5) / len(items), g, item)
             for g, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def ladder_plan(seed: int) -> dict:
    """n in {8, 16, 24, 32}: diagonal, Jordan and real-pair A, with and without P.

    LADDER_COUNTS sets how many random and strict problems of each size one
    round holds: p50 falls in the n = 16 random group (where the order map
    and the Choi matrix cost most) and p90 in the middle of the n = 8 strict
    group (where the 1000-trial oracle costs most).  The n = 16 dominators,
    whose oracle re-reads a 1 MiB LU factor every trial, varied most from
    run to run; they sit above p90 and count in decisions_per_s.
    Structure variants rotate within each group; the single problems at
    n = 24 and 32 take fixed variants (a round with all six at n = 32 would
    take half a minute), with the real-field pairs, whose Hill-Pick matrix
    costs an n^2 x n^2 solve, on the n = 32 dominator.
    """
    rng = np.random.default_rng([seed, 2])
    fixed = {(24, "random"): 2, (24, "strict"): 4, (32, "random"): 3, (32, "strict"): 2}
    cases, groups = [], []
    for (n, b_kind), count in LADDER_COUNTS.items():
        ids = []
        for k in range(count):
            v = fixed.get((n, b_kind), k + (5 if b_kind == "strict" else 0)) % LADDER_VARIANTS
            field, shape = _LADDER_SHAPES[v % len(_LADDER_SHAPES)]
            doc = make_doc(rng, n, "lyapunov", field, shape, b_kind,
                           with_p=v >= len(_LADDER_SHAPES))
            ids.append(len(cases))
            cases.append(_case(doc, b_kind, "lyapunov"))
        groups.append(ids)
    return {"workload": "ladder", "cases": cases, "round": _interleave(groups)}


def stein_plan(seed: int) -> dict:
    """Unit-disk Jordan data: random B at n 4..16, B = A^2 or A^3 at n = 8 and 16.

    A quarter of each round is random B (refuted at once), half is A^k at
    n = 8 and a quarter A^k at n = 16, so that p50 falls in the middle of
    the n = 8 group and p90 in the middle of the n = 16 group.
    """
    rng = np.random.default_rng([seed, 3])
    slots = [(n, "random") for n in (4, 6, 8, 10, 12, 16)]
    slots += [(8, ("square", "cube")[k % 2]) for k in range(12)]
    slots += [(16, ("square", "cube")[k % 2]) for k in range(6)]
    cases = []
    for i, (n, b_kind) in enumerate(slots):
        field, shape = _STEIN_SHAPES[i % len(_STEIN_SHAPES)]
        doc = make_doc(rng, n, "stein", field, shape, b_kind, with_p=(i // 4) % 2 == 1)
        cases.append(_case(doc, b_kind, "stein"))
    return {"workload": "stein", "cases": cases, "round": list(range(len(cases)))}


def cli_plan(seed: int, shipped: dict[str, dict]) -> dict:
    """Invocations of lyapctl on the shipped problems and generated small documents.

    shipped maps each file name in problems/ to its decoded document.  Each
    case carries a "path": relative to the repository root for shipped files,
    and a file name next to the plan for "generated" documents.
    """
    rng = np.random.default_rng([seed, 4])
    cases = []
    for name in sorted(shipped):
        cases.append({"doc": shipped[name], "cls": SHIPPED.get(name, "unknown"),
                      "order": "lyapunov", "path": f"problems/{name}"})
    generated = [
        (3, "complex", "diag", "strict", False, False),
        (6, "real", "jordan", "random", True, True),
        (5, "complex", "jordan", "a", True, True),
        (4, "real", "pairs", "strict", False, False),
        (4, "complex", "diag", "random", True, False),   # hill-pick
        (2, "complex", "diag", "strict", False, False),  # hill, minimal
        (2, "real", "diag", "random", True, False),      # hill, pinned selection
        (4, "real", "jordan", "strict", True, True),     # verify
    ]
    for k, (n, field, shape, b_kind, with_p, b_matrix) in enumerate(generated):
        doc = make_doc(rng, n, "lyapunov", field, shape, b_kind, with_p, b_matrix)
        cases.append({"doc": doc, "cls": doc_class(b_kind), "order": "lyapunov",
                      "path": f"gen-{k}.json", "generated": True})
    by_path = {c["path"]: i for i, c in enumerate(cases)}
    invocations = [["check", "--json", c["path"]] for c in cases[: len(shipped) + 4]]
    invocations += [
        ["hill-pick", "--json", "gen-4.json"],
        ["hill", "--json", "--map", "raw", "problems/raw_transpose_map.json"],
        ["hill", "--json", "gen-5.json"],
        ["hill", "--json", "--selection", "0,0;0,1;1,0;1,1", "gen-6.json"],
        ["verify", "--json", "gen-7.json"],
    ]
    calls = [{"argv": argv, "case": by_path[argv[-1]]} for argv in invocations]
    return {"workload": "cli", "cases": cases, "calls": calls, "round": list(range(len(calls)))}


def make_plan(workload: str, seed: int, shipped: dict[str, dict] | None = None) -> dict:
    if workload == "ladder":
        return ladder_plan(seed)
    if workload == "stein":
        return stein_plan(seed)
    if workload == "cli":
        return cli_plan(seed, shipped or {})
    raise ValueError(f"unknown workload {workload!r}")
