"""Output checks for every decision the benchmark makes.

Each check returns the names of the checks that fired; a decision with any
fired check (or one that raised or crashed) counts as failed.  The checks
use only the benchmark's own A and B (see gen.matrices), never the
program's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

import gen

# A witness must satisfy its cone condition up to PSD_SLACK (relative) and
# violate the order by more than FAIL_MARGIN (relative).  The program calls
# a violation only beyond 1e-9, so a real witness clears FAIL_MARGIN easily.
PSD_SLACK = 1e-8
FAIL_MARGIN = 1e-10
PICK_REL = 1e-9

EXIT_CODES = {"dominates": 0, "not_dominates": 1, "marginal": 2}


@dataclass
class Outcome:
    """The parts of one decision's output that the checks read."""

    verdict: Optional[str] = None
    methods_agree: Optional[bool] = None
    oracle_status: Optional[str] = None
    witness: Optional[np.ndarray] = None
    hill_pick: Optional[np.ndarray] = None


def outcome_from_report(report) -> Outcome:
    hp = getattr(report, "hill_pick", None)
    return Outcome(
        verdict=report.verdict,
        methods_agree=report.methods_agree,
        oracle_status=report.oracle_status,
        witness=report.oracle_witness,
        hill_pick=None if hp is None else np.asarray(hp.matrix),
    )


def outcome_from_json(out: dict) -> Outcome:
    """Outcome of a ``check``, ``hill-pick`` or ``verify`` JSON report."""
    oracle = out.get("oracle") or {}
    witness = oracle.get("witness")
    hp = out.get("hill_pick")
    return Outcome(
        verdict=out.get("verdict"),
        methods_agree=out.get("methods_agree"),
        oracle_status=oracle.get("status"),
        witness=None if witness is None else gen.decode_matrix(witness),
        hill_pick=None if hp is None else gen.decode_matrix(hp["matrix"]),
    )


def _min_eig(m: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(eigs[0]), 1.0 + float(np.abs(eigs).max())


def witness_valid(h: np.ndarray, a: np.ndarray, b: np.ndarray, order: str) -> bool:
    """H lies in A's cone and outside B's: a proof that B does not dominate A."""
    if order == "stein":
        cone_a, cone_b = h - a @ h @ a.conj().T, h - b @ h @ b.conj().T
    else:
        cone_a, cone_b = h @ a + a.conj().T @ h, h @ b + b.conj().T @ h
    lam_a, scale_a = _min_eig(cone_a)
    lam_b, scale_b = _min_eig(cone_b)
    return lam_a >= -PSD_SLACK * scale_a and lam_b < -FAIL_MARGIN * scale_b


class CaseData:
    """A case's document and class, with the benchmark's A and B built on first use."""

    def __init__(self, case: dict):
        self.doc = case["doc"]
        self.cls = case["cls"]
        self.order = case["order"]

    @cached_property
    def ab(self) -> tuple[np.ndarray, np.ndarray]:
        return gen.matrices(self.doc)

    @cached_property
    def pick(self) -> Optional[np.ndarray]:
        return gen.pick_reference(self.doc) if self.order == "lyapunov" else None


def check_outcome(case: CaseData, out: Outcome) -> list[str]:
    """Names of the decision checks that fire on this outcome."""
    fired = []
    valid = False
    if out.witness is not None:
        a, b = case.ab
        valid = witness_valid(out.witness, a, b, case.order)
        if not valid:
            fired.append("witness_invalid")
    elif out.oracle_status == "violation":
        fired.append("witness_invalid")
    if valid and out.verdict == "dominates":
        fired.append("dominates_with_witness")
    if case.cls in gen.KNOWN_DOMINATORS and (out.verdict == "not_dominates" or valid):
        fired.append("known_dominator_refuted")
    if case.cls == "random" and out.verdict == "dominates":
        fired.append("non_dominator_accepted")
    if out.hill_pick is not None and case.pick is not None:
        ref = case.pick
        err = np.linalg.norm(out.hill_pick - ref) / np.linalg.norm(ref)
        if not err <= PICK_REL:
            fired.append("pick_mismatch")
    if out.methods_agree is False:
        fired.append("methods_disagree")
    return fired


def check_cli(case: CaseData, argv: list[str], code: int, stdout: str) -> list[str]:
    """Checks on one lyapctl invocation: JSON output, exit code and contents."""
    command = argv[0]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["cli_failed"]
    if not isinstance(out, dict):
        return ["cli_failed"]
    if command == "check":
        expected = EXIT_CODES.get(out.get("verdict"))
    elif command == "verify":
        expected = {"consistent": 0, "violation": 1}.get((out.get("oracle") or {}).get("status"))
    else:
        expected = 0
    fired = [] if code == expected else ["exit_code_mismatch"]
    if command == "hill":
        size, selection = out.get("size"), out.get("selection") or []
        consistent = size == len(selection) and (
            not out.get("minimal") or out.get("hill_rank") == out.get("choi_rank") == size
        )
        if not consistent:
            fired.append("hill_inconsistent")
        return fired
    return fired + check_outcome(case, outcome_from_json(out))

