"""Each output check fires on a doctored result and stays quiet on a real one."""

import json
import os

import numpy as np
import pytest

import checks
import gen
from conftest import ROOT
from lyaporder.domination import check_domination
from lyaporder.problemfile import parse_problem


def _case(doc, cls, order="lyapunov"):
    return checks.CaseData({"doc": doc, "cls": cls, "order": order})


@pytest.fixture(scope="module")
def refuted():
    """The shipped problem where B does not dominate, with the program's report."""
    with open(os.path.join(ROOT, "problems", "pick_not_dominated.json")) as fh:
        doc = json.load(fh)
    loaded = parse_problem(doc)
    report = check_domination(loaded.problem, seed=loaded.seed)
    assert report.oracle_witness is not None
    return doc, report


@pytest.fixture(scope="module")
def diagonal():
    """A diagonal complex problem with a strict dominator, and its report."""
    doc = gen.make_doc(np.random.default_rng(4), 4, "lyapunov", "complex", "diag", "strict",
                       with_p=True)
    loaded = parse_problem(doc)
    return doc, check_domination(loaded.problem, oracle_trials=50, seed=loaded.seed)


def test_real_reports_pass(refuted, diagonal):
    doc, report = refuted
    assert checks.check_outcome(_case(doc, "random"), checks.outcome_from_report(report)) == []
    doc, report = diagonal
    assert checks.check_outcome(_case(doc, "strict"), checks.outcome_from_report(report)) == []


def test_forged_dominates_with_valid_witness_fires(refuted):
    doc, report = refuted
    out = checks.outcome_from_report(report)
    out.verdict = "dominates"
    assert "dominates_with_witness" in checks.check_outcome(_case(doc, "random"), out)


def test_witness_outside_the_cone_fires(refuted):
    doc, report = refuted
    out = checks.outcome_from_report(report)
    out.witness = -out.witness          # H A + A* H is then negative definite
    assert "witness_invalid" in checks.check_outcome(_case(doc, "random"), out)
    out.witness = None
    assert "witness_invalid" in checks.check_outcome(_case(doc, "random"), out)


def test_known_dominator_refuted_fires(diagonal, refuted):
    doc, report = diagonal
    out = checks.outcome_from_report(report)
    out.verdict = "not_dominates"
    assert "known_dominator_refuted" in checks.check_outcome(_case(doc, "strict"), out)
    doc, report = refuted
    out = checks.outcome_from_report(report)
    out.verdict = "marginal"           # a valid witness refutes a claimed dominator too
    assert "known_dominator_refuted" in checks.check_outcome(_case(doc, "boundary"), out)


def test_perturbed_pick_entry_fires(diagonal):
    doc, report = diagonal
    out = checks.outcome_from_report(report)
    out.hill_pick = out.hill_pick.copy()
    out.hill_pick[0, 1] *= 1 + 1e-7
    assert checks.check_outcome(_case(doc, "strict"), out) == ["pick_mismatch"]


def test_methods_disagree_fires(diagonal):
    doc, report = diagonal
    out = checks.outcome_from_report(report)
    out.methods_agree = False
    assert checks.check_outcome(_case(doc, "strict"), out) == ["methods_disagree"]


def test_swapped_exit_code_fires(refuted):
    doc, _ = refuted
    stdout = json.dumps({"verdict": "not_dominates", "methods_agree": True,
                         "oracle": {"status": "consistent", "trials": 10}})
    argv = ["check", "--json", "problems/pick_not_dominated.json"]
    assert checks.check_cli(_case(doc, "random"), argv, 1, stdout) == []
    assert checks.check_cli(_case(doc, "random"), argv, 0, stdout) == ["exit_code_mismatch"]
    verify = json.dumps({"oracle": {"status": "consistent", "trials": 10}})
    assert checks.check_cli(_case(doc, "random"), ["verify", "--json", "x"], 1, verify) == [
        "exit_code_mismatch"]


def test_cli_garbage_and_inconsistent_hill_fire(refuted):
    doc, _ = refuted
    case = _case(doc, "random")
    assert checks.check_cli(case, ["check", "--json", "x"], 0, "") == ["cli_failed"]
    hill = json.dumps({"minimal": True, "size": 2, "selection": [[0, 0]],
                       "hill_rank": 2, "choi_rank": 2})
    assert checks.check_cli(case, ["hill", "--json", "x"], 0, hill) == ["hill_inconsistent"]


def test_stein_witness_uses_the_stein_cones():
    doc = gen.make_doc(np.random.default_rng(2), 2, "stein", "complex", "diag", "square")
    a, b = gen.matrices(doc)
    h = np.eye(2)
    # I - A A* is PSD for |lambda| < 1 and so is I - B B*: not a witness.
    assert not checks.witness_valid(h, a, b, "stein")


def test_non_dominator_accepted_fires(refuted):
    doc, report = refuted
    out = checks.outcome_from_report(report)
    out.verdict, out.witness, out.oracle_status = "dominates", None, "consistent"
    assert checks.check_outcome(_case(doc, "random"), out) == ["non_dominator_accepted"]
    assert checks.check_outcome(_case(doc, "unknown"), out) == []
