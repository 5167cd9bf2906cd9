"""The package's public surface: what ``lyaporder`` exports, and what it imports."""

import ast
import os
import re

import lyaporder

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "lyaporder")

PUBLIC = [
    "BicommElement",
    "DEFAULT_TOLERANCES",
    "DominationReport",
    "EigenBlock",
    "HillPickMatrix",
    "HillRep",
    "JordanSpec",
    "LYAPUNOV",
    "LyapunovProblem",
    "Order",
    "STEIN",
    "StarLinearMap",
    "Tolerances",
    "build_A",
    "build_JA",
    "build_bicomm_element",
    "build_bicomm_jordan",
    "check_bicomm_membership",
    "check_domination",
    "choi_matrix",
    "domination_oracle",
    "hill_pick_matrix",
    "is_star_linear",
    "kron",
    "lyapunov_order_map",
    "minimal_hill_from_blocks",
    "nonminimal_hill",
    "psd_report",
    "rank_tol",
    "stein_domination",
    "stein_order_map",
    "upsilon_selection",
]


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_exports_are_pinned():
    assert sorted(lyaporder.__all__) == PUBLIC


def test_every_export_resolves():
    for name in lyaporder.__all__:
        assert getattr(lyaporder, name) is not None, name


def test_no_export_is_a_test_reference():
    defined = set()
    for node in _tree(os.path.join(TESTS, "reference.py")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert defined
    assert not defined & set(lyaporder.__all__)


def test_decision_core_does_not_import_hill():
    imported = {node.module for node in ast.walk(_tree(os.path.join(SRC, "domination.py")))
                if isinstance(node, ast.ImportFrom)}
    assert not {"hill", "lyaporder.hill"} & imported


def test_version_matches_pyproject():
    with open(os.path.join(TESTS, os.pardir, "pyproject.toml"), encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"', fh.read(), re.MULTILINE).group(1)
    assert lyaporder.__version__ == declared
