"""The package's public surface: what ``lyaporder`` exports, and what it imports."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import lyaporder

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(TESTS), "src")
SRC = os.path.join(SRC_ROOT, "lyaporder")

PUBLIC = [
    "BicommElement",
    "DEFAULT_TOLERANCES",
    "DominationReport",
    "EigenBlock",
    "HillPickMatrix",
    "JordanSpec",
    "LYAPUNOV",
    "LyapunovProblem",
    "STEIN",
    "Tolerances",
    "check_bicomm_membership",
    "check_domination",
    "domination_oracle",
    "hill_pick_matrix",
    "stein_domination",
]

# The parts the decisions are built from, by the submodule that defines them.
PARTS = {
    "linalg": ["kron", "psd_report", "rank_tol"],
    "jordan": ["build_A", "build_JA", "build_bicomm_element", "build_bicomm_jordan"],
    "starmaps": ["StarLinearMap", "choi_matrix", "is_star_linear"],
    "hill": ["HillRep", "minimal_hill_from_blocks", "nonminimal_hill"],
    "domination": ["Order", "lyapunov_order_map", "stein_order_map", "upsilon_selection"],
}


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_exports_are_pinned():
    assert sorted(lyaporder.__all__) == PUBLIC


def test_every_export_resolves():
    for name in lyaporder.__all__:
        assert getattr(lyaporder, name) is not None, name


@pytest.mark.parametrize("module", sorted(PARTS))
def test_parts_live_in_their_submodules(module):
    mod = importlib.import_module(f"lyaporder.{module}")
    for name in PARTS[module]:
        assert getattr(mod, name).__module__ == mod.__name__, name
        assert name not in lyaporder.__all__, name


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
    # Nor do the package and the CLI's other subcommands, in a fresh interpreter.
    code = ("import sys, lyaporder, lyaporder.cli; "
            "loaded = 'lyaporder.hill' in sys.modules; "
            "lyaporder.cli.run(['check', 'problems/pick_boundary.json']); "
            "print(loaded, 'lyaporder.hill' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(TESTS), env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_version_matches_pyproject():
    with open(os.path.join(TESTS, os.pardir, "pyproject.toml"), encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"', fh.read(), re.MULTILINE).group(1)
    assert lyaporder.__version__ == declared
