"""Pinned stdout and exit codes of lyapctl on the shipped problems.

Each of `check`, `check --json`, `check --verbose`, `verify` and
`verify --json` runs on every file in problems/, and its exit code and
stdout are compared with tests/data/cli_golden.json.  Text between
numbers must match exactly; numbers match within rtol 1e-9 and atol
1e-12, so last-bit rounding (as in the Choi minimum eigenvalue of a Jordan
dominator, an exact zero read as about 1e-17) does not count as a change.

After a deliberate output change, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py

and list the changed outputs with the change.
"""

import contextlib
import io
import json
import os
import re

import pytest

from lyaporder.cli import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(REPO, "problems")
GOLDEN = os.path.join(REPO, "tests", "data", "cli_golden.json")
COMMANDS = ("check", "check --json", "check --verbose", "verify", "verify --json")
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def invoke(command, problem):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(command.split() + [os.path.join(PROBLEMS, problem)])
    return code, out.getvalue()


def cases():
    return [(command, problem) for problem in sorted(os.listdir(PROBLEMS))
            if problem.endswith(".json") for command in COMMANDS]


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {(case["command"], case["problem"]): case for case in json.load(fh)}


def assert_same_output(got, want):
    """Equal text between numbers, and numbers within rtol 1e-9, atol 1e-12."""
    got, want = NUMBER.split(got), NUMBER.split(want)
    assert len(got) == len(want), "\n".join(("token counts differ:", *got, "---", *want))
    for k, (g, w) in enumerate(zip(got, want)):
        if k % 2 == 0:
            assert g == w, f"text differs: {g!r} != {w!r}"
        else:
            assert float(g) == pytest.approx(float(w), rel=1e-9, abs=1e-12), f"{g} != {w}"


def test_golden_covers_every_problem_and_command():
    assert sorted(load_golden()) == sorted(cases())
    assert len(cases()) == 30


@pytest.mark.parametrize("command,problem", cases())
def test_cli_output_is_pinned(command, problem):
    want = load_golden()[command, problem]
    code, stdout = invoke(command, problem)
    assert code == want["exit"]
    assert_same_output(stdout, want["stdout"])


@pytest.mark.parametrize("got,want,same", [
    ("min 0.125 (seed 7)", "min 0.125000000001 (seed 7)", True),
    ("min -1.28e-17", "min 4.02e-17", True),
    ("min 0.125", "min 0.126", False),
    ("verdict: dominates 1", "verdict: marginal 1", False),
    ("1+2i", "1-2i", False),
    ("[1.0, 2.0]", "[1.0, 2.0, 3.0]", False),
])
def test_comparison_can_fail(got, want, same):
    if same:
        assert_same_output(got, want)
    else:
        with pytest.raises(AssertionError):
            assert_same_output(got, want)


if __name__ == "__main__":
    golden = []
    for command, problem in cases():
        code, stdout = invoke(command, problem)
        golden.append({"command": command, "problem": problem, "exit": code, "stdout": stdout})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
