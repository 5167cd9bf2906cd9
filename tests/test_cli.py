import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from lyaporder import cli, domination
from lyaporder.cli import run
from lyaporder.linalg import NotHermitianError
from lyaporder.problemfile import ProblemFileError, load_problem_file, parse_problem

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(REPO, "problems")
DATA = os.path.join(REPO, "tests", "data")


def problem(name):
    return os.path.join(PROBLEMS, name)


def write(tmp_path, text, name="problem.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_scalar_b_equals_a_dominates(self, capsys):
        assert run(["check", problem("scalar_b_equals_a.json")]) == 0
        assert "verdict: dominates" in capsys.readouterr().out

    def test_pick_violation(self, capsys):
        assert run(["check", problem("pick_not_dominated.json")]) == 1
        out = capsys.readouterr().out
        assert "verdict: not_dominates" in out
        assert "-0.106568" in out

    def test_boundary_marginal(self, capsys):
        assert run(["check", problem("pick_boundary.json")]) == 2
        assert "verdict: marginal" in capsys.readouterr().out

    def test_dominator_with_similarity(self):
        assert run(["check", problem("jordan_block_dominator.json"), "--oracle-trials", "200"]) == 0

    def test_matrix_input_real_field(self):
        assert run(["check", problem("real_pair_matrix.json"), "--oracle-trials", "200"]) == 0

    def test_verbose_reports_extracted_coefficients(self, capsys):
        run(["check", problem("real_pair_matrix.json"), "--verbose", "--oracle-trials", "50"])
        out = capsys.readouterr().out
        assert "extracted from B matrix" in out
        assert "3+1i" in out
        run(["check", problem("real_pair_matrix.json"), "--verbose", "--json", "--oracle-trials", "50"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["b_from_matrix"] is True
        assert doc["b_coeffs"][0] == [[3.0, 1.0]]

    def test_not_lyapunov_regular(self, tmp_path, capsys):
        path = write(
            tmp_path,
            json.dumps(
                {
                    "field": "complex",
                    "eigenvalues": [
                        {"lambda": [1.0, 0.0], "sizes": [1]},
                        {"lambda": [-1.0, 0.0], "sizes": [1]},
                    ],
                    "B": {"coeffs": [[1.0], [1.0]]},
                }
            ),
        )
        assert run(["check", path]) == 64
        assert "Lyapunov regular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [np.linalg.LinAlgError("Singular matrix"), NotHermitianError("matrix is not Hermitian")],
    )
    def test_numerical_failure_exits_70(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "check_domination", fail)
        assert run(["check", problem("pick_not_dominated.json")]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical error: {error}\n"

    def test_overflowing_problem_exits_70(self, tmp_path, capsys):
        # Pick entries (t_i + t_j) / (lam_i + lam_j) overflow to inf; the PSD
        # test used to give a verdict on them.  hill_pick_matrix now refuses
        # them itself, before any PSD test.
        doc = {
            "field": "complex",
            "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [1]},
                            {"lambda": [2.0, 0.0], "sizes": [1]}],
            "B": {"coeffs": [[1e308], [1.5e308]]},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the map itself overflows
            assert run(["check", write(tmp_path, json.dumps(doc))]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical error: Hill-Pick matrix: non-finite entries\n"

    @pytest.mark.parametrize("command", ["check", "hill-pick"])
    def test_overflowing_hill_pick_exits_70(self, tmp_path, capsys, command):
        # Dividing by lam + conj lam = 2e-320 overflows to inf and nan, which
        # hill-pick used to print as Infinity and NaN, not JSON.
        doc = {"field": "complex", "eigenvalues": [{"lambda": [1e-320, 0.0], "sizes": [1]}],
               "B": {"coeffs": [[1.0]]}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run([command, "--json", write(tmp_path, json.dumps(doc))]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: ")

    def test_malformed_json(self, tmp_path, capsys):
        path = write(tmp_path, '{"field": "complex",')
        assert run(["check", path]) == 64
        assert "line" in capsys.readouterr().err

    def test_nonmember_matrix(self, tmp_path, capsys):
        path = write(
            tmp_path,
            json.dumps(
                {
                    "field": "complex",
                    "eigenvalues": [
                        {"lambda": [1.0, 0.0], "sizes": [1]},
                        {"lambda": [2.0, 0.0], "sizes": [1]},
                    ],
                    "B": {"matrix": [[1.0, 0.5], [0.0, 2.0]]},
                }
            ),
        )
        assert run(["check", path]) == 64
        assert "(0, 1)" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/problem.json"]) == 64

    def test_bad_flag(self, capsys):
        assert run(["check", problem("scalar_b_equals_a.json"), "--no-such-flag"]) == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "pick_not_dominated.json", "--trials", "0"],
            ["verify", "scalar_b_equals_a.json", "--trials", "-1"],
            ["check", "pick_not_dominated.json", "--oracle-trials", "-5"],
            ["check", "scalar_b_equals_a.json", "--oracle-trials", "0"],
        ],
    )
    def test_trial_count_below_one_rejected(self, argv, capsys):
        command, name, *flags = argv
        assert run([command, problem(name), *flags]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least 1" in captured.err

    @pytest.mark.parametrize(
        "flag, field", [("--tol-psd", "psd_rel"), ("--tol-eq", "eq_rel"), ("--tol-rank", "rank_rel")]
    )
    def test_infinite_tolerance_flag_rejected(self, flag, field, capsys):
        # An infinite band used to read "marginal" on a problem that is not dominated.
        assert run(["check", problem("pick_not_dominated.json"), flag, "inf"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_tolerance_flag_checked_before_reading_the_file(self, value, capsys):
        assert run(["check", "/nonexistent/problem.json", "--tol-psd", value]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol-psd" in captured.err and "cannot read" not in captured.err

    def test_infinite_tolerance_in_file_rejected(self, tmp_path, capsys):
        with open(problem("pick_not_dominated.json")) as fh:
            text = json.dumps(json.load(fh))
        path = write(tmp_path, text[:-1] + ', "tolerances": {"psd_rel": 1e400}}')  # JSON reads inf
        assert run(["check", path]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerances.psd_rel" in captured.err

    @pytest.mark.parametrize("where, value", [
        ("eigenvalues[0].lambda", "NaN"),
        ("eigenvalues[1].lambda", "-Infinity"),
        ("eigenvalues[1].lambda", "1" + "0" * 400),  # an integer beyond the float range
        ("B.coeffs[0][0]", "Infinity"),
        ("B.matrix[0][1]", "NaN"),
        ("P[1][0]", "-Infinity"),
        ("map.matricization[0][0]", "Infinity"),
        ("tolerances.psd_rel", "1" + "0" * 400),
    ], ids=lambda v: "10**400" if v.startswith("100") else v)
    def test_non_finite_number_is_an_input_error(self, tmp_path, capsys, where, value):
        # json.load accepts NaN and Infinity; they used to reach the routes,
        # which warned and exited 70, and a huge integer raised OverflowError.
        doc = {"field": "complex",
               "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [1]},
                               {"lambda": [2.0, 0.5], "sizes": [1]}],
               "P": [[1.0, 0.0], [0.5, 1.0]],
               "B": {"coeffs": [[1.0], [[2.0, 0.0]]]},
               "map": {"matricization": [[1.0]], "n": 1, "q": 1},
               "tolerances": {"psd_rel": 1e-9}}
        if where.startswith("B.matrix"):
            doc["B"] = {"matrix": [[1.0, 0.0], [0.0, 2.0]]}
        node, key = doc, where.replace("]", "").replace("[", ".").split(".")
        for part in key[:-1]:
            node = node[int(part) if part.isdigit() else part]
        if where.endswith(".lambda"):  # the whole scalar, or its imaginary part
            node[key[-1]] = "@" if value == "NaN" else [2.0, "@"]
        else:
            node[int(key[-1]) if key[-1].isdigit() else key[-1]] = "@"
        path = write(tmp_path, json.dumps(doc).replace('"@"', value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check", path]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {where}: expected ")

    @pytest.mark.parametrize("command", ["check", "hill-pick", "hill", "verify"])
    def test_negative_precision_rejected(self, command, capsys):
        assert run([command, problem("pick_not_dominated.json"), "--precision", "-1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--precision" in captured.err

    def test_zero_precision_accepted(self, capsys):
        assert run(["hill-pick", problem("pick_not_dominated.json"), "--precision", "0"]) == 0
        assert "hill-pick matrix" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_negative_seed_rejected(self, command, capsys):
        assert run([command, problem("pick_not_dominated.json"), "--seed", "-3"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err


class TestJsonOutput:
    def test_round_trip(self, capsys):
        run(["check", problem("pick_not_dominated.json"), "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["verdict"] == "not_dominates"
        assert doc["eigenvalues"] == [[1.0, 0.0], [2.0, 0.0]]
        assert json.loads(json.dumps(doc)) == doc
        hp = np.array([[c[0] + 1j * c[1] for c in row] for row in doc["hill_pick"]["matrix"]])
        assert np.allclose(hp, [[1.0, 4.0 / 3.0], [4.0 / 3.0, 1.5]])
        assert doc["hill_pick"]["upsilon"] == [[0, 0], [1, 1]]
        assert doc["oracle"]["status"] == "violation"

    def test_determinism(self, capsys):
        run(["check", problem("pick_not_dominated.json"), "--json"])
        first = capsys.readouterr().out
        run(["check", problem("pick_not_dominated.json"), "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_text_determinism(self, capsys):
        run(["check", problem("jordan_block_dominator.json"), "--oracle-trials", "100"])
        first = capsys.readouterr().out
        run(["check", problem("jordan_block_dominator.json"), "--oracle-trials", "100"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_oracle_stream(self, capsys):
        run(["verify", problem("pick_not_dominated.json"), "--json", "--trials", "50", "--seed", "1"])
        one = json.loads(capsys.readouterr().out)
        run(["verify", problem("pick_not_dominated.json"), "--json", "--trials", "50", "--seed", "2"])
        two = json.loads(capsys.readouterr().out)
        assert one["oracle"]["seed"] != two["oracle"]["seed"]


class TestHillPickCommand:
    def test_prints_matrix_and_selection(self, capsys):
        assert run(["hill-pick", problem("pick_not_dominated.json")]) == 0
        out = capsys.readouterr().out
        assert "1.33333333333" in out
        assert "0,0; 1,1" in out

    def test_precision_flag(self, capsys):
        run(["hill-pick", problem("pick_not_dominated.json"), "--precision", "4"])
        out = capsys.readouterr().out
        assert "1.333" in out and "1.33333" not in out

    def test_real_field(self, capsys):
        assert run(["hill-pick", problem("real_pair_matrix.json")]) == 0
        assert "field real" in capsys.readouterr().out


class TestHillCommand:
    def test_minimal_lyapunov(self, capsys):
        assert run(["hill", problem("pick_not_dominated.json")]) == 0
        out = capsys.readouterr().out
        assert "r = 2" in out and "rank(choi) = 2" in out

    @pytest.mark.parametrize("name", sorted(os.listdir(PROBLEMS)))
    def test_minimal_flag_is_the_default(self, capsys, name):
        # --minimal names the default representation: the same output and exit code.
        code = run(["hill", problem(name)])
        plain = capsys.readouterr().out
        assert (run(["hill", "--minimal", problem(name)]), capsys.readouterr().out) == (code, plain)
        assert code == 0

    def test_selection_flag(self, capsys):
        assert run(["hill", problem("pick_not_dominated.json"), "--selection", "0,0;1,1;0,1"]) == 0
        out = capsys.readouterr().out
        assert "non-minimal" in out and "r = 3" in out and "rank(H) = 2" in out

    def test_stein_map(self, tmp_path, capsys):
        path = write(
            tmp_path,
            json.dumps(
                {
                    "field": "complex",
                    "eigenvalues": [{"lambda": [0.5, 0.0], "sizes": [1]}],
                    "B": {"coeffs": [[0.25]]},
                }
            ),
        )
        assert run(["hill", path, "--map", "stein"]) == 0

    def test_stein_map_on_lyapunov_singular_a(self, tmp_path, capsys):
        # A nilpotent A is Stein regular: only the Lyapunov routes refuse it.
        path = write(
            tmp_path,
            json.dumps(
                {
                    "field": "complex",
                    "eigenvalues": [{"lambda": [0.0, 0.0], "sizes": [2]}],
                    "B": {"coeffs": [[0.5, 0.0]]},
                }
            ),
        )
        assert run(["hill", path, "--map", "stein"]) == 0
        assert run(["hill", path]) == 64
        assert "not Lyapunov regular" in capsys.readouterr().err

    def test_zero_stein_map_prints(self, capsys):
        # B = I makes the Stein composite zero: an empty (r = 0) representation.
        assert run(["hill", problem("jordan_block_dominator.json"), "--map", "stein"]) == 0
        out = capsys.readouterr().out
        assert "r = 0, rank(choi) = 0, rank(H) = 0" in out and "hill matrix:" in out

    def test_raw_map(self, capsys):
        assert run(["hill", problem("raw_transpose_map.json"), "--map", "raw", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 4 and doc["choi_rank"] == 4

    def test_raw_map_missing(self, capsys):
        assert run(["hill", problem("pick_not_dominated.json"), "--map", "raw"]) == 64

    @pytest.mark.parametrize("name", [
        # Diagonal A, n = 14, B = 1 + 0.5 A + 0.3 inv(A): the greedy block selection
        # keeps 12 blocks where the Choi rank is 10.
        "hill_diagonal_dominator_n14.json",
        # Real Jordan A with a P, n = 4: H's smallest singular value is 6e-11 of its
        # largest, so rank(H) = 3 where the Choi rank is 4.
        "hill_rank_mismatch_n4.json",
    ])
    def test_numerical_rank_failure_is_a_numerical_error(self, capsys, name):
        code = run(["hill", "--json", os.path.join(DATA, name)])
        assert code in (0, 70)
        if code == 0:
            doc = json.loads(capsys.readouterr().out)
            assert doc["hill_rank"] == doc["choi_rank"] == doc["size"]
        else:
            assert capsys.readouterr().err.startswith("numerical error: ")

    def test_non_spanning_selection_is_an_input_error(self, capsys):
        assert run(["hill", problem("pick_not_dominated.json"), "--selection", "0,0;0,1"]) == 64
        assert "does not span" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pick_not_dominated.json"],
        ["pick_not_dominated.json", "--selection", "0,0;1,1;0,1"],
        ["jordan_block_dominator.json"],
        ["real_pair_matrix.json", "--map", "stein"],
    ])
    def test_one_choi_sized_svd(self, monkeypatch, capsys, argv):
        # The composite of an n x n problem acts on n x n matrices (q = n): one SVD of
        # an nq x nq matrix per call, a permutation of the Choi matrix.
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
        assert run(["hill", problem(argv[0]), *argv[1:]]) == 0
        nq = load_problem_file(problem(argv[0])).problem.spec.dim ** 2
        assert shapes.count((nq, nq)) == 1

    @pytest.mark.parametrize("which", ["lyapunov", "stein"])
    def test_dense_composite_is_capped(self, monkeypatch, tmp_path, capsys, which):
        n = cli.HILL_MAX_DIM + 1
        path = write(tmp_path, json.dumps({
            "field": "complex",
            "eigenvalues": [{"lambda": [1.0 + k, 0.0], "sizes": [1]} for k in range(n)],
            "B": {"coeffs": [[[1.0 + k, 0.0]] for k in range(n)]},
        }))

        def order_map(*args):
            raise AssertionError("the order map ran")
        monkeypatch.setattr(domination, "_order_map", order_map)
        assert run(["hill", path, "--map", which]) == 64
        assert f"limit of {cli.HILL_MAX_DIM}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_violation_exit(self, capsys):
        assert run(["verify", problem("pick_not_dominated.json"), "--trials", "500"]) == 1
        assert "witness" in capsys.readouterr().out

    def test_consistent_exit(self, capsys):
        assert run(["verify", problem("scalar_b_equals_a.json"), "--trials", "100"]) == 0


def run_python(*args):
    """Run the interpreter on the repository's src/, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_loads_no_scipy():
    code = "import sys, lyaporder.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_runs_as_the_cli(capsys):
    path = problem("pick_not_dominated.json")
    assert run(["check", path]) == 1
    proc = run_python("-m", "lyaporder.cli", "check", path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == capsys.readouterr().out


class TestProblemFileParsing:
    def test_schema_accepts_shipped_samples(self):
        with open(os.path.join(REPO, "schemas", "problem.json")) as fh:
            schema = json.load(fh)
        for name in sorted(os.listdir(PROBLEMS)):
            with open(os.path.join(PROBLEMS, name)) as fh:
                jsonschema.validate(json.load(fh), schema)

    def test_shipped_samples_parse(self):
        for name in sorted(os.listdir(PROBLEMS)):
            loaded = load_problem_file(os.path.join(PROBLEMS, name))
            assert loaded.problem.spec.dim >= 1

    def test_bare_numbers_read_as_real(self):
        doc = {
            "field": "complex",
            "eigenvalues": [{"lambda": 1.5, "sizes": [1]}],
            "B": {"coeffs": [[2.0]]},
        }
        loaded = parse_problem(doc)
        assert loaded.problem.spec.eigens[0].eigenvalue == 1.5 + 0j

    def test_error_paths_are_cited(self):
        doc = {
            "field": "complex",
            "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [2, 3]}],
            "B": {"coeffs": [[1.0, 0.0, 0.0]]},
        }
        with pytest.raises(ProblemFileError, match="eigenvalues\\[0\\]"):
            parse_problem(doc)

    def test_unknown_keys_rejected(self):
        doc = {
            "field": "complex",
            "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [1]}],
            "B": {"coeffs": [[1.0]]},
            "extra": 1,
        }
        with pytest.raises(ProblemFileError, match="unknown key"):
            parse_problem(doc)

    def test_coefficient_count_checked(self):
        doc = {
            "field": "complex",
            "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [1]}],
            "B": {"coeffs": [[1.0], [2.0]]},
        }
        with pytest.raises(ProblemFileError, match="B.coeffs"):
            parse_problem(doc)

    def test_tolerance_override_via_file(self):
        doc = {
            "field": "complex",
            "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [1]}],
            "B": {"coeffs": [[1.0]]},
            "tolerances": {"psd_rel": 1e-6},
        }
        loaded = parse_problem(doc)
        assert loaded.problem.tol.psd_rel == 1e-6
        assert loaded.problem.tol.rank_rel == 1e-9

    def test_tolerance_flag_overrides_one_field(self, tmp_path):
        with open(problem("pick_not_dominated.json")) as fh:
            doc = json.load(fh)
        doc["tolerances"] = {"psd_rel": 1.0}
        tol = parse_problem(doc, {"eq_rel": 1e-12}).problem.tol
        assert (tol.rank_rel, tol.psd_rel, tol.eq_rel) == (1e-9, 1.0, 1e-12)
        path = write(tmp_path, json.dumps(doc))
        assert run(["check", path]) == 2
        assert run(["check", path, "--tol-eq", "1e-9"]) == 2  # the default value
        assert run(["check", path, "--tol-psd", "1e-9"]) == 1
        doc["tolerances"]["psd"] = 1.0
        with pytest.raises(ProblemFileError, match="unknown keys"):
            parse_problem(doc, {"eq_rel": 1e-12})

    def test_real_field_complex_coeff_rejected(self):
        doc = {
            "field": "real",
            "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [1]}],
            "B": {"coeffs": [[[1.0, 0.5]]]},
        }
        with pytest.raises(ProblemFileError):
            parse_problem(doc)
