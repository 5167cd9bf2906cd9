"""lyapctl: command-line front end for the Lyapunov-order pipelines.

Subcommands:
  check      full domination decision (Hill-Pick + Choi + sampling oracle)
  hill-pick  print the Hill-Pick matrix and its block selection
  hill       print a Hill representation of the composite (or a raw) map
  verify     sampling oracle only

Exit codes: 0 dominates, 1 does not dominate, 2 marginal (the deciding
eigenvalue sits inside the tolerance band), 64 input error (hill's dense maps
included, for n above HILL_MAX_DIM), 70 numerical error (a failed
factorization, a matrix that should be Hermitian and is not, or a Hill
representation from a selection that does not span, or rank(H) != rank(choi)).
Only hill reads --tol-rank (the file's tolerances.rank_rel); check, verify and
hill-pick ignore it, and the singular-P test of the Jordan data uses its default.
Reports go to stdout (plain text, or one JSON object with --json);
diagnostics to stderr.  All randomness is seeded, so identical inputs and
flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .domination import (
    DominationReport,
    HillPickMatrix,
    check_domination,
    domination_oracle,
    hill_pick_matrix,
    lyapunov_order_map,
    stein_order_map,
)
from .linalg import NotHermitianError, Tolerances, rank_tol
from .problemfile import LoadedProblem, ProblemFileError, load_problem_file

__all__ = ["main", "run"]

EXIT_DOMINATES = 0
EXIT_NOT_DOMINATES = 1
EXIT_MARGINAL = 2
EXIT_INPUT_ERROR = 64
EXIT_NUMERICAL_ERROR = 70
HILL_MAX_DIM = 32  # hill --map lyapunov|stein: n^2 x n^2 dense matrices, 96 MiB traced at n = 32

_VERDICT_EXIT = {
    "dominates": EXIT_DOMINATES,
    "not_dominates": EXIT_NOT_DOMINATES,
    "marginal": EXIT_MARGINAL,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # "marginal" exit code; route everything to the input-error code instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _fmt_real(x: float, precision: int) -> str:
    return f"{x + 0.0:.{precision}g}"


def _fmt_complex(z: complex, precision: int) -> str:
    re, im = z.real + 0.0, z.imag + 0.0
    if im == 0.0:
        return _fmt_real(re, precision)
    return f"{_fmt_real(re, precision)}{im:+.{precision}g}i"


def _fmt_matrix(m: np.ndarray, precision: int, indent: str = "  ") -> str:
    cells = [[_fmt_complex(complex(x), precision) for x in row] for row in np.atleast_2d(m)]
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    lines = [
        indent + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join(lines)


def _json_complex(z: complex) -> list[float]:
    return [float(z.real + 0.0), float(z.imag + 0.0)]


def _json_matrix(m: np.ndarray) -> list:
    return [[_json_complex(complex(x)) for x in row] for row in np.atleast_2d(m)]


def _hill_pick_json(hp: HillPickMatrix) -> dict:
    return {
        "matrix": _json_matrix(hp.matrix),
        "upsilon": [list(pair) for pair in hp.upsilon],
        "block_offsets": list(hp.block_offsets),
    }


def _problem_header(loaded: LoadedProblem) -> dict:
    spec = loaded.problem.spec
    return {
        "field": spec.field,
        "eigenvalues": [_json_complex(e.eigenvalue) for e in spec.eigens],
        "block_sizes": [list(e.sizes) for e in spec.eigens],
    }


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def tolerance(name: str):
    """Parse-time type for the Tolerances field name: finite and strictly positive."""
    def parse(text: str) -> float:
        try:
            return getattr(Tolerances(**{name: float(text)}), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _tolerances_from_flags(args) -> dict[str, float]:
    flags = {"rank_rel": args.tol_rank, "psd_rel": args.tol_psd, "eq_rel": args.tol_eq}
    return {name: value for name, value in flags.items() if value is not None}


def _add_common_flags(sub):
    sub.add_argument("path", help="problem file (JSON)")
    sub.add_argument("--json", action="store_true", help="emit one JSON object")
    sub.add_argument(
        "--precision", type=nonnegative_int, default=12, help="significant digits (default 12)"
    )
    for name in ("rank", "psd", "eq"):
        sub.add_argument(f"--tol-{name}", type=tolerance(f"{name}_rel"), default=None,
                         help=f"override {name}_rel")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lyapctl", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="decide Lyapunov domination")
    _add_common_flags(check)
    check.add_argument(
        "--oracle-trials", type=positive_int, default=1000, help="oracle sample count"
    )
    check.add_argument(
        "--seed", type=nonnegative_int, default=None, help="override the file's seed"
    )
    check.add_argument(
        "--verbose",
        action="store_true",
        help="also report B's Toeplitz coefficients (extracted when B came as a matrix)",
    )

    pick = subs.add_parser("hill-pick", help="print the Hill-Pick matrix")
    _add_common_flags(pick)

    hill = subs.add_parser("hill", help="print a Hill representation")
    _add_common_flags(hill)
    hill.add_argument(
        "--map",
        choices=("lyapunov", "stein", "raw"),
        default="lyapunov",
        dest="which_map",
        help="which map to decompose (raw needs a \"map\" object in the file)",
    )
    group = hill.add_mutually_exclusive_group()
    group.add_argument("--minimal", action="store_true", help="minimal representation (default)")
    group.add_argument(
        "--selection",
        default=None,
        help="pinned block selection as 0-based pairs, e.g. \"0,0;1,1\"",
    )

    verify = subs.add_parser("verify", help="sampling oracle only")
    _add_common_flags(verify)
    verify.add_argument("--trials", type=positive_int, default=1000, help="oracle sample count")
    verify.add_argument(
        "--seed", type=nonnegative_int, default=None, help="override the file's seed"
    )

    return parser


def _report_json(report: DominationReport, loaded: LoadedProblem) -> dict:
    out = dict(_problem_header(loaded))
    out["verdict"] = report.verdict
    out["hill_pick_min_eig"] = report.hill_pick_min_eig
    out["choi_min_eig"] = report.choi_min_eig
    out["methods_agree"] = report.methods_agree
    out["oracle"] = {"status": report.oracle_status, "trials": report.oracle_trials}
    if report.oracle_witness is not None:
        out["oracle"]["witness"] = _json_matrix(report.oracle_witness)
    out["seed"] = report.seed
    if report.hill_pick is not None:
        out["hill_pick"] = _hill_pick_json(report.hill_pick)
    return out


def _cmd_check(args) -> int:
    loaded = load_problem_file(args.path, _tolerances_from_flags(args))
    seed = loaded.seed if args.seed is None else args.seed
    report = check_domination(loaded.problem, oracle_trials=args.oracle_trials, seed=seed)
    if args.json:
        doc = _report_json(report, loaded)
        if args.verbose:
            doc["b_coeffs"] = [
                [_json_complex(c) for c in row] for row in loaded.problem.element.coeffs
            ]
            doc["b_from_matrix"] = loaded.b_from_matrix
        print(json.dumps(doc))
    else:
        p = args.precision
        if args.verbose:
            origin = "extracted from B matrix" if loaded.b_from_matrix else "from problem file"
            print(f"B coefficients per eigenvalue ({origin}):")
            for row in loaded.problem.element.coeffs:
                print("  " + "  ".join(_fmt_complex(c, p) for c in row))
        print(f"verdict: {report.verdict}")
        print(f"hill-pick min eigenvalue: {_fmt_real(report.hill_pick_min_eig, p)}")
        print(f"choi min eigenvalue: {_fmt_real(report.choi_min_eig, p)}")
        print(f"methods agree: {str(report.methods_agree).lower()}")
        print(f"oracle: {report.oracle_status} ({report.oracle_trials} trials, seed {seed})")
        if report.oracle_witness is not None:
            print("oracle witness H:")
            print(_fmt_matrix(report.oracle_witness, p))
    return _VERDICT_EXIT[report.verdict]


def _cmd_hill_pick(args) -> int:
    loaded = load_problem_file(args.path, _tolerances_from_flags(args))
    hp = hill_pick_matrix(loaded.problem)
    if args.json:
        out = dict(_problem_header(loaded))
        out["hill_pick"] = _hill_pick_json(hp)
        print(json.dumps(out))
    else:
        print(f"hill-pick matrix ({hp.size}x{hp.size}, field {hp.field}):")
        print(_fmt_matrix(hp.matrix, args.precision))
        print("selection (block row, block col):")
        print("  " + "; ".join(f"{r},{c}" for r, c in hp.upsilon))
    return 0


def _parse_selection(text: str):
    chunks = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    if not chunks:
        raise ProblemFileError("--selection: no block indices given")
    pairs = []
    for chunk in chunks:
        try:
            i, j = (int(part) for part in chunk.split(","))
        except ValueError as exc:
            raise ProblemFileError(f"--selection: cannot parse pair {chunk!r}") from exc
        pairs.append((i, j))
    return pairs


def _cmd_hill(args) -> int:
    # Only this subcommand loads the Hill-representation module.
    from .hill import minimal_hill_from_blocks, nonminimal_hill

    loaded = load_problem_file(args.path, _tolerances_from_flags(args))
    tol, dim = loaded.problem.tol, loaded.problem.spec.dim
    if args.which_map != "raw" and dim > HILL_MAX_DIM:
        raise ProblemFileError(f"--map {args.which_map}: n = {dim} is above the dense "
                               f"composite's limit of {HILL_MAX_DIM}")
    if args.which_map == "lyapunov":
        target = lyapunov_order_map(loaded.problem)
    elif args.which_map == "stein":
        target = stein_order_map(loaded.problem)
    else:
        if loaded.raw_map is None:
            raise ProblemFileError("--map raw requires a \"map\" object in the problem file")
        target = loaded.raw_map
    if args.selection is not None:
        rep = nonminimal_hill(target, _parse_selection(args.selection), tol)
    else:
        rep = minimal_hill_from_blocks(target, tol)
    hill_rank = rank_tol(rep.hill, tol)
    if hill_rank != rep.choi_rank:  # equal in exact arithmetic, for every spanning selection
        raise np.linalg.LinAlgError(f"rank(H) = {hill_rank} disagrees with rank(choi) = {rep.choi_rank}")
    if args.json:
        out = dict(_problem_header(loaded))
        out["map"] = args.which_map
        out["minimal"] = rep.minimal
        out["size"] = rep.size
        out["choi_rank"] = rep.choi_rank
        out["hill_rank"] = hill_rank
        out["selection"] = [list(pair) for pair in rep.selection]
        out["hill_matrix"] = _json_matrix(rep.hill)
        out["factors"] = [_json_matrix(a) for a in rep.factors]
        print(json.dumps(out))
    else:
        p = args.precision
        kind = "minimal" if rep.minimal else "non-minimal"
        print(f"{kind} hill representation of the {args.which_map} map: "
              f"r = {rep.size}, rank(choi) = {rep.choi_rank}, rank(H) = {hill_rank}")
        print("selection (block row, block col):")
        print("  " + "; ".join(f"{r},{c}" for r, c in rep.selection))
        print("hill matrix:")
        print(_fmt_matrix(rep.hill, p))
        for k, a in enumerate(rep.factors):
            print(f"factor A_{k + 1}:")
            print(_fmt_matrix(a, p))
    return 0


def _cmd_verify(args) -> int:
    loaded = load_problem_file(args.path, _tolerances_from_flags(args))
    seed = loaded.seed if args.seed is None else args.seed
    status, witness = domination_oracle(loaded.problem, trials=args.trials, seed=seed)
    if args.json:
        out = dict(_problem_header(loaded))
        out["oracle"] = {"status": status, "trials": args.trials, "seed": seed}
        if witness is not None:
            out["oracle"]["witness"] = _json_matrix(witness)
        print(json.dumps(out))
    else:
        print(f"oracle: {status} ({args.trials} trials, seed {seed})")
        if witness is not None:
            print("witness H (Lyapunov solution of A that fails for B):")
            print(_fmt_matrix(witness, args.precision))
    return EXIT_DOMINATES if status == "consistent" else EXIT_NOT_DOMINATES


def run(argv=None) -> int:
    """Parse arguments and run one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "hill-pick": _cmd_hill_pick,
        "hill": _cmd_hill,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (np.linalg.LinAlgError, NotHermitianError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
