"""Benchmark of lyapctl and check_domination / stein_domination.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli,ladder,stein} --seed N \
        --seconds S --trace {0,1}

Workloads (see BENCHMARK.json for why each was chosen):

  cli     one lyapctl process per decision, on problems/*.json and on small
          generated documents (check, hill-pick, hill, verify; all --json)
  ladder  check_domination in-process on n in {8, 16, 24, 32}
  stein   stein_domination in-process on unit-disk Jordan data, n 4..16

Inputs are generated from --seed (perfbench/gen.py); the program only ever
sees problem documents.  Each workload runs in a fresh process with the
program's src/ on PYTHONPATH and BLAS pinned to one thread; set-up is
measured several times in fresh processes and reported as the median.
Every output is checked (perfbench/checks.py); a decision that raised,
crashed or failed a check counts in "failed".

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics (perfbench/metrics.py), and spans are written to
.perfbench-out/spans-<workload>.tsv.  The lines before it are a readable
summary, including error_frac and the name of every check that fired.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import gen
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
# Whole rounds can overrun --seconds by half a round; the CLI workload also
# repeats invocations for the stdout comparison.
WORKLOAD_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def _shipped() -> dict[str, dict]:
    problems = os.path.join(ROOT, "problems")
    docs = {}
    for name in sorted(os.listdir(problems)):
        if name.endswith(".json"):
            with open(os.path.join(problems, name), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
    if not docs:
        raise BenchError(f"no problem files in {problems}")
    return docs


def _write_plan(plan: dict, work: str) -> None:
    for case in plan["cases"]:
        if case.get("generated"):
            with open(os.path.join(work, case["path"]), "w", encoding="utf-8") as fh:
                json.dump(case["doc"], fh)
    with open(os.path.join(work, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh)


def _run_workload(args, work: str, env: dict, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--root", ROOT, "--work", work,
           "--out", os.path.join(ROOT, ".perfbench-out"),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {WORKLOAD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _cli_setup(env: dict) -> float:
    """Spawn-to-exit time of a fresh interpreter importing lyaporder.cli."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import lyaporder.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("importing lyaporder.cli failed")
    return elapsed


def measure(args) -> tuple[dict, dict]:
    """Run one workload; returns (raw result, metrics by name)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "lyaporder", "__init__.py")):
        raise BenchError(f"program sources not found under {os.path.join(ROOT, 'src')}")
    plan = gen.make_plan(args.workload, args.seed, _shipped() if args.workload == "cli" else None)
    env = _env()
    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        _write_plan(plan, work)
        setup = []
        if not args.trace:
            # In-process workloads: the timed run's own set-up is the last sample.
            for _ in range(SETUP_SAMPLES - (args.workload != "cli")):
                if args.workload == "cli":
                    setup.append(_cli_setup(env))
                else:
                    setup.append(_run_workload(args, work, env, setup_only=True)["setup_s"])
        result = _run_workload(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values = result["per_layer"]
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
    else:
        if args.workload != "cli":
            setup.append(result["setup_s"])
        values = metrics.end_to_end(setup, result["times"], result["rounds"],
                                    result["peak_rss_mb"], result["decided"], result["decided_of"])
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    return result, {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def main() -> int:
    ap = argparse.ArgumentParser(description="lyaporder benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result, values = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {len(result['times'])} timed decisions "
          f"in {result['rounds']} rounds, {attempted} checked")
    for name, entry in values.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_frac':40s} {failed / attempted:.6g} ratio")
    for check, count in sorted(result["fired"].items()):
        print(f"  check fired: {check} x{count}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
