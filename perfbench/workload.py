"""One workload process: set up, run the timed pass, check every output.

Started by run.py with the program's ``src`` on PYTHONPATH and BLAS pinned
to one thread; prints one JSON object with the raw measurements.  The
timed pass repeats whole rounds of the plan (closed loop, one client) until
about --seconds of decision time is spent, so every run measures the same
mix of problems.  With --trace, each decision runs once untraced and once
traced, in alternating order, and the per-layer metrics come from the
traced half.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter

ORACLE_TRIALS = 1000          # the program's default, fixed here
CLI_TIMEOUT_S = 120
CLI_MAIN = "from lyaporder.cli import main; main()"
HERE = os.path.dirname(os.path.abspath(__file__))


class Tally:
    """Decision times, failures and verdict counts of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.attempted = 0
        self.fired: Counter = Counter()
        self.failed = 0
        self.decided = 0
        self.decided_of = 0

    def record(self, fired: list[str], verdict: str | None, counts_verdict: bool) -> None:
        self.attempted += 1
        if fired:
            self.failed += 1
            self.fired.update(fired)
        if counts_verdict:
            self.decided_of += 1
            self.decided += verdict in ("dominates", "not_dominates")


def timed_pass(round_: list[int], seconds: float, run_one) -> int:
    """Run whole rounds, stopping when the time spent is nearest to `seconds`.

    Returns the number of rounds run (at least one).
    """
    busy, done = 0.0, 0
    while True:
        for i in round_:
            busy += run_one(i)
        done += 1
        if busy + 0.5 * busy / done >= seconds:
            return done


def runner(run, trace: bool, tally: Tally):
    """One decision per call of run(i, traced); with trace, an untraced and a
    traced one, alternating which goes first.  Returns the time spent."""
    if not trace:
        def run_one(i):
            t = run(i, False)
            tally.times.append(t)
            return t
        return run_one
    state = {"k": 0}

    def run_paired(i):
        state["k"] += 1
        if state["k"] % 2:
            a, b = run(i, False), run(i, True)
        else:
            b, a = run(i, True), run(i, False)
        tally.times.append(a)
        tally.traced_times.append(b)
        return a + b

    return run_paired


# --------------------------------------------------------------------------
# In-process workloads: ladder, stein.
# --------------------------------------------------------------------------


def run_inprocess(plan: dict, args) -> dict:
    import lyaporder  # noqa: F401  (set-up cost: the package import)
    from lyaporder import domination, problemfile

    tracer = None
    setup_roots: set[int] = set()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        setup_roots.add(tracer.begin("setup"))
    loaded = [problemfile.parse_problem(case["doc"]) for case in plan["cases"]]
    if tracer:
        tracer.end(min(setup_roots))
        tracer.uninstall()
    decide_name = "stein_domination" if plan["workload"] == "stein" else "check_domination"

    def decide(i):
        lp = loaded[i]
        return getattr(domination, decide_name)(lp.problem, oracle_trials=ORACLE_TRIALS, seed=lp.seed)

    decide(plan["round"][0])  # untimed warm-up; its case is decided again when timed
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    import checks

    cases = [checks.CaseData(case) for case in plan["cases"]]
    tally = Tally()
    decision_roots: set[int] = set()

    def run(i, traced=False):
        if traced:
            tracer.install()
            root = tracer.begin("decision")
        start = time.perf_counter()
        try:
            report, error = decide(i), None
        except Exception as exc:   # a raised decision is a failed one, not a crash
            report, error = None, exc
        elapsed = time.perf_counter() - start
        if traced:
            elapsed = tracer.end(root)
            tracer.uninstall()
            decision_roots.add(root)
        if error is not None:
            print(f"decision on case {i} raised {error!r}", file=sys.stderr)
            tally.record(["raised"], None, True)
        else:
            fired = checks.check_outcome(cases[i], checks.outcome_from_report(report))
            tally.record(fired, report.verdict, True)
        return elapsed

    rounds = timed_pass(plan["round"], args.seconds, runner(run, tracer is not None, tally))
    result = {"setup_s": setup_s, "rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        import metrics

        spans = tracer.spans
        result["per_layer"] = metrics.per_layer(
            spans, tracer.families, decision_roots, setup_roots, len(loaded), [],
            sum(tally.traced_times), sum(tally.times))
        _write_spans(args, spans)
    return _finish(result, tally)


# --------------------------------------------------------------------------
# The cli workload: one lyapctl process per decision.
# --------------------------------------------------------------------------


def run_cli(plan: dict, args) -> dict:
    import checks

    cases = [checks.CaseData(case) for case in plan["cases"]]
    env = dict(os.environ)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    families: set[str] = set()
    import_times: list[float] = []
    decision_roots: set[int] = set()
    first_stdout: dict[int, bytes] = {}
    runs = Counter()
    tally = Tally()

    def argv_of(call):
        argv = list(call["argv"])
        case = plan["cases"][call["case"]]
        if case.get("generated"):
            argv[-1] = os.path.join(args.work, argv[-1])
        return argv

    def invoke(i, traced=False):
        call = plan["calls"][i]
        argv = argv_of(call)
        spans_path = os.path.join(args.work, "child-spans.json")
        if traced:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=args.root, env=env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        end = time.perf_counter()
        runs[i] += 1
        if proc is None or proc.returncode not in (0, 1, 2):
            detail = "timed out" if proc is None else proc.stderr.decode(errors="replace")[-400:]
            print(f"lyapctl {' '.join(call['argv'])} failed: {detail}", file=sys.stderr)
            fired = ["cli_failed"]
            verdict = None
        else:
            fired = checks.check_cli(cases[call["case"]], call["argv"], proc.returncode,
                                     proc.stdout.decode())
            if first_stdout.setdefault(i, proc.stdout) != proc.stdout:
                fired.append("stdout_not_repeatable")
            verdict = _json_field(proc.stdout, "verdict")
        tally.record(fired, verdict, call["argv"][0] == "check")
        if traced:
            root = tracer.add("decision", start, end, -1)
            decision_roots.add(root)
            if proc is not None and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                import_times.append(child["import_s"])
                families.update(child["families"])
                base = len(tracer.names)
                for name, s, e, parent, extra in child["spans"]:
                    tracer.add(name, s, e, root if parent < 0 else base + parent, extra)
        return end - start

    rounds = timed_pass(plan["round"], args.seconds, runner(invoke, tracer is not None, tally))
    # Every invocation's stdout is compared with a repeat of it, even in a short run.
    for i in range(len(plan["calls"])):
        if runs[i] == 1:
            invoke(i)
    result = {"rounds": rounds,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if tracer:
        import metrics

        spans = tracer.spans
        result["per_layer"] = metrics.per_layer(
            spans, families, decision_roots, set(), 0, import_times,
            sum(tally.traced_times), sum(tally.times))
        _write_spans(args, spans)
    return _finish(result, tally)


def _json_field(stdout: bytes, key: str):
    try:
        return json.loads(stdout).get(key)
    except (ValueError, AttributeError):
        return None


def _write_spans(args, spans) -> None:
    import tracing

    os.makedirs(args.out, exist_ok=True)
    tracing.write_spans(os.path.join(args.out, f"spans-{args.workload}.tsv"), spans)


def _finish(result: dict, tally: Tally) -> dict:
    result.update(
        times=tally.times,
        attempted=tally.attempted,
        failed=tally.failed,
        fired=dict(tally.fired),
        decided=tally.decided,
        decided_of=tally.decided_of,
    )
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--root", required=True, help="repository root (working directory of the CLI)")
    ap.add_argument("--work", required=True, help="directory holding plan.json and generated documents")
    ap.add_argument("--out", required=True, help="directory for the span file of a traced run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(args.work, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run_cli(plan, args) if plan["workload"] == "cli" else run_inprocess(plan, args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
