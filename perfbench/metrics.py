"""The benchmark's metrics: names, units and how they are computed.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from a traced run; times, calls, bytes and elements are per decision, except
that work done while parsing the documents at set-up (in-process workloads)
is counted per document parsed.
"""

from __future__ import annotations

import math
import statistics

import tracing

# name, unit, better, bound (the share of the parent's median by which the
# metric may worsen before a change counts as a regression).  The timing
# bounds are wide because the CPU speed of a shared 2-vCPU host drifts by
# 10-30% over minutes; decided_frac moves with the seed's eigenvalue
# spacing, peak RSS barely moves at all.
END_TO_END = (
    ("decide_p50_s", "s", "lower", 0.25),
    ("decide_p90_s", "s", "lower", 0.25),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("decided_frac", "ratio", "higher", 0.2),
)

# name, unit, span name, statistic
PER_LAYER = (
    ("cli.import_s", "s/decision", "cli.run", "import"),
    ("cli.run.self_s", "s/decision", "cli.run", "self"),
    ("problemfile.load_problem_file.busy_s", "s/decision", "problemfile.load_problem_file", "busy"),
    ("problemfile.load_problem_file.calls", "calls/decision", "problemfile.load_problem_file", "calls"),
    ("problemfile.parse_problem.busy_s", "s/decision", "problemfile.parse_problem", "busy"),
    ("jordan.check_bicomm_membership.busy_s", "s/decision", "jordan.check_bicomm_membership", "busy"),
    ("jordan.check_bicomm_membership.calls", "calls/decision", "jordan.check_bicomm_membership", "calls"),
    ("jordan.build.busy_s", "s/decision", "jordan.build", "busy"),
    ("jordan.build.calls", "calls/decision", "jordan.build", "calls"),
    ("domination.check_domination.busy_s", "s/decision", "domination.check_domination", "busy"),
    ("domination.check_domination.self_s", "s/decision", "domination.check_domination", "self"),
    ("domination.check_domination.calls", "calls/decision", "domination.check_domination", "calls"),
    ("domination.hill_pick.busy_s", "s/decision", "domination.hill_pick", "busy"),
    ("domination.hill_pick.calls", "calls/decision", "domination.hill_pick", "calls"),
    ("domination.hill_pick.elements", "elem/decision", "domination.hill_pick", "extra"),
    ("domination.order_map.busy_s", "s/decision", "domination.order_map", "busy"),
    ("domination.order_map.bytes", "B/decision", "domination.order_map", "extra"),
    ("starmaps.choi_matrix.busy_s", "s/decision", "starmaps.choi_matrix", "busy"),
    ("starmaps.choi_matrix.bytes", "B/decision", "starmaps.choi_matrix", "extra"),
    ("linalg.psd_report.hill_pick.busy_s", "s/decision", "linalg.psd_report.hill_pick", "busy"),
    ("linalg.psd_report.choi.busy_s", "s/decision", "linalg.psd_report.choi", "busy"),
    ("domination.oracle.busy_s", "s/decision", "domination.oracle", "busy"),
    ("domination.oracle.self_s", "s/decision", "domination.oracle", "self"),
    ("domination.oracle.calls", "calls/decision", "domination.oracle", "calls"),
    ("domination.oracle.violation_frac", "ratio", "domination.oracle", "fraction"),
    ("linalg.psd_report.oracle.busy_s", "s/decision", "linalg.psd_report.oracle", "busy"),
    ("linalg.psd_report.oracle.calls", "calls/decision", "linalg.psd_report.oracle", "calls"),
    ("domination.stein_domination.busy_s", "s/decision", "domination.stein_domination", "busy"),
    ("domination.stein_domination.self_s", "s/decision", "domination.stein_domination", "self"),
    ("domination.stein_domination.calls", "calls/decision", "domination.stein_domination", "calls"),
    ("domination.stein_order_map.busy_s", "s/decision", "domination.stein_order_map", "busy"),
    ("domination.stein_order_map.bytes", "B/decision", "domination.stein_order_map", "extra"),
    ("hill.minimal_hill_from_blocks.busy_s", "s/decision", "hill.minimal_hill_from_blocks", "busy"),
    ("hill.nonminimal_hill.busy_s", "s/decision", "hill.nonminimal_hill", "busy"),
    ("hill.nonminimal_hill.calls", "calls/decision", "hill.nonminimal_hill", "calls"),
    ("trace.overhead_frac", "ratio", "", "overhead"),
)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def per_slot_means(times: list[float], rounds: int) -> list[float]:
    """Mean time of each slot of the round, over the `rounds` whole rounds in `times`.

    On a shared 2-vCPU host the CPU speed can flip between a fast and a slow
    state (about 1.6x apart) every second or so, which makes single decision
    times bimodal: a percentile of them jumps from one mode to the other as
    the share of slow seconds in a run crosses it.  A slot's mean over the
    run moves in proportion to that share instead.
    """
    size = len(times) // rounds
    if size * rounds != len(times):
        raise ValueError(f"{len(times)} decision times are not {rounds} whole rounds")
    return [statistics.fmean(times[slot::size]) for slot in range(size)]


def end_to_end(setup_samples: list[float], times: list[float], rounds: int, peak_rss_mb: float,
               decided: int, decided_of: int) -> dict[str, float]:
    """decide_p50_s and decide_p90_s are percentiles over the slots of a round
    (one per problem or CLI invocation) of each slot's mean decision time."""
    means = per_slot_means(times, rounds)
    return {
        "decide_p50_s": statistics.median(means),
        "decide_p90_s": p90(means),
        "decisions_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "decided_frac": decided / decided_of,
    }


def per_layer(spans, families: set[str], decision_roots: set[int], setup_roots: set[int],
              docs_parsed: int, import_times: list[float], traced_s: float,
              untraced_s: float) -> dict[str, float]:
    """Per-layer values from the traced run; layers the program lacks are left out."""
    per_decision = tracing.aggregate(spans, decision_roots)
    per_doc = tracing.aggregate(spans, setup_roots)
    decisions = max(len(decision_roots), 1)

    def stat(span: str, key: str) -> float:
        value = per_decision.get(span, {}).get(key, 0) / decisions
        if docs_parsed:
            value += per_doc.get(span, {}).get(key, 0) / docs_parsed
        return value

    out = {}
    for name, _, span, kind in PER_LAYER:
        if kind == "overhead":
            out[name] = traced_s / untraced_s - 1.0
            continue
        if not any(span == f or span.startswith(f + ".") for f in families):
            continue
        if kind == "import":
            out[name] = statistics.mean(import_times) if import_times else 0.0
        elif kind == "fraction":
            calls = stat(span, "calls")
            out[name] = stat(span, "extra") / calls if calls else 0.0
        else:
            out[name] = stat(span, kind)
    return out
