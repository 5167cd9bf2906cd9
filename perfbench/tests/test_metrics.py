"""Metric names, units and the span arithmetic behind the per-layer metrics."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gen
import metrics
import tracing
from conftest import BENCH, ROOT
from lyaporder import domination
from lyaporder.problemfile import parse_problem


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_end_to_end_values_are_named_as_declared():
    values = metrics.end_to_end([1.0, 2.0, 3.0], [0.1] * 9 + [1.0], 1, 50.0, 3, 4)
    assert list(values) == [name for name, *_ in metrics.END_TO_END]
    assert values["decide_p90_s"] == 0.1 and values["setup_s"] == 2.0
    assert metrics.p90(list(range(1, 101))) == 90


def test_percentiles_are_over_slot_means():
    # Three slots, two rounds; slot 1 was slow in the first round only.
    times = [1.0, 2.0, 3.0,
             1.0, 4.0, 3.0]
    assert metrics.per_slot_means(times, 2) == [1.0, 3.0, 3.0]
    values = metrics.end_to_end([1.0], times, 2, 50.0, 1, 1)
    assert values["decide_p50_s"] == 3.0 and values["decide_p90_s"] == 3.0
    assert values["decisions_per_s"] == 6 / 14
    with pytest.raises(ValueError):
        metrics.per_slot_means(times[:-1], 2)


def test_aggregate_busy_self_and_nesting():
    spans = [
        ("decision", 0.0, 10.0, -1, None),
        ("a", 1.0, 9.0, 0, None),
        ("b", 2.0, 4.0, 1, 5),
        ("a", 5.0, 6.0, 1, None),      # nested in a: counted as a call, not as busy
        ("b", 7.0, 8.0, 1, 7),
        ("a", 20.0, 21.0, -1, None),   # outside every root: ignored
    ]
    totals = tracing.aggregate(spans, {0})
    assert totals["a"] == {"busy": 8.0, "self": 8.0 - 4.0 + 1.0, "calls": 2, "extra": 0}
    assert totals["b"] == {"busy": 3.0, "self": 3.0, "calls": 2, "extra": 12}


def test_tracer_wraps_attributes_and_restores_them():
    doc = gen.make_doc(np.random.default_rng(1), 3, "lyapunov", "complex", "diag", "random")
    loaded = parse_problem(doc)
    original = domination.psd_report
    tracer = tracing.Tracer()
    tracer.install()
    root = tracer.begin("decision")
    report = domination.check_domination(loaded.problem, oracle_trials=20, seed=loaded.seed)
    tracer.end(root)
    tracer.uninstall()
    assert domination.psd_report is original
    names = [s[0] for s in tracer.spans]
    assert names.count("linalg.psd_report.hill_pick") == 1
    assert names.count("linalg.psd_report.choi") == 1
    trials = 20 if report.oracle_status == "consistent" else None
    oracle_tests = names.count("linalg.psd_report.oracle")
    assert oracle_tests >= 1 and (trials is None or oracle_tests == trials)
    values = metrics.per_layer(tracer.spans, tracer.families, {root}, set(), 0, [], 1.0, 1.0)
    assert values["domination.check_domination.calls"] == 1
    assert values["domination.hill_pick.elements"] == 9
    assert values["linalg.psd_report.oracle.calls"] == oracle_tests


def test_missing_layer_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(domination, "stein_order_map")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    values = metrics.per_layer([], tracer.families, set(), set(), 0, [], 1.0, 1.0)
    assert "domination.stein_order_map.busy_s" not in values
    assert "domination.order_map.busy_s" in values


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stein", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
