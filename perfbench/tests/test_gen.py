"""The generators: deterministic per seed, schema-valid, and classed correctly."""

import json
import os

import jsonschema
import numpy as np
import pytest

import gen
from conftest import ROOT
from lyaporder.jordan import build_A, build_bicomm_element
from lyaporder.problemfile import parse_problem


def _shipped():
    folder = os.path.join(ROOT, "problems")
    return {name: json.load(open(os.path.join(folder, name))) for name in os.listdir(folder)
            if name.endswith(".json")}


@pytest.fixture(scope="module")
def schema():
    with open(os.path.join(ROOT, "schemas", "problem.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_plans_are_deterministic_per_seed(workload):
    shipped = _shipped()
    first = json.dumps(gen.make_plan(workload, 11, shipped), sort_keys=True)
    again = json.dumps(gen.make_plan(workload, 11, shipped), sort_keys=True)
    other = json.dumps(gen.make_plan(workload, 12, shipped), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_documents_are_schema_valid_and_parse(workload, schema):
    plan = gen.make_plan(workload, 3, _shipped())
    for case in plan["cases"]:
        jsonschema.validate(case["doc"], schema)
        parse_problem(case["doc"])
        assert case["cls"] in {"strict", "boundary", "power", "random"}
    assert sorted(plan["round"]) == list(range(len(plan.get("calls", plan["cases"]))))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_benchmark_matrices_match_the_program(workload):
    plan = gen.make_plan(workload, 5, _shipped())
    for case in plan["cases"]:
        a, b = gen.matrices(case["doc"])
        prob = parse_problem(case["doc"]).problem
        scale = 1.0 + np.abs(a).max() + np.abs(b).max()
        assert np.abs(build_A(prob.spec) - a).max() <= 1e-12 * scale
        assert np.abs(build_bicomm_element(prob.spec, prob.element) - b).max() <= 1e-12 * scale


def test_known_dominators_hold_on_sampled_cone_elements():
    """H in A's cone stays in B's cone for every known dominator (Lyapunov and Stein)."""
    rng = np.random.default_rng(0)
    for workload in ("ladder", "stein"):
        for case in gen.make_plan(workload, 8)["cases"]:
            if case["cls"] == "random":
                continue
            a, b = gen.matrices(case["doc"])
            n = a.shape[0]
            eye = np.eye(n)
            if case["order"] == "stein":
                op_a = np.eye(n * n) - np.kron(a.conj(), a)
            else:
                op_a = np.kron(a.T, eye) + np.kron(eye, a.conj().T)
            for _ in range(5):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                w = g @ g.conj().T
                h = np.linalg.solve(op_a, w.ravel(order="F")).reshape((n, n), order="F")
                h = (h + h.conj().T) / 2
                cone_b = h - b @ h @ b.conj().T if case["order"] == "stein" else h @ b + b.conj().T @ h
                eigs = np.linalg.eigvalsh((cone_b + cone_b.conj().T) / 2)
                assert eigs[0] >= -1e-8 * (1 + np.abs(eigs).max())


def test_ladder_round_mix():
    plan = gen.ladder_plan(1)
    round_ = plan["round"]
    mix = {}
    for i in round_:
        key = (_dim(plan["cases"][i]["doc"]), plan["cases"][i]["cls"])
        mix[key] = mix.get(key, 0) + 1
    assert mix == gen.LADDER_COUNTS
    first = plan["cases"][round_[0]]                   # the untimed warm-up decision
    assert first["cls"] == "random" and _dim(first["doc"]) <= 16


def _dim(doc):
    real = doc["field"] == "real"
    return sum((2 if real and e["lambda"][1] > 0 else 1) * sum(e["sizes"]) for e in doc["eigenvalues"])


def test_shipped_problems_are_all_classed():
    assert set(_shipped()) == set(gen.SHIPPED)
