"""Reading problem files: one JSON document describing A, B and run options.

The format is deliberately small and diff-friendly; complex scalars are
always [re, im] pairs (a bare number is accepted and read as real), and
every number must be finite: the NaN and Infinity that json.load accepts
are input errors.  See schemas/problem.json in the repository for the
full schema.

    {
      "field": "complex",
      "eigenvalues": [{"lambda": [1.0, 0.0], "sizes": [2, 1]}, ...],
      "P": [[...], ...],                  # optional similarity, row-major
      "B": {"coeffs": [[...], ...]}       # per-eigenvalue Toeplitz data
           or {"matrix": [[...], ...]},   # raw matrix, membership-checked
      "map": {"matricization": [[...]], "n": 2, "q": 2},   # optional, raw maps
      "tolerances": {"rank_rel": ..., "psd_rel": ..., "eq_rel": ...},
      "seed": 0
    }

All validation errors carry the JSON path of the offending value.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from .domination import LyapunovProblem
from .jordan import (
    BicommElement,
    EigenBlock,
    JordanSpec,
    check_bicomm_membership,
)
from .linalg import DEFAULT_TOLERANCES
from .starmaps import StarLinearMap

__all__ = ["ProblemFileError", "LoadedProblem", "load_problem_file", "parse_problem"]


class ProblemFileError(Exception):
    """Problem file rejected; the message names the offending JSON path."""


@dataclass(eq=False)
class LoadedProblem:
    problem: LyapunovProblem
    seed: int
    b_from_matrix: bool
    raw_map: Optional[StarLinearMap]


def _fail(where: str, message: str) -> ProblemFileError:
    return ProblemFileError(f"{where}: {message}")


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _scalar(node, where: str) -> complex:
    if _real(node):
        re, im = node, 0.0
    elif isinstance(node, list) and len(node) == 2 and _real(node[0]) and _real(node[1]):
        re, im = node
    else:
        raise _fail(where, "expected a number or an [re, im] pair")
    try:
        re, im = float(re), float(im)
    except OverflowError:  # an integer beyond the float range
        re = math.nan
    if not (math.isfinite(re) and math.isfinite(im)):  # json.load reads NaN and Infinity too
        raise _fail(where, "expected finite numbers, not NaN, Infinity or beyond the float range")
    return complex(re, im)


def _matrix(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
        raise _fail(where, "expected a nested array of rows")
    width = len(node[0])
    rows = []
    for i, row in enumerate(node):
        if len(row) != width:
            raise _fail(f"{where}[{i}]", f"row has {len(row)} entries, expected {width}")
        rows.append([_scalar(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _positive_int(node, where: str) -> int:
    if not isinstance(node, int) or isinstance(node, bool) or node < 1:
        raise _fail(where, "expected a positive integer")
    return node


def parse_problem(doc: dict, tol_override: Mapping[str, float] | None = None) -> LoadedProblem:
    """Build a LyapunovProblem (plus options) from a decoded JSON document.

    Tolerances start from the defaults, then take the fields of the file's
    "tolerances" object, then each field given in tol_override (a mapping
    such as {"eq_rel": 1e-12}).
    """
    if not isinstance(doc, dict):
        raise ProblemFileError("top level: expected a JSON object")
    known = {"field", "eigenvalues", "P", "B", "map", "tolerances", "seed"}
    for key in doc:
        if key not in known:
            raise _fail(key, "unknown key")

    field = doc.get("field")
    if field not in ("real", "complex"):
        raise _fail("field", "must be \"real\" or \"complex\"")

    eig_node = doc.get("eigenvalues")
    if not isinstance(eig_node, list) or not eig_node:
        raise _fail("eigenvalues", "expected a nonempty array")
    eigens = []
    for i, entry in enumerate(eig_node):
        where = f"eigenvalues[{i}]"
        if not isinstance(entry, dict):
            raise _fail(where, "expected an object with lambda and sizes")
        extra = set(entry) - {"lambda", "sizes"}
        if extra:
            raise _fail(where, f"unknown keys {sorted(extra)}")
        lam = _scalar(entry.get("lambda"), f"{where}.lambda")
        sizes_node = entry.get("sizes")
        if not isinstance(sizes_node, list) or not sizes_node:
            raise _fail(f"{where}.sizes", "expected a nonempty array of positive integers")
        sizes = tuple(_positive_int(s, f"{where}.sizes[{k}]") for k, s in enumerate(sizes_node))
        try:
            eigens.append(EigenBlock(lam, sizes))
        except ValueError as exc:
            raise _fail(where, str(exc)) from exc

    similarity = None
    if "P" in doc:
        similarity = _matrix(doc["P"], "P")

    try:
        spec = JordanSpec(field, tuple(eigens), similarity)
    except ValueError as exc:
        raise ProblemFileError(f"jordan data: {exc}") from exc

    tnode = doc.get("tolerances", {})
    if not isinstance(tnode, dict):
        raise _fail("tolerances", "expected an object")
    extra = set(tnode) - {"rank_rel", "psd_rel", "eq_rel"}
    if extra:
        raise _fail("tolerances", f"unknown keys {sorted(extra)}")
    values = {}
    for name in ("rank_rel", "psd_rel", "eq_rel"):
        if name in tnode:
            v = tnode[name]
            if not _real(v) or not 0 < v <= sys.float_info.max:
                raise _fail(f"tolerances.{name}", "expected a finite positive number")
            values[name] = float(v)
    tol = replace(DEFAULT_TOLERANCES, **{**values, **(tol_override or {})})

    b_node = doc.get("B")
    if not isinstance(b_node, dict) or set(b_node) not in ({"coeffs"}, {"matrix"}):
        raise _fail("B", "expected exactly one of {\"coeffs\": ...} or {\"matrix\": ...}")
    b_from_matrix = "matrix" in b_node
    if b_from_matrix:
        b = _matrix(b_node["matrix"], "B.matrix")
        if field == "real" and np.any(b.imag != 0):
            raise _fail("B.matrix", "real field requires real entries")
        result = check_bicomm_membership(spec, b, tol)
        if not result.member:
            raise _fail(
                "B.matrix",
                f"not in the bicommutant of A; pattern violated at entry {result.witness}",
            )
        element = result.element
    else:
        cnode = b_node["coeffs"]
        if not isinstance(cnode, list) or len(cnode) != len(eigens):
            raise _fail("B.coeffs", f"expected one coefficient list per eigenvalue ({len(eigens)})")
        rows = []
        for i, row in enumerate(cnode):
            if not isinstance(row, list):
                raise _fail(f"B.coeffs[{i}]", "expected an array of scalars")
            rows.append(tuple(_scalar(x, f"B.coeffs[{i}][{k}]") for k, x in enumerate(row)))
        element = BicommElement(tuple(rows))

    try:
        problem = LyapunovProblem(spec, element, tol)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise _fail("seed", "expected a nonnegative integer")

    raw_map = None
    if "map" in doc:
        mnode = doc["map"]
        if not isinstance(mnode, dict) or set(mnode) != {"matricization", "n", "q"}:
            raise _fail("map", "expected {\"matricization\": ..., \"n\": ..., \"q\": ...}")
        n = _positive_int(mnode["n"], "map.n")
        q = _positive_int(mnode["q"], "map.q")
        mat = _matrix(mnode["matricization"], "map.matricization")
        try:
            raw_map = StarLinearMap(mat, n, q, field)
        except ValueError as exc:
            raise _fail("map", str(exc)) from exc

    return LoadedProblem(problem, seed, b_from_matrix, raw_map)


def load_problem_file(path, tol_override: Mapping[str, float] | None = None) -> LoadedProblem:
    """Read and validate a problem file from disk; see :func:`parse_problem`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # json.load recurses once per level of nesting
        raise ProblemFileError(f"{path}: JSON nested too deeply") from exc
    return parse_problem(doc, tol_override)
