"""Spans around calls into the program's layers, recorded from benchmark code.

The tracer replaces module attributes that the pipelines look up at call
time (``lyaporder.domination.hill_pick_matrix``, ``lyaporder.cli.run``, ...)
with timing wrappers, and puts the originals back on ``uninstall``.  A name
that the program no longer defines is skipped, so its metrics are absent
rather than the run failing.  Spans stay in memory as
(name, start, end, parent, extra) tuples; ``extra`` carries bytes, elements
or an outcome flag, depending on the layer.
"""

from __future__ import annotations

import importlib
import sys
import time

# Metric family, defining module, function name, modules whose attribute is
# patched (None: every loaded lyaporder module that holds the same function).
LAYERS = (
    ("cli.run", "cli", "run", None),
    ("problemfile.load_problem_file", "problemfile", "load_problem_file", None),
    ("problemfile.parse_problem", "problemfile", "parse_problem", None),
    ("jordan.check_bicomm_membership", "jordan", "check_bicomm_membership", None),
    ("jordan.build", "jordan", "build_A", ("domination",)),
    ("jordan.build", "jordan", "build_bicomm_element", ("domination",)),
    ("jordan.build", "jordan", "build_JA", ("domination",)),
    ("jordan.build", "jordan", "build_bicomm_jordan", ("domination",)),
    ("domination.check_domination", "domination", "check_domination", None),
    ("domination.stein_domination", "domination", "stein_domination", None),
    ("domination.hill_pick", "domination", "hill_pick_matrix", None),
    ("domination.hill_pick", "domination", "hill_pick_matrix_real", None),
    ("domination.order_map", "domination", "lyapunov_order_map", None),
    ("domination.stein_order_map", "domination", "stein_order_map", None),
    ("starmaps.choi_matrix", "starmaps", "choi_matrix", None),
    ("domination.oracle", "domination", "domination_oracle", None),
    ("linalg.psd_report", "linalg", "psd_report", ("domination",)),
    ("hill.minimal_hill_from_blocks", "hill", "minimal_hill_from_blocks", None),
    ("hill.nonminimal_hill", "hill", "nonminimal_hill", None),
)


def _nbytes(result) -> int:
    arr = getattr(result, "matrix", result)
    return int(getattr(arr, "nbytes", 0))


class Tracer:
    def __init__(self):
        # One column per span field: flat lists of strings and numbers keep
        # hundreds of thousands of spans out of the garbage collector's way.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extras: list = []
        self.families: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # Matrices most recently returned by the Hill-Pick and Choi layers,
        # held until the psd_report call that tests them.
        self._pending: dict[str, object] = {}

    @property
    def spans(self) -> list[tuple]:
        """(name, start, end, parent, extra) per span, parents before children."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.extras))

    # ---- recording ----------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.extras.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int, extra=None) -> float:
        end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.ends[idx] = end
        self.extras[idx] = extra
        return end - self.starts[idx]

    def add(self, name: str, start: float, end: float, parent: int, extra=None) -> int:
        """Record a finished span (from a child process) under parent."""
        for column, value in zip((self.names, self.starts, self.ends, self.parents, self.extras),
                                 (name, start, end, parent, extra)):
            column.append(value)
        return len(self.names) - 1

    # ---- wrappers -------------------------------------------------------

    def _wrapper(self, family: str, fn):
        def wrapped(*args, **kwargs):
            name = family
            if family == "linalg.psd_report":
                name = f"{family}.{self._psd_route(args[0] if args else kwargs.get('m'))}"
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, self._extra(family, result))
        wrapped.__wrapped__ = fn
        return wrapped

    def _psd_route(self, matrix) -> str:
        """psd_report calls are attributed to the route whose matrix they test."""
        for route in ("hill_pick", "choi"):
            if matrix is not None and self._pending.get(route) is matrix:
                del self._pending[route]
                return route
        return "oracle"

    def _extra(self, family: str, result):
        if result is None:
            return None
        if family == "domination.hill_pick":
            self._pending["hill_pick"] = result.matrix
            return int(result.matrix.shape[0]) ** 2
        if family == "starmaps.choi_matrix":
            self._pending["choi"] = result
            return _nbytes(result)
        if family in ("domination.order_map", "domination.stein_order_map"):
            return _nbytes(result)
        if family == "domination.oracle":
            return 1 if result[0] == "violation" else 0
        return None

    def install(self) -> None:
        """Wrap every layer function that the program defines."""
        for home in {layer[1] for layer in LAYERS}:
            try:
                importlib.import_module(f"lyaporder.{home}")
            except ImportError:
                pass
        loaded = {name[len("lyaporder."):]: mod for name, mod in list(sys.modules.items())
                  if name.startswith("lyaporder.") and mod is not None}
        loaded[""] = sys.modules.get("lyaporder")
        for family, home, attr, scope in LAYERS:
            fn = getattr(loaded.get(home), attr, None)
            if fn is None:
                continue
            self.families.add(family)
            wrapped = self._wrapper(family, fn)
            targets = scope if scope is not None else loaded.keys()
            for key in targets:
                mod = loaded.get(key)
                if mod is not None and getattr(mod, attr, None) is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        self._pending.clear()


def aggregate(spans, roots: set[int]) -> dict[str, dict[str, float]]:
    """Per-family totals over the spans below the given root spans.

    busy is the inclusive time of the outermost span of each family, self
    is a span's time minus the time of its direct child spans, calls counts
    spans and extra sums their extra values.
    """
    # Span index -> names of its wrapped ancestors, for spans below a root.
    ancestors: dict[int, frozenset] = {}
    child_time = [0.0] * len(spans)
    totals: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
        if idx in roots:
            ancestors[idx] = frozenset()
            continue
        if parent not in ancestors:
            continue
        names = ancestors[parent]
        ancestors[idx] = names | {name}
        t = totals.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0, "extra": 0})
        t["calls"] += 1
        if name not in names:
            t["busy"] += end - start
        if extra is not None:
            t["extra"] += extra
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        if idx in ancestors and idx not in roots:
            totals[name]["self"] += (end - start) - child_time[idx]
    return totals


def write_spans(path, spans) -> None:
    """Write spans as tab-separated index, name, start, end, parent, extra."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart\tend\tparent\textra\n")
        for idx, (name, start, end, parent, extra) in enumerate(spans):
            fh.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\t{'' if extra is None else extra}\n")
