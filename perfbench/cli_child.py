"""Traced lyapctl: time the import, wrap the layers, then run one command.

Usage: python cli_child.py SPANS_OUT ARGS...

Behaves like ``lyapctl ARGS...`` (same stdout and exit code) and writes
{"import_s": ..., "families": [...], "spans": [[name, start, end, parent,
extra], ...]} to SPANS_OUT.  Needs the program's ``src`` directory on
PYTHONPATH.
"""

import json
import sys
import time

import tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import lyaporder.cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = lyaporder.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "families": sorted(tracer.families),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
