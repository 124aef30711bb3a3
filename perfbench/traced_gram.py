"""Run one ksetwl command in this process with the per-layer wrappers on.

Usage: python3 perfbench/traced_gram.py TRACE_JSON -- <ksetwl arguments>

Writes the tracer's report to TRACE_JSON and exits with the command's code.
``ksetwl`` must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    trace_path, args = argv[0], argv[2:]
    from ksetwl import cli

    tracer = tracing.install(tracing.Tracer())
    try:
        code = cli.main(args)
    finally:
        tracer.restore()
    report = tracer.report()
    report["labels"] = sum(len(interner) for interner in tracer.interners)
    report["exit_code"] = code
    with open(trace_path, "w") as f:
        json.dump(report, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
