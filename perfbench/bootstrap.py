"""Run one tonescale CLI command in this fresh interpreter.

Usage: python bootstrap.py REPORT_JSON TRACE(0|1) OP_ID -- CLI_ARGS...

Writes the import time of ``tonescale.cli_io`` and, when TRACE is 1, the
spans recorded by wrappers installed before the command runs, then exits
with the command's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import tonescale.cli_io as cli_io  # noqa: E402

import_s = time.perf_counter() - t0


def main() -> int:
    report, trace, op_id, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: bootstrap.py REPORT_JSON TRACE OP_ID -- CLI_ARGS...")
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.op = int(op_id)
        tracer.install()
    code = cli_io.cli_main(sys.argv[5:])
    spans = tracer.finished() if tracer else []
    with open(report, "w") as fh:
        json.dump({"import_s": import_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
