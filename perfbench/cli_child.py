"""One traced ``multiway`` command in a fresh interpreter.

    python3 perfbench/cli_child.py TRACE_OUT ARGV...   run multiway.cli.main(ARGV), write spans to TRACE_OUT
    python3 perfbench/cli_child.py --import-only       print the milliseconds ``import multiway.cli`` took

The import is timed before the tracer is installed, so it measures the same
import an untraced ``multiway`` command pays.
"""

import sys
import time

t0 = time.perf_counter()
import multiway.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1000

if __name__ == "__main__":
    if sys.argv[1] == "--import-only":
        print(import_ms)
        sys.exit(0)
    import json

    import tracing

    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    code = multiway.cli.main(argv)
    tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"import_ms": import_ms, "exit": code, "raw": tracer.raw_totals(), "spans": tracer.dump_spans()}, fh)
    sys.exit(code)
