"""Run one exoticcone CLI command with layer tracing, in a fresh process.

    python3 perfbench/cli_entry.py TRACE_OUT ARGS...

behaves like ``python -m exoticcone ARGS...`` (same stdout, stderr and exit
code) after installing the benchmark's tracer, and writes the tracer's
counters, spans, import time and run time to the JSON file TRACE_OUT.
"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import exoticcone.cli  # noqa: E402

imported = time.perf_counter()

import tracer  # noqa: E402  (this file's directory is on sys.path)
from exoticcone import kostant  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer().install()
    code = exoticcone.cli.run(argv)
    sys.stdout.flush()
    summary = t.summary()
    summary["import_s"] = imported - start
    summary["run_s"] = sum(span[2] - span[1] for span in t.spans()
                           if span[0] == "cli.run")
    summary["memo_entries"] = tracer.memo_entries(kostant)
    summary["spans"] = t.spans()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
