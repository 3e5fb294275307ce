#!/usr/bin/env python3
"""Rebuild perfbench/expected.json: the SHA-256 of every operation's output
in every pooled round of each workload at the default seed.

    python3 perfbench/make_expected.py [WORKLOAD ...]

Run from the root of a checkout, only when an output is meant to change;
every output must first pass the workload's independent checks.
"""

import json
import os
import shutil
import sys

import run


def main(names) -> int:
    run.load_library()
    import workloads

    try:
        with open(run.EXPECTED, encoding="utf-8") as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        expected = {}
    workdir = os.path.join(run.OUT, f"work-{os.getpid()}")
    try:
        for name in names or list(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]
            pool = wl.make_pool(run.DEFAULT_SEED, wl.pool_rounds, workdir)
            execute = run.CliRunner(workloads, workdir) \
                if name == "cli" else wl.execute
            records, _ = run.run_rounds(pool, execute, rounds=len(pool))
            failures = run.check_records(wl, records, None)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            expected[name] = [[None] * len(ops) for ops in pool]
            for rec in records:
                expected[name][rec.round][rec.index] = run.digest(rec.output)
            print(f"{name}: {len(records)} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
