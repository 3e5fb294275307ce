#!/usr/bin/env python3
"""Self-tests of the benchmark harness (standard library only).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that an injected wrong answer is
counted as a failed operation and makes the run exit nonzero, that traced
and untraced runs produce identical output hashes, and that the hashes do
not depend on PYTHONHASHSEED.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

run.load_library()

import tracer  # noqa: E402
import workloads  # noqa: E402
from exoticcone import sections  # noqa: E402

WORKDIR = os.path.join(run.OUT, f"selftest-{os.getpid()}")
# a few ops of round 0 per workload, cheap enough to run several times
SAMPLE = {"orbits": slice(0, 40), "sections": slice(0, 30),
          "cli": slice(0, 21, 3)}


def sample_ops(name, seed=run.DEFAULT_SEED):
    wl = workloads.WORKLOADS[name]
    return wl, [wl.make_pool(seed, 1, WORKDIR)[0][SAMPLE[name]]]


def digests(name, traced=False):
    wl, pool = sample_ops(name)
    if name == "cli":
        execute = run.CliRunner(workloads, WORKDIR)
        if traced:
            execute.traced = []
        records, _ = run.run_rounds(pool, execute, rounds=1)
    elif traced:
        t = tracer.Tracer().install()
        try:
            records, _ = run.run_rounds(pool, wl.execute, rounds=1,
                                        traced_by=t)
        finally:
            t.uninstall()
    else:
        records, _ = run.run_rounds(pool, wl.execute, rounds=1)
    assert not run.check_records(wl, records, None)
    return [run.digest(rec.output) for rec in records]


def main_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_injected_wrong_section_count_fails_the_run(self):
        original = sections.h0_mult
        sections.h0_mult = lambda mu, lam: original(mu, lam) + 1
        try:
            code, result = main_run(["--workload", "sections", "--seed", "7",
                                     "--seconds", "0.2"])
        finally:
            sections.h0_mult = original
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        cells_per_round = sum(count for kind, _, count in
                              workloads.SECTION_KINDS if kind == "cell")
        self.assertGreaterEqual(result["failed"], cells_per_round)

    def test_injected_wrong_cli_count_is_a_failed_op(self):
        wl = workloads.WORKLOADS["cli"]
        pool = [[op for op in wl.make_pool(7, 1, WORKDIR)[0]
                 if op[0][0] == "kostant"]]
        records, _ = run.run_rounds(pool, run.CliRunner(workloads, WORKDIR),
                                    rounds=1)
        self.assertEqual(run.check_records(wl, records, None), [])
        for rec in records:
            value = json.loads(json.loads(rec.output)["stdout"])["value"]
            rec.output = workloads.cli_output(
                json.dumps({"value": value + 1}) + "\n", "", 0)
        self.assertEqual(len(run.check_records(wl, records, None)),
                         len(records))

    def test_hash_gate_catches_a_changed_output(self):
        wl, pool = sample_ops("orbits")
        records, _ = run.run_rounds([pool[0][:5]], wl.execute, rounds=1)
        with open(run.EXPECTED, encoding="utf-8") as handle:
            expected = json.load(handle)["orbits"]
        self.assertEqual(run.check_records(wl, records, expected), [])
        records[2].output = records[2].output.replace("1", "0", 1)
        self.assertEqual(len(run.check_records(wl, records, expected)), 1)

    def test_traced_and_untraced_hashes_agree(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(digests(name), digests(name, traced=True))

    def test_hashes_do_not_depend_on_hash_seed(self):
        seen = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--digests"],
                cwd=run.ROOT, env=env, capture_output=True, text=True,
                timeout=170, check=True)
            seen.append(json.loads(proc.stdout))
        self.assertEqual(seen[0], seen[1])
        with open(run.EXPECTED, encoding="utf-8") as handle:
            expected = json.load(handle)
        for name, hashes in seen[0].items():
            self.assertEqual(hashes, expected[name][0][SAMPLE[name]])


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        try:
            print(json.dumps({name: digests(name)
                              for name in workloads.WORKLOADS}))
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
    else:
        unittest.main()
