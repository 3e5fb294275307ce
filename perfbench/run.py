#!/usr/bin/env python3
"""The exoticcone benchmark.

    python3 perfbench/run.py --workload orbits|sections|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One caller runs operations one at a time (closed loop) in whole rounds
until S seconds have passed, checks every output, and prints one JSON
object as the last line of stdout: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones
(see BENCHMARK.json). With ``--trace 1`` the run spends S/2 seconds
untraced, then repeats the workload's first rounds with the layer tracer
installed and reports the per-layer metrics, the traced rate and the
tracing overhead. Every reported time is scaled to a reference host
speed measured by a probe between ops (see PROBE_WINDOW). Spans and
a full result record (environment, tail percentile, error rate,
failures, unscaled figures, probe times) are written under
``.perfbench/``.

Exit codes: 0 when every output checked out, 1 when any operation failed
(the result line is still printed), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # fresh interpreters before and again after the timing
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
RESIDUAL_LIMIT = 1e-6  # seconds an op's self times may miss its duration
CLI_TIMEOUT = 60
# Host speed. A shared host runs this interpreter up to twice as slowly
# for seconds to minutes at a time, which no run length averages out. So
# a probe of fixed work runs between ops whenever Probe.every_s seconds of
# ops have passed, and every time the benchmark reports is scaled to the
# reference speed: multiplied by Probe.ref_s over the host's probe time
# around it, the mean of the probes just before and just after it, each
# the median of the PROBE_WINDOW probes centred on it (so that one probe
# that an interrupt slowed moves nothing). ref_s is about the probe's time
# on a quiet core of a 2 vCPU Xeon host. In-process ops use the loop
# probe; cli ops, mostly process start, whose time does not follow the
# loop's, use a fresh interpreter importing the stdlib modules the CLI
# needs.
PROBE_WINDOW = 5
PROBE_LOOPS = 4500
PROBE_IMPORTS = "import argparse, concurrent.futures, fractions, json"
CLI_COMMANDS = ("mult", "kostant", "bwb", "weights", "poset", "phic",
                "collapse", "filtration-dims", "orbit-identify",
                "representative", "adapted", "sweep")
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import exoticcone.cli\n"
    "exoticcone.cli.load_config()\n"
    "print(time.perf_counter() - t)\n"
)
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in tracer.TARGETS))

clock = time.perf_counter


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not os.path.isfile(os.path.join(SRC, "exoticcone", "__init__.py")):
        die("no exoticcone sources under src/; run from a checkout root")
    sys.path.insert(0, SRC)
    import exoticcone
    if os.path.dirname(os.path.dirname(os.path.abspath(
            exoticcone.__file__))) != SRC:
        die(f"imported exoticcone from {exoticcone.__file__}, not src/")


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


def loop_probe() -> float:
    """Seconds a fixed loop of dict, tuple and int work takes now."""
    t0 = clock()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = (i & 63, i % 7)
        acc = (acc + table.get(key, i) * 3) % 1000003
        table[key] = acc
    return clock() - t0


def process_probe() -> float:
    """Seconds a fresh isolated interpreter importing stdlib modules takes
    now."""
    t0 = clock()
    # with pipes, run() sees the exit at the pipes' end of file; without
    # them it would poll for it with sleeps of up to 50 ms
    subprocess.run([sys.executable, "-I", "-c", PROBE_IMPORTS],
                   capture_output=True, timeout=CLI_TIMEOUT, check=True)
    return clock() - t0


class Probe(NamedTuple):
    measure: Callable[[], float]
    ref_s: float    # about its time on a quiet core
    every_s: float  # op time between two probes


PROBES = {"loop": Probe(loop_probe, 1e-3, 0.05),
          "process": Probe(process_probe, 0.055, 0.5)}
LOOP = PROBES["loop"]


def measure_setup(env, repeats) -> list:
    """Times, scaled to the reference speed, of fresh interpreters running
    import + load_config()."""
    times = []
    for _ in range(repeats):
        before = LOOP.measure()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT, check=True)
        level = (before + LOOP.measure()) / 2
        times.append(float(proc.stdout) * LOOP.ref_s / level)
    return times


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- running ------------------------------------------------------------------

class Record:
    """One op: ``latency`` is its wall time, ``scaled`` that time at the
    reference speed, ``probe`` the host's probe time around it."""
    __slots__ = ("round", "index", "op", "latency", "scaled", "probe",
                 "output", "error")

    def __init__(self, rnd, index, op, latency, output, error):
        self.round = rnd
        self.index = index
        self.op = op
        self.latency = latency
        self.scaled = self.probe = None
        self.output = output
        self.error = error


def run_rounds(pool, execute, seconds=None, rounds=None, traced_by=None,
               probe=LOOP):
    """Whole rounds, one op at a time, until ``seconds`` have passed or
    ``rounds`` rounds are done, probing the host's speed between ops;
    ``probe`` is the Probe that op times are scaled by.
    Returns (records, elapsed seconds)."""
    records = []
    probes = [probe.measure()]
    since_probe = 0.0
    start = clock()
    r = 0
    while True:
        for i, op in enumerate(pool[r % len(pool)]):
            t0 = clock()
            try:
                if traced_by is None:
                    out = execute(op)
                else:
                    with traced_by.operation(len(records)):
                        out = execute(op)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            rec = Record(r, i, op, latency, out, error)
            rec.probe = len(probes) - 1  # index of the probe before it
            records.append(rec)
            since_probe += latency
            if since_probe >= probe.every_s:
                probes.append(probe.measure())
                since_probe = 0.0
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    elapsed = clock() - start
    probes.append(probe.measure())
    half = PROBE_WINDOW // 2
    level = [statistics.median(probes[max(0, j - half):j + half + 1])
             for j in range(len(probes))]
    for rec in records:
        rec.probe = (level[rec.probe] + level[rec.probe + 1]) / 2
        rec.scaled = rec.latency * probe.ref_s / rec.probe
    return records, elapsed


class CliRunner:
    """Executes cli ops as fresh processes; keeps per-child trace data."""

    def __init__(self, workloads, workdir):
        self.wl = workloads
        self.workdir = workdir
        self.traced = None  # list of child summaries while tracing

    def __call__(self, op):
        argv, _ = op
        trace_out = None
        if self.traced is not None:
            trace_out = os.path.join(self.workdir,
                                     f"trace{len(self.traced)}.json")
        t0 = clock()
        stdout, stderr, code = self.wl.cli_run(argv, trace_out, CLI_TIMEOUT)
        wall = clock() - t0
        if trace_out is not None:
            with open(trace_out, encoding="utf-8") as handle:
                child = json.load(handle)
            os.remove(trace_out)
            child["wall_s"] = wall
            child["op"] = len(self.traced)
            self.traced.append(child)
        return self.wl.cli_output(stdout, stderr, code)


def check_records(wl, records, expected):
    """Independent checks on every output; hashes too at the default seed.
    Returns the list of failure messages."""
    failures = []
    for rec in records:
        problem = rec.error
        if problem is None:
            try:
                problem = wl.check(rec.op, rec.output)
            except Exception as exc:  # a check that crashes is a failure
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and expected is not None:
            want = expected[rec.round % len(expected)][rec.index]
            if digest(rec.output) != want:
                problem = "output hash differs from perfbench/expected.json"
        if problem is not None:
            failures.append(f"{wl.label(rec.op)} round {rec.round} "
                            f"op {rec.index}: {problem}")
    return failures


# -- metrics ------------------------------------------------------------------

def tail(latencies, top):
    """Latency at the highest listed percentile, at most ``top``, with at
    least 10 ops beyond it. Returns (latency, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if pct <= top and n * (100 - pct) / 100 >= 10:
            rank = max(1, math.ceil(pct * n / 100 - 1e-9))  # nearest rank
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def p50(latencies):
    """Median, taken as the mean of the latencies from p45 to p55: a
    round holds few ops of each kind, so the plain median jumps between
    two neighbouring kinds' latencies as the seed shifts a rank or two."""
    ordered = sorted(latencies)
    n = len(ordered)
    lo = int(n * 0.45)
    return statistics.fmean(ordered[lo:max(lo + 1, math.ceil(n * 0.55))])


def rate(records):
    """Ops per second of op time at the reference speed."""
    return len(records) / math.fsum(rec.scaled for rec in records)


def end_to_end(records, setup_s, peak_rss_mb, top):
    lat = [rec.scaled for rec in records]
    tail_s, _ = tail(lat, top)
    return {
        "ops_per_s": metric(rate(records), "1/s"),
        "latency_p50_ms": metric(p50(lat) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(summary, ops, extra):
    layers, edges = summary["layers"], summary["edges"]
    out = {}
    for name in LAYERS:
        calls, own = layers.get(name, (0, 0.0))
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_s"] = metric(own, "s")
    out["linalg.max_entry_bits"] = metric(summary["max_bits"], "bits")
    counts = [v for k, v in edges.items() if k.startswith("kostant.count<")]
    calls = sum(v[0] for v in counts)
    out["kostant.count.nonzero_ratio"] = metric(
        sum(v[2] for v in counts) / calls if calls else 0.0, "ratio")
    weyl = edges.get("kostant.count<sections.h0_mult", (0, 0.0, 0))
    out["sections.weyl_terms"] = metric(weyl[0], "count")
    out["sections.weyl_terms_nonzero"] = metric(weyl[2], "count")
    out["sections.weyl_useful_ratio"] = metric(
        weyl[2] / weyl[0] if weyl[0] else 0.0, "ratio")
    out["orbits.centralizer_basis.calls_per_op"] = metric(
        layers.get("orbits.centralizer_basis", (0, 0.0))[0] / ops, "count")
    out.update(extra)
    return out


def cli_layer_extra(children, untraced):
    """cli.* metrics from the traced children and the untraced latencies."""
    extra = {}
    if children:
        extra["cli.import_s"] = metric(
            statistics.median(c["import_s"] for c in children), "s")
        extra["cli.process_s"] = metric(statistics.median(
            c["wall_s"] - c["import_s"] - c["run_s"] for c in children), "s")
    else:
        extra["cli.import_s"] = metric(0.0, "s")
        extra["cli.process_s"] = metric(0.0, "s")
    for cmd in CLI_COMMANDS:
        lat = [rec.scaled for rec in untraced
               if isinstance(rec.op[0], tuple) and rec.op[0][0] == cmd]
        extra[f"cli.{cmd}.p50_ms"] = metric(
            statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    return extra


# -- main ---------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("orbits", "sections", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def trace_rounds(wl, pool, runner, kostant):
    """Repeat the workload's first rounds with the layer tracer installed.
    Returns (records, merged summary, spans, memo entries)."""
    if wl.name == "cli":
        runner.traced = []
        records, _ = run_rounds(pool, runner, rounds=wl.trace_rounds,
                                probe=PROBES[wl.probe])
        children = runner.traced
        spans = [s[:4] + [child["op"]] + s[5:]
                 for child in children for s in child["spans"]]
        return (records, tracer.merge(children), spans,
                max(c["memo_entries"] for c in children))
    t = tracer.Tracer().install()
    try:
        records, _ = run_rounds(pool, runner, rounds=wl.trace_rounds,
                                traced_by=t)
    finally:
        t.uninstall()
    return (records, t.summary(), t.spans(),
            tracer.memo_entries(kostant))


def write_outputs(stem, record, spans):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans:
        with open(os.path.join(OUT, f"spans-{stem}.jsonl"), "w",
                  encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def run(args, workdir):
    import workloads
    from exoticcone import kostant

    wl = workloads.WORKLOADS[args.workload]
    env = environment(args)
    child_env = workloads.cli_env()
    if not args.trace:
        measure_setup(child_env, 1)  # warms the file and .pyc caches
        setup = measure_setup(child_env, SETUP_REPEATS)
    pool = wl.make_pool(args.seed, wl.pool_rounds, workdir)
    runner = CliRunner(workloads, workdir) if wl.name == "cli" \
        else wl.execute

    warmup, _ = run_rounds(pool, runner, rounds=wl.warmup_rounds) \
        if wl.warmup_rounds else ([], 0.0)
    records, elapsed = run_rounds(
        pool, runner, seconds=args.seconds / 2 if args.trace else args.seconds,
        probe=PROBES[wl.probe])
    if args.trace:
        traced, summary, spans, memo = trace_rounds(
            wl, pool, runner, kostant)
    else:
        peak_rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if wl.name == "cli"
            else resource.RUSAGE_SELF).ru_maxrss
        setup_s = statistics.median(
            setup + measure_setup(child_env, SETUP_REPEATS))
        traced, spans, summary = [], [], None

    expected = None
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED, encoding="utf-8") as handle:
            expected = json.load(handle)[wl.name]
    failures = check_records(wl, warmup + records + traced, expected)
    if summary is not None and summary["residual"] > RESIDUAL_LIMIT:
        failures.append(f"self times miss an op's traced duration by "
                        f"{summary['residual']:.3g} s")

    if args.trace:
        extra = cli_layer_extra(runner.traced, records) \
            if wl.name == "cli" else cli_layer_extra([], [])
        extra["kostant.memo_entries"] = metric(memo, "count")
        extra["trace.ops_per_s"] = metric(rate(traced), "1/s")
        extra["trace.overhead_ops_per_s"] = metric(
            rate(traced) - rate(records), "1/s")
        metrics = per_layer(summary, len(traced), extra)
    else:
        metrics = end_to_end(records, setup_s, peak_rss_kb / 1024,
                             wl.tail_percentile)

    attempted = len(warmup) + len(records) + len(traced)
    labels = sorted({wl.label(rec.op) for rec in records})
    record = {
        "environment": env,
        "metrics": metrics,
        "ops": len(records),
        "rounds": records[-1].round + 1,
        "elapsed_s": elapsed,
        "tail_percentile": tail([rec.scaled for rec in records],
                                wl.tail_percentile)[1],
        "error_rate": len(failures) / attempted,
        "failures": failures[:50],
        # the same, unscaled, and the probe's spread: the host's speed
        "wall": {
            "ops_per_s": len(records) / math.fsum(rec.latency
                                                  for rec in records),
            "latency_p50_ms": p50([rec.latency for rec in records]) * 1e3,
        },
        "probe_ms": {
            "min": min(rec.probe for rec in records) * 1e3,
            "median": statistics.median(rec.probe for rec in records) * 1e3,
            "max": max(rec.probe for rec in records) * 1e3,
        },
        "latency_ms_by_kind": {
            label: statistics.median(rec.scaled * 1e3 for rec in records
                                     if wl.label(rec.op) == label)
            for label in labels
        },
    }
    write_outputs(f"{wl.name}-seed{args.seed}-trace{args.trace}", record,
                  spans)

    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in
                      ("environment", "ops", "rounds", "tail_percentile",
                       "error_rate", "wall", "probe_ms")}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    # One CPU for the benchmark and every process it starts, so that the
    # probe measures the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
