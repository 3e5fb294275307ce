"""The benchmark's three workloads: inputs made from a seed, one operation
at a time, and the checks each operation's output must pass.

A workload is a list of rounds. Every round holds the same operation kinds
at the same ranks in the same order; the seed only picks the concrete
inputs (conjugating group elements, weights, bipartitions). ``make_pool``
builds a fixed number of distinct rounds before any timing; a run that
needs more rounds cycles through the pool.

``execute`` returns the operation's output as canonical JSON text (for
``cli``: stdout, the exit code and whether stderr holds a traceback);
``check`` returns None when that output passes the workload's independent
checks, else a message.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from typing import Callable, NamedTuple

import exoticcone.cli  # noqa: F401  (loaded so tracing can wrap cli.run)
from exoticcone import bipartitions, characters, orbits, rootdata, sections
from exoticcone.bipartitions import bipartition, enumerate_Q
from exoticcone.errors import EXIT_DOMAIN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIR_FILES = tuple(os.path.join("tests", "data", name)
                   for name in ("pair_n6.json", "pair_n6_with_form.json"))
PAIR_FILE_ORBIT = bipartition((1, 1, 1), (3,))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _b_json(b) -> dict:
    return {"mu": list(b.mu), "nu": list(b.nu)}


# -- orbits -------------------------------------------------------------------

ORBIT_REP_RANKS = (1, 2, 3, 4)
# (rank, conjugates of each orbit per round). The small ranks are cheap;
# their copies make a round 67 ops, so that three rounds already have 10
# ops beyond p95, and put the median inside a dense band of latencies
# instead of at a gap between two.
ORBIT_CONJ_COPIES = ((1, 2), (2, 3), (3, 1))
ORBIT_CONJ_N4 = (bipartition((1, 1), (1, 1)),)
# Round r runs its ops in an order shuffled by this seed and r alone, so
# the cheap ops, on which the central latency rests, are spread over the
# round instead of sampling the host's speed in one burst.
ORBIT_ORDER_SEED = "orbits-order"


def _orbit_pool(seed: int, rounds: int, workdir: str) -> list:
    """Ops are (kind, orbit, pair document), as ``adapted --file`` reads."""
    rng = random.Random(seed)
    reps = {b: orbits.representative(b)
            for n in ORBIT_REP_RANKS for b in enumerate_Q(n)}
    for b in ORBIT_CONJ_N4:
        reps.setdefault(b, orbits.representative(b))
    conj_kinds = [b for n, copies in ORBIT_CONJ_COPIES
                  for b in enumerate_Q(n) for _ in range(copies)]
    conj_kinds += ORBIT_CONJ_N4
    pool = []
    for r in range(rounds):
        ops = [("rep", b, orbits.pair_to_json(reps[b]))
               for n in ORBIT_REP_RANKS for b in enumerate_Q(n)]
        for b in conj_kinds:
            rep = reps[b]
            g = orbits.random_symplectic(rep.space, rng.randrange(1 << 30))
            ops.append(("conj", b,
                        orbits.pair_to_json(orbits.conjugate_pair(rep, g))))
        random.Random(f"{ORBIT_ORDER_SEED}/{r}").shuffle(ops)
        pool.append(ops)
    return pool


def _orbit_execute(op) -> str:
    """What ``adapted --file`` computes for a pair that carries its form."""
    pair = orbits.pair_from_json(op[2])
    b = orbits.orbit_of(pair)
    filt = orbits.adapted_filtration(pair)
    verified = orbits.verify_adapted(filt, pair, b)
    subspaces = {
        str(a): [[orbits.rational_to_json(x) for x in row] for row in sub]
        for a, sub in filt.as_dict().items()
    }
    return _dumps({"orbit": _b_json(b), "verified": verified,
                   "subspaces": subspaces})


def _orbit_check(op, out):
    _, b, _ = op
    doc = json.loads(out)
    if doc["orbit"] != _b_json(b):
        return f"classified as {doc['orbit']}, built in {_b_json(b)}"
    if doc["verified"] is not True:
        return "adapted filtration failed verification"
    return None


def _orbit_label(op) -> str:
    kind, b, _ = op
    return f"{kind}:n{b.size}"


# -- sections -----------------------------------------------------------------

SECTION_DEGREE = 4
# (kind, rank, count per round)
SECTION_KINDS = (("cell", 5, 4), ("cell", 4, 16),
                 ("weight", 5, 2), ("weight", 4, 8))


def _window(n: int) -> list:
    return [mu for k in range(SECTION_DEGREE + 1)
            for mu in sections.dominant_weights_of_degree(n, k)]


def _sections_pool(seed: int, rounds: int, workdir: str) -> list:
    """Each kind walks seed-shuffled cycles over all its inputs in the
    window (cells: every (mu, lam); queries: every dominant weight lam of
    every V_mu), so by the end of the pool every seed has filled the memo,
    kept warm across ops, with the same entries; the seed picks the order.
    Each kind has its own generator, so round r does not depend on the
    pool size."""
    streams = []
    for kind, n, count in SECTION_KINDS:
        rng = random.Random(f"{seed}/{kind}/{n}")
        window = _window(n)
        if kind == "cell":
            items = [(mu, lam) for mu in window for lam in window]
        else:
            items = [(mu, lam) for mu in window
                     for lam in characters.dominant_cone_weights(mu)
                     if (sum(mu) - sum(lam)) % 2 == 0]
        order = []
        while len(order) < rounds * count:
            rng.shuffle(items)
            order.extend(items)
        streams.append((kind, count, iter(order)))
    return [[(kind, *next(stream)) for kind, count, stream in streams
             for _ in range(count)] for _ in range(rounds)]


def _sections_execute(op) -> str:
    kind, mu, lam = op
    if kind == "cell":
        # one cell of ``sweep``: both routes and the support test
        return _dumps([sections.h0_mult(mu, lam),
                       sections.h0_mult_subsets(mu, lam),
                       rootdata.in_conv(lam, mu)])
    return _dumps([characters.weight_mult(mu, lam),
                   characters.weight_mult_oracle(mu, lam)])


def _sections_check(op, out):
    kind, mu, lam = op
    values = json.loads(out)
    if kind == "cell":
        a, b, inside = values
        if a != b:
            return f"route A {a} != route B {b}"
        if a < 0:
            return f"negative multiplicity {a}"
        if a and not inside:
            return f"multiplicity {a} outside the hull"
        return None
    weyl, freudenthal = values
    if weyl != freudenthal:
        return f"Weyl sum {weyl} != Freudenthal {freudenthal}"
    return None


def _sections_label(op) -> str:
    kind, mu, _ = op
    return f"{kind}:n{len(mu)}"


# -- cli ----------------------------------------------------------------------

CLI_SWEEP = ("sweep", "--n", "3", "--bound", "4")
CLI_IDENTIFY_ORBIT = bipartition((2,), (1,))
# three generated pairs beside the two committed files: with them the
# p90 tail sits inside the band of adapted latencies, not at its edge
CLI_ADAPTED_ORBITS = (bipartition((2,), (1,)), bipartition((1,), (2,)),
                      bipartition((3,), ()))
MALFORMED_PAIR = '{"n": 2, "v": [1, 0,'


def _small_weight(rng, n, lo, hi):
    return [rng.randint(lo, hi) for _ in range(n)]


def _cli_pool(seed: int, rounds: int, workdir: str) -> list:
    """Rounds of (argv, expectation); pair files go under ``workdir``,
    which the argv names relative to the checkout root."""
    rng = random.Random(seed)
    window3, window4 = ([mu for k in range(4)
                         for mu in sections.dominant_weights_of_degree(n, k)]
                        for n in (3, 4))
    q3, q4 = enumerate_Q(3), enumerate_Q(4)
    reps = {b: orbits.representative(b)
            for b in (CLI_IDENTIFY_ORBIT,) + CLI_ADAPTED_ORBITS}
    os.makedirs(workdir, exist_ok=True)
    workdir = os.path.relpath(workdir, ROOT)
    bad_pair = os.path.join(workdir, "malformed.json")
    with open(os.path.join(ROOT, bad_pair), "w", encoding="utf-8") as handle:
        handle.write(MALFORMED_PAIR)

    def pair_file(name, b, with_form):
        rep = reps[b]
        g = orbits.random_symplectic(rep.space, rng.randrange(1 << 30))
        doc = orbits.pair_to_json(orbits.conjugate_pair(rep, g))
        if not with_form:
            del doc["omega"]
        path = os.path.join(workdir, f"{name}.json")
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def arr(values):
        return json.dumps(list(values), separators=(",", ":"))

    def b_args(b):
        return ("--mu", arr(b.mu), "--nu", arr(b.nu))

    pool = []
    for r in range(rounds):
        ident = pair_file(f"identify{r}", CLI_IDENTIFY_ORBIT, with_form=False)
        adapt = [pair_file(f"adapted{r}_{i}", b, with_form=True)
                 for i, b in enumerate(CLI_ADAPTED_ORBITS)]
        mu, lam = rng.choice(window3), rng.choice(window3)
        # (argv, expectation): an orbit for pair commands, EXIT_DOMAIN for
        # inputs that must be refused, None otherwise
        ops = [
            (("orbit-identify", "--file", PAIR_FILES[0]), PAIR_FILE_ORBIT),
            (("orbit-identify", "--file", PAIR_FILES[1]), PAIR_FILE_ORBIT),
            (("adapted", "--file", PAIR_FILES[0]), PAIR_FILE_ORBIT),
            (("adapted", "--file", PAIR_FILES[1]), PAIR_FILE_ORBIT),
            (("orbit-identify", "--file", ident), CLI_IDENTIFY_ORBIT),
            *((("adapted", "--file", path), b)
              for path, b in zip(adapt, CLI_ADAPTED_ORBITS)),
            (CLI_SWEEP, None),
            (("mult", "--mu", arr(mu), "--lambda", arr(lam),
              "--route", "both"), None),
            (("mult", "--mu", arr(rng.choice(window4)),
              "--lambda", arr(rng.choice(window4))), None),
            (("kostant", "--kind", "p",
              "--mu", arr(_small_weight(rng, 3, -1, 2))), None),
            (("kostant", "--kind", "p'",
              "--mu", arr(_small_weight(rng, 3, -1, 2))), None),
            (("bwb", "--lambda", arr(_small_weight(rng, 3, -3, 3))), None),
            (("bwb", "--lambda", arr(_small_weight(rng, 4, -4, 4))), None),
            (("weights", "--mu", arr(rng.choice(window3))), None),
            (("poset", "--n", "4"), None),
            (("poset", "--n", "3", "--dot"), None),
            (("phic",) + b_args(rng.choice(q4)), None),
            (("collapse",) + b_args(rng.choice(q4)), None),
            (("filtration-dims",) + b_args(rng.choice(q4)), None),
            (("representative",) + b_args(rng.choice(q3)), None),
            (("representative",) + b_args(rng.choice(q4)), None),
            (("mult", "--mu", "[1,0,0", "--lambda", "[0,0,0]"), EXIT_DOMAIN),
            (("poset", "--n", "9"), EXIT_DOMAIN),
            (("orbit-identify", "--file", bad_pair), EXIT_DOMAIN),
        ]
        pool.append(ops)
    return pool


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("EXOTICCONE_CONFIG", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def cli_run(argv, trace_out, timeout):
    """One fresh CLI process; traced through the benchmark's entry point
    when ``trace_out`` is given. Returns (stdout, stderr, exit code)."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "exoticcone", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"),
               trace_out, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True,
                          timeout=timeout)
    return proc.stdout.decode(), proc.stderr.decode(), proc.returncode


def cli_output(stdout: str, stderr: str, code: int) -> str:
    """What a cli op is judged on: stdout, the exit code, and whether
    stderr holds a traceback (a crash also exits 1)."""
    return _dumps({"stdout": stdout, "exit": code,
                   "traceback": "Traceback" in stderr})


def _pair_from(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        return orbits.pair_from_json(json.load(handle))


def _brute_count(target, summands) -> int:
    """Partition count by plain recursion over summand multiplicities."""
    if not summands:
        return int(not any(target))
    first, rest = summands[0], summands[1:]
    total = 0
    residual = list(target)
    while True:
        total += _brute_count(residual, rest)
        residual = [a - b for a, b in zip(residual, first)]
        running = 0
        for c in residual:
            running += c
            if running < 0:
                return total


def _bwb_direct(lam):
    """bwb by trying every signed permutation."""
    shifted = [a + b for a, b in zip(lam, rootdata.rho(len(lam)))]
    for w in rootdata.signed_permutations(len(lam)):
        img = w.act(shifted)
        if all(img[i] > img[i + 1] for i in range(len(img) - 1)) \
                and img[-1] > 0:
            return {"zero": False, "sign": w.sign(),
                    "mu": [a - b for a, b in
                           zip(img, rootdata.rho(len(lam)))]}
    return {"zero": True}


def _cli_check(op, out):
    argv, expect = op
    doc = json.loads(out)
    stdout, code = doc["stdout"], doc["exit"]
    cmd, args = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if doc["traceback"]:
        return "traceback on stderr"
    if expect == EXIT_DOMAIN:
        return None if code == EXIT_DOMAIN and not stdout else \
            f"expected exit {EXIT_DOMAIN} and no output, got {code}"
    if code != 0:
        return f"exit code {code}"
    if cmd == "poset" and "--dot" in argv:
        expect = bipartitions.emit_dot(int(args["--n"]))
        return None if stdout.rstrip("\n") == expect else "dot output differs"
    res = json.loads(stdout)
    if cmd in ("orbit-identify", "adapted"):
        if {"mu": res["mu"], "nu": res["nu"]} != _b_json(expect):
            return f"orbit {res['mu']}|{res['nu']}, built in {expect}"
        if cmd == "adapted":
            return _check_filtration(res, _pair_from(args["--file"]), expect)
        return None
    if cmd == "sweep":
        n, bound = int(args["--n"]), int(args["--bound"])
        cells = sum(len(sections.dominant_weights_of_degree(n, k))
                    for k in range(bound + 1)) ** 2
        return None if res == {"n": n, "bound": bound, "cells": cells,
                               "violations": [], "ok": True} \
            else "sweep report differs"
    if cmd == "mult":
        if "b" not in res:  # route A only: compare with route B here
            res["b"] = sections.h0_mult_subsets(
                tuple(json.loads(args["--mu"])),
                tuple(json.loads(args["--lambda"])))
            res["agree"] = True
        return None if res["a"] == res["b"] and res["agree"] is True \
            else "routes disagree"
    if cmd == "kostant":
        mu = json.loads(args["--mu"])
        data = rootdata.root_data(len(mu))
        summands = data.positive_roots if args["--kind"] == "p" \
            else data.exotic_weights
        want = _brute_count(mu, list(summands))
        return None if res == {"value": want} else \
            f"count {res}, brute force {want}"
    if cmd == "bwb":
        want = _bwb_direct(json.loads(args["--lambda"]))
        return None if res == want else f"bwb {res}, direct {want}"
    if cmd == "weights":
        mu = tuple(json.loads(args["--mu"]))
        if res["dim"] != characters.weyl_dim(mu):
            return "dimension differs from the Weyl formula"
        for w, m in res["entries"]:
            if rootdata.is_dominant(w) and \
                    characters.weight_mult(mu, tuple(w)) != m:
                return f"multiplicity of {w} differs from the Weyl sum"
        return None
    b = bipartition(json.loads(args["--mu"]), json.loads(args["--nu"])) \
        if "--mu" in args and cmd != "poset" else None
    if cmd == "poset":
        n = int(args["--n"])
        nodes = [bipartition(x["mu"], x["nu"]) for x in res["nodes"]]
        if nodes != enumerate_Q(n):
            return "poset nodes differ"
        for lo, hi in res["edges"]:
            if lo == hi or not bipartitions.closure_leq(nodes[lo], nodes[hi]):
                return f"edge {lo}->{hi} is not in the closure order"
        return None
    if cmd == "phic":
        return None if res == {"lambda": list(bipartitions.phiC(b))} \
            else "phiC differs"
    if cmd == "collapse":
        c = bipartitions.collapse(b)
        return None if res == _b_json(c) and c.size == b.size \
            else "collapse differs"
    if cmd == "filtration-dims":
        profile = bipartitions.filtration_dims(b)
        want = {str(a): d for a, d in sorted(profile.items(), reverse=True)}
        return None if res == {"dims": want} else "profile differs"
    if cmd == "representative":
        pair = orbits.pair_from_json(res)
        if not orbits.in_exotic_cone(pair):
            return "representative is not in the exotic cone"
        return None if orbits.orbit_of(pair) == b else \
            "representative lies in another orbit"
    return f"no check for {cmd}"


def _check_filtration(res, pair, b):
    """Rebuild the reported filtration and verify it against the pair."""
    if res.get("verified") is not True:
        return "adapted filtration not verified"
    if res["omega_solved"]:
        omega = tuple(tuple(row) for row in orbits.to_mat(res["omega"]))
        pair = orbits.ExoticPair(v=pair.v, x=pair.x,
                                 space=orbits.SymplecticSpace(pair.n, omega))
    levels = sorted(
        (int(a), tuple(tuple(orbits.frac(x) for x in row) for row in rows))
        for a, rows in res["subspaces"].items()
    )
    filt = orbits.IsotropicFiltration(space=pair.space,
                                      subspaces=tuple(levels))
    if not orbits.verify_adapted(filt, pair, b):
        return "reported filtration fails verify_adapted"
    return None


def _cli_label(op) -> str:
    return op[0][0]


# -- registry -----------------------------------------------------------------

class Workload(NamedTuple):
    name: str
    make_pool: Callable    # (seed, rounds, workdir) -> list of rounds
    execute: Callable      # in-process ops only; cli ops run as processes
    check: Callable        # (op, output) -> None or a failure message
    label: Callable        # op -> its kind, for reports
    pool_rounds: int       # distinct rounds made per seed
    warmup_rounds: int     # rounds run (and checked) before timing
    probe: str             # run.PROBES entry that op times are scaled by
    trace_rounds: int      # rounds repeated under tracing
    # fixed, so the tail does not jump when the round count does; at most
    # the highest percentile a run of usual length has 10 ops beyond
    tail_percentile: float


WORKLOADS = {
    "orbits": Workload("orbits", _orbit_pool, _orbit_execute, _orbit_check,
                       _orbit_label, pool_rounds=6, warmup_rounds=0,
                       probe="loop", trace_rounds=1, tail_percentile=95.0),
    "sections": Workload("sections", _sections_pool, _sections_execute,
                         _sections_check, _sections_label, pool_rounds=36,
                         warmup_rounds=2, probe="loop", trace_rounds=12,
                         tail_percentile=95.0),
    "cli": Workload("cli", _cli_pool, None, _cli_check, _cli_label,
                    pool_rounds=8, warmup_rounds=0, probe="process",
                    trace_rounds=1,
                    tail_percentile=90.0),
}
