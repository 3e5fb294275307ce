"""One table of CLI rows, run in process by tier-1 and in fresh processes
by CI. A row is an argv, its expected exit code (0 or 1) and, for exit 1,
its error line. A dict (written as JSON) or bytes in the argv is a pair
document: each runner writes it to a temporary file and passes the path,
which ``{file}`` stands for in the error line. Both runners apply one
check (``problem``) within ``BUDGET`` seconds a row:

- exit 0: stdout is not empty and stderr is. ``mult --route both`` and
  ``sweep`` exit 2 when the routes disagree or a cell fails;
- exit 1: stdout is empty and stderr is one line, starting ``error: ``,
  equal to the row's line. Only a usage error's culprit (``Naming``) and
  a message whose text comes from the interpreter (``Prefix``) stand in
  for the whole line. Rows that depend on the interpreter are built from
  it.

Rows are added as commands become bounded or gain a refusal; none is
removed, and no bound is raised. ``python tests/test_caps_edge.py`` runs
every row as a fresh ``python -m exoticcone`` process of the checkout
(``src`` first on ``PYTHONPATH``) under a ``BUDGET`` timeout, refuses a
Traceback on stderr, prints each failing row and exits 1 if any fails.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

# seconds per row, in process and as a fresh process
BUDGET = 10.0
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Row(NamedTuple):
    argv: tuple
    code: int
    line: str | None = None


class Naming(str):
    """An error line given by a name it must hold."""


class Prefix(str):
    """An error line given by its start."""


def _matches(want: str, got: str) -> bool:
    if isinstance(want, Naming):
        return want in got
    if isinstance(want, Prefix):
        return got.startswith(want)
    return got == want


# (6,1 | 1) is the slowest representative at n = 8; (8 | ∅) and (∅ | 1^8)
# are the two ends of the poset
EDGE_BIPARTITIONS = [("[6,1]", "[1]"), ("[8]", "[]"),
                     ("[]", "[1,1,1,1,1,1,1,1]")]

# rep(5,1,1 | 1) and rep(6,1 | 1) conjugated by random_symplectic(space, 7):
# dense n = 8 pairs, paths relative to the root of the repository; the
# second again without its form, which adapted then solves for
DENSE_PAIR = "tests/data/pair_n8_conj.json"
DENSE_PAIR_61 = "tests/data/pair_n8_conj_61.json"
DENSE_PAIR_61_NO_FORM = "tests/data/pair_n8_conj_61_no_form.json"

ANSWERS = [
    ("poset", "--n", "8"),
    ("poset", "--n", "8", "--dot"),
    *[(command, "--mu", mu, "--nu", nu)
      for command in ("representative", "filtration-dims", "phic", "collapse")
      for mu, nu in EDGE_BIPARTITIONS],
    # rank_cap is 8 and no cap bounds the entries
    ("bwb", "--lambda", "[-1000000,1000000,-999999,999999,-999998,999998,"
                        "-999997,999997]"),
    ("orbit-identify", "--file", DENSE_PAIR),
    ("adapted", "--file", DENSE_PAIR),
    ("orbit-identify", "--file", DENSE_PAIR_61),
    ("adapted", "--file", DENSE_PAIR_61),
    ("adapted", "--file", DENSE_PAIR_61_NO_FORM),
    # one of each command
    ("--help",),
    *[("adapted", "--file", f"tests/data/pair_{name}.json")
      for name in ("n6", "n5_conj")],
    ("mult", "--mu", "[2,1,0]", "--lambda", "[1,0,0]", "--route", "both"),
    *[(command, "--mu", "[2,1]", "--nu", "[1]")
      for command in ("filtration-dims", "phic", "collapse")],
    ("weights", "--mu", "[2,1,0]"),
    *[("bwb", "--lambda", lam) for lam in ("[-5,1,0]", "[-1,-3]", "[-2,1]")],
    ("poset", "--n", "4"),
    ("representative", "--mu", "[1,1]", "--nu", "[1]"),
    # the routes agree at rank 5, and the sweep passes up to n = 4
    ("mult", "--mu", "[2,1,1,0,0]", "--lambda", "[1,0,0,0,0]", "--route",
     "both"),
    ("sweep", "--n", "4", "--bound", "3"),
    ("sweep", "--n", "3", "--bound", "4"),
    *[("sweep", "--n", n, "--bound", "3") for n in ("1", "2", "3")],
    # a partition count from cold memos in a fresh process
    ("kostant", "--kind", "p'", "--mu", "[6,0,0,0,0,0]"),
]


def _rank(value) -> str:
    return f"error: n={value} exceeds rank_cap=8 (config knob: rank_cap)"


def _degree(what: str, value, cap: int = 12) -> str:
    return (f"error: {what}={value} exceeds degree_cap={cap} "
            "(config knob: degree_cap)")


def _dense_pair(n: int) -> dict:
    # a zero pair under a dense antisymmetric form
    d = 2 * n
    return {"n": n, "v": [0] * d, "x": [[0] * d] * d,
            "omega": [[((i * j + i + j) % 7 + 1) * ((i < j) - (i > j))
                       for j in range(d)] for i in range(d)]}


def _pair_commands(doc, line: str) -> list:
    return [Row((command, "--file", doc), 1, line)
            for command in ("orbit-identify", "adapted")]


NOT_SELF_ADJOINT = "error: x is not self-adjoint for the supplied form"
# a misspelt "omega" is refused, not read as a pair without a form
UNKNOWN_KEY = {"n": 2, "v": [1, 0, 0, 0],
               "x": [[0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
               "omgea": [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0],
                         [-1, 0, 0, 0]]}
# Fraction(str) also reads exponents, decimals, spaces, underscores, a
# plus sign and non-ASCII digits; "1e5000" once passed the digit limit of
# a written-out int and ended in a Traceback when it was printed
NOT_P_OVER_Q = ("1e5000", "0.5", " 1", "1_000", "+2", "\u0663", "1/-2")
NESTED = "[" * 100_000

REFUSALS = [
    Row((), 1, Naming("command")),
    Row(("frob",), 1, Naming("'frob'")),
    Row(("poset", "--n", "2", "--frob", "1"), 1, Naming("--frob")),
    # no prefix abbreviations: --lam is not --lambda
    Row(("mult", "--mu", "[1,0]", "--lam", "[0,0]"), 1, Naming("--lam")),
    Row(("poset", "--n"), 1, Naming("--n")),
    Row(("mult", "--mu", "[1,0]"), 1, Naming("--lambda")),
    Row(("poset", "--n", "x"), 1, Naming("--n")),
    Row(("--rank-cap", "x", "poset", "--n", "2"), 1, Naming("--rank-cap")),
    Row(("kostant", "--kind", "q", "--mu", "[1]"), 1, Naming("--kind")),
    Row(("poset", "--n", "2", "--dot=1"), 1, Naming("--dot")),
    Row(("poset", "--n", "2", "extra"), 1, Naming("'extra'")),
    Row(("bwb", "--lambda", NESTED), 1,
        Prefix("error: malformed JSON for lambda: ")),
    *[Row((command, "--file", NESTED.encode()), 1,
          Prefix("error: malformed JSON for {file}: "))
      for command in ("orbit-identify", "adapted")],
    *_pair_commands({"n": 1, "v": [1, 0], "x": [[1, 0], [0, 0]]},
                    "error: x is not nilpotent"),
    *_pair_commands(UNKNOWN_KEY, "error: pair document has an unknown key "
                    "'omgea'; the keys are n, v, x and omega"),
    *_pair_commands({**{k: v for k, v in UNKNOWN_KEY.items()
                        if k != "omgea"}, "omega": UNKNOWN_KEY["omgea"]},
                    NOT_SELF_ADJOINT),
    *[row for entry in NOT_P_OVER_Q for row in _pair_commands(
        {"n": 2, "v": [0, 1, 0, 0],
         "x": [[0, entry, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]},
        f"error: not an exact rational: {entry!r}")],
    # the form is solved before the orbit, so a Jordan type that is not
    # doubled is refused by the solve
    Row(("adapted", "--file",
         {"n": 2, "v": [1, 0, 0, 0],
          "x": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}),
        1, "error: no invertible invariant form (Jordan type not doubled)"),
    *_pair_commands({"n": 1, "v": [1, 0], "x": [[0, 1], [0, 0]],
                     "omega": [[0, 1], [-1, 0]]}, NOT_SELF_ADJOINT),
    # invertible and antisymmetric off the diagonal: only the diagonal
    # test refuses it
    *_pair_commands({"n": 1, "v": [1, 0], "x": [[0, 0], [0, 0]],
                     "omega": [[1, 1], [-1, 0]]},
                    "error: Gram matrix must be antisymmetric"),
    # n is checked before the Gram determinant of a dense form
    *_pair_commands(_dense_pair(9), _rank(9)),
    *_pair_commands(_dense_pair(200), _rank(200)),
    Row(("poset", "--n", "99"), 1, _rank(99)),
    Row(("poset", "--n", "9"), 1, _rank(9)),
    Row(("phic", "--mu", "[5,5]", "--nu", "[]"), 1, _rank(10)),
    Row(("sweep", "--n", "2", "--bound", "99"), 1, _degree("bound", 99)),
    Row(("sweep", "--n", "2", "--bound", "-1"), 1,
        "error: bound must be nonnegative"),
    *[Row(argv, 1, _degree(what, value, *cap)) for argv, what, value, *cap in (
        (("kostant", "--kind", "p'", "--mu", "[40,0,0,0,0,0,0,0]"), "|mu|",
         40),
        (("kostant", "--kind", "p", "--mu", "[-7,7]"), "|mu|", 14),
        (("mult", "--mu", "[13,0]", "--lambda", "[0,0]"), "|mu|", 13),
        (("mult", "--mu", "[1,0]", "--lambda", "[-7,6]"), "|lambda|", 13),
        (("--degree-cap", "3", "weights", "--mu", "[2,2]"), "|mu|", 4, 3))],
    Row(("mult", "--n", "3", "--mu", "[1,0]", "--lambda", "[0,0]"), 1,
        "error: --n 3 does not match len(mu)=2"),
    *[Row(("mult", "--mu", mu, "--lambda", lam, *route), 1,
          "error: rank mismatch")
      for mu, lam, route in (("[1]", "[0,0]", ()),
                             ("[1]", "[0,0]", ("--route", "a")),
                             ("[1,0]", "[1]", ("--route", "both")),
                             ("[1,0]", "[0,0,0]", ("--route", "b")))],
    Row(("phic", "--mu", "[1,2]", "--nu", "[]"), 1,
        "error: not a partition: (1, 2)"),
]

DIGITS = getattr(sys, "get_int_max_str_digits", int)()
if DIGITS:
    # a JSON int one digit past the interpreter's int-string limit
    over = "1" + "0" * DIGITS
    try:
        int(over)
    except ValueError as exc:
        too_long = str(exc)
    REFUSALS += [
        Row(("bwb", "--lambda", f"[{over}]"), 1,
            f"error: malformed JSON for lambda: {too_long}"),
        Row(("orbit-identify", "--file",
             f'{{"n": 1, "v": [{over}, 0], "x": [[0, 0], [0, 0]]}}'.encode()),
            1, f"error: malformed JSON for {{file}}: {too_long}"),
    ]
    # two JSON ints within the limit whose sum is past it: the refusal
    # names the sum by its bit length, where str() of it would raise
    big = "9" * DIGITS
    twice = f"[{big},{big}]"
    bits = f"a {(2 * int(big)).bit_length()}-bit integer"
    REFUSALS += [
        *[Row((command, "--mu", twice, "--nu", "[]"), 1, _rank(bits))
          for command in ("phic", "collapse", "filtration-dims",
                          "representative")],
        *[Row(argv, 1, _degree(what, bits)) for argv, what in (
            (("kostant", "--kind", "p", "--mu", twice), "|mu|"),
            (("mult", "--mu", twice, "--lambda", "[0,0]"), "|mu|"),
            (("mult", "--mu", "[0,0]", "--lambda", twice), "|lambda|"),
            (("weights", "--mu", twice), "|mu|"))],
    ]

ROWS = [Row(argv, 0) for argv in ANSWERS] + REFUSALS


def label(argv) -> str:
    """The row's arguments on one line, each long one cut short."""
    words = []
    for arg in argv:
        if not isinstance(arg, str):
            arg = arg.decode() if isinstance(arg, bytes) else json.dumps(
                arg, separators=(",", ":"))
        words.append(arg if len(arg) <= 80 else f"{arg[:72]}...")
    return " ".join(words)


def problem(row: Row, code: int, out: str, err: str, elapsed: float,
            path: str | None = None) -> str | None:
    """Why one run of the row fails, or None when it passes. path is the
    file the row's document was written to."""
    if elapsed >= BUDGET:
        return f"took {elapsed:.2f} s, over the {BUDGET} s budget"
    if code != row.code:
        return f"exit {code}, expected {row.code}; stderr {err[-500:]!r}"
    if row.code == 0:
        return None if out and not err else f"stderr {err[-500:]!r}"
    if out:
        return f"exit 1 with stdout {out[:80]!r}"
    if err.count("\n") != 1 or not err.endswith("\n"):
        return f"stderr is not one line: {err[-500:]!r}"
    got = err[:-1] if path is None else err[:-1].replace(path, "{file}")
    if not got.startswith("error: ") or not _matches(row.line, got):
        return f"error line {got[:300]!r}, expected {row.line[:300]!r}"
    return None


def _write_documents(argv, folder: str) -> tuple[list, str | None]:
    """argv with its document written under folder, and the file's path."""
    args, path = [], None
    for arg in argv:
        if isinstance(arg, (dict, bytes)):
            path = os.path.join(folder, "pair.json")
            with open(path, "wb") as handle:
                handle.write(arg if isinstance(arg, bytes)
                             else json.dumps(arg).encode())
            arg = path
        args.append(arg)
    return args, path


def _run_in_process(row: Row, folder: str) -> str | None:
    # imported here, so that the process runner below needs no installed
    # package in its own interpreter
    from exoticcone.cli import run

    args, path = _write_documents(row.argv, folder)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(args)
    elapsed = time.perf_counter() - start
    return problem(row, code, out.getvalue(), err.getvalue(), elapsed, path)


@pytest.mark.parametrize("row", [row for row in ROWS if row.code == 0],
                         ids=lambda row: label(row.argv))
def test_caps_edge_row_exits_0_within_the_budget(row, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run_in_process(row, str(tmp_path)) is None


@pytest.mark.parametrize("row", [row for row in ROWS if row.code == 1],
                         ids=lambda row: label(row.argv))
def test_row_exits_1_with_its_error_line(row, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run_in_process(row, str(tmp_path)) is None


def _run_process(row: Row, folder: str, env: dict) -> str | None:
    args, path = _write_documents(row.argv, folder)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "exoticcone", *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=BUDGET)
    except subprocess.TimeoutExpired:
        return f"killed after the {BUDGET} s budget"
    elapsed = time.perf_counter() - start
    if "Traceback" in proc.stderr:
        return f"Traceback on stderr: {proc.stderr[-500:]!r}"
    return problem(row, proc.returncode, proc.stdout, proc.stderr, elapsed,
                   path)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))}
    failed = 0
    with tempfile.TemporaryDirectory() as folder:
        for row in ROWS:
            reason = _run_process(row, folder, env)
            if reason is not None:
                failed += 1
                print(f"FAIL exit {row.code}: {label(row.argv)}: {reason}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
