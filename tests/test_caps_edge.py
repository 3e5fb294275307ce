"""One table of CLI rows, run in process by tier-1 and in fresh processes
by CI. A row is an argv, its expected exit code (0 or 1) and what the run
prints: its stdout on exit 0, its error line on exit 1. A dict (written
as JSON) or bytes in the argv is a pair document: each runner writes it
to a temporary file and passes the path, which ``{file}`` stands for in
the error line. Both runners apply one check (``problem``) within
``BUDGET`` seconds a row:

- exit 0: stderr is empty, and stdout is the row's text and a newline,
  or has the row's ``Sha256``. ``mult --route both`` and ``sweep`` exit 2
  when the routes disagree or a cell fails;
- exit 1: stdout is empty and stderr is one line, starting ``error: ``,
  equal to the row's line. Only a usage error's culprit (``Naming``) and
  a message whose text comes from the interpreter (``Prefix``) stand in
  for the whole line. Rows that depend on the interpreter are built from
  it.

The in-process runner also checks the filtration that every ``adapted``
row prints in full (``check_adapted``), so a row's hash ties the output
of a fresh process to bytes that tier-1 has verified. Every pair file in
``tests/data``, as given and without its form, has a row on both pair
commands.

Rows are added as commands become bounded or gain a refusal; none is
removed, and no bound is raised. ``python tests/test_caps_edge.py`` runs
every row as a fresh ``python -m exoticcone`` process of the checkout
(``src`` first on ``PYTHONPATH``) under a ``BUDGET`` timeout, refuses a
Traceback on stderr, prints each failing row and exits 1 if any fails.
"""

import hashlib
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
DATA = os.path.join(ROOT, "tests", "data")
PAIR_COMMANDS = ("orbit-identify", "adapted")


class Row(NamedTuple):
    argv: tuple
    code: int
    # exit 0: stdout less its final newline; exit 1: the error line
    want: str


class Naming(str):
    """An error line given by a name it must hold."""


class Prefix(str):
    """An error line given by its start."""


class Sha256(str):
    """A stdout given by the sha256 of all its bytes, final newline
    included, in hex as ``sha256sum`` prints it."""


def _matches(want: str, got: str) -> bool:
    """got is a stream less its final newline."""
    if isinstance(want, Naming):
        return want in got
    if isinstance(want, Prefix):
        return got.startswith(want)
    if isinstance(want, Sha256):
        return hashlib.sha256(f"{got}\n".encode()).hexdigest() == want
    return got == want


def _document(arg) -> dict:
    """The pair document a row holds, or reads from a path relative to
    the root of the repository."""
    if isinstance(arg, dict):
        return arg
    with open(os.path.join(ROOT, arg), encoding="utf-8") as handle:
        return json.load(handle)


def _formless(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if key != "omega"}


# (6,1 | 1) is the slowest representative at n = 8; (8 | ∅) and (∅ | 1^8)
# are the two ends of the poset
EDGE_BIPARTITIONS = [("[6,1]", "[1]"), ("[8]", "[]"),
                     ("[]", "[1,1,1,1,1,1,1,1]")]
# each command's stdout on EDGE_BIPARTITIONS, in order
EDGE_OUTPUTS = {
    "representative": [
        Sha256("78fa637e9e65c058afe98a56fed225a5"
               "fb7aca949c64632a5ae05c5ce3996837"),
        Sha256("9f13c4159097b4aae82c419b90dc3fb1"
               "7960ca750c48a834fe873a18cb6d2e66"),
        Sha256("341ece1d96815d1c6af352799de311bd"
               "41f033c2b013a9ca92c5bf1ef681f8ae")],
    "filtration-dims": [
        Sha256("666db70852aea5d041aa71ce096d359a"
               "c4ce9e6341307657ef2e13ba9712c259"),
        Sha256("f945e599ed1b50391566e6976e3a6b27"
               "45dfa767176c3705146a112ecac053ff"),
        '{"dims": {"1": 0, "0": 16}}'],
    "phic": ['{"lambda": [12, 2, 2]}', '{"lambda": [16]}',
             '{"lambda": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]}'],
    "collapse": ['{"mu": [6, 1], "nu": [1]}', '{"mu": [8], "nu": []}',
                 '{"mu": [], "nu": [1, 1, 1, 1, 1, 1, 1, 1]}'],
}

# rep(5,1,1 | 1) and rep(6,1 | 1) conjugated by random_symplectic(space, 7):
# dense n = 8 pairs, paths relative to the root of the repository; the
# second again without its form, which adapted then solves for
DENSE_PAIR = "tests/data/pair_n8_conj.json"
DENSE_PAIR_61 = "tests/data/pair_n8_conj_61.json"
DENSE_PAIR_61_NO_FORM = "tests/data/pair_n8_conj_61_no_form.json"
# (document, sha256 of the stdout of adapted, of orbit-identify) for every
# pair file as given and without its form: pair_n6 is pair_n6_with_form
# without its form, and pair_n8_conj_61_no_form is pair_n8_conj_61
# without it. orbit-identify prints {"mu": [5], "nu": []} on n5_conj,
# {"mu": [1, 1, 1], "nu": [3]} on n6, {"mu": [5, 1, 1], "nu": [1]} on
# n8_conj and {"mu": [6, 1], "nu": [1]} on n8_conj_61
PAIR_STDOUT = [
    ("tests/data/pair_n5_conj.json",
     "54f6e3a2c4a4d4d04005c7f8b8560eda83df3a2669fe05cae164d725333837be",
     "69b01ae43c9ad0469541affc6c85bbe01555ebeac3d013fcc7bc8134cf5ea361"),
    (_formless(_document("tests/data/pair_n5_conj.json")),
     "78d7a16d7a4f9742c004e2137a929281c30fcc9f36b248478805bc7b515ee4e4",
     "69b01ae43c9ad0469541affc6c85bbe01555ebeac3d013fcc7bc8134cf5ea361"),
    ("tests/data/pair_n6.json",
     "ec68821011218e7cfb39d0eb06ed04da5160342ac4792699736509dc2e08ca22",
     "982af6d046f526b2a895214a87930a575f7165b0f40656b7912f6b18d0b61b1f"),
    ("tests/data/pair_n6_with_form.json",
     "ef43a5f566de31d6f928d5bc6975c6857c9db6faf526058464964727d6c8741c",
     "982af6d046f526b2a895214a87930a575f7165b0f40656b7912f6b18d0b61b1f"),
    (DENSE_PAIR,
     "f3a532ad5b87f8f8b7c1c3197af30bf8450e742079657640caf8cd254026d63f",
     "69b843e74667fc3c0c6d05a7c4b75aa8268e206bd6a5139f15043bec07d57662"),
    (_formless(_document(DENSE_PAIR)),
     "a405bd971b13e0388f54fc73e0271428222d96746a12793b2c866c0b6026257a",
     "69b843e74667fc3c0c6d05a7c4b75aa8268e206bd6a5139f15043bec07d57662"),
    (DENSE_PAIR_61,
     "2df249b01ca39abb720a01d4281d352ba3e57ecd4a0f5c4ae8d358c8230ade60",
     "87730b796dafe4c5bd474bd1ee78ee5f9c8cf9219946f87397e850b2217ded3a"),
    (DENSE_PAIR_61_NO_FORM,
     "816e076173f4d46aa6d9ba98e02069fa1c5f415e6eaa8a75029689009714cf80",
     "87730b796dafe4c5bd474bd1ee78ee5f9c8cf9219946f87397e850b2217ded3a"),
]

ZERO = [[0, 0], [0, 0]]
# what representative prints, which classifies as its own orbit
REP_1_1 = {"n": 2, "v": [1, 0, 0, 0],
           "x": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
           "omega": [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0],
                     [-1, 0, 0, 0]]}
RANK_0 = {"n": 0, "v": [], "x": []}

ANSWERS = [
    Row(("poset", "--n", "8"), 0, Sha256(
        "fb49dc1bc7c0b7c9c2b3efd9af77529f404d11f02f1529a8faf7ed4640b5335f")),
    Row(("poset", "--n", "8", "--dot"), 0, Sha256(
        "9718e53a79bb199f4b85aa8660ee12a20c42e1d69985c914f90a40e104d0e3d4")),
    *[Row((command, "--mu", mu, "--nu", nu), 0, want)
      for command, wants in EDGE_OUTPUTS.items()
      for (mu, nu), want in zip(EDGE_BIPARTITIONS, wants)],
    # rank_cap is 8 and no cap bounds the entries
    Row(("bwb", "--lambda", "[-1000000,1000000,-999999,999999,-999998,"
                            "999998,-999997,999997]"), 0,
        '{"zero": false, "sign": 1, "mu": [999999, 999997, 999995, 999993, '
        '999991, 999991, 999991, 999991]}'),
    *[row for doc, adapted, identify in PAIR_STDOUT for row in (
        Row(("orbit-identify", "--file", doc), 0, Sha256(identify)),
        Row(("adapted", "--file", doc), 0, Sha256(adapted)))],
    # one of each command
    Row(("--help",), 0, Sha256(
        "6679c1c51803bb230b35f8891bef69ef979affb8791a15eb77bdd2d48e4204e3")),
    Row(("mult", "--mu", "[2,1,0]", "--lambda", "[1,0,0]", "--route",
         "both"), 0, '{"a": 8, "b": 8, "agree": true}'),
    Row(("filtration-dims", "--mu", "[2,1]", "--nu", "[1]"), 0,
        '{"dims": {"4": 0, "3": 1, "2": 1, "1": 4, "0": 4, "-1": 7, '
        '"-2": 7, "-3": 8}}'),
    Row(("phic", "--mu", "[2,1]", "--nu", "[1]"), 0, '{"lambda": [4, 2, 2]}'),
    Row(("collapse", "--mu", "[2,1]", "--nu", "[1]"), 0,
        '{"mu": [2, 1], "nu": [1]}'),
    Row(("weights", "--mu", "[2,1,0]"), 0, Sha256(
        "2b0cb64169c898220080eb227f7770b21fbf554c15a2d00035746c21c1165533")),
    Row(("bwb", "--lambda", "[-5,1,0]"), 0,
        '{"zero": false, "sign": 1, "mu": [0, 0, 0]}'),
    Row(("bwb", "--lambda", "[-1,-3]"), 0,
        '{"zero": false, "sign": 1, "mu": [0, 0]}'),
    Row(("bwb", "--lambda", "[-2,1]"), 0, '{"zero": true}'),
    Row(("poset", "--n", "4"), 0, Sha256(
        "86580c1173ad42806cfc98f764453105789bf409ccefb72dbad7e205eae4907f")),
    Row(("representative", "--mu", "[1,1]", "--nu", "[1]"), 0, Sha256(
        "c22f8348d8dd626c8e5a351ee82995121b16c1be1f93265b77e33566f473d9f6")),
    # the routes agree at rank 5, and the sweep passes up to n = 4
    Row(("mult", "--mu", "[2,1,1,0,0]", "--lambda", "[1,0,0,0,0]", "--route",
         "both"), 0, '{"a": 57, "b": 57, "agree": true}'),
    *[Row(("sweep", "--n", n, "--bound", bound), 0,
          f'{{"n": {n}, "bound": {bound}, "cells": {cells}, '
          '"violations": [], "ok": true}')
      for n, bound, cells in (("4", "3", 49), ("3", "4", 121), ("1", "3", 16),
                              ("2", "3", 36), ("3", "3", 49), ("2", "2", 16))],
    # a partition count from cold memos in a fresh process
    Row(("kostant", "--kind", "p'", "--mu", "[6,0,0,0,0,0]"), 0,
        '{"value": 4775826}'),
    Row(("kostant", "--kind", "p", "--mu", "[2,0]"), 0, '{"value": 3}'),
    Row(("kostant", "--kind", "p'", "--mu", "[1,0]"), 0, '{"value": 2}'),
    # --flag=value is --flag then value; --degree-cap lifts the default cap
    # of 12 on |mu| = 14, and bwb is a sort, which no cap bounds
    *[Row(argv, 0, '{"value": 0}') for argv in (
        ("--degree-cap=14", "kostant", "--kind=p", "--mu=[-7,7]"),
        ("--degree-cap", "14", "kostant", "--kind", "p", "--mu", "[-7,7]"))],
    Row(("bwb", "--lambda", "[9,-9]"), 0,
        '{"zero": false, "sign": -1, "mu": [9, 7]}'),
    Row(("--rank-cap", "9", "poset", "--n", "9"), 0, Sha256(
        "6871ff47da59e5cf2203287f30da5c7fe68fdd89932669fde398f97dd9aa8c80")),
    Row(("mult", "--n", "2", "--mu", "[1,0]", "--lambda", "[0,0]", "--route",
         "both"), 0, '{"a": 2, "b": 2, "agree": true}'),
    Row(("mult", "--mu", "[1,0]", "--lambda", "[0,0]"), 0, '{"a": 2}'),
    Row(("mult", "--mu", "[1,0]", "--lambda", "[0,0]", "--route", "b"), 0,
        '{"b": 2}'),
    Row(("weights", "--mu", "[1,1]"), 0,
        '{"highest": [1, 1], "dim": 5, "entries": [[[1, 1], 1], '
        '[[1, -1], 1], [[0, 0], 1], [[-1, 1], 1], [[-1, -1], 1]]}'),
    Row(("poset", "--n", "2"), 0,
        '{"nodes": [{"mu": [2], "nu": [], "c_distinguished": true}, '
        '{"mu": [1, 1], "nu": [], "c_distinguished": true}, '
        '{"mu": [1], "nu": [1], "c_distinguished": true}, '
        '{"mu": [], "nu": [2], "c_distinguished": false}, '
        '{"mu": [], "nu": [1, 1], "c_distinguished": true}], '
        '"edges": [[2, 0], [4, 1], [1, 2], [3, 2], [4, 3]]}'),
    Row(("poset", "--n", "1", "--dot"), 0,
        'digraph bipartition_poset {\n  node [shape=box];\n'
        '  "1|" [peripheries=2];\n  "|1" [peripheries=2];\n'
        '  "|1" -> "1|";\n}'),
    Row(("phic", "--mu", "[1,1,1]", "--nu", "[3]"), 0,
        '{"lambda": [4, 4, 2, 1, 1]}'),
    Row(("collapse", "--mu", "[1,1,1]", "--nu", "[3]"), 0,
        '{"mu": [2, 1, 1], "nu": [2]}'),
    Row(("filtration-dims", "--mu", "[1,1,1]", "--nu", "[3]"), 0,
        '{"dims": {"4": 0, "3": 2, "2": 2, "1": 5, "0": 7, "-1": 10, '
        '"-2": 10, "-3": 12}}'),
    Row(("representative", "--mu", "[1]", "--nu", "[1]"), 0,
        json.dumps(REP_1_1)),
    Row(("orbit-identify", "--file", REP_1_1), 0, '{"mu": [1], "nu": [1]}'),
    # adapted solves the empty form of the rank-0 representative, and
    # prints the same levels when the pair comes with it
    Row(("representative", "--mu", "[]", "--nu", "[]"), 0,
        json.dumps(RANK_0)),
    Row(("adapted", "--file", RANK_0), 0,
        '{"mu": [], "nu": [], "omega_solved": true, "subspaces": '
        '{"0": [], "1": []}, "verified": true, "omega": []}'),
    Row(("adapted", "--file", {**RANK_0, "omega": []}), 0,
        '{"mu": [], "nu": [], "omega_solved": false, "subspaces": '
        '{"0": [], "1": []}, "verified": true}'),
    Row(("orbit-identify", "--file", {"n": 1, "v": [1, 0], "x": ZERO}), 0,
        '{"mu": [1], "nu": []}'),
    # a p/q string is read as the rational it names
    Row(("orbit-identify", "--file",
         {"n": 2, "v": [0, 1, 0, 0],
          "x": [[0, "-2/4", 0, 0], [0, 0, 0, 0], [0, 0, 0, 1],
                [0, 0, 0, 0]]}), 0, '{"mu": [2], "nu": []}'),
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
            for command in PAIR_COMMANDS]


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
    # a flag or knob given twice is refused, not read as its last value
    Row(("poset", "--n", "1", "--n", "2"), 1, Naming("--n")),
    Row(("poset", "--n", "1", "--dot", "--dot"), 1, Naming("--dot")),
    Row(("--rank-cap", "9", "--rank-cap=3", "poset", "--n", "2"), 1,
        Naming("--rank-cap")),
    Row(("bwb", "--lambda", NESTED), 1,
        Prefix("error: malformed JSON for lambda: ")),
    *_pair_commands(NESTED.encode(),
                    Prefix("error: malformed JSON for {file}: ")),
    Row(("mult", "--mu", "[1,", "--lambda", "[0,0]"), 1,
        "error: malformed JSON for mu at line 1 column 4 (char 3): "
        "Expecting value"),
    # JSON booleans are not integers
    Row(("kostant", "--kind", "p", "--mu", "[true,false]"), 1,
        "error: mu must be a JSON array of integers"),
    *_pair_commands({"n": 1, "v": [True, False], "x": ZERO},
                    "error: not an exact rational: True"),
    *[row for n in (True, 1.9) for row in _pair_commands(
        {"n": n, "v": [1, 0], "x": ZERO}, f"error: n must be an integer: {n}")],
    # a string iterates as its characters, so "10" once read as v = [1, 0]
    # and a verified answer came out; an object read as its keys
    *[row for doc, what in (
        ({"n": 1, "v": "10", "x": ["00", "00"]}, "v must be a JSON array"),
        ({"n": 1, "v": {"a": 1, "b": 0}, "x": ZERO},
         "v must be a JSON array"),
        ({"n": 1, "v": [1, 0], "x": ["00", "00"]},
         "x must be a JSON array of arrays"),
        ({"n": 1, "v": [1, 0], "x": {"a": [0, 0], "b": [0, 0]}},
         "x must be a JSON array of arrays"),
        ({"n": 1, "v": [1, 0], "x": ZERO, "omega": [[0, 1], "ab"]},
         "omega must be a JSON array of arrays"),
        ({"n": 1, "v": [1, 0], "x": ZERO, "omega": {"a": 1}},
         "omega must be a JSON array of arrays"))
      for row in _pair_commands(doc, f"error: {what}")],
    # a pair file that cannot be read: missing, a directory, not UTF-8
    *_pair_commands("/nonexistent.json", "error: cannot read "
                    "/nonexistent.json: [Errno 2] No such file or directory: "
                    "'/nonexistent.json'"),
    *_pair_commands("tests", "error: cannot read tests: [Errno 21] Is a "
                    "directory: 'tests'"),
    *_pair_commands(b'{"n": 1, "v": ["\xe9"]}', "error: cannot read {file}: "
                    "'utf-8' codec can't decode byte 0xe9 in position 16: "
                    "invalid continuation byte"),
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
    # x = J3 + J1 has a Jordan type that is not doubled, so no form makes
    # it self-adjoint: adapted's form solve and the classifier say so alike
    *_pair_commands({"n": 2, "v": [1, 0, 0, 0],
                     "x": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                           [0, 0, 0, 0]]},
                    "error: no invertible invariant form (Jordan type not "
                    "doubled)"),
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

ROWS = ANSWERS + REFUSALS


def label(argv) -> str:
    """The row's arguments on one line, each long one cut short."""
    words = []
    for arg in argv:
        if isinstance(arg, bytes):
            arg = arg.decode(errors="backslashreplace")
        elif isinstance(arg, dict):
            arg = json.dumps(arg, separators=(",", ":"))
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
        if err:
            return f"stderr {err[-500:]!r}"
        if not out.endswith("\n") or not _matches(row.want, out[:-1]):
            return f"stdout {out[:300]!r}, expected {row.want[:300]!r}"
        return None
    if out:
        return f"exit 1 with stdout {out[:80]!r}"
    if err.count("\n") != 1 or not err.endswith("\n"):
        return f"stderr is not one line: {err[-500:]!r}"
    got = err[:-1] if path is None else err[:-1].replace(path, "{file}")
    if not got.startswith("error: ") or not _matches(row.want, got):
        return f"error line {got[:300]!r}, expected {row.want[:300]!r}"
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
    import check_adapted
    from exoticcone.cli import run

    args, path = _write_documents(row.argv, folder)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(args)
    elapsed = time.perf_counter() - start
    reason = problem(row, code, out.getvalue(), err.getvalue(), elapsed,
                     path)
    if reason is None and row.code == 0 and row.argv[0] == "adapted":
        reason = check_adapted.problem(_document(row.argv[-1]),
                                       json.loads(out.getvalue()))
    return reason


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


def test_every_pair_file_has_a_row_on_both_pair_commands():
    """Each tests/data pair file, as given and without its form, has one
    exit-0 row on each pair command; so a new file cannot land without
    its outputs pinned."""
    rows = [(row.argv[0], _document(row.argv[-1])) for row in ANSWERS
            if row.argv[0] in PAIR_COMMANDS]
    files = [_document(os.path.join(DATA, name))
             for name in sorted(os.listdir(DATA))
             if name.startswith("pair_") and name.endswith(".json")]
    assert files
    for doc in files + [_formless(doc) for doc in files]:
        for command in PAIR_COMMANDS:
            assert rows.count((command, doc)) == 1, (command, doc["n"])


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
