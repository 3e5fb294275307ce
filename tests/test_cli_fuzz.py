"""A grammar fuzz of the CLI, in process through ``cli.run``.

Each example draws a command, its flags (each given as ``--flag value``
or ``--flag=value``, sometimes left out, misspelt, given twice or given
a malformed value), global knob overrides (sometimes one given twice),
well-formed and malformed weights, and a small pair file with or
without ``omega``: a conjugated orbit representative, random small
entries, a form that is not antisymmetric or not invertible, or a
malformed document. Every run must exit 0 or 1,
write exactly one stderr line on exit 1 and none on exit 0, and give the
same stdout, stderr and exit code when run a second time, with the memos
the first run left warm.

The drawn ranks and degrees stay small (ranks <= 4, degrees <= 6, sweep
bounds <= 2), so every command answers in well under a second here. The
time bound at the caps belongs to the rows of ``test_caps_edge.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exoticcone import config
from exoticcone.bipartitions import enumerate_Q
from exoticcone.cli import COMMANDS, REQUIRED, run
from exoticcone.orbits import (
    conjugate_pair,
    pair_to_json,
    random_symplectic,
    representative,
    standard_form,
)

MALFORMED_JSON = [
    "", "[1,", "[1.5]", "{}", '"x"', "[true]", "null", "[[1]]", "1",
    "[1,0]x", "[" * 40 + "]" * 40, "[" * 5000, "[1" + "0" * 5000 + "]",
]
MALFORMED_INT = ["x", "", "1.5", "--", "0x10", "1e3", "0", "-1"]
KNOBS = ["rank-cap", "degree-cap", "cache-bytes"]
KNOB_VALUES = [12, 1024, 8, 2, 1]
# one fault in the grammar, or none
FAULTS = [None] * 6 + [
    "unknown knob", "bad knob", "missing config", "unknown command",
    "missing flag", "bad value", "no pair file", "unknown flag", "help",
    "stray", "repeat", "repeat knob"]
PAIR_FILE = "PAIR_FILE"


@st.composite
def weights(draw):
    """JSON weight text: a small int array of degree at most 6, dominant
    or not."""
    parts = draw(st.lists(st.integers(-2, 3), max_size=3))
    if draw(st.booleans()):
        parts = sorted(map(abs, parts), reverse=True)
    if sum(map(abs, parts)) > 6:
        parts = [min(c, 1) for c in parts]
    return json.dumps(parts)


def _pair_doc(draw):
    """A pair document at n <= 3: a conjugated orbit representative or
    small random entries, with the standard form, then perhaps a form
    that is not antisymmetric or not invertible, a malformed key, or no
    form at all."""
    n = draw(st.integers(1, 3))
    d = 2 * n
    if draw(st.sampled_from([True, True, False])):
        rep = representative(draw(st.sampled_from(enumerate_Q(n))))
        g = random_symplectic(rep.space, draw(st.integers(0, 2**30)))
        doc = pair_to_json(conjugate_pair(rep, g))
    else:
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, "1/2"])
        row = st.lists(entry, min_size=d, max_size=d)
        doc = {"n": n, "v": draw(row),
               "x": draw(st.lists(row, min_size=d, max_size=d)),
               "omega": [list(r) for r in standard_form(n).omega]}
    change = draw(st.sampled_from([None] * 4 + [
        "diagonal", "singular", "drop", "rename", "scalar", "string",
        "exponent", "short"]))
    key = draw(st.sampled_from(["n", "v", "x", "omega"]))
    i = draw(st.integers(0, d - 1))
    if change == "diagonal":
        doc["omega"][i][i] = draw(st.sampled_from([1, -1, "1/2"]))
    elif change == "singular":
        doc["omega"][i] = [0] * d
    elif change == "drop":
        del doc[key]
    elif change == "rename":
        doc[key + "x"] = doc.pop(key)
    elif change == "scalar":
        doc[key] = 1
    elif change == "string":
        doc[key] = "[1, 0]"
    elif change == "exponent" and key != "n":
        doc[key][i] = "1e5" if key == "v" else ["1e5"] * d
    elif change == "short":
        doc[key] = n + 1 if key == "n" else doc[key][:-1]
    if "omega" in doc and draw(st.booleans()):
        del doc["omega"]
    return doc


@st.composite
def argument_lists(draw):
    """(argv, pair document or None): knob overrides, a command and its
    flags, with at most one fault in the grammar. A pair file is named
    PAIR_FILE, for the test to replace by its path."""
    fault = draw(st.sampled_from(FAULTS))
    argv = []
    for knob in draw(st.lists(st.sampled_from(KNOBS), max_size=2,
                              unique=True)):
        argv += _flag(draw, knob, str(draw(st.sampled_from(KNOB_VALUES))))
    if fault == "unknown knob":
        argv += ["--frob", "1"]
    elif fault == "bad knob":
        argv += _flag(draw, draw(st.sampled_from(KNOBS)),
                      draw(st.sampled_from(MALFORMED_INT)))
    elif fault == "missing config":
        argv += _flag(draw, "config", "no/such/config.toml")
    elif fault == "repeat knob":
        knob = draw(st.sampled_from(KNOBS))
        for value in draw(st.lists(st.sampled_from(KNOB_VALUES), min_size=2,
                                   max_size=2)):
            argv += _flag(draw, knob, str(value))
    if fault == "unknown command":
        return argv + ["frob"], None
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    flags = COMMANDS[command][2]
    faulty = draw(st.sampled_from(sorted(flags)))
    doc = None
    for name, (kind, default) in flags.items():
        repeat = fault == "repeat" and name == faulty
        if fault == "missing flag" and name == faulty or (
                default is not REQUIRED and not repeat
                and draw(st.booleans())):
            continue
        broken = fault == "bad value" and name == faulty
        if kind is bool:
            argv += [f"--{name}=1" if broken else f"--{name}"] * (1 + repeat)
            continue
        if broken:
            value = draw(st.sampled_from(
                MALFORMED_INT if kind is int else MALFORMED_JSON))
        elif name == "file":
            if fault == "no pair file":
                value = "no/such/pair.json"
            else:
                doc, value = _pair_doc(draw), PAIR_FILE
        elif type(kind) is tuple:
            value = draw(st.sampled_from(kind))
        elif kind is int:
            value = str(draw(st.sampled_from(
                [1, 2, 3, 4, 0, -1] if name == "n" else [0, 1, 2, -1])))
        else:
            value = draw(weights())
        argv += _flag(draw, name, value)
        if repeat:
            argv += _flag(draw, name, value)
    if fault in ("unknown flag", "help", "stray"):
        word = {"unknown flag": "--frob", "stray": "stray"}.get(
            fault, draw(st.sampled_from(["-h", "--help"])))
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv, doc


def _flag(draw, name, value):
    if draw(st.integers(0, 3)) == 0:
        return [f"--{name}={value}"]
    return [f"--{name}", value]


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    cap = config.memo_cap
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
    finally:
        config.memo_cap = cap
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pair_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "pair.json")


@given(case=argument_lists())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_grammar_fuzz(pair_path, case):
    argv, doc = case
    argv = [arg.replace(PAIR_FILE, pair_path) for arg in argv]
    if doc is not None:
        with open(pair_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    first = _invoke(argv)
    code, out, err = first
    assert code in (0, 1), (argv, first)
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err
    else:
        assert err == "", (argv, err)
    assert _invoke(argv) == first, argv
