import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import check_adapted

from exoticcone import config, orbits
from exoticcone.cli import COMMANDS, run
from exoticcone.config import ENV_VAR, Config, load_config
from exoticcone.errors import DomainError

DATA = os.path.join(os.path.dirname(__file__), "data")
PAIR = os.path.join(DATA, "pair_n6.json")
PAIR_FORM = os.path.join(DATA, "pair_n6_with_form.json")


def invoke(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(args))
    return code, out.getvalue(), err.getvalue()


def invoke_json(*args):
    code, out, err = invoke(*args)
    assert code == 0, err
    return json.loads(out)


def test_mult_both_routes():
    doc = invoke_json(
        "mult", "--n", "2", "--mu", "[1,0]", "--lambda", "[0,0]",
        "--route", "both",
    )
    assert doc == {"a": 2, "b": 2, "agree": True}
    assert invoke_json("mult", "--mu", "[1,0]", "--lambda", "[0,0]") == {
        "a": 2
    }
    assert invoke_json(
        "mult", "--mu", "[1,0]", "--lambda", "[0,0]", "--route", "b"
    ) == {"b": 2}


def test_help_lists_the_commands_or_the_flags_of_one():
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    for name, (_, text, _) in COMMANDS.items():
        assert f"\n{name}: {text}\n" in out
    code, out, err = invoke("mult", "-h")
    assert (code, err) == (0, "")
    assert "--lambda LAMBDA [--route {a,b,both}]" in out
    assert "kostant" not in out


def test_flag_equals_value_is_flag_then_value():
    # the default degree_cap of 12 refuses |mu| = 14
    joined = invoke("--degree-cap=14", "kostant", "--kind=p", "--mu=[-7,7]")
    spaced = invoke("--degree-cap", "14", "kostant", "--kind", "p",
                    "--mu", "[-7,7]")
    assert joined == spaced == (0, '{"value": 0}\n', "")


def test_kostant_kinds():
    assert invoke_json("kostant", "--kind", "p", "--mu", "[2,0]") == {
        "value": 3
    }
    assert invoke_json("kostant", "--kind", "p'", "--mu", "[1,0]") == {
        "value": 2
    }


def test_bwb_outputs():
    assert invoke_json("bwb", "--lambda", "[-1,-3]") == {
        "zero": False,
        "sign": 1,
        "mu": [0, 0],
    }
    assert invoke_json("bwb", "--lambda", "[-2,1]") == {"zero": True}


def test_weights_table():
    doc = invoke_json("weights", "--mu", "[1,1]")
    assert doc["dim"] == 5
    assert doc["highest"] == [1, 1]
    assert [[0, 0], 1] in doc["entries"]
    assert len(doc["entries"]) == 5


def test_poset_json_and_dot():
    doc = invoke_json("poset", "--n", "2")
    assert len(doc["nodes"]) == 5
    assert len(doc["edges"]) == 5
    code, out, _ = invoke("poset", "--n", "1", "--dot")
    assert code == 0
    assert out.count("->") == 1
    assert out.strip().startswith("digraph")


def test_bipartition_commands():
    assert invoke_json("phic", "--mu", "[1,1,1]", "--nu", "[3]") == {
        "lambda": [4, 4, 2, 1, 1]
    }
    assert invoke_json("collapse", "--mu", "[1,1,1]", "--nu", "[3]") == {
        "mu": [2, 1, 1],
        "nu": [2],
    }
    doc = invoke_json("filtration-dims", "--mu", "[1,1,1]", "--nu", "[3]")
    assert doc["dims"]["3"] == 2
    assert doc["dims"]["1"] == 5
    assert doc["dims"]["0"] == 7
    assert doc["dims"]["-2"] == 10


def test_orbit_identify_and_adapted():
    doc = invoke_json("orbit-identify", "--file", PAIR)
    assert doc == {"mu": [1, 1, 1], "nu": [3]}
    doc = invoke_json("adapted", "--file", PAIR_FORM)
    assert doc["verified"] is True
    assert doc["omega_solved"] is False
    assert doc["mu"] == [1, 1, 1]
    assert set(doc["subspaces"]) == {str(a) for a in range(-3, 5)}
    doc2 = invoke_json("adapted", "--file", PAIR)
    assert doc2["omega_solved"] is True
    assert doc2["verified"] is True
    assert "omega" in doc2


def test_adapted_prints_a_filtration_that_verifies_on_every_pair_file(
        tmp_path, monkeypatch):
    """``"verified"`` is a constant of the output, so the printed levels
    are checked apart from it (``check_adapted``): rebuilt by the public
    constructor, on a fresh pair, so that ``verify_adapted`` runs the
    full check, on every tests/data pair file as given and without its
    form, the latter with the printed form."""
    calls = []
    verify = orbits._verify

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(orbits, "_verify", counted)
    names = sorted(name for name in os.listdir(DATA)
                   if name.startswith("pair_") and name.endswith(".json"))
    assert len(names) == 6
    path = tmp_path / "pair.json"
    for name in names:
        with open(os.path.join(DATA, name), encoding="utf-8") as handle:
            doc = json.load(handle)
        formless = {key: value for key, value in doc.items()
                    if key != "omega"}
        for pair_doc in [doc, formless] if "omega" in doc else [doc]:
            path.write_text(json.dumps(pair_doc))
            out = invoke_json("adapted", "--file", str(path))
            assert out["omega_solved"] is ("omega" not in pair_doc)
            calls.clear()
            assert check_adapted.problem(pair_doc, out) is None, name
            assert len(calls) == 1, name


def test_representative_round_trip(tmp_path):
    doc = invoke_json("representative", "--mu", "[1]", "--nu", "[1]")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    out = invoke_json("orbit-identify", "--file", str(path))
    assert out == {"mu": [1], "nu": [1]}


def test_sweep_ok():
    doc = invoke_json("sweep", "--n", "2", "--bound", "2")
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["cells"] == 16


def test_malformed_json_is_positioned():
    code, _, err = invoke("mult", "--mu", "[1,", "--lambda", "[0,0]")
    assert code == 1
    assert "line" in err and "column" in err


def test_json_booleans_and_fractional_n_are_rejected(tmp_path):
    code, out, err = invoke("kostant", "--kind", "p", "--mu", "[true,false]")
    assert code == 1 and out == ""
    assert "integers" in err
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(
        {"n": 1, "v": [True, False], "x": [[0, 0], [0, 0]]}
    ))
    code, out, err = invoke("orbit-identify", "--file", str(path))
    assert code == 1 and out == ""
    assert "True" in err
    for n in (True, 1.9):
        path.write_text(json.dumps({"n": n, "v": [1, 0], "x": [[0, 0]] * 2}))
        code, out, err = invoke("orbit-identify", "--file", str(path))
        assert code == 1 and out == ""
        assert "n must be an integer" in err


def test_pair_fields_must_be_json_arrays(tmp_path):
    # a string iterates as its characters, so "10" once read as v = [1, 0]
    # and a verified answer came out; an object read as its keys
    zero = [[0, 0], [0, 0]]
    cases = [
        ({"n": 1, "v": "10", "x": ["00", "00"]}, "v"),
        ({"n": 1, "v": {"a": 1, "b": 0}, "x": zero}, "v"),
        ({"n": 1, "v": [1, 0], "x": ["00", "00"]}, "x"),
        ({"n": 1, "v": [1, 0], "x": {"a": [0, 0], "b": [0, 0]}}, "x"),
        ({"n": 1, "v": [1, 0], "x": zero, "omega": [[0, 1], "ab"]}, "omega"),
        ({"n": 1, "v": [1, 0], "x": zero, "omega": {"a": 1}}, "omega"),
    ]
    path = tmp_path / "pair.json"
    for doc, field in cases:
        path.write_text(json.dumps(doc))
        for command in ("orbit-identify", "adapted"):
            code, out, err = invoke(command, "--file", str(path))
            assert code == 1 and out == "", (doc, command)
            assert err.startswith(f"error: {field} must be a JSON array")
            assert err.count("\n") == 1
    path.write_text(json.dumps({"n": 1, "v": [1, 0], "x": zero}))
    assert invoke_json("orbit-identify", "--file", str(path)) == {
        "mu": [1], "nu": []}


def test_non_nilpotent_pair_is_refused_before_a_form_solve(
        tmp_path, monkeypatch):
    # the refusal itself is a row of test_caps_edge
    solves = []
    monkeypatch.setattr(orbits, "solve_symplectic_form", solves.append)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": 1, "v": [1, 0], "x": [[1, 0], [0, 0]]}))
    for command in ("orbit-identify", "adapted"):
        invoke(command, "--file", str(path))
    assert solves == []


def test_adapted_without_a_form_computes_the_powers_of_x_once(monkeypatch):
    calls = []
    power_spaces = orbits._power_spaces

    def counted(xi, stop=None):
        calls.append(xi)
        return power_spaces(xi, stop)

    monkeypatch.setattr(orbits, "_power_spaces", counted)
    with open(PAIR, encoding="utf-8") as handle:
        pair = orbits.pair_from_json(json.load(handle))
    assert pair.space is None
    doc = invoke_json("adapted", "--file", PAIR)
    assert doc["omega_solved"] and doc["verified"]
    assert calls.count(pair._int_x) == 1


def test_pair_file_rank_cap_comes_before_the_gram_determinant(
        tmp_path, monkeypatch):
    # the refusal itself is a row of test_caps_edge
    n = 9
    zero = orbits.ExoticPair(v=(0,) * (2 * n), x=((0,) * (2 * n),) * (2 * n),
                             space=orbits.standard_form(n))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(orbits.pair_to_json(zero)))
    dets = []
    monkeypatch.setattr(orbits.linalg, "det", dets.append)
    for command in ("orbit-identify", "adapted"):
        invoke(command, "--file", str(path))
    assert dets == []


def test_cli_memo_cap_is_the_library_default():
    # a fresh interpreter: run() sets the cap in-process
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("from exoticcone import config; "
             "print(config.memo_cap, config.Config().cache_entries)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == [str(1 << 19)] * 2


def test_cache_bytes_sets_the_memo_cap(monkeypatch):
    # monkeypatch restores the cap that run() sets
    monkeypatch.setattr(config, "memo_cap", config.memo_cap)
    assert invoke_json("--cache-bytes", "131072", "kostant", "--kind", "p",
                       "--mu", "[2,0]") == {"value": 3}
    assert config.memo_cap == 1024


def test_rational_string_p_over_q_is_read(tmp_path):
    # strings outside -?[0-9]+(/[0-9]+)? are refusal rows of test_caps_edge
    doc = {"n": 2, "v": [0, 1, 0, 0],
           "x": [[0, "-2/4", 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert invoke_json("orbit-identify", "--file", str(path)) == {
        "mu": [2], "nu": []}


def test_degree_cap_flag_lifts_the_cap_and_bwb_is_uncapped():
    # the refusals at the default degree_cap are rows of test_caps_edge
    assert invoke_json(
        "--degree-cap", "14", "kostant", "--kind", "p", "--mu", "[-7,7]"
    ) == {"value": 0}
    # bwb is a sort and stays uncapped
    assert invoke_json("bwb", "--lambda", "[9,-9]")["zero"] is False


def test_rank_cap_flag_override():
    # without the flag, poset --n 9 is a refusal row of test_caps_edge
    code, out, _ = invoke("--rank-cap", "9", "poset", "--n", "9")
    assert code == 0


def test_adapted_solves_the_empty_form_of_the_rank_0_representative(
        tmp_path):
    doc = invoke_json("representative", "--mu", "[]", "--nu", "[]")
    assert doc == {"n": 0, "v": [], "x": []}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    out = invoke_json("adapted", "--file", str(path))
    assert (out["mu"], out["nu"]) == ([], [])
    assert out["omega_solved"] is True and out["omega"] == []
    assert out["verified"] is True
    # the same answer as for the pair given with its empty form
    path.write_text(json.dumps({**doc, "omega": []}))
    given = invoke_json("adapted", "--file", str(path))
    assert given["omega_solved"] is False
    assert given["subspaces"] == out["subspaces"]


def test_missing_pair_file(tmp_path):
    code, _, err = invoke("orbit-identify", "--file", "/nonexistent.json")
    assert code == 1
    latin1 = tmp_path / "pair.json"
    latin1.write_bytes(b'{"n": 1, "v": ["\xe9"]}')
    for path in (tmp_path, latin1):
        for command in ("orbit-identify", "adapted"):
            code, out, err = invoke(command, "--file", str(path))
            assert code == 1 and out == ""
            assert err.startswith("error: cannot read")
            assert "Traceback" not in err


def test_config_file_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "knobs.cfg"
    cfg.write_text("rank_cap = 9\n# comment\ndegree_cap = 5\n")
    monkeypatch.setenv(ENV_VAR, str(cfg))
    code, _, _ = invoke("poset", "--n", "9")
    assert code == 0
    assert load_config().degree_cap == 5
    # flags beat the file
    code, _, err = invoke("--rank-cap", "3", "poset", "--n", "9")
    assert code == 1 and "rank_cap" in err
    monkeypatch.delenv(ENV_VAR)
    code, _, _ = invoke("poset", "--n", "9")
    assert code == 1
    # the sweep runs single-threaded, and the adapted filtration needs no
    # search, so their old worker-count and search-depth knobs are gone
    for key in ("threads", "closure_depth"):
        cfg.write_text(f"{key} = 2\n")
        code, out, err = invoke("--config", str(cfg), "poset", "--n", "2")
        assert code == 1 and out == ""
        assert "unknown key" in err


def test_config_validation(tmp_path):
    with pytest.raises(DomainError):
        Config(rank_cap=0)
    with pytest.raises(TypeError):
        Config(closure_depth=4)
    path = os.path.join(DATA, "pair_n5_conj.json")
    code, out, err = invoke("--closure-depth", "0", "adapted", "--file", path)
    assert code == 1 and out == ""
    assert err == "error: unknown flag --closure-depth\n"
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 3\n")
    with pytest.raises(DomainError):
        load_config(str(bad))
    bad.write_text("rank_cap: 3\n")
    with pytest.raises(DomainError):
        load_config(str(bad))
    bad.write_bytes(b"rank_cap = 3 # caf\xe9\n")
    for path in (bad, tmp_path):
        with pytest.raises(DomainError, match="cannot read config file"):
            load_config(str(path))
        code, out, err = invoke("--config", str(path), "poset", "--n", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read config file")
    assert load_config(None, {"rank_cap": 5}).rank_cap == 5
    assert Config().cache_entries >= 1024


def test_config_rejects_booleans():
    for name in ("rank_cap", "degree_cap", "cache_bytes"):
        with pytest.raises(DomainError, match=name):
            Config(**{name: True})
        with pytest.raises(DomainError, match=name):
            load_config(None, {name: False})


def test_outputs_deterministic():
    first = invoke("weights", "--mu", "[2,1]")
    second = invoke("weights", "--mu", "[2,1]")
    assert first == second


def test_closed_stdout_pipe_prints_no_traceback():
    # 170 KB of weights: more than a pipe buffer holds, so the write is
    # still pending when the reader goes away
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "exoticcone", "weights", "--mu",
         "[6,0,0,0,0,0]"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err
