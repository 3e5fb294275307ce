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


def test_help_lists_the_commands_or_the_flags_of_one():
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    for name, (_, text, _) in COMMANDS.items():
        assert f"\n{name}: {text}\n" in out
    code, out, err = invoke("mult", "-h")
    assert (code, err) == (0, "")
    assert "--lambda LAMBDA [--route {a,b,both}]" in out
    assert "kostant" not in out


def test_check_adapted_verifies_the_printed_filtration_in_full_once(
        monkeypatch):
    """``check_adapted``, which the in-process runner of test_caps_edge
    applies to every ``adapted`` row, rebuilds the printed filtration on
    a fresh pair that keeps none, so ``verify_adapted`` checks it in
    full: one ``_verify`` call, with the printed form and with the
    given one."""
    calls = []
    verify = orbits._verify

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(orbits, "_verify", counted)
    for path in (PAIR, PAIR_FORM):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        out = invoke_json("adapted", "--file", path)
        assert out["omega_solved"] is ("omega" not in doc)
        calls.clear()
        assert check_adapted.problem(doc, out) is None, path
        assert len(calls) == 1, path


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
