"""The package's lazy submodules, each case in a fresh interpreter: what
importing the package registers, what one CLI command executes and
imports, first reads from several threads, and the package-level names."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
SUBMODULES = ("linalg", "rootdata", "kostant", "characters", "sections",
              "bipartitions", "orbits")
# a lazy module's class becomes ModuleType once its code has run
EXECUTED = ("[n for n in {names!r} "
            "if type(sys.modules['exoticcone.' + n]) is types.ModuleType]"
            ).format(names=SUBMODULES)

# every name the package exported before its submodules became lazy, less
# coroot_pairing, which moved to tests/oracles.py, the twisted action
# group, which was deleted, and the two errors of the filtration search,
# which the closed form replaced; plus orbit_dim, added since
NAMES = {
    "bipartitions": "Bipartition bipartition closure_leq collapse emit_dot "
                    "enumerate_Q filtration_dims hasse is_C_distinguished "
                    "orbit_dim phiC phiC_hat",
    "characters": "all_weights weight_mult weight_mult_oracle weyl_dim",
    "config": "Config load_config",
    "errors": "CapExceeded DomainError InternalInconsistency NotDoubled "
              "SelfCheckFailed",
    "kostant": "kostant_p kostant_p_exotic subset_identity_check",
    "orbits": "ExoticPair IsotropicFiltration SymplecticSpace "
              "adapted_filtration centralizer_basis de_double exv_module "
              "in_exotic_cone jordan_type make_pair orbit_of perp "
              "random_symplectic representative solve_symplectic_form "
              "standard_form verify_adapted",
    "rootdata": "RootDataC SignedPermutation bwb dominant_rep in_conv "
                "is_dominant root_data signed_permutations weyl_orbit",
    "sections": "h0_decompose h0_mult h0_mult_subsets",
}


def fresh(code: str):
    """Run code in a new interpreter importing src/; return the JSON it
    prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return json.loads(out)


def executed_after(*argv) -> list:
    code, executed = fresh(
        "import contextlib, io, json, sys, types\n"
        "from exoticcone.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({list(argv)!r})\n"
        f"print(json.dumps([code, {EXECUTED}]))\n")
    assert code == 0
    return executed


def test_importing_the_cli_registers_every_submodule_and_runs_none():
    # perfbench's tracer looks up sys.modules["exoticcone." + name] for
    # each of these after importing exoticcone.cli, so all must be there
    registered, executed = fresh(
        "import json, sys, types\n"
        "import exoticcone.cli\n"
        f"print(json.dumps([[n for n in {SUBMODULES!r} "
        f"if 'exoticcone.' + n in sys.modules], {EXECUTED}]))\n")
    assert registered == list(SUBMODULES)
    assert executed == []


def test_each_command_executes_only_the_modules_it_needs():
    assert executed_after("poset", "--n", "2") == ["bipartitions"]
    assert executed_after("bwb", "--lambda", "[-5,1,0]") == ["rootdata"]
    pair = os.path.join(os.path.dirname(__file__), "data", "pair_n6.json")
    executed = executed_after("adapted", "--file", pair)
    assert not {"kostant", "characters", "sections"} & set(executed)


def test_package_names_resolve_to_their_module_attributes():
    mismatched = fresh(
        "import importlib, json\n"
        "import exoticcone\n"
        f"names = {NAMES!r}\n"
        "print(json.dumps([name for module, text in names.items() "
        "for name in text.split() if getattr(exoticcone, name) is not "
        "getattr(importlib.import_module('exoticcone.' + module), name)]))\n")
    assert mismatched == []


def test_first_reads_from_many_threads_see_a_whole_module():
    # barrier-released threads with a tiny switch interval all make the
    # first read of one lazy module; none may see it half run
    errors, alive = fresh(
        "import json, sys, threading\n"
        "import exoticcone\n"
        "barrier, errors = threading.Barrier(4), []\n"
        "def read():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        exoticcone.orbits.orbit_of\n"
        "    except AttributeError as exc:\n"
        "        errors.append(str(exc))\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=read) for _ in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "print(json.dumps([errors, [t.is_alive() for t in threads]]))\n")
    assert errors == []
    assert alive == [False] * 4


def test_a_cli_process_imports_no_argparse_gettext_or_locale():
    absent = ("argparse", "gettext", "locale")
    assert fresh(
        "import json, sys\n"
        "import exoticcone.cli\n"
        f"print(json.dumps([m for m in {absent!r} if m in sys.modules]))\n"
    ) == []
    code, loaded = fresh(
        "import contextlib, io, json, runpy, sys\n"
        "sys.argv = ['exoticcone', 'bwb', '--lambda', '[1,0]']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('exoticcone', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"print(json.dumps([code, [m for m in {absent!r} "
        "if m in sys.modules]]))\n")
    assert code == 0
    assert loaded == []
