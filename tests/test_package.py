"""The package's lazy submodules, each case in a fresh interpreter: what
importing the package registers, what one CLI command executes, and the
package-level names."""

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
# coroot_pairing, which moved to tests/oracles.py
NAMES = {
    "bipartitions": "Bipartition bipartition closure_leq collapse emit_dot "
                    "enumerate_Q filtration_dims hasse is_C_distinguished "
                    "phiC phiC_hat",
    "characters": "all_weights weight_mult weight_mult_oracle weyl_dim",
    "config": "Config load_config",
    "errors": "CapExceeded DomainError FiltrationNotFound "
              "InternalInconsistency NotDoubled NotUnique SelfCheckFailed",
    "kostant": "kostant_p kostant_p_exotic subset_identity_check",
    "orbits": "ExoticPair IsotropicFiltration SymplecticSpace "
              "adapted_filtration centralizer_basis de_double exv_module "
              "in_exotic_cone jordan_type make_pair orbit_of perp "
              "random_symplectic representative solve_symplectic_form "
              "standard_form verify_adapted",
    "rootdata": "RootDataC SignedPermutation bwb dominant_rep in_conv "
                "in_conv0 in_tconv in_tconv0 is_dominant quasi_order "
                "root_data signed_permutations twisted_act twisted_w0 "
                "weyl_orbit",
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
