"""The value classes of the library: their record semantics, and a CLI
start-up that does without ``dataclasses``."""

import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from exoticcone.bipartitions import FiltrationProfile, bipartition
from exoticcone.characters import WeightMultiplicityTable
from exoticcone.config import Config
from exoticcone.orbits import (
    ExoticPair,
    IsotropicFiltration,
    SymplecticSpace,
    standard_form,
)
from exoticcone.rootdata import RootDataC, SignedPermutation, root_data

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
OMEGA = ((0, 1), (-1, 0))


def _root_data_fields():
    data = root_data(2)
    return {"rank": 2, "positive_roots": data.positive_roots,
            "exotic_weights": data.exotic_weights,
            "rho": data.rho}


# (class, its fields in order, a function giving fresh field values)
RECORDS = [
    (Config, ("rank_cap", "degree_cap", "cache_bytes"),
     lambda: {"rank_cap": 3, "degree_cap": 5, "cache_bytes": 4096}),
    (SymplecticSpace, ("n", "omega"), lambda: {"n": 1, "omega": OMEGA}),
    (ExoticPair, ("v", "x", "space"),
     lambda: {"v": (1, 0), "x": ((0, 0), (0, 0)),
              "space": SymplecticSpace(1, OMEGA)}),
    (IsotropicFiltration, ("space", "subspaces", "orbit"),
     lambda: {"space": standard_form(1),
              "subspaces": ((0, ((1, 0),)), (1, ((1, 0),))),
              "orbit": bipartition((1,), ())}),
    (SignedPermutation, ("perm", "signs"),
     lambda: {"perm": (1, 0), "signs": (1, -1)}),
    (RootDataC, ("rank", "positive_roots", "exotic_weights", "rho"),
     _root_data_fields),
    (FiltrationProfile, ("n", "levels"),
     lambda: {"n": 1, "levels": ((0, 2), (1, 1), (2, 0))}),
    (WeightMultiplicityTable, ("highest", "entries"),
     lambda: {"highest": (1,), "entries": {(1,): 1, (-1,): 1}}),
]


@pytest.mark.parametrize(
    "cls, names, make", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, names, make):
    values = make()
    assert tuple(values) == names
    obj = cls(**values)
    assert cls(*values.values()) == obj == cls(**make())
    if cls is WeightMultiplicityTable:
        # a dict field leaves the record unhashable
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(**make()))
    assert obj != SimpleNamespace(**values)
    assert obj != tuple(values.values())
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(obj, name)!r}" for name in names) + ")"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(TypeError):
        cls(**values, unknown=1)


def test_filtration_equality_ignores_the_orbit():
    space = standard_form(1)
    levels = ((0, ((1, 0),)), (1, ((1, 0),)))
    first = IsotropicFiltration(space, levels, bipartition((1,), ()))
    second = IsotropicFiltration(space, levels)
    assert second.orbit is None
    assert first == second and hash(first) == hash(second)
    assert first != IsotropicFiltration(space, ((0, ((0, 1),)),))


def test_config_defaults():
    cfg = Config()
    assert (cfg.rank_cap, cfg.degree_cap, cfg.cache_bytes) == (8, 12, 1 << 26)
    assert Config(5) == Config(rank_cap=5) != cfg


def test_cli_import_leaves_dataclasses_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = ("import sys, exoticcone.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_src_generates_no_code():
    pattern = re.compile(r"\b(exec|eval)\(")
    package = os.path.join(SRC, "exoticcone")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                assert not pattern.search(fh.read()), name
