"""Exact computations around the exotic nilpotent cone of Sp(2n):
type C weight combinatorics, partition counts, weight and section
multiplicities, the bipartition orbit poset with its collapse maps, and
rational-arithmetic orbit classification of pairs (v, x).

The seven computing submodules load on first use: importing the package
registers each in ``sys.modules`` and compiles and runs it on its first
attribute access, so a CLI process pays only for the modules its command
reaches. Package-level names such as ``exoticcone.orbit_of`` still resolve
to the submodule's function.
"""

import importlib.util
import sys

from .config import Config, load_config
from .errors import (
    CapExceeded,
    DomainError,
    FiltrationNotFound,
    InternalInconsistency,
    NotDoubled,
    NotUnique,
    SelfCheckFailed,
)

# the lazy submodules, each with the package-level names it defines
_EXPORTS = {
    "linalg": "",
    "rootdata": (
        "RootDataC SignedPermutation bwb dominant_rep in_conv in_conv0 "
        "in_tconv in_tconv0 is_dominant quasi_order root_data "
        "signed_permutations twisted_act twisted_w0 weyl_orbit"),
    "kostant": "kostant_p kostant_p_exotic subset_identity_check",
    "characters": "all_weights weight_mult weight_mult_oracle weyl_dim",
    "sections": "h0_decompose h0_mult h0_mult_subsets",
    "bipartitions": (
        "Bipartition bipartition closure_leq collapse emit_dot enumerate_Q "
        "filtration_dims hasse is_C_distinguished phiC phiC_hat"),
    "orbits": (
        "ExoticPair IsotropicFiltration SymplecticSpace adapted_filtration "
        "centralizer_basis de_double exv_module in_exotic_cone jordan_type "
        "make_pair orbit_of perp random_symplectic representative "
        "solve_symplectic_form standard_form verify_adapted"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


__version__ = "0.1.0"
