"""Exact computations around the exotic nilpotent cone of Sp(2n):
type C weight combinatorics, partition counts, weight and section
multiplicities, the bipartition orbit poset with its collapse maps, and
rational-arithmetic orbit classification of pairs (v, x).

The seven computing submodules load on first use: importing the package
registers each in ``sys.modules`` and compiles and runs it on the first
read of an attribute it lacks, so a CLI process pays only for the modules
its command reaches. That first read is safe from any number of threads.
Package-level names such as ``exoticcone.orbit_of`` still resolve to the
submodule's function.
"""

import importlib.util
import sys
import threading
import types

from .config import Config, load_config
from .errors import (
    CapExceeded,
    DomainError,
    InternalInconsistency,
    NotDoubled,
    SelfCheckFailed,
)

# the lazy submodules, each with the package-level names it defines
_EXPORTS = {
    "linalg": "",
    "rootdata": (
        "RootDataC SignedPermutation bwb dominant_rep in_conv is_dominant "
        "root_data signed_permutations weyl_orbit"),
    "kostant": "kostant_p kostant_p_exotic subset_identity_check",
    "characters": "all_weights weight_mult weight_mult_oracle weyl_dim",
    "sections": "h0_decompose h0_mult h0_mult_subsets",
    "bipartitions": (
        "Bipartition bipartition closure_leq collapse emit_dot enumerate_Q "
        "filtration_dims hasse is_C_distinguished orbit_dim phiC phiC_hat"),
    "orbits": (
        "ExoticPair IsotropicFiltration SymplecticSpace adapted_filtration "
        "centralizer_basis de_double exv_module in_exotic_cone jordan_type "
        "make_pair orbit_of perp random_symplectic representative "
        "solve_symplectic_form standard_form verify_adapted"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

# one lock for every submodule: a module's code imports the submodules it
# needs, which the running thread may then load too
_LOCK = threading.RLock()


class _LazyModule(types.ModuleType):
    """A registered submodule whose code has not run. Its first read of a
    missing attribute runs the code under the package lock, and only then
    makes it a plain module, so no thread sees it half run."""

    def __getattr__(self, attr):
        with _LOCK:
            # another thread may have run it while this one waited
            if type(self) is _LazyModule:
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return getattr(self, attr)


for _name in _EXPORTS:
    _module = importlib.util.module_from_spec(
        importlib.util.find_spec(f"{__name__}.{_name}"))
    _module.__class__ = _LazyModule
    sys.modules[_module.__name__] = globals()[_name] = _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


__version__ = "0.1.0"
