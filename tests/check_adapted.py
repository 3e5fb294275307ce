"""Check the output of ``exoticcone adapted`` on a pair document. Its
``"verified"`` field is a constant, since a failed check exits 2, so the
check does not stop there: it rebuilds the filtration from the printed
levels through the public constructor, on a fresh pair that takes the
printed form when the form was solved, and requires ``orbit_of`` to give
the printed orbit and both ``verify_adapted`` and the perps oracle to
accept it. The fresh pair keeps no filtration of its own, so
``verify_adapted`` checks the rebuilt one in full.

The in-process runner of ``test_caps_edge.py`` applies ``problem`` to
every ``adapted`` row that exits 0.
"""

import oracles

from exoticcone.bipartitions import bipartition
from exoticcone.errors import DomainError
from exoticcone.orbits import (
    ExoticPair,
    IsotropicFiltration,
    SymplecticSpace,
    orbit_of,
    pair_from_json,
    verify_adapted,
)


def printed_filtration(pair_doc: dict, out: dict):
    """(filtration, pair, orbit) as the output out of ``adapted`` on the
    pair document pair_doc prints them."""
    pair = pair_from_json(pair_doc)
    if out["omega_solved"] != (pair.space is None):
        raise ValueError("omega_solved does not say whether the pair "
                         "document has a form")
    if out["omega_solved"]:
        pair = ExoticPair(v=pair.v, x=pair.x, space=SymplecticSpace(
            n=pair.n, omega=out["omega"]))
    levels = sorted((int(a), rows) for a, rows in out["subspaces"].items())
    filt = IsotropicFiltration(space=pair.space, subspaces=tuple(levels))
    return filt, pair, bipartition(out["mu"], out["nu"])


def problem(pair_doc: dict, out: dict) -> str | None:
    """Why the printed filtration fails, or None when it passes."""
    if out.get("verified") is not True:
        return f"printed verified={out.get('verified')!r}"
    try:
        filt, pair, b = printed_filtration(pair_doc, out)
    except (DomainError, KeyError, ValueError) as exc:
        return f"the printed filtration cannot be rebuilt: {exc!r}"
    if orbit_of(pair) != b:
        return f"the pair classifies as {orbit_of(pair)}, printed {b}"
    if not verify_adapted(filt, pair, b):
        return "verify_adapted rejects the printed filtration"
    if not oracles.verify_adapted_by_perps(filt, pair, b):
        return "the perps oracle rejects the printed filtration"
    return None
