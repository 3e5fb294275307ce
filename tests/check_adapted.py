"""Check the filtration that ``exoticcone adapted`` printed, apart from
its ``"verified"`` field: rebuild the filtration from the printed levels
through the public constructor, on a fresh pair that takes the printed
form when the form was solved, and require ``orbit_of`` to give the
printed orbit and both ``verify_adapted`` and the perps oracle to accept
it. The fresh pair keeps no filtration of its own, so ``verify_adapted``
checks the rebuilt one in full.

    python tests/check_adapted.py PAIR_FILE ADAPTED_STDOUT_FILE

exits 0 when the printed filtration passes, and 1 with the reason on
stderr when it does not.
"""

import json
import sys

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
    try:
        filt, pair, b = printed_filtration(pair_doc, out)
    except (DomainError, ValueError) as exc:
        return f"the printed filtration cannot be rebuilt: {exc}"
    if orbit_of(pair) != b:
        return f"the pair classifies as {orbit_of(pair)}, printed {b}"
    if not verify_adapted(filt, pair, b):
        return "verify_adapted rejects the printed filtration"
    if not oracles.verify_adapted_by_perps(filt, pair, b):
        return "the perps oracle rejects the printed filtration"
    return None


def main(argv) -> int:
    pair_path, out_path = argv
    with open(pair_path, encoding="utf-8") as handle:
        pair_doc = json.load(handle)
    with open(out_path, encoding="utf-8") as handle:
        out = json.load(handle)
    reason = problem(pair_doc, out)
    if reason is not None:
        print(f"{pair_path}: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
