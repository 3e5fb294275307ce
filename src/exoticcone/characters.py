"""Weight multiplicities of irreducible Sp(2n)-modules.

Two independent routes compute the multiplicity of a weight lam in the
irreducible module of highest weight mu:

* ``weight_mult``: the alternating Weyl-group sum of type C partition
  counts evaluated at w(mu + rho) - (lam + rho);
* ``weight_mult_oracle``: the Freudenthal recursion, which descends from
  mu along positive roots using exact inner products and shares no
  machinery with the first route.

The ``e_i`` basis is orthonormal, which fixes every pairing normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency
from .kostant import kostant_p
from .rootdata import (
    alternating_sum,
    check_weight,
    dominant_rep,
    require_dominant,
    rho,
    root_data,
    weyl_orbit,
)

_tables = {}
_cache_cap = 1 << 19


def configure_cache(max_entries: int) -> None:
    """Cap the total entries kept over all Freudenthal tables (eviction:
    clear). Like the Kostant memo this takes no lock: a table is a function
    of its key alone."""
    global _cache_cap
    _cache_cap = max(max_entries, 1)
    if sum(map(len, list(_tables.values()))) > _cache_cap:
        _tables.clear()


def _norm2(vec) -> int:
    return sum(c * c for c in vec)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def weight_mult(mu, lam) -> int:
    """Multiplicity of lam in the module of highest weight mu, by the
    alternating Weyl sum against the type C partition count."""
    mu = require_dominant(mu, "mu")
    lam = check_weight(lam)
    return alternating_sum(mu, lam, kostant_p)


def dominant_cone_weights(mu) -> list:
    """Dominant weights lam with mu - lam in the positive-root cone,
    i.e. all prefix sums of mu - lam nonnegative."""
    mu = require_dominant(mu, "mu")
    n = len(mu)
    out = []

    def descend(prefix, used):
        k = len(prefix)
        if k == n:
            out.append(tuple(prefix))
            return
        budget = sum(mu[: k + 1]) - used
        top = min(prefix[-1] if prefix else budget, budget)
        for c in range(top, -1, -1):
            descend(prefix + [c], used + c)

    descend([], 0)
    return out


def _freudenthal_table(mu) -> dict:
    """Multiplicities of all dominant weights of the module V_mu."""
    mu = tuple(mu)
    cached = _tables.get(mu)
    if cached is not None:
        return cached

    n = len(mu)
    data = root_data(n)
    r = rho(n)
    support = [
        lam
        for lam in dominant_cone_weights(mu)
        if (sum(mu) - sum(lam)) % 2 == 0
    ]
    support.sort(key=_norm2, reverse=True)
    top_norm = _norm2(mu)
    shifted_mu_norm = _norm2(_add(mu, r))

    table = {}
    for lam in support:
        if lam == mu:
            table[mu] = 1
            continue
        acc = 0
        for alpha in data.positive_roots:
            beta = lam
            while True:
                beta = _add(beta, alpha)
                if _norm2(beta) > top_norm:
                    break
                m = table.get(dominant_rep(beta)[0], 0)
                if m:
                    acc += m * sum(a * b for a, b in zip(beta, alpha))
        denom = shifted_mu_norm - _norm2(_add(lam, r))
        mult = Fraction(2 * acc, denom)
        if mult.denominator != 1:
            raise InternalInconsistency(
                f"non-integral Freudenthal value at {lam}: {mult}"
            )
        if mult:
            table[lam] = int(mult)

    # list() copies the values in one step under the GIL; iterating the
    # live view raised when another thread stored or cleared meanwhile
    if sum(map(len, list(_tables.values()))) + len(table) > _cache_cap:
        _tables.clear()
    if len(table) <= _cache_cap:
        _tables[mu] = table
    return table


def weight_mult_oracle(mu, lam) -> int:
    """Multiplicity of lam in V_mu by the Freudenthal recursion."""
    mu = require_dominant(mu, "mu")
    lam = check_weight(lam)
    if len(lam) != len(mu):
        return 0
    rep, _ = dominant_rep(lam)
    return _freudenthal_table(mu).get(rep, 0)


def weyl_dim(mu) -> int:
    """Dimension of V_mu by the product formula over positive roots."""
    mu = require_dominant(mu, "mu")
    n = len(mu)
    r = rho(n)
    shifted = _add(mu, r)
    value = Fraction(1)
    for alpha in root_data(n).positive_roots:
        value *= Fraction(
            sum(a * b for a, b in zip(shifted, alpha)),
            sum(a * b for a, b in zip(r, alpha)),
        )
    if value.denominator != 1 or value <= 0:
        raise InternalInconsistency(
            f"Weyl dimension of {mu} came out as {value}"
        )
    return int(value)


@dataclass(frozen=True)
class WeightMultiplicityTable:
    """Full weight diagram of V_mu; zero multiplicities are omitted."""

    highest: tuple
    entries: dict

    def mult(self, lam) -> int:
        return self.entries.get(tuple(lam), 0)

    def dimension(self) -> int:
        return sum(self.entries.values())


def all_weights(mu) -> WeightMultiplicityTable:
    """Weight diagram of V_mu: each dominant multiplicity from the
    Freudenthal table, spread over its Weyl orbit."""
    mu = require_dominant(mu, "mu")
    entries = {}
    for lam, m in _freudenthal_table(mu).items():
        for w_lam in weyl_orbit(lam):
            entries[w_lam] = m
    return WeightMultiplicityTable(highest=mu, entries=entries)
