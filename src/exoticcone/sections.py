"""Multiplicities of irreducibles in the global sections of dominant line
bundles on the resolution of the exotic nilpotent cone.

Route A (``h0_mult``) evaluates the alternating Weyl sum of exotic
partition counts at w(mu + rho) - (lam + rho). Route B
(``h0_mult_subsets``) evaluates the equivalent 2^n-term sum of weight
multiplicities m_mu(lam + e_S) through the Freudenthal oracle, so the two
routes share no kernel. Both are first-class API; the CLI can emit both
with a diff.

The space of sections is an infinite direct sum over dominant mu;
``h0_decompose`` reports the finitely many mu inside a degree window and
does not truncate any individual multiplicity. Values are always
nonnegative (the higher cohomology of these bundles vanishes) and vanish
unless lam lies in the hull of the orbit of mu; both facts are enforced or
checked here. Derived-category bookkeeping attaches a degree shift of
n * n (half the dimension of the cone) to these section spaces; it never
affects multiplicities and is recorded here only as documentation.
"""

from __future__ import annotations

import itertools

from .characters import _add, dominant_cone_weights, weight_mult_oracle
from .errors import InternalInconsistency
from .kostant import counter
from .rootdata import (
    alternating_sum,
    check_same_rank,
    in_conv,
    require_dominant,
)


def h0_mult(mu, lam) -> int:
    """Multiplicity of V_mu in the sections of the bundle twisted by lam."""
    mu = require_dominant(mu, "mu")
    lam = require_dominant(lam, "lambda")
    total = alternating_sum(mu, lam, counter(len(mu), exotic=True))
    if total < 0:
        raise InternalInconsistency(
            f"negative section multiplicity {total} at mu={mu}, lam={lam}"
        )
    return total


def h0_mult_subsets(mu, lam) -> int:
    """Same multiplicity as a sum of weight multiplicities over all
    subsets S of coordinates: sum_S m_mu(lam + e_S)."""
    mu = require_dominant(mu, "mu")
    lam = require_dominant(lam, "lambda")
    check_same_rank(mu, lam)
    n = len(mu)
    total = 0
    for picks in itertools.product((0, 1), repeat=n):
        total += weight_mult_oracle(mu, _add(lam, picks))
    if total < 0:
        raise InternalInconsistency(
            f"negative section multiplicity {total} at mu={mu}, lam={lam}"
        )
    return total


def dominant_weights_of_degree(n: int, k: int) -> list:
    """Dominant weights of rank n with coordinate sum exactly k, in
    descending lexicographic order. A dominant weight of degree at most k
    has every prefix sum at most k, so it lies under k e_1."""
    if k < 0:
        return []
    return [mu for mu in dominant_cone_weights(((k,) + (0,) * n)[:n])
            if sum(mu) == k]


def h0_decompose(lam, degree_bound: int) -> dict:
    """All dominant mu with coordinate sum at most degree_bound and a
    nonzero multiplicity in the sections twisted by lam.

    The bound is a view window over an infinite decomposition; each
    reported multiplicity is exact.
    """
    lam = require_dominant(lam, "lambda")
    if degree_bound < 0:
        return {}
    n = len(lam)
    out = {}
    for k in range(degree_bound + 1):
        for mu in dominant_weights_of_degree(n, k):
            if not in_conv(lam, mu):
                continue
            value = h0_mult(mu, lam)
            if value:
                out[mu] = value
    return out
