"""Type C_n root and weight combinatorics.

Weights are integer tuples in an orthonormal basis e_1..e_n of the rank-n
weight lattice (so the standard dot product computes all pairings). The
Weyl group is the hyperoctahedral group of signed permutations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DomainError
from .records import Record

Weight = tuple  # tuple[int, ...]


def check_weight(lam) -> Weight:
    lam = tuple(lam)
    if not all(type(c) is int for c in lam):
        raise DomainError(f"weight coordinates must be integers: {lam!r}")
    return lam


def check_same_rank(mu, lam) -> None:
    if len(mu) != len(lam):
        raise DomainError("rank mismatch")


class SignedPermutation(Record):
    """Hyperoctahedral group element: entry i goes to slot perm[i], scaled
    by signs[i]. Slots and entries are 0-indexed."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise DomainError(f"not a permutation of 0..{n - 1}: {self.perm}")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise DomainError(f"signs must be +-1: {self.signs}")

    def act(self, coords):
        """Apply to a coordinate vector: slot perm[i] receives signs[i]
        times entry i."""
        out = [0] * len(coords)
        for i, c in enumerate(coords):
            out[self.perm[i]] = self.signs[i] * c
        return tuple(out)

    def sign(self) -> int:
        """Determinant of the signed permutation matrix."""
        inv = 0
        n = len(self.perm)
        for i in range(n):
            for j in range(i + 1, n):
                if self.perm[i] > self.perm[j]:
                    inv += 1
        s = -1 if inv % 2 else 1
        for x in self.signs:
            s *= x
        return s


def signed_permutations(n: int):
    """All 2^n n! group elements."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(perm, signs)


class RootDataC(Record):
    """Rank-n type C root data plus the weight multisets used elsewhere.

    ``exotic_weights`` is the positive-root multiset with every long root
    2e_i replaced by e_i; it is the torus-weight multiset of the bundle
    whose sections are counted in :mod:`exoticcone.sections`.
    """

    rank: int
    positive_roots: tuple
    exotic_weights: tuple
    rho: tuple


def _unit(n: int, i: int, value: int = 1) -> Weight:
    return tuple(value if k == i else 0 for k in range(n))


@lru_cache(maxsize=None)
def root_data(n: int) -> RootDataC:
    if n < 0:
        raise DomainError("rank must be nonnegative")
    short = []
    for i in range(n):
        for j in range(i + 1, n):
            short.append(tuple((k == i) - (k == j) for k in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            short.append(tuple((k == i) + (k == j) for k in range(n)))
    positive = tuple(short + [_unit(n, i, 2) for i in range(n)])
    exotic = tuple(short + [_unit(n, i, 1) for i in range(n)])
    return RootDataC(
        rank=n,
        positive_roots=positive,
        exotic_weights=exotic,
        rho=tuple(range(n, 0, -1)),
    )


def rho(n: int) -> Weight:
    return root_data(n).rho


def alternating_sum(mu, lam, count) -> int:
    """Sum over the Weyl group of sign(w) * count(w(mu + rho) - (lam + rho)).

    With a partition count over the positive roots this is Kostant's
    multiplicity formula; ``count`` is any function of one weight. It
    receives int tuples of rank n built from mu and lam, which the callers
    validate, so it may skip validation, as ``kostant.counter`` does.
    """
    check_same_rank(mu, lam)
    n = len(mu)
    r = rho(n)
    shifted_lam = tuple(a + b for a, b in zip(lam, r))
    # w = (perm, signs), in the order of signed_permutations, with no
    # SignedPermutation built: sign(w) is the inversion parity of perm,
    # taken once per perm, times the product of the signs, and slot j of
    # w(mu + rho) holds signs[i] * (mu + rho)[i] for i = perm^-1(j).
    signed_mu = []
    for signs in itertools.product((1, -1), repeat=n):
        sign = 1
        coords = []
        for s, a, b in zip(signs, mu, r):
            sign *= s
            coords.append(s * (a + b))
        signed_mu.append((sign, coords))
    total = 0
    for perm in itertools.permutations(range(n)):
        parity = (-1) ** sum(perm[i] > perm[j]
                             for i in range(n) for j in range(i + 1, n))
        source = sorted(range(n), key=perm.__getitem__)
        for sign, coords in signed_mu:
            arg = tuple(coords[i] - c for i, c in zip(source, shifted_lam))
            total += parity * sign * count(arg)
    return total


def is_dominant(lam) -> bool:
    lam = check_weight(lam)
    return all(a >= b for a, b in zip(lam, lam[1:])) and (
        not lam or lam[-1] >= 0
    )


def require_dominant(lam, name: str = "weight") -> Weight:
    lam = check_weight(lam)
    if not is_dominant(lam):
        raise DomainError(f"{name} must be dominant: {lam}")
    return lam


def dominant_rep(lam) -> Weight:
    """Dominant representative of the W-orbit: the descending sort of the
    absolute values."""
    return tuple(sorted((abs(c) for c in lam), reverse=True))


def bwb(lam):
    """Regularize lam + rho into the strictly dominant chamber.

    Returns None when lam + rho is singular (a zero entry or a repeated
    absolute value), else (sign, mu) where the unique w with w(lam + rho)
    strictly dominant has the given sign and mu = w(lam + rho) - rho.
    """
    lam = check_weight(lam)
    r = rho(len(lam))
    shifted = tuple(a + b for a, b in zip(lam, r))
    magnitudes = [abs(c) for c in shifted]
    if 0 in magnitudes or len(set(magnitudes)) < len(lam):
        return None
    # w flips the negative entries, then sorts the magnitudes descending;
    # its sign counts the flips and the pairs that the sort reverses
    flips = sum(c < 0 for c in shifted)
    reversed_pairs = sum(a < b for i, a in enumerate(magnitudes)
                         for b in magnitudes[i + 1:])
    sign = -1 if (flips + reversed_pairs) % 2 else 1
    return sign, tuple(a - b for a, b in zip(dominant_rep(shifted), r))


def weyl_orbit(mu) -> set:
    """The set {w(mu)}: every arrangement of the entries of mu, each with
    either sign, built by inserting the absolute values at every position
    with both signs, smallest first, while the set is still small."""
    orbit = {()}
    for c in sorted(map(abs, mu)):
        orbit = {v[:i] + s + v[i:] for v in orbit
                 for i in range(len(v) + 1) for s in ((c,), (-c,))}
    return orbit


def in_root_cone(vec) -> bool:
    """Is vec a nonnegative combination of the positive roots?

    Over the simple roots e_i - e_{i+1} and 2 e_n the coefficients of vec
    are its prefix sums (the last one halved), so the cone is exactly the
    set of vectors whose prefix sums are all nonnegative.
    """
    running = 0
    for c in vec:
        running += c
        if running < 0:
            return False
    return True


def in_conv(lam, mu) -> bool:
    """Does lam lie in the convex hull of the W-orbit of dominant mu?"""
    mu = require_dominant(mu, "mu")
    lam = check_weight(lam)
    check_same_rank(mu, lam)
    return in_root_cone([a - b for a, b in zip(mu, dominant_rep(lam))])
