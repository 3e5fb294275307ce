"""Type C_n root and weight combinatorics.

Weights are integer tuples in an orthonormal basis e_1..e_n of the rank-n
weight lattice (so the standard dot product computes all pairings). The
Weyl group is the hyperoctahedral group of signed permutations.

The twisted action w(lam + theta) - theta, theta = (1/2,...,1/2), is again
integral: a coordinate c moved with sign -1 becomes -c - 1. Theta cancels
in every twisted hull difference, so the twisted tests compare integer
weights too, and no floating point or rational rounding ever enters.
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

    @property
    def rank(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(n)), (1,) * n)

    def act(self, coords):
        """Apply to a coordinate vector: slot perm[i] receives signs[i]
        times entry i."""
        out = [0] * len(coords)
        for i, c in enumerate(coords):
            out[self.perm[i]] = self.signs[i] * c
        return tuple(out)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: (self * other).act(x) == self.act(other.act(x))."""
        perm = tuple(self.perm[other.perm[i]] for i in range(self.rank))
        signs = tuple(
            other.signs[i] * self.signs[other.perm[i]] for i in range(self.rank)
        )
        return SignedPermutation(perm, signs)

    def inverse(self) -> "SignedPermutation":
        perm = [0] * self.rank
        signs = [1] * self.rank
        for i in range(self.rank):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(perm), tuple(signs))

    def sign(self) -> int:
        """Determinant of the signed permutation matrix."""
        inv = 0
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
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
    multiplicity formula; ``count`` is any function of one weight.
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


def twisted_act(w: SignedPermutation, lam) -> Weight:
    """The theta-shifted action w(lam + theta) - theta: entry c lands in
    slot perm[i] as c under sign +1 and as -c - 1 under sign -1."""
    lam = check_weight(lam)
    check_same_rank(w.perm, lam)
    out = [0] * len(lam)
    for c, slot, s in zip(lam, w.perm, w.signs):
        out[slot] = c if s == 1 else -c - 1
    return tuple(out)


def twisted_w0(lam) -> Weight:
    """Image of lam under the twisted action of the longest element."""
    lam = check_weight(lam)
    return tuple(-c - 1 for c in lam)


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
    """The set {w(mu)}; closure of mu under the simple reflections."""
    mu = tuple(mu)
    n = len(mu)
    seen = {mu}
    frontier = [mu]
    while frontier:
        fresh = []
        for v in frontier:
            images = []
            for i in range(n - 1):
                u = list(v)
                u[i], u[i + 1] = u[i + 1], u[i]
                images.append(tuple(u))
            if n:
                u = list(v)
                u[-1] = -u[-1]
                images.append(tuple(u))
            for u in images:
                if u not in seen:
                    seen.add(u)
                    fresh.append(u)
        frontier = fresh
    return seen


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


def in_conv0(lam, mu) -> bool:
    mu = require_dominant(mu, "mu")
    return dominant_rep(lam) != mu and in_conv(lam, mu)


def _twisted_rep(lam) -> Weight:
    """The rep with rep + theta dominant in the twisted orbit of lam: the
    descending sort of max(c, -c - 1) = |c + 1/2| - 1/2."""
    return tuple(sorted((max(c, -c - 1) for c in check_weight(lam)),
                        reverse=True))


def in_tconv(lam, mu) -> bool:
    """Hull membership for the twisted action: lam + theta against the
    orbit of mu + theta. Theta cancels in the difference of the reps."""
    a, b = _twisted_rep(lam), _twisted_rep(mu)
    check_same_rank(a, b)
    return in_root_cone([x - y for x, y in zip(b, a)])


def in_tconv0(lam, mu) -> bool:
    return _twisted_rep(lam) != _twisted_rep(mu) and in_tconv(lam, mu)


def quasi_order(weights) -> list:
    """Total order on dominant weights compatible with twisted-hull
    membership: lam in the twisted hull of mu (lam != mu) sorts lam first.

    Key: |2 lam + 1|^2 ascending (four times |lam + theta|^2), ties broken
    lexicographically on coordinates.
    """
    items = [require_dominant(w) for w in weights]
    return sorted(items, key=lambda lam: (
        sum((2 * c + 1) ** 2 for c in lam), lam))
