"""Vector partition counts over two rank-n weight multisets.

``kostant_p`` counts expressions of a weight as a nonnegative integer
combination of the type C positive roots e_i - e_j, e_i + e_j (i < j) and
2 e_i. ``kostant_p_exotic`` counts over the same multiset with the long
roots 2 e_i replaced by e_i. Counts are exact Python ints (arbitrary
precision).

Algorithm: recursion over the summands, memoized on (summand index,
residual). The summands are sorted stably by leading coordinate (the index
of their first nonzero entry), so they fall into groups g = 0..n-1, and
once group g is done no later summand touches coordinates 0..g. At the
last summand s of group g the multiplicity is therefore forced:
c = residual[g] / s[g]. That step does not loop and keeps no memo entry; a
branch where the division is not exact, or where the new residual leaves
the root cone, is dead there, one group early, instead of being memoized
as zeros through the summands that remain. Every summand has nonnegative
prefix sums, so a residual with a negative prefix sum is unreachable and
prunes the branch; the same fact bounds the other coefficients, so the
recursion terminates. The memo is shared per (rank, multiset) pair, and
a miss stores through ``config.store``, the one eviction rule of all memos.

``counter(n, exotic)`` returns that shared count as a function of one int
tuple of length n, and validates nothing. ``kostant_p`` and
``kostant_p_exotic`` are ``check_weight`` plus that function. The Weyl sums
of :mod:`exoticcone.characters` and :mod:`exoticcone.sections` fetch it
once per sum and call it on terms built from weights they have already
validated, so no term pays for ``check_weight``.
"""

from __future__ import annotations

import itertools

from . import config
from .rootdata import check_weight, in_root_cone, root_data

_registry = {}


def _lead(vec) -> int:
    return next(i for i, c in enumerate(vec) if c)


class _Counter:
    __slots__ = ("summands", "closing", "memo")

    def __init__(self, summands):
        # stable, so each group keeps the root-data order
        self.summands = tuple(sorted(summands, key=_lead))
        leads = [_lead(s) for s in self.summands] + [None]
        # the coordinate a summand closes: no later summand touches it
        self.closing = tuple(g if g != after else None
                             for g, after in zip(leads, leads[1:]))
        self.memo = config.new_memo()

    def count(self, target) -> int:
        return self._count(0, target) if in_root_cone(target) else 0

    def _count(self, k: int, residual) -> int:
        if not any(residual):
            return 1
        if k == len(self.summands):
            return 0
        s = self.summands[k]
        g = self.closing[k]
        if g is not None:
            c, rem = divmod(residual[g], s[g])
            if rem or c < 0:
                return 0
            r = tuple(a - c * b for a, b in zip(residual, s))
            return self._count(k + 1, r) if in_root_cone(r) else 0
        key = (k, residual)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        total = 0
        r = residual
        while True:
            total += self._count(k + 1, r)
            r = tuple(a - b for a, b in zip(r, s))
            if not in_root_cone(r):
                break
        return config.store(self.memo, key, total)


def counter(n: int, exotic: bool):
    """The rank-n partition count, over the exotic weights if ``exotic``
    and over the positive roots if not. It takes an int tuple of length n
    and does no validation."""
    key = (n, exotic)
    shared = _registry.get(key)
    if shared is None:
        data = root_data(n)
        summands = data.exotic_weights if exotic else data.positive_roots
        # setdefault is atomic, so racing first callers share one counter
        shared = _registry.setdefault(key, _Counter(summands))
    return shared.count


def kostant_p(mu) -> int:
    """Partition count of mu over the type C positive roots."""
    mu = check_weight(mu)
    return counter(len(mu), exotic=False)(mu)


def kostant_p_exotic(mu) -> int:
    """Partition count of mu with the long roots 2 e_i replaced by e_i."""
    mu = check_weight(mu)
    return counter(len(mu), exotic=True)(mu)


def subset_identity_check(mu) -> bool:
    """Check p_exotic(mu) = sum over subsets S of p(mu - sum_{i in S} e_i).

    The identity holds because the two generating products differ by the
    factor prod_i (1 + e^{e_i}). The acceptance suite checks the identity
    through this function.
    """
    mu = check_weight(mu)
    n = len(mu)
    count = counter(n, exotic=False)
    total = 0
    for picks in itertools.product((0, 1), repeat=n):
        total += count(tuple(c - p for c, p in zip(mu, picks)))
    return total == counter(n, exotic=True)(mu)
