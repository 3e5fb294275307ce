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
recursion terminates. The memo is shared per (rank, multiset) pair and
clears itself when it outgrows the configured cap. It takes no lock: a
memo value is a function of its key alone, so concurrent callers can at
worst recompute or evict an entry, never store a wrong one.
"""

from __future__ import annotations

import itertools

from .rootdata import check_weight, in_root_cone, root_data

_cache_cap = 1 << 19
_registry = {}


def configure_cache(max_entries: int) -> None:
    """Cap the number of memo entries kept per counter (eviction: clear)."""
    global _cache_cap
    if max_entries < 1:
        max_entries = 1
    _cache_cap = max_entries
    for counter in list(_registry.values()):
        counter.cap = max_entries


def _lead(vec) -> int:
    return next(i for i, c in enumerate(vec) if c)


class _Counter:
    __slots__ = ("summands", "closing", "memo", "cap")

    def __init__(self, summands):
        # stable, so each group keeps the root-data order
        self.summands = tuple(sorted(summands, key=_lead))
        leads = [_lead(s) for s in self.summands] + [None]
        # the coordinate a summand closes: no later summand touches it
        self.closing = tuple(g if g != after else None
                             for g, after in zip(leads, leads[1:]))
        self.memo = {}
        self.cap = _cache_cap

    def count(self, target) -> int:
        if not in_root_cone(target):
            return 0
        return self._count(0, tuple(target))

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
        if len(self.memo) >= self.cap:
            self.memo.clear()
        self.memo[key] = total
        return total


def _counter(n: int, exotic: bool) -> _Counter:
    key = (n, exotic)
    counter = _registry.get(key)
    if counter is None:
        data = root_data(n)
        summands = data.exotic_weights if exotic else data.positive_roots
        # setdefault is atomic, so racing first callers share one counter
        counter = _registry.setdefault(key, _Counter(summands))
    return counter


def kostant_p(mu) -> int:
    """Partition count of mu over the type C positive roots."""
    mu = check_weight(mu)
    return _counter(len(mu), exotic=False).count(mu)


def kostant_p_exotic(mu) -> int:
    """Partition count of mu with the long roots 2 e_i replaced by e_i."""
    mu = check_weight(mu)
    return _counter(len(mu), exotic=True).count(mu)


def subset_identity_check(mu) -> bool:
    """Check p_exotic(mu) = sum over subsets S of p(mu - sum_{i in S} e_i).

    The identity holds because the two generating products differ by the
    factor prod_i (1 + e^{e_i}). The acceptance suite checks the identity
    through this function.
    """
    mu = check_weight(mu)
    n = len(mu)
    total = 0
    for picks in itertools.product((0, 1), repeat=n):
        total += kostant_p(tuple(c - p for c, p in zip(mu, picks)))
    return total == kostant_p_exotic(mu)
