"""Bipartitions of n, their closure order, and the collapse maps onto
partitions of 2n whose odd parts have even multiplicity.

A partition is a tuple of weakly decreasing positive ints (trailing zeros
are normalized away except inside position-sensitive compositions). A
bipartition (mu, nu) with |mu| + |nu| = n indexes a symplectic orbit on
pairs (v, x); the order ``closure_leq`` is the closure order of those
orbits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, InternalInconsistency
from .records import Record

Partition = tuple


def as_partition(parts) -> Partition:
    parts = tuple(int(p) for p in parts)
    if any(a < b for a, b in zip(parts, parts[1:])) or any(p < 0 for p in parts):
        raise DomainError(f"not a partition: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


class Bipartition(NamedTuple):
    mu: Partition
    nu: Partition

    @property
    def size(self) -> int:
        return sum(self.mu) + sum(self.nu)


def bipartition(mu, nu) -> Bipartition:
    return Bipartition(as_partition(mu), as_partition(nu))


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple:
    """All partitions of k, in descending lexicographic order."""
    if k < 0:
        return ()
    out = []

    def descend(prefix, remaining, top):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(top, remaining), 0, -1):
            descend(prefix + [p], remaining - p, p)

    descend([], k, k)
    return tuple(out)


def enumerate_Q(n: int) -> list:
    """All bipartitions of n, |mu| descending."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    out = []
    for k in range(n, -1, -1):
        for mu in partitions(k):
            for nu in partitions(n - k):
                out.append(Bipartition(mu, nu))
    return out


def _part(parts, i: int) -> int:
    return parts[i] if 0 <= i < len(parts) else 0


def closure_leq(lo: Bipartition, hi: Bipartition) -> bool:
    """Closure order: lo <= hi.

    Requires, for every j >= 0, that the prefix sums of mu + nu dominate
    and that the same holds after appending the next mu part.
    """
    if lo.size != hi.size:
        raise DomainError("bipartitions of different sizes are incomparable")
    n = lo.size
    acc_lo = acc_hi = 0
    if _part(hi.mu, 0) < _part(lo.mu, 0):
        return False
    for j in range(n + 1):
        acc_lo += _part(lo.mu, j) + _part(lo.nu, j)
        acc_hi += _part(hi.mu, j) + _part(hi.nu, j)
        if acc_hi < acc_lo:
            return False
        if acc_hi + _part(hi.mu, j + 1) < acc_lo + _part(lo.mu, j + 1):
            return False
    return True


def is_C_distinguished(b: Bipartition) -> bool:
    """mu_i >= nu_i - 1 and nu_i >= mu_{i+1} - 1 for all i."""
    length = max(len(b.mu), len(b.nu)) + 1
    for i in range(length):
        if _part(b.mu, i) < _part(b.nu, i) - 1:
            return False
        if _part(b.nu, i) < _part(b.mu, i + 1) - 1:
            return False
    return True


def _interleave(b: Bipartition) -> list:
    k = max(len(b.mu), len(b.nu))
    comp = []
    for i in range(k):
        comp.append(2 * _part(b.mu, i))
        comp.append(2 * _part(b.nu, i))
    return comp


def _ascents(comp) -> list:
    return [i for i in range(len(comp) - 1) if comp[i] < comp[i + 1]]


def rewrite_to_partition(comp, choose=None) -> Partition:
    """Sort a composition by merging ascending adjacent pairs (2s, 2t),
    s < t, into (s + t, s + t) until it is weakly decreasing.

    ``choose`` picks which eligible ascent to rewrite next (default: the
    leftmost); any choice reaches the same partition, which the test suite
    checks with randomized orders.
    """
    comp = list(comp)
    guard = 4 * len(comp) * len(comp) + 8
    for _ in range(guard):
        spots = _ascents(comp)
        if not spots:
            parts = tuple(p for p in comp if p)
            return as_partition(parts)
        i = spots[0] if choose is None else choose(spots)
        a, b = comp[i], comp[i + 1]
        if a % 2 or b % 2:
            raise InternalInconsistency(
                f"ascending pair with an odd member at {i}: ({a}, {b})"
            )
        comp[i] = comp[i + 1] = (a + b) // 2
    raise InternalInconsistency("composition rewrite did not terminate")


def phiC(b: Bipartition) -> Partition:
    """Collapse a bipartition of n to a partition of 2n whose odd parts
    come in even multiplicity."""
    lam = rewrite_to_partition(_interleave(b))
    if not _odd_parts_doubled(lam):
        raise InternalInconsistency(f"collapse left an unpaired odd part: {lam}")
    return lam


def _odd_parts_doubled(lam) -> bool:
    counts = {}
    for p in lam:
        if p % 2:
            counts[p] = counts.get(p, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def phiC_hat(lam) -> Bipartition:
    """Inverse collapse: halve even parts, rewrite each run of equal odd
    parts 2k+1 as alternating (k, k+1), then split by position parity."""
    lam = as_partition(lam)
    if not _odd_parts_doubled(lam):
        raise DomainError(f"odd parts must have even multiplicity: {lam}")
    if sum(lam) % 2:
        raise DomainError(f"partition size must be even: {lam}")
    comp = []
    i = 0
    while i < len(lam):
        p = lam[i]
        if p % 2 == 0:
            comp.append(p // 2)
            i += 1
        else:
            run = i
            while run < len(lam) and lam[run] == p:
                run += 1
            k = (p - 1) // 2
            comp.extend([k, k + 1] * ((run - i) // 2))
            i = run
    if len(comp) % 2:
        comp.append(0)
    mu, nu = comp[0::2], comp[1::2]
    try:
        result = Bipartition(as_partition(mu), as_partition(nu))
    except DomainError as exc:
        raise InternalInconsistency(
            f"inverse collapse of {lam} produced a non-partition"
        ) from exc
    if not is_C_distinguished(result):
        raise InternalInconsistency(f"inverse collapse not distinguished: {result}")
    return result


def collapse(b: Bipartition) -> Bipartition:
    """Round trip through partitions of 2n; the result is always
    C-distinguished and is a fixed point of collapse."""
    return phiC_hat(phiC(b))


class FiltrationProfile(Record):
    """Dimensions dim V_{>= a} over the saturated index range."""

    n: int
    levels: tuple  # sorted ((a, dim), ...) covering the full range

    def dim(self, a: int) -> int:
        lo, hi = self.levels[0][0], self.levels[-1][0]
        if a < lo:
            return 2 * self.n
        if a > hi:
            return 0
        return dict(self.levels)[a]

    def items(self):
        return list(self.levels)

    def as_dict(self) -> dict:
        return dict(self.levels)


def filtration_dims(b: Bipartition) -> FiltrationProfile:
    """Profile of the filtration attached to b: for a >= 1 the dimension
    is sum_i max(ceil((lam_i - a) / 2), 0) with lam the collapse of b, and
    a <= 0 mirrors it through dim V_{>= a} + dim V_{>= 1-a} = 2n."""
    lam = phiC(b)
    n = b.size
    top = lam[0] if lam else 1

    def upper(a: int) -> int:
        return sum(max(-((p - a) // -2), 0) for p in lam)

    levels = {}
    for a in range(1, top + 1):
        levels[a] = upper(a)
    for a in range(1 - top, 1):
        levels[a] = 2 * n - levels[1 - a]
    return FiltrationProfile(n=n, levels=tuple(sorted(levels.items())))


def dominance_leq(lam, kappa) -> bool:
    """Dominance order on partitions of equal size."""
    lam, kappa = as_partition(lam), as_partition(kappa)
    if sum(lam) != sum(kappa):
        raise DomainError("dominance compares partitions of equal size")
    acc_l = acc_k = 0
    for i in range(max(len(lam), len(kappa))):
        acc_l += _part(lam, i)
        acc_k += _part(kappa, i)
        if acc_l > acc_k:
            return False
    return True


def hasse(n: int) -> list:
    """Covering pairs (lower, upper) of the closure order on bipartitions
    of n: the transitive reduction of closure_leq."""
    elems = enumerate_Q(n)
    below = {
        b: [a for a in elems if a != b and closure_leq(a, b)] for b in elems
    }
    edges = []
    for b in elems:
        for a in below[b]:
            if not any(closure_leq(a, c) for c in below[b] if c != a):
                edges.append((a, b))
    return edges


def _label(b: Bipartition) -> str:
    return ",".join(map(str, b.mu)) + "|" + ",".join(map(str, b.nu))


def emit_dot(n: int) -> str:
    """DOT digraph of the Hasse diagram, edges pointing up the order;
    C-distinguished nodes get a doubled border."""
    lines = ["digraph bipartition_poset {", "  node [shape=box];"]
    for b in enumerate_Q(n):
        extra = " [peripheries=2]" if is_C_distinguished(b) else ""
        lines.append(f'  "{_label(b)}"{extra};')
    for lo, hi in hasse(n):
        lines.append(f'  "{_label(lo)}" -> "{_label(hi)}";')
    lines.append("}")
    return "\n".join(lines)
