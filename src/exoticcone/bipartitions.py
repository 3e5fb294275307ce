"""Bipartitions of n, their closure order, and the collapse maps onto
partitions of 2n whose odd parts have even multiplicity.

A partition is a tuple of weakly decreasing positive ints (trailing zeros
are normalized away except inside position-sensitive compositions). A
bipartition (mu, nu) with |mu| + |nu| = n indexes a symplectic orbit on
pairs (v, x); the order ``closure_leq`` is the closure order of those
orbits. It is componentwise <= on the interleaved prefix sums
(mu_1, mu_1 + nu_1, mu_1 + nu_1 + mu_2, ...) (P. Achar and A. Henderson,
"Orbit closures in the enhanced nilpotent cone", Adv. Math. 219, 2008,
Thm 3.9), so ``hasse`` builds each bipartition's vector once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import le
from typing import NamedTuple

from .errors import DomainError, InternalInconsistency
from .records import Record

Partition = tuple


def as_partition(parts) -> Partition:
    parts = tuple(parts)
    if not all(type(p) is int for p in parts):
        raise DomainError(f"partition parts must be integers: {parts!r}")
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


def _prefix_vector(b: Bipartition) -> tuple:
    """The interleaved prefix sums (mu_1, mu_1 + nu_1, mu_1 + nu_1 + mu_2,
    ...) over size + 1 pairs of parts."""
    return tuple(accumulate(_part(parts, j)
                            for j in range(b.size + 1) for parts in b))


def closure_leq(lo: Bipartition, hi: Bipartition) -> bool:
    """Closure order: lo <= hi, componentwise on the prefix vectors."""
    if lo.size != hi.size:
        raise DomainError("bipartitions of different sizes are incomparable")
    return all(map(le, _prefix_vector(lo), _prefix_vector(hi)))


def orbit_dim(b: Bipartition) -> int:
    """Dimension of the orbit b in the exotic nilpotent cone of Sp(2n):
    2(n^2 - n - 2 b(mu + nu) + |mu|), where b(lam) = sum_i (i - 1) lam_i
    and mu + nu adds parts. That is twice the dimension dim O_{mu + nu} +
    |mu| of the orbit (mu; nu) of the enhanced nilpotent cone
    (Achar-Henderson 2008). It runs from 0 on (∅; 1^n) to 2n^2 on
    ((n); ∅), and rises strictly along ``closure_leq``."""
    k = max(len(b.mu), len(b.nu))
    lam = [_part(b.mu, i) + _part(b.nu, i) for i in range(k)]
    n = b.size
    return 2 * (n * n - n - 2 * sum(i * p for i, p in enumerate(lam))
                + sum(b.mu))


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

    def __post_init__(self):
        object.__setattr__(self, "_by_index", dict(self.levels))

    def dim(self, a: int) -> int:
        # below the range the level is the whole space, above it zero
        outside = 2 * self.n if a < self.levels[0][0] else 0
        return self._by_index.get(a, outside)

    def items(self):
        return list(self.levels)

    def as_dict(self) -> dict:
        return dict(self._by_index)


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
    of n: the transitive reduction of closure_leq, grouped by upper, each
    group in the order of enumerate_Q."""
    elems = enumerate_Q(n)
    vecs = [_prefix_vector(b) for b in elems]
    # bit i of below[j] is set when elems[i] < elems[j]
    below = [sum(1 << i for i, u in enumerate(vecs)
                 if u != v and all(map(le, u, v))) for v in vecs]
    edges = []
    for b, mask in zip(elems, below):
        covers = mask
        for i in range(len(elems)):
            if mask >> i & 1:
                covers &= ~below[i]
        edges += [(a, b) for i, a in enumerate(elems) if covers >> i & 1]
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
