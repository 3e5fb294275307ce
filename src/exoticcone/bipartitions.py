"""Bipartitions of n, their closure order, and the collapse maps onto
partitions of 2n whose odd parts have even multiplicity.

A partition is a tuple of weakly decreasing positive ints (trailing zeros
are normalized away except inside position-sensitive compositions). A
bipartition (mu, nu) with |mu| + |nu| = n indexes a symplectic orbit on
pairs (v, x); the order ``closure_leq`` is the closure order of those
orbits. The order, the collapse and C-distinguishedness all read one
sequence, the interleaved parts (mu_1, nu_1, mu_2, nu_2, ...). The order
is componentwise <= on its prefix sums (P. Achar and A. Henderson, "Orbit
closures in the enhanced nilpotent cone", Adv. Math. 219, 2008, Thm 3.9),
so ``hasse`` builds each bipartition's vector once. ``phiC`` doubles it
and merges its ascents in one pass, since no entry lies in two ascents.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, groupby
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
    """All partitions of k, in descending lexicographic order: each first
    part p from k down, then each cached partition of k - p with parts <= p."""
    if k <= 0:
        return ((),) if k == 0 else ()
    return tuple((p,) + rest for p in range(k, 0, -1)
                 for rest in partitions(k - p) if not rest or rest[0] <= p)


def enumerate_Q(n: int) -> list:
    """All bipartitions of n, |mu| descending."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return [Bipartition(mu, nu) for k in range(n, -1, -1)
            for mu in partitions(k) for nu in partitions(n - k)]


def _part(parts, i: int) -> int:
    return parts[i] if 0 <= i < len(parts) else 0


def _interleaved(b: Bipartition, pairs: int) -> list:
    """The interleaved parts (mu_1, nu_1, mu_2, nu_2, ...) over ``pairs``
    pairs, padded with zeros."""
    return [_part(parts, j) for j in range(pairs) for parts in b]


def _prefix_vector(b: Bipartition) -> tuple:
    """The interleaved prefix sums (mu_1, mu_1 + nu_1, mu_1 + nu_1 + mu_2,
    ...) over size + 1 pairs of parts."""
    return tuple(accumulate(_interleaved(b, b.size + 1)))


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
    """mu_i >= nu_i - 1 and nu_i >= mu_{i+1} - 1 for all i: no entry of the
    interleaved sequence exceeds the one before it by more than 1."""
    seq = _interleaved(b, max(len(b.mu), len(b.nu)) + 1)
    return all(t - s <= 1 for s, t in zip(seq, seq[1:]))


def phiC(b: Bipartition) -> Partition:
    """Collapse a bipartition of n to a partition of 2n whose odd parts
    come in even multiplicity: double the interleaved sequence, then
    replace each ascending adjacent pair (2s, 2t) by (s + t, s + t).

    One left-to-right pass merges them all. No entry lies in two ascents:
    2 mu_i < 2 nu_i gives 2 nu_i > 2 mu_i >= 2 mu_{i+1}, and 2 nu_i <
    2 mu_{i+1} gives 2 mu_{i+1} > 2 nu_i >= 2 nu_{i+1}. A merged pair
    ascends over neither neighbour, so the pass reaches the partition that
    merging ascents one at a time reaches, in any order."""
    comp = [2 * p for p in _interleaved(b, max(len(b.mu), len(b.nu)))]
    for i in range(len(comp) - 1):
        if comp[i] < comp[i + 1]:
            comp[i] = comp[i + 1] = (comp[i] + comp[i + 1]) // 2
    lam = tuple(p for p in comp if p)
    if any(a < c for a, c in zip(lam, lam[1:])):
        raise InternalInconsistency(f"collapse is not a partition: {lam}")
    if not _odd_parts_doubled(lam):
        raise InternalInconsistency(f"collapse left an unpaired odd part: {lam}")
    return lam


def _odd_parts_doubled(lam) -> bool:
    """Each run of an odd part has even length (lam non-increasing)."""
    return all(p % 2 == 0 or len(list(run)) % 2 == 0
               for p, run in groupby(lam))


def phiC_hat(lam) -> Bipartition:
    """Inverse collapse: halve even parts, rewrite each run of equal odd
    parts 2k+1 as alternating (k, k+1), then split by position parity."""
    lam = as_partition(lam)
    if not _odd_parts_doubled(lam):
        raise DomainError(f"odd parts must have even multiplicity: {lam}")
    if sum(lam) % 2:
        raise DomainError(f"partition size must be even: {lam}")
    comp = []
    for p, run in groupby(lam):
        m = len(list(run))
        comp += [p // 2] * m if p % 2 == 0 else [p // 2, p // 2 + 1] * (m // 2)
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
    """Dimensions dim V_{>= a} over the saturated index range, one entry
    per index from lo up, so dim V_{>= a} is entry a - lo."""

    n: int
    levels: tuple  # ((lo, dim), (lo + 1, dim), ...) over the full range

    def dim(self, a: int) -> int:
        # below the range the level is the whole space, above it zero
        lo, hi = self.levels[0][0], self.levels[-1][0]
        if a < lo:
            return 2 * self.n
        return self.levels[a - lo][1] if a <= hi else 0

    def items(self):
        return list(self.levels)

    def as_dict(self) -> dict:
        return dict(self.levels)


@lru_cache(maxsize=256)
def filtration_dims(b: Bipartition) -> FiltrationProfile:
    """Profile of the filtration attached to b: for a >= 1 the dimension
    is sum_i max(ceil((lam_i - a) / 2), 0) with lam the collapse of b, and
    a <= 0 mirrors it through dim V_{>= a} + dim V_{>= 1-a} = 2n.

    Computed once per bipartition: the profile is immutable, asked for
    when an adapted filtration is built and when ``verify_adapted``
    checks one in full. The 256 most recent are kept: every orbit to n = 7."""
    lam = phiC(b)
    n = b.size
    top = lam[0] if lam else 1

    def upper(a: int) -> int:
        return sum(max(-((p - a) // -2), 0) for p in lam)

    levels = {a: upper(a) for a in range(1, top + 1)}
    levels.update({a: 2 * n - levels[1 - a] for a in range(1 - top, 1)})
    return FiltrationProfile(n=n, levels=tuple(sorted(levels.items())))


def dominance_leq(lam, kappa) -> bool:
    """Dominance order on partitions of equal size."""
    lam, kappa = as_partition(lam), as_partition(kappa)
    if sum(lam) != sum(kappa):
        raise DomainError("dominance compares partitions of equal size")
    k = max(len(lam), len(kappa))
    return all(map(le, accumulate(_part(lam, i) for i in range(k)),
                   accumulate(_part(kappa, i) for i in range(k))))


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
