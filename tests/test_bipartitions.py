import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone.bipartitions import (
    Bipartition,
    as_partition,
    bipartition,
    closure_leq,
    collapse,
    dominance_leq,
    emit_dot,
    enumerate_Q,
    filtration_dims,
    hasse,
    is_C_distinguished,
    orbit_dim,
    partitions,
    phiC,
    phiC_hat,
)
from exoticcone.errors import DomainError, InternalInconsistency
from exoticcone.orbits import representative
import oracles


def test_as_partition_normalizes_and_rejects():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition([]) == ()
    with pytest.raises(DomainError):
        as_partition([1, 2])
    with pytest.raises(DomainError):
        as_partition([2, -1])


def test_as_partition_rejects_parts_that_are_not_ints():
    # int() would turn each of these into a valid part without complaint
    for mu, nu in [((2.7,), ()), ((True,), (1,)), (("3",), ())]:
        with pytest.raises(DomainError):
            bipartition(mu, nu)
    with pytest.raises(DomainError):
        representative(bipartition((1.9,), ()))


def _brute_partitions(k: int) -> list:
    """The partitions of k in descending lexicographic order, from the
    2^(k-1) compositions of k that do not rise."""
    if k == 0:
        return [()]
    out = []
    for cuts in itertools.product((False, True), repeat=k - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 0
            run += 1
        parts.append(run)
        if all(a >= b for a, b in zip(parts, parts[1:])):
            out.append(tuple(parts))
    return sorted(out, reverse=True)


def test_enumerate_Q_examples():
    """Also, order included: partitions(k) is the brute-force list for
    k <= 12, and enumerate_Q(n) the brute-force product for n <= 6.
    Dropping the filter that keeps the parts of the rest at most the
    first part makes it fail."""
    assert enumerate_Q(0) == [Bipartition((), ())]
    assert enumerate_Q(1) == [
        Bipartition((1,), ()),
        Bipartition((), (1,)),
    ]
    assert len(enumerate_Q(2)) == 5
    sizes = [len(partitions(k)) for k in range(7)]
    assert sizes == [1, 1, 2, 3, 5, 7, 11]
    for n in range(7):
        expected = sum(
            len(partitions(k)) * len(partitions(n - k)) for k in range(n + 1)
        )
        assert len(enumerate_Q(n)) == expected
        assert len(set(enumerate_Q(n))) == expected
    brute = [_brute_partitions(k) for k in range(13)]
    assert [list(partitions(k)) for k in range(13)] == brute
    assert partitions(-1) == ()
    for n in range(7):
        assert enumerate_Q(n) == [Bipartition(mu, nu)
                                  for k in range(n, -1, -1)
                                  for mu in brute[k] for nu in brute[n - k]]


def test_closure_leq_examples():
    lo = bipartition((), (2,))
    hi = bipartition((1,), (1,))
    assert closure_leq(lo, hi)
    assert not closure_leq(hi, lo)

    a = bipartition((1, 1), ())
    b = bipartition((), (2,))
    assert not closure_leq(a, b)
    assert not closure_leq(b, a)

    for b in enumerate_Q(3):
        assert closure_leq(b, b)
    with pytest.raises(DomainError):
        closure_leq(bipartition((1,), ()), bipartition((1,), (1,)))


def test_closure_is_partial_order_small():
    for n in range(5):
        elems = enumerate_Q(n)
        rel = {
            (a, b): closure_leq(a, b) for a in elems for b in elems
        }
        for a in elems:
            assert rel[(a, a)]
            for b in elems:
                if rel[(a, b)] and rel[(b, a)]:
                    assert a == b
                for c in elems:
                    if rel[(a, b)] and rel[(b, c)]:
                        assert rel[(a, c)]


def test_is_C_distinguished_examples():
    assert is_C_distinguished(bipartition((1,), ()))
    assert is_C_distinguished(bipartition((), (1,)))
    assert not is_C_distinguished(bipartition((1, 1, 1), (3,)))


def test_phiC_examples():
    assert phiC(bipartition((1, 1, 1), (3,))) == (4, 4, 2, 1, 1)
    assert phiC(bipartition((1,), ())) == (2,)
    assert phiC(bipartition((), (1,))) == (1, 1)
    # the ascent (2 nu_1, 2 mu_2) of (4, 2, 4): (4, 3, 3)
    assert phiC(bipartition((2, 2), (1,))) == (4, 3, 3)


def test_phiC_lands_in_doubled_odd_class():
    for n in range(7):
        for b in enumerate_Q(n):
            lam = phiC(b)
            assert sum(lam) == 2 * n
            odd_counts = {}
            for p in lam:
                if p % 2:
                    odd_counts[p] = odd_counts.get(p, 0) + 1
            assert all(c % 2 == 0 for c in odd_counts.values())


def test_phiC_hat_examples():
    assert phiC_hat((4, 4, 2, 1, 1)) == Bipartition((2, 1, 1), (2,))
    assert phiC_hat((2,)) == Bipartition((1,), ())
    assert phiC_hat((1, 1)) == Bipartition((), (1,))
    with pytest.raises(DomainError):
        phiC_hat((3, 2, 1))  # odd parts 3 and 1 appear once each


def test_collapse_examples():
    assert collapse(bipartition((1, 1, 1), (3,))) == Bipartition((2, 1, 1), (2,))
    assert collapse(bipartition((1,), ())) == Bipartition((1,), ())
    assert collapse(bipartition((), (1,))) == Bipartition((), (1,))


def test_collapse_idempotent_and_inverse_small():
    for n in range(6):
        for b in enumerate_Q(n):
            c = collapse(b)
            assert is_C_distinguished(c)
            assert collapse(c) == c
            if is_C_distinguished(b):
                assert c == b
                assert phiC_hat(phiC(b)) == b


def test_order_isomorphism_small():
    for n in range(5):
        disting = [b for b in enumerate_Q(n) if is_C_distinguished(b)]
        for a in disting:
            for b in disting:
                assert closure_leq(a, b) == dominance_leq(phiC(a), phiC(b))


@given(st.integers(0, 5), st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_phiC_confluent_under_random_orders(n, seed):
    rng = random.Random(seed)
    for b in enumerate_Q(n):
        randomized = oracles.rewrite_to_partition(oracles.interleave(b),
                                                  choose=rng.choice)
        assert randomized == phiC(b)


def test_phiC_matches_the_rewriting_oracle():
    """The one-pass collapse equals the rewriting engine, which merges one
    ascent at a time and rescans, on every bipartition with n <= 12.
    Merging only the (2 mu_i, 2 nu_i) pairs fails here: mu = (2, 2),
    nu = (1) needs the (2 nu_1, 2 mu_2) merge, (4, 2, 4) -> (4, 3, 3)."""
    for n in range(13):
        for b in enumerate_Q(n):
            assert phiC(b) == oracles.rewrite_to_partition(
                oracles.interleave(b)), b


def test_phiC_refuses_a_composition_that_is_not_a_bipartition():
    # Bipartition() skips the checks of bipartition(); the collapse of
    # ((1, 3), ()) is (2, 3, 3), which is not a partition
    with pytest.raises(InternalInconsistency, match="not a partition"):
        phiC(Bipartition((1, 3), ()))


def test_is_C_distinguished_matches_the_two_condition_loop():
    for n in range(9):
        for b in enumerate_Q(n):
            assert is_C_distinguished(b) == oracles.is_C_distinguished(b), b


def test_filtration_dims_worked_values():
    prof = filtration_dims(bipartition((1, 1, 1), (3,)))
    d = prof.as_dict()
    assert d[3] == 2 and d[1] == 5 and d[0] == 7 and d[-2] == 10
    assert d[4] == 0 and d[-3] == 12
    prof = filtration_dims(bipartition((1,), ()))
    d = prof.as_dict()
    assert d[1] == 1 and d[0] == 1 and d[-1] == 2


def test_filtration_dims_perp_rule_and_monotone():
    for n in range(7):
        for b in enumerate_Q(n):
            prof = filtration_dims(b)
            lo, hi = prof.levels[0][0], prof.levels[-1][0]
            assert lo == 1 - hi
            for a in range(lo - 1, hi + 2):
                assert prof.dim(a) + prof.dim(1 - a) == 2 * n
                assert prof.dim(a) <= prof.dim(a - 1)
            lam = phiC(b)
            if lam:
                assert prof.dim(lam[0]) == 0


def test_filtration_dims_cache_is_bounded():
    maxsize = filtration_dims.cache_info().maxsize
    # every orbit up to n = 7 fits, and no caller can grow it further
    assert maxsize is not None
    assert maxsize >= sum(len(enumerate_Q(n)) for n in range(8))
    for n in range(10):
        for b in enumerate_Q(n):
            filtration_dims(b)
    assert filtration_dims.cache_info().currsize <= maxsize


def test_hasse_n1_and_n2():
    edges = hasse(1)
    assert edges == [(Bipartition((), (1,)), Bipartition((1,), ()))]

    elems = enumerate_Q(2)
    edges = set(hasse(2))
    top = Bipartition((2,), ())
    mid = Bipartition((1,), (1,))
    left = Bipartition((1, 1), ())
    right = Bipartition((), (2,))
    bottom = Bipartition((), (1, 1))
    assert edges == {
        (mid, top),
        (left, mid),
        (right, mid),
        (bottom, left),
        (bottom, right),
    }
    assert not closure_leq(left, right) and not closure_leq(right, left)
    assert len(elems) == 5


def test_hasse_is_transitive_reduction():
    for n in range(5):
        elems = enumerate_Q(n)
        edges = hasse(n)
        for lo, hi in edges:
            assert lo != hi and closure_leq(lo, hi)
            for c in elems:
                if c not in (lo, hi):
                    assert not (closure_leq(lo, c) and closure_leq(c, hi))


def test_closure_leq_matches_the_two_condition_loop():
    # the leading mu_1 entry of the prefix vector alone separates these
    assert not closure_leq(bipartition((1,), ()), bipartition((), (1,)))
    for n in range(8):
        elems = enumerate_Q(n)
        for a in elems:
            for b in elems:
                assert closure_leq(a, b) == oracles.closure_leq(a, b), (a, b)


def test_hasse_matches_the_oracle_reduction():
    for n in range(8):
        assert hasse(n) == oracles.hasse(n), n


def test_emit_dot_structure():
    text = emit_dot(1)
    assert text.startswith("digraph")
    assert '"|1" -> "1|"' in text
    assert text.count("->") == 1
    assert text.count("peripheries=2") == 2

    text0 = emit_dot(0)
    assert "->" not in text0
    assert '"|"' in text0


def test_rewrite_rejects_odd_ascending_pair():
    with pytest.raises(InternalInconsistency):
        oracles.rewrite_to_partition([1, 3])


def test_orbit_dim_rises_strictly_along_the_closure_order():
    """An orbit in the closure of another, and not equal to it, has
    smaller dimension: on every comparable pair up to n = 8. This checks
    ``closure_leq`` (and so ``hasse``) against geometry rather than
    against its own definition."""
    for n in range(9):
        q = enumerate_Q(n)
        dims = {b: orbit_dim(b) for b in q}
        for a in q:
            for b in q:
                if a != b and closure_leq(a, b):
                    assert dims[a] < dims[b], (a, b)


def test_orbit_dim_is_even_from_zero_to_the_dense_orbit():
    for n in range(9):
        assert all(orbit_dim(b) % 2 == 0 for b in enumerate_Q(n))
        assert orbit_dim(bipartition([n], [])) == 2 * n * n
        assert orbit_dim(bipartition([], [1] * n)) == 0
        assert max(map(orbit_dim, enumerate_Q(n))) == 2 * n * n
    # the gaps along the Hasse edges of n = 4
    gaps = {orbit_dim(hi) - orbit_dim(lo) for lo, hi in hasse(4)}
    assert gaps == {2, 4, 6, 8, 12}
