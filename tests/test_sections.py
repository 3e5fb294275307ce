import collections
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone import characters, config, kostant
from exoticcone.characters import weight_mult, weyl_dim
from exoticcone.config import Config
from exoticcone.errors import DomainError
from exoticcone.kostant import kostant_p, kostant_p_exotic
from exoticcone.rootdata import alternating_sum, bwb, dominant_rep, in_conv
from exoticcone.sections import (
    dominant_weights_of_degree,
    h0_decompose,
    h0_mult,
    h0_mult_subsets,
)
from oracles import alternating_sum as oracle_alternating_sum
from oracles import exotic_weights, graded_exotic_count


def dominant2(bound=3):
    return (
        st.lists(st.integers(0, bound), min_size=2, max_size=2)
        .map(lambda w: dominant_rep(tuple(w)))
    )


def test_h0_mult_examples():
    assert h0_mult((2, 1), (2, 1)) == 1
    assert h0_mult((1, 0), (0, 0)) == 2
    assert h0_mult((1, 0), (2, 0)) == 0


def test_h0_subsets_examples():
    assert h0_mult_subsets((0, 0), (0, 0)) == 1
    assert h0_mult_subsets((1, 0), (0, 0)) == 2
    assert h0_mult_subsets((1, 1), (1, 1)) == 1


def test_non_dominant_rejected():
    with pytest.raises(DomainError):
        h0_mult((0, 1), (0, 0))
    with pytest.raises(DomainError):
        h0_mult((1, 1), (0, 1))
    with pytest.raises(DomainError):
        h0_mult_subsets((0, 1), (0, 0))


def test_rank_mismatch_rejected():
    for mu, lam in (((1,), (0, 0)), ((1, 0), (1,)), ((1, 0), (0, 0, 0))):
        for route in (h0_mult, h0_mult_subsets):
            with pytest.raises(DomainError, match="rank mismatch"):
                route(mu, lam)


@given(dominant2(), dominant2())
@settings(max_examples=40, deadline=None)
def test_routes_agree_rank2(mu, lam):
    a = h0_mult(mu, lam)
    b = h0_mult_subsets(mu, lam)
    assert a == b
    assert a >= 0
    if not in_conv(lam, mu):
        assert a == 0


def test_routes_agree_rank3_spot():
    grid = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0)]
    for mu in grid:
        for lam in grid:
            assert h0_mult(mu, lam) == h0_mult_subsets(mu, lam)


@given(dominant2())
@settings(max_examples=30, deadline=None)
def test_normalization(lam):
    assert h0_mult(lam, lam) == 1


def test_h0_decompose_examples():
    assert h0_decompose((0, 0), 0) == {(0, 0): 1}
    assert h0_decompose((0, 0), 1) == {(0, 0): 1, (1, 0): 2}
    assert h0_decompose((3, 2), 2) == {}


def test_h0_decompose_unit_bundle_zero_weight():
    out = h0_decompose((0, 0), 1)
    assert out[(0, 0)] == 1


def test_h0_decompose_matches_route_b():
    out = h0_decompose((1, 0), 3)
    for mu, value in out.items():
        assert value == h0_mult_subsets(mu, (1, 0))
        assert value > 0
    # entries outside the window are not reported
    assert all(sum(mu) <= 3 for mu in out)


@pytest.mark.parametrize("n", [2, 3])
def test_h0_decompose_is_the_nonzero_part_of_its_window(n):
    window = [mu for k in range(5) for mu in dominant_weights_of_degree(n, k)]
    for lam in [w for w in window if sum(w) <= 2]:
        out = h0_decompose(lam, 4)
        assert out == {mu: value for mu in window
                       if (value := h0_mult(mu, lam))}
        assert all(value > 0 for value in out.values())
        assert all(in_conv(lam, mu) for mu in out)


def test_weyl_sums_on_the_shared_counter_match_the_checked_counts():
    # h0_mult and weight_mult hand kostant.counter to the Weyl loop; the
    # oracle loop calls the public, checked counts instead, on the whole
    # n = 4 sweep window of degree <= 4 and on a few n = 5 cells
    window = [mu for k in range(5) for mu in dominant_weights_of_degree(4, k)]
    cells = [(mu, lam) for mu in window for lam in window]
    cells += [((2, 1, 1, 0, 0), (0, 0, 0, 0, 0)),
              ((1, 1, 1, 1, 0), (0, 0, 0, 0, 0)),
              ((3, 1, 0, 0, 0), (1, 1, 0, 0, 0))]
    nonzero = 0
    for mu, lam in cells:
        a = h0_mult(mu, lam)
        b = weight_mult(mu, lam)
        assert a == oracle_alternating_sum(mu, lam, kostant_p_exotic)
        assert b == oracle_alternating_sum(mu, lam, kostant_p)
        nonzero += a > 0 and b > 0
    assert nonzero >= 40


def hilbert_coefficient(n: int, k: int) -> int:
    """[t^k] prod_{d=2..n} (1 - t^d) / (1 - t)^(2n^2 + n - 1), the Hilbert
    series of the exotic nilpotent cone: a normal complete intersection
    in V plus the trace-free part of wedge^2 V (2n + n(2n - 1) - 1
    coordinates), cut out by n - 1 invariants of degrees 2..n (S. Kato,
    Duke Math. J. 148, 2009)."""
    numerator = [1]
    for d in range(2, n + 1):
        numerator = [a - (numerator[i - d] if i >= d else 0)
                     for i, a in enumerate(numerator + [0] * d)]
    m = 2 * n * n + n - 1
    return sum(c * math.comb(k - i + m - 1, m - 1)
               for i, c in enumerate(numerator[:k + 1]))


@pytest.mark.parametrize("n, dims", [
    (1, [2, 3, 4, 5]),
    (2, [9, 44, 156, 450]),
    (3, [20, 209, 1519]),
    (4, [35, 629, 7734]),
])
def test_graded_sections_of_the_trivial_bundle_match_the_hilbert_series(
        n, dims):
    # degree k of the coordinate ring: sum over mu of m_k(mu, 0) dim V_mu,
    # with m_k the alternating Weyl sum of the graded exotic count; a sum
    # of k exotic weights has coordinate sum at most 2k
    count = graded_exotic_count(n)
    zero = (0,) * n
    for k, dim in enumerate(dims, start=1):
        assert hilbert_coefficient(n, k) == dim
        assert sum(
            alternating_sum(mu, zero, lambda w: count(k, w)) * weyl_dim(mu)
            for d in range(2 * k + 1)
            for mu in dominant_weights_of_degree(n, d)) == dim


def bwb_straightened(n: int, lams, top: int) -> collections.Counter:
    """m_k(mu, lam) for every k <= top and lam in lams, keyed (k, mu, lam),
    by BWB straightening: each multiset M of k exotic weights adds s to
    m_k(mu, lam) when bwb(lam + sum M) = (s, mu). The multisets are
    enumerated one by one, so this route has no Weyl-sum loop and no
    partition-count DP."""
    weights = exotic_weights(n)
    out = collections.Counter()
    for k in range(top + 1):
        sums = collections.Counter(
            tuple(map(sum, zip((0,) * n, *multiset)))
            for multiset in itertools.combinations_with_replacement(
                weights, k))
        for lam in lams:
            for v, copies in sums.items():
                hit = bwb(tuple(a + b for a, b in zip(lam, v)))
                if hit is not None:
                    sign, mu = hit
                    out[k, mu, lam] += sign * copies
    return out


@pytest.mark.parametrize("n, degree", [(1, 8), (2, 4), (3, 3), (4, 1)])
def test_graded_sections_by_bwb_straightening(n, degree):
    """Degree k of the sections has the multiplicity
    m_k(mu, lam) = sum_w sign(w) p'_k(w(mu + rho) - (lam + rho)), with p'_k
    the count of multisets of k exotic weights (ROADMAP item 6). Checked
    on every pair of dominant mu, lam with coordinate sums <= degree, at
    (n, degree) = (1, 8), (2, 4), (3, 3), (4, 1): 215 pairs. k runs to
    n * degree, which bounds the height of mu - lam, and m_k vanishes for
    k above that height, since every exotic weight has height >= 1.

    The checks: every m_k >= 0; the m_k sum to ``h0_mult``; and BWB
    straightening equals the graded alternating sum of
    ``graded_exotic_count``. Straightening shares no Weyl-sum loop and no
    counter with ``h0_mult``. One mutation at a time: dropping the
    inversion parity in ``rootdata.alternating_sum``, or the sign in
    ``rootdata.bwb``, fails the sum and the straightening check; dropping
    e_n from ``root_data(n).exotic_weights``, putting 2 e_i there for e_i,
    handing ``h0_mult`` the positive-root counter, or dropping e_n from
    ``oracles.exotic_weights`` fails the sum alone. rho + 1 in
    ``root_data`` moves straightening and both Weyl sums together and
    passes all three; the Hilbert-series test and route B catch it.
    Nonnegativity caught none of these.
    """
    window = [mu for d in range(degree + 1)
              for mu in dominant_weights_of_degree(n, d)]
    top = n * degree
    straightened = bwb_straightened(n, window, top)
    count = graded_exotic_count(n)
    for mu in window:
        for lam in window:
            m = [straightened[k, mu, lam] for k in range(top + 1)]
            assert min(m) >= 0
            assert sum(m) == h0_mult(mu, lam)
            assert m == [alternating_sum(mu, lam, lambda w: count(k, w))
                         for k in range(top + 1)]


def test_dominant_weights_of_degree():
    assert dominant_weights_of_degree(2, 0) == [(0, 0)]
    assert set(dominant_weights_of_degree(2, 2)) == {(2, 0), (1, 1)}
    assert set(dominant_weights_of_degree(3, 2)) == {(2, 0, 0), (1, 1, 0)}
    for k in range(5):
        for mu in dominant_weights_of_degree(2, k):
            assert sum(mu) == k
    # the order is pinned too: the benchmark's seeded pools read the list
    # in order, descending lexicographic
    for n in range(7):
        for k in range(-2, 11):
            brute = sorted(
                (mu for mu in itertools.product(range(max(k, 0) + 1), repeat=n)
                 if sum(mu) == k and list(mu) == sorted(mu, reverse=True)),
                reverse=True)
            assert dominant_weights_of_degree(n, k) == brute, (n, k)


def _held():
    """Entries held by all memos together: every Kostant memo, and every
    Freudenthal table counted by its length."""
    return (sum(len(c.memo) for c in kostant._registry.values())
            + sum(map(len, characters._tables.values())))


def _cold_memos():
    for counter in kostant._registry.values():
        counter.memo.clear()
    characters._tables.clear()


def _values_and_peaks(grid):
    """Both section routes and the weight multiplicity at each cell, from
    cold memos, with the largest Kostant memo, the largest Freudenthal
    total and the largest total of all memos seen after any cell."""
    _cold_memos()
    values, memo, tables, held = [], 0, 0, 0
    for mu, lam in grid:
        values.append((h0_mult(mu, lam), h0_mult_subsets(mu, lam),
                       weight_mult(mu, lam)))
        memo = max([memo] + [len(c.memo) for c in kostant._registry.values()])
        tables = max(tables, sum(map(len, characters._tables.values())))
        held = max(held, _held())
    return values, memo, tables, held


def test_memo_cap_bounds_every_memo_and_keeps_the_values(monkeypatch):
    grid = [(mu, lam) for n in (2, 3) for k in range(4)
            for mu in dominant_weights_of_degree(n, k)
            for lam in dominant_weights_of_degree(n, 3 - k)]
    monkeypatch.setattr(config, "memo_cap", Config().cache_entries)
    expected, memo, tables, _ = _values_and_peaks(grid)
    # both memos outgrow 8 entries at the default cap, so cap 8 must evict
    assert memo > 8 and tables > 8
    monkeypatch.setattr(config, "memo_cap", 8)
    got, _, _, held = _values_and_peaks(grid)
    # the cap bounds all memos together, not each one (25 when it did)
    assert held <= 8
    assert got == expected


def test_memo_cap_bounds_all_ranks_and_kinds_together(monkeypatch):
    # one process that counts at ranks 1-7 of both kinds and builds
    # Freudenthal tables: 14 Kostant memos and the tables under one cap,
    # where a cap per memo left 3,892 entries held at cap 1,024
    ops = [(f, ((3,) + (0,) * (n - 1),)) for n in range(1, 8)
           for f in (kostant_p, kostant_p_exotic)]
    ops += [(characters.weight_mult_oracle, (mu, (0,) * len(mu)))
            for mu in ((2, 2), (3, 1, 0), (2, 1, 1), (2, 2, 0, 0))]

    def run():
        _cold_memos()
        values, held = [], 0
        for f, args in ops:
            values.append(f(*args))
            held = max(held, _held())
        return values, held

    monkeypatch.setattr(config, "memo_cap", Config().cache_entries)
    expected, held = run()
    assert held > 1024
    monkeypatch.setattr(config, "memo_cap", 1024)
    got, held = run()
    assert held <= 1024
    assert got == expected


def test_shared_memo_budget_under_threads(frequent_switches, monkeypatch):
    # a store by either module now clears the other's memo too, also while
    # another thread is inside a DP or a table; no answer may change
    from concurrent.futures import ThreadPoolExecutor

    queries = [(f, mu, lam) for n in (2, 3) for k in range(5)
               for mu in dominant_weights_of_degree(n, k)
               for j in range(k + 1)
               for lam in dominant_weights_of_degree(n, j)
               for f in (weight_mult, characters.weight_mult_oracle,
                         h0_mult)]
    expected = [f(mu, lam) for f, mu, lam in queries]
    monkeypatch.setattr(config, "memo_cap", 8)
    _cold_memos()
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):
            got = pool.map(lambda q: q[0](q[1], q[2]), queries, timeout=60)
            assert list(got) == expected


def test_store_recounts_a_memo_cleared_by_hand(monkeypatch):
    monkeypatch.setattr(config, "_memos", [])
    monkeypatch.setattr(config, "_held", 0)
    monkeypatch.setattr(config, "memo_cap", 4)
    flat, nested = config.new_memo(), config.new_memo(nested=True)
    for k in range(3):
        assert config.store(flat, k, -k) == -k
    flat.clear()
    # the count reads 5 with this table, the memos hold 2: nothing clears
    assert config.store(nested, "t", {1: 1, 2: 2}, 2) == {1: 1, 2: 2}
    config.store(flat, 0, 0)
    config.store(flat, 1, -1)
    assert flat == {0: 0, 1: -1} and nested == {"t": {1: 1, 2: 2}}
    # a fifth entry would pass the cap, so every memo clears
    config.store(flat, 2, -2)
    assert flat == {2: -2} and nested == {}
    # a table larger than the cap is returned, not kept, and clears nothing
    big = dict.fromkeys(range(5), 1)
    assert config.store(nested, "big", big, 5) is big
    assert flat == {2: -2} and nested == {}
