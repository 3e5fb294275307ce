import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone import config, kostant
from exoticcone.config import Config
from exoticcone.kostant import (
    counter,
    kostant_p,
    kostant_p_exotic,
    subset_identity_check,
)
from exoticcone.rootdata import root_data
from oracles import brute_kostant, recursive_kostant


def test_kostant_p_examples():
    assert kostant_p((0, 0)) == 1
    assert kostant_p((1, 0)) == 0
    assert kostant_p((2, 0)) == 3


def test_kostant_p_exotic_examples():
    assert kostant_p_exotic((0, 0)) == 1
    assert kostant_p_exotic((1, 0)) == 2
    assert kostant_p_exotic((-1, 0)) == 0


def test_rank_one_closed_forms():
    for k in range(0, 9):
        assert kostant_p((k,)) == (1 if k % 2 == 0 else 0)
        assert kostant_p_exotic((k,)) == 1
        assert kostant_p((-k - 1,)) == 0
        assert kostant_p_exotic((-k - 1,)) == 0


def test_odd_coordinate_sum_vanishes():
    for mu in itertools.product(range(-3, 4), repeat=2):
        if sum(mu) % 2:
            assert kostant_p(mu) == 0


def test_negative_prefix_sum_vanishes():
    for mu in itertools.product(range(-3, 4), repeat=2):
        run = 0
        dead = False
        for c in mu:
            run += c
            if run < 0:
                dead = True
        if dead:
            assert kostant_p(mu) == 0
            assert kostant_p_exotic(mu) == 0


def test_dp_matches_brute_force_rank1_and_2():
    data1, data2 = root_data(1), root_data(2)
    for k in range(-3, 4):
        assert kostant_p((k,)) == brute_kostant((k,), data1.positive_roots)
        assert kostant_p_exotic((k,)) == brute_kostant(
            (k,), data1.exotic_weights
        )
    for mu in itertools.product(range(-3, 4), repeat=2):
        assert kostant_p(mu) == brute_kostant(mu, data2.positive_roots)
        assert kostant_p_exotic(mu) == brute_kostant(
            mu, data2.exotic_weights
        )


def test_counter_is_the_checked_count_without_the_check():
    # random weights of rank 1-4 with coordinates in -2..2, so about half
    # leave the root cone; brute_kostant wherever its plain enumeration,
    # (height + 1) ** len(summands) leaves, stays small, and the memo-free
    # recursion everywhere
    rng = random.Random(4)
    for n in range(1, 5):
        data = root_data(n)
        for _ in range(25):
            mu = tuple(rng.randint(-2, 2) for _ in range(n))
            height = max(sum(itertools.accumulate(mu)), 0)
            for exotic, checked, summands in (
                    (False, kostant_p, data.positive_roots),
                    (True, kostant_p_exotic, data.exotic_weights)):
                got = counter(n, exotic)(mu)
                assert got == checked(mu)
                assert got == recursive_kostant(mu, summands)
                if (height + 1) ** len(summands) <= 5_000:
                    assert got == brute_kostant(mu, summands)


def _clear_memos():
    for shared in kostant._registry.values():
        shared.memo.clear()


def test_dp_matches_recursion_rank3_and_4(monkeypatch):
    # negative, odd and mixed coordinates; at rank 4 the coordinate sum is
    # capped so that the memo-free recursion stays fast
    box = list(itertools.product(range(-2, 4), repeat=3))
    box += [mu for mu in itertools.product(range(-1, 3), repeat=4)
            if sum(mu) <= 4]
    expected = []
    for mu in box:
        data = root_data(len(mu))
        expected.append((recursive_kostant(mu, data.positive_roots),
                         recursive_kostant(mu, data.exotic_weights)))
    assert any(p for p, _ in expected) and any(q for _, q in expected)
    # under cap 8 the memo clears between the loops and the forced steps
    for cap in (Config().cache_entries, 8):
        monkeypatch.setattr(config, "memo_cap", cap)
        _clear_memos()
        got = [(kostant_p(mu), kostant_p_exotic(mu)) for mu in box]
        assert got == expected


def test_cold_count_stays_within_its_work_bound():
    # a deterministic bound on the work: the ungrouped DP left 390,921
    # memo entries behind for this count
    _clear_memos()
    assert kostant_p_exotic((6, 0, 0, 0, 0, 0)) == 4775826
    assert sum(len(c.memo) for c in kostant._registry.values()) <= 30_000
    # the long roots 2 e_i make the forced step divide by 2: an odd
    # residual there ends the branch at once (29,371 entries if it did not)
    _clear_memos()
    assert kostant_p((6, 0, 0, 0, 0, 0)) == 1681527
    assert sum(len(c.memo) for c in kostant._registry.values()) <= 20_000


def test_subset_identity_examples():
    assert subset_identity_check((0, 0))
    assert subset_identity_check((1, 0))
    assert subset_identity_check((2, 0))


def test_subset_identity_terms_for_1_0():
    assert kostant_p((1, 0)) == 0
    assert kostant_p((0, 0)) == 1
    assert kostant_p((1, -1)) == 1
    assert kostant_p((0, -1)) == 0
    assert kostant_p_exotic((1, 0)) == 2


@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(tuple))
@settings(max_examples=80, deadline=None)
def test_subset_identity_rank3(mu):
    assert subset_identity_check(mu)


def test_counts_grow_and_stay_exact():
    # coarse monotonicity is not asserted; just exercise larger inputs
    big = kostant_p_exotic((8, 6, 4))
    assert isinstance(big, int) and big > 1000


def test_cache_cap_eviction_keeps_answers_correct(monkeypatch):
    monkeypatch.setattr(config, "memo_cap", 8)
    values = [kostant_p((2 * k, 0)) for k in range(5)]
    monkeypatch.setattr(config, "memo_cap", Config().cache_entries)
    assert values == [kostant_p((2 * k, 0)) for k in range(5)]


def test_thread_safety_of_memo(frequent_switches, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    grid = [
        mu for mu in itertools.product(range(-2, 5), repeat=2)
    ] + [mu for mu in itertools.product(range(0, 4), repeat=3)] * 2
    expected = [kostant_p_exotic(mu) for mu in grid]
    # from a cold memo, threads fill shared entries at once; under cap 8
    # clears also race with stores
    for cap in (Config().cache_entries, 8):
        monkeypatch.setattr(config, "memo_cap", cap)
        _clear_memos()
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(kostant_p_exotic, grid)) == expected
