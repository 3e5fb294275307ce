import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone.errors import DomainError
from exoticcone.kostant import kostant_p, kostant_p_exotic
from exoticcone.rootdata import (
    SignedPermutation,
    alternating_sum,
    bwb,
    check_weight,
    dominant_rep,
    in_conv,
    in_conv0,
    in_tconv,
    in_tconv0,
    is_dominant,
    quasi_order,
    root_data,
    signed_permutations,
    twisted_act,
    twisted_w0,
    weyl_orbit,
)
import oracles
from oracles import alternating_sum as oracle_alternating_sum
from oracles import hull_contains_lp, hull_contains_prefix


def weights(n, bound=5):
    return st.lists(
        st.integers(-bound, bound), min_size=n, max_size=n
    ).map(tuple)


def dominant_weights(n, bound=4):
    return weights(n, bound).map(dominant_rep)


def test_check_weight_rejects_booleans():
    assert check_weight([1, 0]) == (1, 0)
    with pytest.raises(DomainError):
        check_weight((True, False))


W2 = list(signed_permutations(2))
W3 = list(signed_permutations(3))


def test_root_data_counts_and_constants():
    for n in (1, 2, 3, 4):
        data = root_data(n)
        assert len(data.positive_roots) == n * n
        assert len(data.exotic_weights) == n * n
        assert data.rho == tuple(range(n, 0, -1))


def test_is_dominant_examples():
    assert is_dominant((0, 0))
    assert is_dominant((2, 1))
    assert not is_dominant((1, 2))
    assert not is_dominant((1, -1))


def test_dominant_rep_examples():
    assert dominant_rep((3, -1)) == (3, 1)
    assert dominant_rep((1, 2)) == (2, 1)
    assert dominant_rep((0, 0)) == (0, 0)


def test_sgn_examples():
    assert SignedPermutation.identity(2).sign() == 1
    assert SignedPermutation((0, 1), (-1, 1)).sign() == -1
    assert SignedPermutation((1, 0), (-1, -1)).sign() == -1


def test_act_examples():
    w = SignedPermutation.identity(2)
    assert w.act((2, 1)) == (2, 1)
    assert SignedPermutation((0, 1), (-1, 1)).act((2, 1)) == (-2, 1)
    assert SignedPermutation((1, 0), (1, 1)).act((2, 1)) == (1, 2)


def test_group_axioms_exhaustive_rank2():
    lam = (2, -5)
    for w in W2:
        for u in W2:
            comp = w * u
            assert comp.act(lam) == w.act(u.act(lam))
            assert comp.sign() == w.sign() * u.sign()
        assert (w * w.inverse()) == SignedPermutation.identity(2)


@given(weights(3))
@settings(max_examples=25)
def test_group_action_rank3(lam):
    for w, u in itertools.islice(itertools.product(W3, W3), 300):
        assert (w * u).act(lam) == w.act(u.act(lam))


def test_sgn_homomorphism_rank3_exhaustive():
    signs = {w: w.sign() for w in W3}
    for w in W3:
        for u in W3:
            assert signs[w] * signs[u] == (w * u).sign()


@given(weights(2), st.sampled_from(W2))
@settings(max_examples=80)
def test_twisted_action_composition_and_integrality(lam, w):
    for u in W2:
        assert twisted_act(w, twisted_act(u, lam)) == twisted_act(w * u, lam)
    out = twisted_act(w, lam)
    assert all(isinstance(c, int) for c in out)


def test_twisted_examples():
    n1_flip = SignedPermutation((0,), (-1,))
    assert twisted_act(SignedPermutation.identity(2), (4, 2)) == (4, 2)
    assert twisted_act(n1_flip, (0,)) == (-1,)
    flip_both = SignedPermutation((0, 1), (-1, -1))
    assert twisted_act(flip_both, (0, 0)) == (-1, -1)


def test_twisted_w0_examples():
    assert twisted_w0((0, 0)) == (-1, -1)
    assert twisted_w0((2, 1)) == (-3, -2)
    assert twisted_w0(twisted_w0((5, 0))) == (5, 0)
    w0 = SignedPermutation((0, 1), (-1, -1))
    for lam in [(0, 0), (3, 1), (-2, 5)]:
        assert twisted_act(w0, lam) == twisted_w0(lam)


def _box(n, bound=4):
    return list(itertools.product(range(-bound, bound + 1), repeat=n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bwb_agrees_with_search_exhaustive(n):
    singular = 0
    for lam in _box(n):
        want = oracles.bwb(lam)
        singular += want is None
        assert bwb(lam) == want, lam
    assert 0 < singular < len(_box(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_act_agrees_with_doubled_exhaustive(n):
    group = list(signed_permutations(n))
    for lam in _box(n):
        for w in group:
            assert twisted_act(w, lam) == oracles.twisted_act(w, lam)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_in_tconv_agrees_with_doubled_exhaustive(n):
    box = _box(n)
    # in_tconv sees mu only through its twisted rep, the one point of its
    # twisted orbit with mu + theta dominant: every c >= 0, descending
    reps = [mu for mu in box if is_dominant(mu)]
    for mu in reps + box[::37]:
        for lam in box:
            assert in_tconv(lam, mu) == oracles.in_tconv(lam, mu)
            assert in_tconv0(lam, mu) == oracles.in_tconv0(lam, mu)


def test_bwb_examples():
    assert bwb((3, 1)) == (1, (3, 1))
    assert bwb((-2, 1)) is None
    assert bwb((-1, -3)) == (1, (0, 0))


@given(dominant_weights(3))
@settings(max_examples=30)
def test_bwb_round_trip_rank3(lam):
    r = root_data(3).rho
    shifted = tuple(a + b for a, b in zip(lam, r))
    for w in W3:
        moved = tuple(a - b for a, b in zip(w.act(shifted), r))
        assert bwb(moved) == (w.sign(), lam)


@given(weights(3))
@settings(max_examples=40)
def test_dominant_rep_w_invariant(lam):
    rep = dominant_rep(lam)
    assert rep in weyl_orbit(lam)
    assert is_dominant(rep)
    for u in itertools.islice(W3, 16):
        assert dominant_rep(u.act(lam)) == rep


def _positive_polynomial(v):
    """A count that is positive on every argument, so that every term of
    an alternating sum carries weight. Its degree 2n^2 is at least n^2,
    the degree of the Weyl denominator: an alternating sum of a polynomial
    of lower degree vanishes identically and would check no sign."""
    linear = 1 + sum((2 * i + 3) * c for i, c in enumerate(v))
    return 1 + linear ** (2 * len(v) ** 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_alternating_sum_matches_signed_permutation_loop(n):
    rng = random.Random(n)
    cases = [((0,) * n, (0,) * n)]
    while len(cases) < 4:
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        # a singular mu + rho is fixed by a reflection, whose terms cancel
        # in pairs for every count
        if bwb(mu) is not None:
            cases.append((mu, tuple(rng.randint(-2, 2) for _ in range(n))))
    for mu, lam in cases:
        want = oracle_alternating_sum(mu, lam, _positive_polynomial)
        assert want != 0
        assert alternating_sum(mu, lam, _positive_polynomial) == want
    mu = (2, 1, 1, 0, 0)[:n]
    for lam in [(0,) * n, (1,) + (0,) * (n - 1), (1, 1, 0, 0, 0)[:n]]:
        for count in (kostant_p, kostant_p_exotic):
            assert alternating_sum(mu, lam, count) == \
                oracle_alternating_sum(mu, lam, count)


def test_weyl_orbit_examples():
    assert weyl_orbit((0, 0)) == {(0, 0)}
    assert weyl_orbit((1, 0)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert weyl_orbit((1, 1)) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


@given(weights(3, 3))
@settings(max_examples=30)
def test_weyl_orbit_size_divides_group_order(lam):
    order = 2**3 * 6
    size = len(weyl_orbit(lam))
    assert order % size == 0
    assert {dominant_rep(v) for v in weyl_orbit(lam)} == {dominant_rep(lam)}


def test_coroot_pairing_examples():
    assert oracles.coroot_pairing((1, 0), (2, 0)) == 1
    assert oracles.coroot_pairing((1, 0), (1, -1)) == 1
    assert oracles.coroot_pairing((1, 1), (1, -1)) == 0
    assert oracles.coroot_pairing((1, 0), (1, 0)) == Fraction(2)
    with pytest.raises(DomainError):
        oracles.coroot_pairing((1, 0), (0, 0))


def test_in_conv_examples():
    assert in_conv((0, 0), (1, 1))
    assert not in_conv((2, 0), (1, 0))
    assert in_conv((1, 0), (1, 0))
    assert not in_conv0((1, 0), (1, 0))
    with pytest.raises(DomainError):
        in_conv((0, 0), (0, 1))


def test_in_conv0_vs_in_conv():
    assert in_conv((1, 0), (1, 1))
    assert in_conv0((1, 0), (1, 1))
    assert not in_conv0((-1, -1), (1, 1))


def test_in_conv_agrees_with_oracles_rank2_exhaustive():
    box = [
        (a, b) for a in range(-4, 5) for b in range(-4, 5)
    ]
    dominants = [w for w in box if is_dominant(w)]
    for mu in dominants:
        for lam in box:
            got = in_conv(lam, mu)
            assert got == hull_contains_lp(lam, mu)
            assert got == hull_contains_prefix(lam, mu)


@given(weights(3, 4), dominant_weights(3, 4))
@settings(max_examples=60, deadline=None)
def test_in_conv_agrees_with_oracles_rank3(lam, mu):
    got = in_conv(lam, mu)
    assert got == hull_contains_lp(lam, mu)
    assert got == hull_contains_prefix(lam, mu)


def test_in_tconv_examples():
    assert in_tconv((-1, -1), (0, 0))
    assert not in_tconv((1, 0), (0, 0))
    assert in_tconv((2, 1), (2, 1))
    assert not in_tconv0((2, 1), (2, 1))


@given(weights(2, 3), weights(2, 3))
@settings(max_examples=60)
def test_in_tconv_matches_shifted_hull(lam, mu):
    # membership of 2 lam + 1 in the hull of the orbit of 2 mu + 1
    dl = tuple(2 * c + 1 for c in lam)
    dm = dominant_rep(tuple(2 * c + 1 for c in mu))
    got = in_tconv(lam, mu)
    assert got == hull_contains_prefix(dl, dm)
    # the LP shares no code with the prefix-sum test in the library
    assert got == hull_contains_lp(dl, dm)


def test_quasi_order_key_is_the_norm_of_2lam_plus_1():
    # sum (2c + 1)^2 reads 29 < 37; a key of sum (2c)^2 ties them at 16,
    # and the lexicographic tie-break would put (1,1,1,1,0) first
    assert quasi_order([(1, 1, 1, 1, 0), (2, 0, 0, 0, 0)]) == [
        (2, 0, 0, 0, 0), (1, 1, 1, 1, 0)]


def test_quasi_order_examples():
    assert quasi_order([(2, 0), (0, 0), (1, 0)]) == [(0, 0), (1, 0), (2, 0)]
    assert quasi_order([(1, 1), (1, 0)]) == [(1, 0), (1, 1)]
    assert quasi_order([(3, 2)]) == [(3, 2)]
    with pytest.raises(DomainError):
        quasi_order([(0, 1)])


@given(st.lists(dominant_weights(2, 3), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_quasi_order_respects_tconv(ws):
    ordered = quasi_order(ws)
    for i, lam in enumerate(ordered):
        for mu in ordered[i + 1:]:
            # mu sorts after lam, so mu must not lie in lam's twisted hull
            if mu != lam:
                assert not in_tconv(mu, lam)
