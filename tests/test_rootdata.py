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
    is_dominant,
    root_data,
    signed_permutations,
    weyl_orbit,
)
import oracles
from oracles import alternating_sum as oracle_alternating_sum
from oracles import compose
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
    assert SignedPermutation((0, 1), (1, 1)).sign() == 1
    assert SignedPermutation((0, 1), (-1, 1)).sign() == -1
    assert SignedPermutation((1, 0), (-1, -1)).sign() == -1


def test_act_examples():
    w = SignedPermutation((0, 1), (1, 1))
    assert w.act((2, 1)) == (2, 1)
    assert SignedPermutation((0, 1), (-1, 1)).act((2, 1)) == (-2, 1)
    assert SignedPermutation((1, 0), (1, 1)).act((2, 1)) == (1, 2)


def test_group_axioms_exhaustive_rank2():
    lam = (2, -5)
    for w in W2:
        for u in W2:
            comp = compose(w, u)
            assert comp.act(lam) == w.act(u.act(lam))
            assert comp.sign() == w.sign() * u.sign()
        identity = SignedPermutation((0, 1), (1, 1))
        assert any(compose(w, u) == identity for u in W2)


@given(weights(3))
@settings(max_examples=25)
def test_group_action_rank3(lam):
    for w, u in itertools.islice(itertools.product(W3, W3), 300):
        assert compose(w, u).act(lam) == w.act(u.act(lam))


def test_sgn_homomorphism_rank3_exhaustive():
    signs = {w: w.sign() for w in W3}
    for w in W3:
        for u in W3:
            assert signs[w] * signs[u] == compose(w, u).sign()


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
    """Also {w(mu)} over the 2^n n! signed permutations, for every mu in
    [-2, 2]^n with n <= 4. Dropping one sign choice from the insertion
    makes it fail."""
    assert weyl_orbit((0, 0)) == {(0, 0)}
    assert weyl_orbit((1, 0)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert weyl_orbit((1, 1)) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    for n in range(5):
        group = list(signed_permutations(n))
        for mu in itertools.product(range(-2, 3), repeat=n):
            assert weyl_orbit(mu) == {w.act(mu) for w in group}


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
    assert in_conv((1, 0), (1, 1))
    with pytest.raises(DomainError):
        in_conv((0, 0), (0, 1))


def test_in_conv0_vs_in_conv():
    # The hull minus the orbit of mu: (1, 0) lies strictly inside the hull
    # of (1, 1), while (-1, -1) is a vertex of it.
    mu = (1, 1)
    assert in_conv((1, 0), mu) and dominant_rep((1, 0)) != mu
    assert in_conv((-1, -1), mu) and dominant_rep((-1, -1)) == mu


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
