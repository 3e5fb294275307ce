import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone.characters import weyl_dim
from exoticcone.errors import DomainError
from exoticcone.rootdata import alternating_sum, dominant_rep, in_conv
from exoticcone.sections import (
    dominant_weights_of_degree,
    h0_decompose,
    h0_mult,
    h0_mult_subsets,
)
from oracles import graded_exotic_count


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


def test_dominant_weights_of_degree():
    assert dominant_weights_of_degree(2, 0) == [(0, 0)]
    assert set(dominant_weights_of_degree(2, 2)) == {(2, 0), (1, 1)}
    assert set(dominant_weights_of_degree(3, 2)) == {(2, 0, 0), (1, 1, 0)}
    for k in range(5):
        for mu in dominant_weights_of_degree(2, k):
            assert sum(mu) == k
