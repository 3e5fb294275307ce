import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone.errors import DomainError
from exoticcone.rootdata import dominant_rep, in_conv
from exoticcone.sections import (
    dominant_weights_of_degree,
    h0_decompose,
    h0_mult,
    h0_mult_subsets,
)


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


def test_dominant_weights_of_degree():
    assert dominant_weights_of_degree(2, 0) == [(0, 0)]
    assert set(dominant_weights_of_degree(2, 2)) == {(2, 0), (1, 1)}
    assert set(dominant_weights_of_degree(3, 2)) == {(2, 0, 0), (1, 1, 0)}
    for k in range(5):
        for mu in dominant_weights_of_degree(2, k):
            assert sum(mu) == k
