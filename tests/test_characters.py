import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone import characters, config
from exoticcone.characters import (
    all_weights,
    dominant_cone_weights,
    weight_mult,
    weight_mult_oracle,
    weyl_dim,
)
from exoticcone.errors import DomainError, InternalInconsistency
from exoticcone.rootdata import (
    dominant_rep,
    in_conv,
    signed_permutations,
    weyl_orbit,
)


def dominant2(bound=3):
    return (
        st.lists(st.integers(0, bound), min_size=2, max_size=2)
        .map(lambda w: dominant_rep(tuple(w)))
    )


def test_weight_mult_examples():
    assert weight_mult((1, 0), (1, 0)) == 1
    assert weight_mult((1, 0), (0, 0)) == 0
    assert weight_mult((1, 1), (0, 0)) == 1


def test_oracle_examples():
    assert weight_mult_oracle((0, 0), (0, 0)) == 1
    assert weight_mult_oracle((1, 0), (0, -1)) == 1
    assert weight_mult_oracle((1, 1), (1, -1)) == 1


def test_weyl_dim_examples():
    assert weyl_dim((0, 0)) == 1
    assert weyl_dim((1, 0)) == 4
    assert weyl_dim((1, 1)) == 5
    assert weyl_dim((2, 0)) == 10  # adjoint of Sp(4)
    assert weyl_dim((1, 0, 0)) == 6
    with pytest.raises(DomainError):
        weyl_dim((0, 1))


def test_weyl_dim_raises_on_a_non_integral_product(monkeypatch):
    # a wrong rho makes the product formula non-integral for mu = (1, 0):
    # 3/2 * 5/4 * 4/3 * 1 = 5/2
    monkeypatch.setattr(characters, "rho", lambda n: (3, 1))
    with pytest.raises(InternalInconsistency):
        weyl_dim((1, 0))


def test_all_weights_examples():
    t = all_weights((0, 0))
    assert t.entries == {(0, 0): 1}
    t = all_weights((1, 0))
    assert t.entries == {w: 1 for w in weyl_orbit((1, 0))}
    t = all_weights((1, 1))
    expected = {w: 1 for w in weyl_orbit((1, 1))}
    expected[(0, 0)] = 1
    assert t.entries == expected


def test_table_invariants():
    for mu in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        t = all_weights(mu)
        assert t.entries[mu] == 1
        assert t.dimension() == weyl_dim(mu)
        for lam, m in t.entries.items():
            for w_lam in weyl_orbit(lam):
                assert t.entries[w_lam] == m


@given(dominant2())
@settings(max_examples=20, deadline=None)
def test_kostant_sum_equals_freudenthal_rank2(mu):
    for lam in all_weights(mu).entries:
        assert weight_mult(mu, lam) == weight_mult_oracle(mu, lam)


def test_kostant_sum_equals_freudenthal_rank3_spot():
    for mu in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0)]:
        table = all_weights(mu)
        assert table.dimension() == weyl_dim(mu)
        for lam in table.entries:
            assert weight_mult(mu, lam) == weight_mult_oracle(mu, lam)


@given(dominant2(2), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_w_invariance_and_support(mu, lam):
    lam = tuple(lam)
    m = weight_mult(mu, lam)
    assert m == weight_mult_oracle(mu, lam)
    if not in_conv(lam, mu):
        assert m == 0
    for w in signed_permutations(2):
        assert weight_mult(mu, w.act(lam)) == m


def test_sum_over_hull_is_dimension():
    for mu in [(1, 0), (1, 1), (2, 1)]:
        total = 0
        seen = set()
        for dom in dominant_cone_weights(mu):
            for lam in weyl_orbit(dom):
                assert lam not in seen
                seen.add(lam)
                total += weight_mult(mu, lam)
        assert total == weyl_dim(mu)


def test_dominant_cone_weights_is_prefix_condition():
    got = dominant_cone_weights((2, 1))
    assert (2, 1) in got and (1, 0) in got and (0, 0) in got
    for lam in got:
        run = 0
        for a, b in zip((2, 1), lam):
            run += a - b
            assert run >= 0


def test_non_dominant_mu_rejected():
    with pytest.raises(DomainError):
        weight_mult((0, 1), (0, 0))
    with pytest.raises(DomainError):
        weight_mult_oracle((0, 1), (0, 0))


def test_rank_mismatch_rejected():
    for mu, lam in (((1,), (0, 0)), ((1, 0), (1,)), ((1, 0), (0, 0, 0))):
        for route in (weight_mult, weight_mult_oracle):
            with pytest.raises(DomainError, match="rank mismatch"):
                route(mu, lam)


def test_table_cache_cap_keeps_answers_correct(monkeypatch):
    mus = [(1, 0), (2, 0), (1, 1), (2, 2), (3, 1), (2, 1, 1)]
    # a lowered cap takes effect at the next store, so start empty
    monkeypatch.setattr(config, "memo_cap", 4)
    characters._tables.clear()
    for mu in mus:
        for lam in dominant_cone_weights(mu):
            assert weight_mult_oracle(mu, lam) == weight_mult(mu, lam)
            assert sum(map(len, characters._tables.values())) <= 4
    # a table larger than the cap is returned but not kept
    characters._tables.clear()
    table = characters._freudenthal_table((3, 1))
    assert len(table) == 5 and table[(3, 1)] == 1
    assert (3, 1) not in characters._tables


def test_table_cache_under_threads(frequent_switches, monkeypatch):
    # clears race with stores; a table is a function of its key, so no
    # interleaving may change an answer
    from concurrent.futures import ThreadPoolExecutor

    mus = [(1, 0), (2, 0), (1, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1)]
    queries = [(mu, lam) for mu in mus for lam in dominant_cone_weights(mu)]
    expected = [weight_mult(mu, lam) for mu, lam in queries]
    monkeypatch.setattr(config, "memo_cap", 4)
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):
            got = list(pool.map(lambda q: weight_mult_oracle(*q), queries))
            assert got == expected
