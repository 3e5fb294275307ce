import json
import os
from fractions import Fraction

import pytest

from exoticcone.bipartitions import Bipartition, bipartition, enumerate_Q
from exoticcone.errors import DomainError, NotDoubled
from exoticcone.linalg import (
    mat_pow,
    mat_vec,
    span,
    sub_add,
    sub_dim,
    sub_leq,
    transpose,
)
from exoticcone.orbits import (
    ExoticPair,
    IsotropicFiltration,
    SymplecticSpace,
    adapted_filtration,
    centralizer_basis,
    conjugate_pair,
    de_double,
    exv_module,
    in_exotic_cone,
    jordan_type,
    make_pair,
    orbit_of,
    pair_from_json,
    pair_to_json,
    perp,
    random_symplectic,
    representative,
    solve_symplectic_form,
    standard_form,
    verify_adapted,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def load_pair(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return pair_from_json(json.load(handle))


@pytest.fixture(scope="module")
def sample_pair():
    return load_pair("pair_n6.json")


@pytest.fixture(scope="module")
def sample_pair_with_form():
    return load_pair("pair_n6_with_form.json")


def test_standard_form_properties():
    for n in (1, 2, 3):
        sp = standard_form(n)
        d = 2 * n
        om = sp.omega_rows()
        assert om == [[-x for x in row] for row in transpose(om)]
        from exoticcone.linalg import det

        assert det(om) == 1
    sp = standard_form(1)
    assert sp.omega[0][1] == 1 and sp.omega[1][0] == -1


def test_symplectic_space_validation():
    with pytest.raises(DomainError):
        SymplecticSpace(n=1, omega=((0, 1), (1, 0)))  # symmetric
    with pytest.raises(DomainError):
        SymplecticSpace(n=1, omega=((0, 0), (0, 0)))  # singular


def test_in_exotic_cone_basics():
    sp = standard_form(1)
    zero = make_pair([1, 0], [[0, 0], [0, 0]], sp)
    assert in_exotic_cone(zero)
    semisimple = make_pair([0, 0], [[1, 0], [0, -1]], sp)
    assert not in_exotic_cone(semisimple)


def test_exotic_pair_validation():
    with pytest.raises(DomainError):
        make_pair([1, 0, 0], [[0] * 3] * 3)  # odd dimension
    with pytest.raises(DomainError):
        make_pair([1, 0], [[0] * 2] * 3)
    with pytest.raises(DomainError):
        make_pair([1, 0, 0, 0], [[0] * 4] * 4, standard_form(1))


def test_centralizer_dimensions():
    assert len(centralizer_basis([[0, 0], [0, 0]])) == 4
    for m in (1, 2, 3, 4):
        block = [[0] * m for _ in range(m)]
        for t in range(1, m):
            block[t - 1][t] = 1
        assert len(centralizer_basis(block)) == m


def centralizer_dim_formula(parts):
    return sum(min(a, b) for a in parts for b in parts)


def test_centralizer_matches_type_formula(sample_pair):
    x = sample_pair.x_rows()
    assert jordan_type(x) == (4, 4, 1, 1, 1, 1)
    assert len(centralizer_basis(x)) == centralizer_dim_formula(
        (4, 4, 1, 1, 1, 1)
    )
    assert centralizer_dim_formula((4, 4, 1, 1, 1, 1)) == 48


def test_exv_module_basics():
    x = [[0, 0], [0, 0]]
    assert exv_module(make_pair([0, 0], x)) == ()
    assert sub_dim(exv_module(make_pair([1, 0], x))) == 2


def test_exv_module_sample(sample_pair):
    ex = exv_module(sample_pair)
    assert sub_dim(ex) == 6
    x = sample_pair.x_rows()
    for row in ex:
        assert not any(mat_vec(x, list(row)))


def test_jordan_type_examples(sample_pair):
    assert jordan_type([[0, 1], [0, 0]]) == (2,)
    x = sample_pair.x_rows()
    ex = exv_module(sample_pair)
    assert jordan_type(x, subspace=ex) == (1,) * 6
    assert jordan_type(x, quotient_by=ex) == (3, 3)


def test_jordan_type_rejects_unstable_subspace():
    x = [[0, 1], [0, 0]]
    with pytest.raises(DomainError):
        jordan_type(x, subspace=span([[0, 1]]))
    with pytest.raises(DomainError):
        jordan_type(x, subspace=span([[1, 0]]), quotient_by=span([[1, 0]]))


def test_de_double():
    assert de_double((4, 4, 1, 1)) == (4, 1)
    assert de_double((1,) * 6 ) == (1, 1, 1)
    assert de_double(()) == ()
    with pytest.raises(NotDoubled):
        de_double((3, 2))
    with pytest.raises(NotDoubled):
        de_double((2, 2, 1))


def test_orbit_of_rank1():
    assert orbit_of(make_pair([1, 0], [[0, 0], [0, 0]])) == Bipartition(
        (1,), ()
    )
    assert orbit_of(make_pair([0, 0], [[0, 0], [0, 0]])) == Bipartition(
        (), (1,)
    )


def test_orbit_of_sample(sample_pair):
    assert orbit_of(sample_pair) == Bipartition((1, 1, 1), (3,))


def test_orbit_of_rejects_bad_input():
    with pytest.raises(DomainError):
        orbit_of(make_pair([0, 0], [[1, 0], [0, -1]]))
    # nilpotent but Jordan type not doubled: no orbit
    with pytest.raises(NotDoubled):
        orbit_of(make_pair([0, 0], [[0, 1], [0, 0]]))


def test_representative_examples():
    pair = representative(bipartition((1,), ()))
    assert any(pair.v)
    assert not any(any(row) for row in pair.x)
    pair = representative(bipartition((), (1,)))
    assert not any(pair.v)


def test_representative_round_trip_small():
    for n in range(4):
        for b in enumerate_Q(n):
            pair = representative(b)
            assert orbit_of(pair) == b
            if pair.space is not None:
                assert in_exotic_cone(pair)


def test_doubling_holds_for_representatives():
    for b in enumerate_Q(3):
        pair = representative(b)
        ex = exv_module(pair)
        sub = jordan_type(pair.x_rows(), subspace=ex)
        quo = jordan_type(pair.x_rows(), quotient_by=ex)
        assert sum(sub) + sum(quo) == 2 * b.size
        de_double(sub), de_double(quo)  # must not raise


def test_perp_examples_and_involution():
    sp = standard_form(1)
    assert perp((), sp) == span([[1, 0], [0, 1]])
    assert perp(span([[1, 0], [0, 1]]), sp) == ()
    line = span([[1, 0]])
    assert perp(line, sp) == line

    sp2 = standard_form(2)
    for sub in [(), span([[1, 0, 0, 0]]), span([[1, 0, 0, 0], [0, 1, 0, 0]])]:
        assert perp(perp(sub, sp2), sp2) == sub
    small = span([[1, 0, 0, 0]])
    big = span([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert sub_leq(small, big)
    assert sub_leq(perp(big, sp2), perp(small, sp2))
    assert sub_dim(perp(big, sp2)) == 2


def test_conjugation_invariance_small():
    for b in enumerate_Q(2):
        pair = representative(b)
        for seed in range(6):
            g = random_symplectic(pair.space, seed)
            moved = conjugate_pair(pair, g)
            assert in_exotic_cone(moved)
            assert orbit_of(moved) == b


def test_random_symplectic_is_deterministic():
    sp = standard_form(2)
    assert random_symplectic(sp, 17) == random_symplectic(sp, 17)
    assert random_symplectic(sp, 17) != random_symplectic(sp, 18)


def test_solve_symplectic_form(sample_pair):
    omega = solve_symplectic_form(sample_pair.x_rows())
    sp = SymplecticSpace(n=6, omega=omega)
    assert in_exotic_cone(
        ExoticPair(v=sample_pair.v, x=sample_pair.x, space=sp)
    )
    with pytest.raises(DomainError):
        solve_symplectic_form([[0, 1], [0, 0]])


def test_adapted_filtration_sample(sample_pair_with_form):
    pair = sample_pair_with_form
    b = orbit_of(pair)
    filt = adapted_filtration(pair)
    assert verify_adapted(filt, pair, b)
    x = pair.x_rows()
    im_x3 = span([list(c) for c in transpose(mat_pow(x, 3))])
    im_x2_v = sub_add(
        span([list(c) for c in transpose(mat_pow(x, 2))]),
        span([pair.v_vec()]),
    )
    assert filt.level(3) == im_x3
    assert filt.level(1) == im_x2_v
    assert filt.level(0) == perp(im_x2_v, pair.space)
    assert filt.level(-2) == perp(im_x3, pair.space)


def test_verify_adapted_rejects_perturbations(sample_pair_with_form):
    pair = sample_pair_with_form
    b = orbit_of(pair)
    filt = adapted_filtration(pair)
    levels = filt.as_dict()

    wrong_dim = dict(levels)
    wrong_dim[3] = span([list(levels[3][0])])
    bad = IsotropicFiltration(
        space=pair.space, subspaces=tuple(sorted(wrong_dim.items()))
    )
    assert not verify_adapted(bad, pair, b)

    # moving v out of V_{>=1} breaks the membership condition
    from exoticcone.linalg import contains

    outside = next(
        i
        for i in range(pair.dim)
        if not contains(levels[1], [int(k == i) for k in range(pair.dim)])
    )
    moved = ExoticPair(
        v=tuple(Fraction(int(k == outside)) for k in range(pair.dim)),
        x=pair.x,
        space=pair.space,
    )
    assert not verify_adapted(filt, moved, b)


def test_verify_adapted_accepts_any_spanning_rows():
    b = bipartition((1,), (1,))
    pair = representative(b)
    filt = adapted_filtration(pair)
    respanned = {
        a: [[2 * x for x in row] for row in rows]
        + [[sum(col) for col in zip(*rows)]] * bool(rows)
        for a, rows in filt.as_dict().items()
    }
    again = IsotropicFiltration(
        space=pair.space, subspaces=tuple(sorted(respanned.items()))
    )
    assert again == filt
    assert again.as_dict() == filt.as_dict()
    assert verify_adapted(again, pair, b)


def test_adapted_filtration_rank1_line():
    pair = representative(bipartition((1,), ()))
    filt = adapted_filtration(pair)
    assert filt.level(1) == span([pair.v_vec()])
    assert verify_adapted(filt, pair, bipartition((1,), ()))


def test_adapted_filtration_degenerate_orbit():
    pair = representative(bipartition((), (1,)))
    filt = adapted_filtration(pair)
    assert filt.level(1) == ()
    assert sub_dim(filt.level(0)) == 2
    assert verify_adapted(filt, pair, bipartition((), (1,)))


def test_adapted_filtration_all_orbits_rank3():
    for b in enumerate_Q(3):
        pair = representative(b)
        filt = adapted_filtration(pair)
        assert verify_adapted(filt, pair, b)


def test_adapted_filtration_reports_exhausted_depth():
    from exoticcone.errors import FiltrationNotFound

    pair = representative(bipartition((2,), (1,)))
    with pytest.raises(FiltrationNotFound) as info:
        adapted_filtration(pair, closure_depth=0)
    assert info.value.knob == "closure_depth"
    # the same search succeeds once the lattice may grow
    filt = adapted_filtration(pair, closure_depth=4)
    assert verify_adapted(filt, pair, bipartition((2,), (1,)))


def test_orbit_of_rejects_incompatible_form():
    # two chains oriented against the antidiagonal pairing
    x = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    assert not in_exotic_cone(make_pair([0] * 4, x, standard_form(2)))
    with pytest.raises(DomainError):
        orbit_of(make_pair([0] * 4, x, standard_form(2)))


def test_pair_json_round_trip():
    pair = representative(bipartition((1,), (1,)))
    doc = pair_to_json(pair)
    again = pair_from_json(doc)
    assert again.v == pair.v and again.x == pair.x
    assert again.space.omega == pair.space.omega

    doc = {
        "n": 1,
        "v": ["1/2", 0],
        "x": [[0, "3/4"], [0, 0]],
    }
    pair = pair_from_json(doc)
    assert pair.v[0] == Fraction(1, 2)
    assert pair.x[0][1] == Fraction(3, 4)
    assert pair.space is None
    with pytest.raises(DomainError):
        pair_from_json({"n": 2, "v": [0, 0], "x": [[0, 0], [0, 0]]})
    with pytest.raises(DomainError):
        pair_from_json({"v": [0, 0], "x": [[0, 0], [0, 0]]})
