import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from exoticcone.bipartitions import (
    Bipartition,
    bipartition,
    enumerate_Q,
    filtration_dims,
    orbit_dim,
    phiC,
)
from exoticcone.errors import DomainError, NotDoubled
from exoticcone.linalg import (
    contains,
    det,
    full_space,
    identity,
    inverse,
    map_image,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_vec,
    span,
    sub_add,
    sub_dim,
    sub_leq,
    to_mat,
    transpose,
)
from exoticcone.orbits import (
    ExoticPair,
    IsotropicFiltration,
    SymplecticSpace,
    _maps_into,
    adapted_filtration,
    centralizer_basis,
    conjugate_pair,
    de_double,
    exv_module,
    form_compatible,
    in_exotic_cone,
    jordan_type,
    make_pair,
    orbit_of,
    pair_from_json,
    pair_to_json,
    perp,
    random_symplectic,
    rational_to_json,
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
    """A Gram matrix must be antisymmetric, diagonal included, and
    invertible. ((1, 1), (-1, 0)) is invertible and antisymmetric off the
    diagonal, so only the diagonal test refuses it: an antisymmetry check
    that loops over j < i alone accepts this row."""
    with pytest.raises(DomainError):
        SymplecticSpace(n=1, omega=((0, 1), (1, 0)))  # symmetric
    with pytest.raises(DomainError):
        SymplecticSpace(n=1, omega=((0, 0), (0, 0)))  # singular
    assert det([[1, 1], [-1, 0]]) == 1
    with pytest.raises(DomainError, match="antisymmetric"):
        SymplecticSpace(n=1, omega=((1, 1), (-1, 0)))  # nonzero diagonal


@st.composite
def maps_and_forms(draw):
    """(x, space): a form from ``standard_form``, or its pullback h^T omega
    h by an int unitriangular h, with x drawn as a self-adjoint map, a
    random int map or a random Fraction map. A self-adjoint x is -omega A
    for an antisymmetric A and omega the standard form (omega^2 = -1, so
    omega x = A), conjugated by ``random_symplectic`` and moved to the
    pulled back form as h^-1 x h. It is scaled by 1/k (k = 1 keeps it
    int), and may be broken: one entry changed, or a diagonal entry added
    to A, which breaks only the diagonal of omega x."""
    n = draw(st.integers(1, 3))
    d = 2 * n
    std = standard_form(n)
    om = std.omega_rows()
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from(["self-adjoint"] * 2 + ["int", "fraction"]))
    if kind == "int":
        x = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(d)]
    elif kind == "fraction":
        x = [[Fraction(draw(entry), draw(st.integers(1, 4)))
              for _ in range(d)] for _ in range(d)]
    else:
        a = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i):
                a[i][j] = draw(entry)
                a[j][i] = -a[i][j]
        broken = draw(st.sampled_from([None, None, "entry", "diagonal"]))
        if broken == "diagonal":
            i = draw(st.integers(0, d - 1))
            a[i][i] = draw(st.integers(1, 3))
        x = [[-c for c in row] for row in mat_mul(om, a)]
        g = random_symplectic(std, draw(st.integers(0, 2**30)))
        x = to_mat(mat_mul(g, mat_mul(x, inverse(g))))
        scale = Fraction(1, draw(st.sampled_from([1, 1, 2, 3])))
        x = to_mat([[c * scale for c in row] for row in x])
        if broken == "entry":
            i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            x[i][j] += draw(st.integers(1, 2))
    space = std
    if draw(st.booleans()):
        h = identity(d)
        for i in range(d):
            for j in range(i + 1, d):
                h[i][j] = draw(st.integers(-2, 2))
        space = SymplecticSpace(n, mat_mul(transpose(h), mat_mul(om, h)))
        x = to_mat(mat_mul(inverse(h), mat_mul(x, h)))
    return x, space


@given(maps_and_forms())
@settings(max_examples=150, deadline=None)
def test_form_compatible_is_the_two_product_identity(case):
    """``form_compatible`` takes one product, omega x, and asks that it be
    antisymmetric; it must agree with the definition x^T omega = omega x,
    which takes two. Dropping the transpose (x omega = omega x in place of
    x^T omega = omega x, or omega x = -omega x entrywise in place of
    (omega x)^T = -omega x) fails on the self-adjoint draws, and dropping
    the diagonal of the one-product test fails on the draws with a
    diagonal added to A."""
    x, space = case
    om = space.omega_rows()
    expected = mat_eq(mat_mul(transpose(x), om), mat_mul(om, x))
    assert form_compatible(x, space) is expected


def test_form_compatible_draws_both_answers():
    """Fixed maps with both answers, among them one that breaks only the
    diagonal of omega x, which is refused."""
    om = standard_form(1).omega_rows()
    assert form_compatible([[1, 0], [0, 1]], standard_form(1))
    x = [[-c for c in row] for row in mat_mul(om, [[1, 0], [0, 0]])]
    assert not form_compatible(x, standard_form(1))
    assert not form_compatible([[0, 1], [0, 0]], standard_form(1))


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
    # pairs and forms normalise their own entries when built: an integral
    # entry is stored as an int, lists as tuples, and a bad entry is refused
    assert make_pair is ExoticPair
    pair = ExoticPair([Fraction(2, 1), "1/2"], [[0, Fraction(4, 2)], [0, 0]])
    assert pair.v == (2, Fraction(1, 2)) and type(pair.v[0]) is int
    assert pair.x == ((0, 2), (0, 0)) and type(pair.x[0][1]) is int
    assert hash(pair) == hash(ExoticPair((2, "1/2"), ((0, 2), (0, 0))))
    space = SymplecticSpace(1, [[0, Fraction(2, 1)], ["-2", 0]])
    assert space.omega == ((0, 2), (-2, 0)) and type(space.omega[0][1]) is int
    hash(space)
    for bad in (True, 0.5, "a"):
        with pytest.raises(DomainError):
            ExoticPair([bad, 0], [[0, 0], [0, 0]])
        with pytest.raises(DomainError):
            ExoticPair([0, 0], [[0, bad], [0, 0]])
        with pytest.raises(DomainError):
            SymplecticSpace(1, [[0, 1], [bad, 0]])


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


def random_nilpotent_pair(seed):
    """(v, x) with x a random strictly upper-triangular int matrix
    conjugated by a random invertible int matrix g (so x has Fraction
    entries in general), and v = g x0^k w for a random sparse w."""
    rng = random.Random(seed)
    d = 2 * rng.randint(1, 4)
    density = rng.random()
    x0 = [[rng.choice((-2, -1, 1, 2)) if j > i and rng.random() < density
           else 0 for j in range(d)] for i in range(d)]
    g = [[0]]
    while det(g) == 0:
        g = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    w = [rng.randint(-2, 2) if rng.random() < 0.6 else 0 for _ in range(d)]
    v = mat_vec(mat_mul(g, mat_pow(x0, rng.choice((0, 0, 1, 2)))), w)
    return make_pair(v, mat_mul(g, mat_mul(x0, inverse(g))))


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_exv_module_matches_centralizer_oracle(seed):
    pair = random_nilpotent_pair(seed)
    assert exv_module(pair) == oracles.exv_module(pair)


def test_exv_module_matches_oracle_on_orbits():
    for n in range(1, 5):
        for b in enumerate_Q(n):
            pair = representative(b)
            assert exv_module(pair) == oracles.exv_module(pair)
            if n > 3:
                continue
            for seed in range(3):
                moved = conjugate_pair(pair, random_symplectic(pair.space, seed))
                assert exv_module(moved) == oracles.exv_module(moved)


def test_exv_module_rejects_non_nilpotent():
    for x in ([[1, 0], [0, 0]],
              [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
              [[1, 0], [0, 1]]):
        pair = make_pair([1] + [0] * (len(x) - 1), x)
        with pytest.raises(DomainError, match="not nilpotent"):
            exv_module(pair)
        with pytest.raises(DomainError, match="not nilpotent"):
            orbit_of(pair)
    pair = make_pair([1, 0], [[0, 0], [1, 1]], standard_form(1))
    with pytest.raises(DomainError, match="not nilpotent"):
        adapted_filtration(pair)


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


def test_orbit_of_matches_the_two_jordan_type_oracle():
    """``orbit_of`` reads the ranks of x on E^x v and on the quotient off
    the images of the powers of x; the oracle calls ``jordan_type`` twice.
    They agree on every representative with n <= 5 and on ten conjugates
    of each orbit with n <= 3.

    This test fails when the quotient ranks drop the "- dim E" (dim(im
    x^k + E) in place of dim(im x^k + E) - dim E), or read im x^(k+1) in
    place of im x^k."""
    for n in range(6):
        for b in enumerate_Q(n):
            rep = representative(b)
            assert orbit_of(rep) == oracles.orbit_of(rep) == b
            if not 1 <= n <= 3:
                continue
            for seed in range(10):
                moved = conjugate_pair(rep, random_symplectic(rep.space, seed))
                assert orbit_of(moved) == oracles.orbit_of(moved) == b, seed


@st.composite
def map_and_subspaces(draw):
    """An int map x of a space of dimension d <= 4, and two subspaces."""
    d = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    x = draw(st.lists(row, min_size=d, max_size=d))
    s, t = (span(draw(st.lists(row, max_size=d))) for _ in range(2))
    return x, s, t


@given(map_and_subspaces())
# x s = span(e1) does not lie in t = span(e2)
@example(([[0, 1], [0, 0]], span([[0, 1]]), span([[0, 1]])))
@settings(max_examples=100, deadline=None)
def test_maps_into_is_containment_of_the_image(case):
    x, s, t = case
    image = map_image(x, s)
    # t alone may or may not hold x s; t + x s always does
    for target in (t, sub_add(t, image)):
        assert _maps_into(x, s, target) == sub_leq(image, target)


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


def test_conjugate_pair_rejects_a_g_that_breaks_the_form():
    """g = 1 + E_01 is invertible but does not preserve the form of
    rep((2) | (1)). conjugate_pair keeps the pair's form, so it must
    refuse g rather than return a pair that orbit_of rejects as "x is not
    self-adjoint for the supplied form"."""
    rep = representative(bipartition([2], [1]))
    g = identity(rep.dim)
    g[0][1] = 1
    with pytest.raises(DomainError, match="g does not preserve the form"):
        conjugate_pair(rep, g)
    # without a form any invertible g stays in the orbit
    bare = ExoticPair(v=rep.v, x=rep.x)
    assert orbit_of(conjugate_pair(bare, g)) == bipartition([2], [1])
    moved = conjugate_pair(rep, random_symplectic(rep.space, 0))
    assert orbit_of(moved) == bipartition([2], [1])


def test_orbit_dim_matches_the_stabilizer_oracle():
    """dim O = dim sp(2n) - dim stab(v, x), with the stabilizer as an
    exact kernel in d^2 unknowns (``oracles.stabilizer``), equals
    ``orbit_dim`` on every orbit with n <= 6 and on five conjugates of
    each orbit with n <= 3."""
    for n in range(1, 7):
        for b in enumerate_Q(n):
            rep = representative(b)
            pairs = [rep]
            if n <= 3:
                pairs += [conjugate_pair(rep, random_symplectic(rep.space, s))
                          for s in range(5)]
            for pair in pairs:
                dim = 2 * n * n + n - len(oracles.stabilizer(pair))
                assert dim == orbit_dim(b), (b, pair)


def test_random_symplectic_is_deterministic():
    sp = standard_form(2)
    assert random_symplectic(sp, 17) == random_symplectic(sp, 17)
    assert random_symplectic(sp, 17) != random_symplectic(sp, 18)


J3_J1 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_solve_symplectic_form(sample_pair):
    """The int kernel and int determinant scan give the form of the
    Fraction nullspace and Fraction determinant scan (the oracle), entry
    for entry, on formless conjugates of every orbit with n <= 4, and
    refuse what it refuses with the same message."""
    omega = solve_symplectic_form(sample_pair.x_rows())
    sp = SymplecticSpace(n=6, omega=omega)
    assert in_exotic_cone(
        ExoticPair(v=sample_pair.v, x=sample_pair.x, space=sp)
    )
    # the zero space carries one form, the empty one
    assert solve_symplectic_form([]) == ()
    xs = [sample_pair.x_rows(), []]
    for n in range(1, 5):
        for b in enumerate_Q(n):
            rep = representative(b)
            xs.append(conjugate_pair(
                rep, random_symplectic(rep.space, n)).x_rows())
    for x in xs:
        got = solve_symplectic_form(x)
        assert got == oracles.solve_symplectic_form(x)
        assert all(type(c) is Fraction for row in got for c in row)
    for x, message in (([[0, 1], [0, 0]], "no nonzero invariant"),
                       (J3_J1, "no invertible invariant form")):
        for solve in (solve_symplectic_form, oracles.solve_symplectic_form):
            with pytest.raises(DomainError, match=message):
                solve(x)


def test_adapted_filtration_solves_a_missing_form():
    """A formless pair gets the filtration of the same pair with the
    solved form attached: formless conjugates of every orbit with n <= 3,
    and rep((1) | (1)) moved by a g with a fractional inverse, which gives
    "p/q" entries."""
    pairs = []
    for n in range(1, 4):
        for b in enumerate_Q(n):
            rep = representative(b)
            conj = conjugate_pair(rep, random_symplectic(rep.space, n))
            pairs.append(ExoticPair(v=conj.v, x=conj.x))
    rep = representative(bipartition((1,), (1,)))
    g = [[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [1, 0, 0, 1]]
    doc = pair_to_json(conjugate_pair(ExoticPair(v=rep.v, x=rep.x), g))
    assert any("/" in str(c) for row in doc["x"] for c in row)
    pairs.append(pair_from_json(doc))
    for pair in pairs:
        filt = adapted_filtration(pair)
        space = SymplecticSpace(n=pair.n,
                                omega=solve_symplectic_form(pair.x_rows()))
        with_form = ExoticPair(v=pair.v, x=pair.x, space=space)
        want = adapted_filtration(with_form)
        assert filt.subspaces == want.subspaces
        assert filt.orbit == want.orbit == orbit_of(pair)
        assert filt.space == want.space == space
        assert verify_adapted(filt, with_form, filt.orbit)
    # the solve comes before the orbit, so a Jordan type that is not
    # doubled is refused by the solve
    with pytest.raises(DomainError, match="no invertible invariant form"):
        adapted_filtration(ExoticPair(v=[1, 0, 0, 0], x=J3_J1))


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


def test_verify_adapted_rejects_a_chain_that_is_not_nested():
    """On rep(2 | ∅), n = 2 (x e_2 = e_1, x e_4 = e_3, v = e_2,
    omega(e_1, e_4) = omega(e_2, e_3) = 1): V_{>=3} = <e_1>, V_{>=2} =
    <e_3>, V_{>=1} = <e_2, e_3> and the perps below them have the
    profile's dimensions, satisfy x V_{>=a} in V_{>=a+2} and v in V_{>=1},
    and are dual by construction, but V_{>=3} is not in V_{>=2} and
    V_{>=1} is not isotropic. Only the nesting check refuses the chain:
    with it replaced by ``if False:`` the library accepts it."""
    b = bipartition((2,), ())
    pair = representative(b)
    e = [[int(k == i) for k in range(4)] for i in range(4)]
    levels = {4: (), 3: span([e[0]]), 2: span([e[2]]),
              1: span([e[1], e[2]])}
    for a in range(0, -4, -1):
        levels[a] = perp(levels[1 - a], pair.space)
    profile = filtration_dims(b)
    assert [a for a, _ in profile.levels] == sorted(levels)
    for a, dim in profile.levels:
        assert sub_dim(levels[a]) == dim
        assert _maps_into(pair._int_x, levels[a], levels.get(a + 2, ()))
    assert contains(levels[1], pair.v_vec())
    assert not sub_leq(levels[3], levels[2])
    assert not sub_leq(levels[1], levels[0])
    filt = IsotropicFiltration(space=pair.space,
                               subspaces=tuple(sorted(levels.items())))
    assert not verify_adapted(filt, pair, b)
    assert not oracles.verify_adapted_by_perps(filt, pair, b)


def test_filtration_refuses_levels_that_are_not_a_run():
    """On rep(1 | ∅), levels that are missing, skip index 0, repeat, run
    backwards or are not indexed by ints are refused when the filtration
    is built, with DomainError: verification reads the levels over a
    range of ints."""
    rep = representative(bipartition((1,), ()))
    levels = adapted_filtration(rep).subspaces
    assert [a for a, _ in levels] == [-1, 0, 1, 2]
    halves = tuple((Fraction(a, 2), sub) for a, sub in levels)
    for broken in ((), levels[:1] + levels[2:], levels[:2] + levels[1:2],
                   levels[::-1], halves):
        with pytest.raises(DomainError, match="consecutive"):
            IsotropicFiltration(space=rep.space, subspaces=broken)


def test_filtration_refuses_rows_of_the_wrong_length():
    """On rep(1 | 1), d = 4: levels whose rows are all padded by two
    zeros, or one level with one short row, are refused when the
    filtration is built. The padded rows were accepted and verified, as
    zip dropped the extra columns; a short row raised IndexError."""
    rep = representative(bipartition((1,), (1,)))
    levels = adapted_filtration(rep).subspaces
    padded = tuple((a, [[*row, 0, 0] for row in sub]) for a, sub in levels)
    short = tuple((a, [list(row) for row in sub]) for a, sub in levels)
    next(rows for _, rows in short if rows)[-1].pop()
    for broken in (padded, short):
        with pytest.raises(DomainError, match="length 4"):
            IsotropicFiltration(space=rep.space, subspaces=broken)


def test_verify_adapted_refuses_a_pair_of_another_dimension():
    """The adapted filtration of each orbit with n <= 3, checked against
    the representative of each orbit of another rank with n <= 3, under
    either orbit, raises DomainError: 320 cases, of which 52 raised
    IndexError and the rest returned False."""
    reps = [representative(b) for n in range(1, 4) for b in enumerate_Q(n)]
    cases = 0
    for rep in reps:
        filt = adapted_filtration(rep)
        for other in reps:
            if other.n == rep.n:
                continue
            for b in (filt.orbit, orbit_of(other)):
                with pytest.raises(DomainError, match="dimension"):
                    verify_adapted(filt, other, b)
                cases += 1
    assert cases == 320


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
        assert filt.orbit == b
        assert verify_adapted(filt, pair, b)


def test_adapted_filtration_conjugation_equivariant():
    """g carries each level of the filtration of (v, x) onto the same
    level of the filtration of (g v, g x g^-1)."""
    for n, seeds in ((1, 3), (2, 3), (3, 3), (4, 1)):
        for b in enumerate_Q(n):
            pair = representative(b)
            filt = adapted_filtration(pair)
            lo, hi = filt.range()
            for seed in range(seeds):
                g = random_symplectic(pair.space, seed)
                moved = adapted_filtration(conjugate_pair(pair, g))
                assert moved.range() == (lo, hi)
                for a in range(lo, hi + 1):
                    image = span([mat_vec(g, list(row))
                                  for row in filt.level(a)])
                    assert moved.level(a) == image, (b, seed, a)


def test_adapted_filtration_conjugate_needs_no_closure_round():
    # rep(5 | ∅) conjugated by random_symplectic(space, 7): level V_{>=1}
    # is the x-cyclic span of v, found without any search
    pair = load_pair("pair_n5_conj.json")
    filt = adapted_filtration(pair)
    assert filt.orbit == bipartition((5,), ())
    assert verify_adapted(filt, pair, filt.orbit)
    x, v = pair.x_rows(), pair.v_vec()
    assert filt.level(1) == span([mat_vec(mat_pow(x, j), v) for j in range(5)])


@pytest.fixture(scope="module")
def oracle_pairs():
    """Every orbit up to n = 5 and 20 conjugates of each orbit up to
    n = 3, with their orbits: 413 pairs."""
    pairs = []
    for n in range(1, 6):
        for b in enumerate_Q(n):
            rep = representative(b)
            pairs.append((b, rep))
            if n <= 3:
                pairs += [(b, conjugate_pair(rep, random_symplectic(
                    rep.space, s))) for s in range(20)]
    assert len(pairs) == 413
    return pairs


def test_adapted_filtration_matches_the_search_oracle(oracle_pairs):
    """The closed form equals the filtration that the subspace-lattice
    search of the oracles finds, on the 413 pairs of ``oracle_pairs``."""
    for b, pair in oracle_pairs:
        got = adapted_filtration(pair)
        assert got == oracles.adapted_filtration(pair), (b, pair)
        assert got.orbit == b


def test_verify_adapted_matches_the_perps_oracle(oracle_pairs):
    """Checking perp duality through the form agrees with recomputing
    every perp, on the filtrations of the 413 pairs of ``oracle_pairs``
    (all accepted) and on each of them read against the next orbit's
    profile or the next pair (mostly rejected)."""
    cases = [(adapted_filtration(pair), pair, b) for b, pair in oracle_pairs]
    rejected = 0
    for i, (filt, pair, b) in enumerate(cases):
        assert verify_adapted(filt, pair, b)
        assert oracles.verify_adapted_by_perps(filt, pair, b)
        other_filt, _, other_b = cases[(i + 1) % len(cases)]
        for args in ((filt, pair, other_b), (other_filt, pair, other_b)):
            if args[0].space == pair.space:
                got = verify_adapted(*args)
                assert got == oracles.verify_adapted_by_perps(*args), args
                rejected += not got
    assert rejected


def test_verify_adapted_rejects_a_foreign_form_by_duality_alone():
    """The adapted filtration of (v, x, omega), checked against (v, x,
    omega c) with c = 1 + y + y*, y a seeded int combination of the
    centralizer basis of x and y* = omega^-1 y^T omega: c commutes with x
    and is self-adjoint, so omega c is an antisymmetric form for which x
    stays self-adjoint. Every condition but perp duality reads the same
    filtration, v and x, so those pass; both verifiers agree on every
    case, some cases fail by duality alone, and the filtration built for
    the new form verifies. Five tries per orbit up to n = 3."""
    rng = random.Random(0)
    verdicts = []
    for n in range(1, 4):
        for b in enumerate_Q(n):
            rep = representative(b)
            filt = adapted_filtration(rep)
            for space in _foreign_forms(rep, rng, 5):
                pair = ExoticPair(v=rep.v, x=rep.x, space=space)
                assert in_exotic_cone(pair) and orbit_of(pair) == b
                got = verify_adapted(filt, pair, b)
                assert got == oracles.verify_adapted_by_perps(filt, pair, b)
                assert verify_adapted(adapted_filtration(pair), pair, b)
                verdicts.append(got)
    # 69 of the 85 tries give an invertible c; 13 of the forms move V_{>= 1}
    assert len(verdicts) == 69 and verdicts.count(False) == 13


def _foreign_forms(pair, rng, tries):
    """One form omega c, with c = 1 + y + y* for the pair's omega as in
    the foreign-form test above, for each of the tries whose c is
    invertible."""
    d = pair.dim
    om = pair.space.omega_rows()
    om_inv = inverse(om)
    basis = centralizer_basis(pair.x_rows())
    for _ in range(tries):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        y = [[sum(k * m[i][j] for k, m in zip(coeffs, basis))
              for j in range(d)] for i in range(d)]
        y_star = mat_mul(om_inv, mat_mul(transpose(y), om))
        c = [[int(i == j) + y[i][j] + y_star[i][j]
              for j in range(d)] for i in range(d)]
        if det(c) != 0:
            yield SymplecticSpace(n=pair.n, omega=mat_mul(om, c))


def test_verify_adapted_answers_from_the_check_already_made(monkeypatch):
    """``adapted_filtration`` then ``verify_adapted`` on the same pair
    object and orbit runs ``_verify`` once, on a conjugate of every orbit
    with n <= 3. Each other call runs it in full and agrees with the perps
    oracle: an equal but distinct pair, the next orbit of the same rank,
    the filtration rebuilt by the constructor, and the pair under a
    foreign form (``_foreign_forms``)."""
    from exoticcone import orbits

    calls = []
    verify = orbits._verify

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(orbits, "_verify", counted)
    rng = random.Random(0)
    for n in range(1, 4):
        bs = enumerate_Q(n)
        for i, b in enumerate(bs):
            rep = representative(b)
            pair = conjugate_pair(rep, random_symplectic(rep.space, n))
            calls.clear()
            filt = adapted_filtration(pair)
            assert verify_adapted(filt, pair, b)
            assert len(calls) == 1, b
            space = next(_foreign_forms(pair, rng, 5))
            for args in (
                    (filt, ExoticPair(v=pair.v, x=pair.x, space=pair.space),
                     b),
                    (filt, pair, bs[(i + 1) % len(bs)]),
                    (IsotropicFiltration(space=filt.space,
                                         subspaces=filt.subspaces), pair, b),
                    (filt, ExoticPair(v=pair.v, x=pair.x, space=space), b)):
                calls.clear()
                got = verify_adapted(*args)
                assert len(calls) == 1, (b, args)
                assert got == oracles.verify_adapted_by_perps(*args), args
            # the record outlives the other calls
            calls.clear()
            assert verify_adapted(filt, pair, b) and not calls, b


def test_verify_adapted_refuses_a_pair_outside_the_cone():
    """(v, x) of a representative, re-formed under the standard form, is
    outside the exotic cone when x is not self-adjoint for that form:
    four representatives with n <= 3. ``verify_adapted`` then raises the
    error of ``orbit_of`` instead of checking the filtration built for
    the representative's own form, which the re-formed pair can pass."""
    outside = []
    for n in range(1, 4):
        for b in enumerate_Q(n):
            rep = representative(b)
            pair = ExoticPair(v=rep.v, x=rep.x, space=standard_form(n))
            if in_exotic_cone(pair):
                continue
            with pytest.raises(DomainError) as orbit_error:
                orbit_of(pair)
            with pytest.raises(DomainError) as verify_error:
                verify_adapted(adapted_filtration(rep), pair, b)
            assert str(verify_error.value) == str(orbit_error.value), b
            outside.append(b)
    assert len(outside) == 4


def _weight_map(pair):
    """x + v omega(v, .), built from the pair's own entries."""
    om = pair.space.omega_rows()
    v = pair.v_vec()
    row = [sum(v[i] * om[i][j] for i in range(pair.dim))
           for j in range(pair.dim)]
    return [[a + c * r for a, r in zip(xrow, row)]
            for xrow, c in zip(pair.x_rows(), v)]


def test_weight_map_has_the_jordan_type_of_the_collapse():
    """N = x + v omega(v, .) has Jordan type phiC(b) (Achar-Henderson,
    Adv. Math. 219, 2008), which is why the profile of the adapted
    filtration reads its dimensions off phiC(b): on every representative
    up to n = 6, and on 3 conjugates of each orbit up to n = 3."""
    for n in range(1, 7):
        for b in enumerate_Q(n):
            rep = representative(b)
            pairs = [rep]
            if n <= 3:
                pairs += [conjugate_pair(rep, random_symplectic(rep.space, s))
                          for s in range(3)]
            for pair in pairs:
                assert jordan_type(_weight_map(pair)) == phiC(b), b


def test_pair_is_classified_once(monkeypatch):
    from exoticcone import orbits

    calls = []
    power_spaces = orbits._power_spaces

    def counted(xi, stop=None):
        calls.append(xi)
        return power_spaces(xi, stop)

    monkeypatch.setattr(orbits, "_power_spaces", counted)
    form_checks = []
    form_compatible = orbits.form_compatible

    def counted_form(xi, space):
        form_checks.append(xi)
        return form_compatible(xi, space)

    monkeypatch.setattr(orbits, "form_compatible", counted_form)
    pair = load_pair("pair_n5_conj.json")
    b = orbit_of(pair)
    filt = adapted_filtration(pair)
    assert verify_adapted(filt, pair, b)
    assert exv_module(pair) and in_exotic_cone(pair)
    # the filtration is kept with the pair too
    assert adapted_filtration(pair) is filt
    # once on x; adapted_filtration's one call, over both calls, is on N
    assert len(calls) == 2 and calls.count(pair._int_x) == 1
    assert calls[1] != pair._int_x
    assert len(form_checks) == 1
    calls.clear()
    representative(bipartition((2, 1), (1,)))
    assert len(calls) == 1
    # the cache lives with the pair: an equal pair is classified anew
    again = load_pair("pair_n5_conj.json")
    assert again == pair and hash(again) == hash(pair)
    assert orbit_of(again) == b
    assert len(calls) == 2


def test_adapted_filtration_computes_one_perp_per_level(monkeypatch):
    from exoticcone import orbits

    calls = []

    def counted(sub, space):
        calls.append(sub)
        return perp(sub, space)

    monkeypatch.setattr(orbits, "perp", counted)
    # the construction takes the perp of V_{>= a} for each a >= 1, and the
    # verification, inside the call and out, computes none
    b = bipartition((2, 1), (1,))
    rep = representative(b)
    pair = conjugate_pair(rep, random_symplectic(rep.space, 0))
    filt = adapted_filtration(pair)
    top = filt.range()[1]
    assert 0 < len(calls) <= top
    calls.clear()
    assert verify_adapted(filt, pair, b)
    assert calls == []


def test_adapted_then_verify_builds_one_profile_and_eliminates_no_level_twice(
        monkeypatch):
    from exoticcone import bipartitions, linalg

    builds, eliminated = [], set()
    profile_cls, echelon = bipartitions.FiltrationProfile, linalg._echelon

    def counted_profile(**fields):
        builds.append(fields)
        return profile_cls(**fields)

    def recorded(m):
        eliminated.add(tuple(map(tuple, m)))
        return echelon(m)

    monkeypatch.setattr(bipartitions, "FiltrationProfile", counted_profile)
    monkeypatch.setattr(linalg, "_echelon", recorded)
    for b in enumerate_Q(3):
        rep = representative(b)
        pair = conjugate_pair(rep, random_symplectic(rep.space, 0))
        orbit_of(pair)  # the classification is not counted
        bipartitions.filtration_dims.cache_clear()
        builds.clear()
        eliminated.clear()
        filt = adapted_filtration(pair)
        assert verify_adapted(filt, pair, b)
        assert len(builds) <= 1, b
        # each level is the output of one elimination and the input of none
        levels = {sub for _, sub in filt.subspaces if sub}
        assert not levels & eliminated, b


def test_adapted_levels_are_already_canonical():
    # adapted_filtration hands its levels over without a second
    # elimination, which is sound only while each equals its span; and
    # both chains, read by index, give the whole space below their range
    # and zero above it, checked two steps past each end
    for n in range(1, 6):
        for b in enumerate_Q(n):
            rep = representative(b)
            conj = conjugate_pair(rep, random_symplectic(rep.space, n))
            profile = filtration_dims(b)
            for pair in (rep, conj):
                filt = adapted_filtration(pair)
                assert all(sub == span(sub) for _, sub in filt.subspaces), b
                lo, hi = filt.range()
                stored = dict(filt.subspaces)
                for a in range(lo - 2, hi + 3):
                    if a < lo:
                        want, dim = full_space(2 * n), 2 * n
                    elif a > hi:
                        want, dim = (), 0
                    else:
                        want, dim = stored[a], sub_dim(stored[a])
                    assert filt.level(a) == want, (b, a)
                    assert profile.dim(a) == dim, (b, a)


def test_as_dict_reads_the_reduced_rows_off_the_int_rows():
    """``as_dict`` gives each level's reduced rows over Q (the Fraction
    oracle ``sub_rref``), with an integral entry as an int and any other
    as a Fraction: on formless conjugates of every orbit with n <= 4 by
    an upper-triangular g with diagonal 1..2n, which gives "p/q" entries,
    on their symplectic conjugates, and on one pair read from "p/q"."""
    pairs = []
    for n in range(1, 5):
        d = 2 * n
        g = [[i + 1 if i == j else int(j > i) for j in range(d)]
             for i in range(d)]
        for b in enumerate_Q(n):
            rep = representative(b)
            pairs.append(conjugate_pair(ExoticPair(v=rep.v, x=rep.x), g))
            pairs.append(conjugate_pair(rep, random_symplectic(rep.space, n)))
    rep = representative(bipartition((1,), (1,)))
    g = [[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [1, 0, 0, 1]]
    doc = pair_to_json(conjugate_pair(ExoticPair(v=rep.v, x=rep.x), g))
    assert any("/" in str(c) for row in doc["x"] for c in row)
    pairs.append(pair_from_json(doc))
    pivots = set()
    for pair in pairs:
        filt = adapted_filtration(pair)
        levels = filt.as_dict()
        assert list(levels) == [a for a, _ in filt.subspaces]
        for a, level in filt.subspaces:
            assert levels[a] == oracles.sub_rref(level), (pair, a)
            for row in levels[a]:
                assert all(type(x) is int or type(x) is Fraction
                           and x.denominator > 1 for x in row), (pair, a)
            pivots.update(next(filter(None, row)) for row in level)
    # some pivot is not 1, so the Fraction branch is reached
    assert pivots - {1}


def test_conjugate_pair_by_a_symplectic_int_g_stays_on_ints():
    """A symplectic int g has det 1, so g x g^-1 has int entries, equal to
    the product over Fraction with the inverse from the oracle rref."""
    for n in range(1, 4):
        d = 2 * n
        for b in enumerate_Q(n):
            rep = representative(b)
            for seed in range(2):
                g = [list(row) for row in random_symplectic(rep.space, seed)]
                moved = conjugate_pair(rep, g)
                assert all(type(c) is int for row in moved.x for c in row)
                red, _ = oracles.rref([row + [int(i == j) for j in range(d)]
                                       for i, row in enumerate(g)])
                g_inv = [row[d:] for row in red]
                want = oracles.mat_mul(g, oracles.mat_mul(rep.x_rows(), g_inv))
                assert moved.x_rows() == want, (b, seed)
                assert moved.v_vec() == oracles.mat_vec(g, rep.v_vec())
                assert moved.space == rep.space


def test_rational_to_json_matches_the_frac_encoding():
    values = [0, 1, -7, 10 ** 30, Fraction(0), Fraction(6, 3),
              Fraction(-4, 2), Fraction(1, 3), Fraction(-5, 7),
              Fraction(10 ** 30, 7), "0", "12", "3/6", "-4/2", "-2/6"]
    for x in values:
        got, want = rational_to_json(x), oracles.rational_to_json(x)
        assert got == want and type(got) is type(want), x
    for bad in (True, False, 1.0, "x"):
        with pytest.raises(DomainError):
            rational_to_json(bad)


def test_orbit_of_rejects_incompatible_form():
    # two chains oriented against the antidiagonal pairing
    x = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    # the check is made once per pair, so each entry point is tried on a
    # fresh pair and again after the others
    for first in (in_exotic_cone, orbit_of, adapted_filtration):
        pair = make_pair([0] * 4, x, standard_form(2))
        for call in (first, in_exotic_cone, orbit_of, adapted_filtration):
            if call is in_exotic_cone:
                assert not in_exotic_cone(pair)
            else:
                with pytest.raises(DomainError, match="not self-adjoint"):
                    call(pair)


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
