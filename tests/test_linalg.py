import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exoticcone import linalg
from exoticcone.errors import DomainError
from exoticcone.linalg import (
    contains,
    det,
    frac,
    full_space,
    identity,
    int_kernel,
    int_rows,
    inverse,
    map_image,
    map_preimage,
    mat_mul,
    mat_vec,
    nonneg_combination,
    rank,
    rref,
    span,
    sub_add,
    sub_dim,
    sub_intersect,
    sub_leq,
    zero_space,
)
from oracles import det as oracle_det
from oracles import in_span as oracle_in_span
from oracles import mat_mul as oracle_mat_mul
from oracles import mat_vec as oracle_mat_vec
from oracles import nullspace as oracle_nullspace
from oracles import rref as oracle_rref
from oracles import span as oracle_span
from oracles import sub_intersect as oracle_intersect
from oracles import sub_rref

small_mat = st.integers(-4, 4)


def normalised_kernel(m, ncols):
    """``int_kernel`` of m with each vector divided by its entry at its
    free column: the Fraction nullspace basis of the oracle."""
    return [[Fraction(x, v[free]) for x in v]
            for free, v in int_kernel(int_rows(m), ncols).items()]


def matrices(rows, cols):
    return st.lists(
        st.lists(small_mat, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def test_frac_parses_strings():
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-6/8") == Fraction(-3, 4) and frac("-12") == -12
    assert frac(7) == 7
    with pytest.raises(DomainError):
        frac("1/0")
    # only ASCII -?[0-9]+(/[0-9]+)?, not the rest of Fraction's grammar
    for text in ("1e5000", "0.5", " 1", "1 ", "1_000", "+2", "٣",
                 "1/-2", "-", "", "3/", "1\n"):
        with pytest.raises(DomainError, match="not an exact rational"):
            frac(text)
    with pytest.raises(DomainError):
        frac(1.5)
    with pytest.raises(DomainError):
        frac(True)


def test_rref_known():
    red, pivots = rref([[1, 2], [2, 4]])
    assert red == [[1, 2]]
    assert pivots == [0]
    red, pivots = rref([[0, 1], [1, 0]])
    assert red == [[1, 0], [0, 1]]


def test_rank_and_nullspace_empty_cases():
    assert rank([]) == 0
    assert int_kernel([], 3) == {
        0: [1, 0, 0],
        1: [0, 1, 0],
        2: [0, 0, 1],
    }
    assert normalised_kernel([], 3) == oracle_nullspace([], 3)


def test_det_and_inverse():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
    m = [[1, 2], [3, 4]]
    assert mat_mul(m, inverse(m)) == identity(2)
    with pytest.raises(DomainError):
        inverse([[1, 2], [2, 4]])


@given(matrices(3, 4))
@settings(max_examples=60)
def test_nullspace_annihilates_and_rank_nullity(m):
    basis = int_kernel(int_rows(m), 4)
    for v in basis.values():
        assert mat_vec(m, v) == [0, 0, 0]
    assert rank(m) + len(basis) == 4
    assert normalised_kernel(m, 4) == oracle_nullspace(m, 4)


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=40)
def test_det_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


def test_subspace_canonical_and_ops():
    s = span([[1, 1, 0], [2, 2, 0]])
    assert sub_dim(s) == 1
    assert s == span([[3, 3, 0]])
    assert contains(s, [5, 5, 0])
    assert not contains(s, [1, 0, 0])
    a = span([[1, 0, 0]])
    b = span([[0, 1, 0]])
    assert sub_add(a, b) == span([[1, 0, 0], [0, 1, 0]])
    assert sub_intersect(a, b, 3) == zero_space()
    assert sub_intersect(sub_add(a, b), span([[1, 1, 0], [0, 0, 1]]), 3) == span(
        [[1, 1, 0]]
    )
    assert sub_leq(a, full_space(3))
    assert not sub_leq(full_space(3), a)


def test_map_image_and_preimage():
    x = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    line = span([[0, 0, 1]])
    assert map_image(x, line) == span([[0, 1, 0]])
    assert map_preimage(x, zero_space(), 3) == span([[1, 0, 0]])
    assert map_preimage(x, span([[1, 0, 0]]), 3) == span(
        [[1, 0, 0], [0, 1, 0]]
    )


@given(matrices(4, 2))
@settings(max_examples=60)
def test_image_dim_is_rank(m):
    cols = [list(c) for c in zip(*m)]
    assert sub_dim(span(cols)) == rank(m)


def test_nonneg_combination_simple():
    assert nonneg_combination([[1, 0], [0, 1]], [1, 1]) is not None
    assert nonneg_combination([[1, 2], [1, 0]], [1, 1]) is not None
    assert nonneg_combination([[1, 2], [-1, 0]], [1, 1]) is None
    assert nonneg_combination([[1, 0], [-1, 0]], [0, 1]) is None


@given(
    st.lists(st.lists(small_mat, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
@settings(max_examples=60)
def test_nonneg_combination_finds_known_solutions(cols, coeffs):
    coeffs = coeffs[: len(cols)]
    target = [
        sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(3)
    ]
    found = nonneg_combination(cols, target)
    assert found is not None
    assert all(c >= 0 for c in found)
    rebuilt = [
        sum(c * col[i] for c, col in zip(found, cols)) for i in range(3)
    ]
    assert rebuilt == [Fraction(t) for t in target]


def test_nonneg_combination_certificates_are_exact():
    # a system whose only solutions are fractional
    cols = [[2, 0], [0, 3]]
    got = nonneg_combination(cols, [1, 1])
    assert got == [Fraction(1, 2), Fraction(1, 3)]


def test_mat_pow_and_transpose():
    x = [[0, 1], [0, 0]]
    assert linalg.mat_pow(x, 2) == [[0, 0], [0, 0]]
    assert linalg.transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]


# -- the fraction-free core against the Fraction Gauss-Jordan oracle ---------

rational = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def rational_matrices(draw, ncols=None):
    """Small rational matrices, often rank-deficient, with zero rows and
    columns and some entries given as "p/q" strings."""
    if ncols is None:
        ncols = draw(st.integers(1, 5))
    row = st.lists(rational, min_size=ncols, max_size=ncols)
    rows = [[Fraction(x) for x in r] for r in draw(st.lists(row, max_size=4))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.lists(rational, min_size=2, max_size=2))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(
            st.integers(0, len(rows) - 1)
        )
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    if rows and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[col] = Fraction(0)
    as_text = draw(st.sets(st.integers(0, 8 * ncols)))
    return [
        [
            f"{x.numerator}/{x.denominator}" if i * ncols + j in as_text else x
            for j, x in enumerate(r)
        ]
        for i, r in enumerate(rows)
    ]


def all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_elimination_agrees_with_fraction_oracle(m):
    ncols = len(m[0]) if m else 0
    red, pivots = rref(m)
    assert (red, pivots) == oracle_rref(m)
    assert all_fractions(red)
    assert rank(m) == len(red)
    basis = int_kernel(int_rows(m), ncols)
    assert all(type(x) is int for v in basis.values() for x in v)
    assert normalised_kernel(m, ncols) == oracle_nullspace(m, ncols)
    k = min(len(m), ncols)
    square = [row[:k] for row in m[:k]]
    value = det(square)
    assert value == oracle_det(square)
    assert type(value) is Fraction
    if value:
        augmented = [
            list(row) + [int(i == j) for j in range(k)]
            for i, row in enumerate(square)
        ]
        inv = inverse(square)
        assert inv == [row[k:] for row in oracle_rref(augmented)[0]]
        assert all_fractions(inv)
    else:
        with pytest.raises(DomainError):
            inverse(square)


def test_elimination_of_empty_inputs_matches_oracle():
    assert rref([]) == oracle_rref([]) == ([], [])
    assert rref([[], []]) == oracle_rref([[], []])
    assert rank([]) == 0
    assert normalised_kernel([], 2) == oracle_nullspace([], 2)
    assert det([]) == oracle_det([]) == 1
    assert type(det([])) is Fraction
    assert inverse([]) == []


# -- canonical int subspaces against the Fraction oracles --------------------

@st.composite
def respanned(draw, rows):
    """Other spanning rows of the span of rows: each scaled by a nonzero
    rational (either sign), shuffled, plus combinations of them."""
    nonzero = rational.filter(bool)
    out = [[draw(nonzero) * frac(x) for x in row] for row in rows]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        coeffs = draw(st.lists(rational, min_size=len(rows),
                               max_size=len(rows)))
        out.append([
            sum(c * frac(row[j]) for c, row in zip(coeffs, rows))
            for j in range(len(rows[0]))
        ])
    return draw(st.permutations(out))


@st.composite
def related_pairs(draw):
    """Two rational matrices of one width: often the second spans the
    same space as the first, or shares some of its rows."""
    ncols = draw(st.integers(1, 5))
    a = draw(rational_matrices(ncols))
    how = draw(st.sampled_from(("same", "share", "free")))
    if how == "same":
        return ncols, a, draw(respanned(a))
    b = draw(rational_matrices(ncols))
    if how == "share" and a:
        b = b + draw(respanned(a[: draw(st.integers(1, len(a)))]))
    return ncols, a, b


def is_canonical(s) -> bool:
    """Primitive int rows with a positive pivot, in reduced echelon form."""
    leads = []
    for row in s:
        if type(row) is not tuple or not all(type(x) is int for x in row):
            return False
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or row[lead] < 0 or gcd(*row) != 1:
            return False
        leads.append(lead)
    return leads == sorted(set(leads)) and all(
        sum(1 for row in s if row[c]) == 1 for c in leads
    )


@given(related_pairs())
@settings(max_examples=100, deadline=None)
def test_span_is_canonical_over_q(case):
    _, a, b = case
    sa, sb = span(a), span(b)
    assert is_canonical(sa) and is_canonical(sb)
    same = oracle_rref(a)[0] == oracle_rref(b)[0]
    assert (sa == sb) == same
    if same:
        assert hash(sa) == hash(sb)
    assert sub_rref(sa) == oracle_span(a)
    assert all_fractions(sub_rref(sa))


@given(related_pairs())
@settings(max_examples=100, deadline=None)
def test_intersection_agrees_with_four_elimination_oracle(case):
    ncols, a, b = case
    got = sub_intersect(span(a), span(b), ncols)
    assert is_canonical(got)
    assert sub_rref(got) == oracle_intersect(a, b, ncols)
    assert sub_leq(got, span(a)) and sub_leq(got, span(b))


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_int_kernel_is_a_kernel_basis(m):
    ncols = len(m[0]) if m else 3
    exact = [[frac(x) for x in row] for row in m]
    basis = int_kernel(int_rows(m), ncols)
    assert len(basis) == ncols - len(oracle_rref(m)[0])
    for free, v in basis.items():
        assert all(type(x) is int for x in v) and v[free] > 0
        assert not any(mat_vec(exact, v))
    assert span(list(basis.values())) == span(oracle_nullspace(m, ncols))


def test_subspace_rows_are_primitive_ints():
    assert span([[Fraction(1, 2), Fraction(1, 3)]]) == ((3, 2),)
    assert span([[-2, 4, 0], [0, 0, -3]]) == ((1, -2, 0), (0, 0, 1))
    assert full_space(2) == ((1, 0), (0, 1))
    assert sub_rref(((3, 2),)) == ((1, Fraction(2, 3)),)


def test_membership_agrees_with_fraction_oracle():
    """``_in_span``, ``contains`` and ``sub_leq`` against the Fraction
    rref membership oracle, on seeded random canonical subspaces, vectors
    inside them (int combinations of their spanning rows) and vectors
    drawn at random, which mostly lie outside."""
    rng = random.Random(0)
    verdicts = []
    for _ in range(300):
        d = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(d)]
                for _ in range(rng.randint(0, d))]
        s = span(rows)
        for inside in (True, False):
            if inside:
                coeffs = [rng.randint(-3, 3) for _ in rows]
                vec = [sum(c * row[j] for c, row in zip(coeffs, rows))
                       for j in range(d)]
            else:
                vec = [rng.randint(-3, 3) for _ in range(d)]
            expected = oracle_in_span(rows, vec)
            assert expected or not inside
            assert linalg._in_span(s, vec) == expected, (rows, vec)
            assert contains(s, vec) == expected
            assert contains(s, [Fraction(x, 3) for x in vec]) == expected
            verdicts.append(expected)
            # a subspace spanned by some rows of s, perhaps with vec added
            t = span([row for row in s if rng.random() < 0.5] + [vec])
            assert sub_leq(t, s) == all(oracle_in_span(rows, r) for r in t)
            assert sub_leq(s, t) == all(oracle_in_span(t, r) for r in s)
    assert verdicts.count(True) > 300 and False in verdicts
    # a zero row, which no canonical subspace holds, is skipped
    assert linalg._in_span([[0, 0], [0, 1]], [0, 2])
    assert not linalg._in_span([[0, 0], [0, 1]], [1, 0])


def test_products_agree_with_fraction_oracle():
    """``mat_vec`` and ``mat_mul`` against the term-by-term Fraction
    oracle on seeded random int, Fraction and mixed matrices, two thirds
    of whose entries are zero, in shapes 0 x k, k x 0, 1 x 1 and
    non-square ones. Int input gives int entries. Three mutations fail
    this test: dropping the last term of each product, multiplying by
    the rows of b instead of its columns, and starting the sums of
    ``mat_vec`` at Fraction(0)."""
    rng = random.Random(0)

    def entry(kind):
        if rng.random() < 2 / 3:
            return Fraction(0) if kind == "fraction" else 0
        p = rng.choice([-3, -2, -1, 1, 2, 3])
        if kind == "int" or kind == "mixed" and rng.random() < 0.5:
            return p
        return Fraction(p, rng.randint(1, 4))

    def mat(rows, cols, kind):
        return [[entry(kind) for _ in range(cols)] for _ in range(rows)]

    shapes = [(0, 3, 2), (2, 0, 3), (1, 1, 1), (2, 5, 3), (4, 1, 4),
              (3, 3, 3)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(60)]
    for m, k, p in shapes:
        for kind in ("int", "fraction", "mixed"):
            a, b = mat(m, k, kind), mat(k, p, kind)
            v = [entry(kind) for _ in range(k)]
            av, ab = mat_vec(a, v), mat_mul(a, b)
            assert av == oracle_mat_vec(a, v), (a, v)
            assert ab == oracle_mat_mul(a, b), (a, b)
            assert len(av) == len(ab) == m
            if kind == "int":
                assert all(type(x) is int for x in av)
                assert all(type(x) is int for row in ab for x in row)
