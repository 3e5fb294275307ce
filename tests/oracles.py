"""Independent brute-force oracles used only by the test suite."""

from fractions import Fraction

from exoticcone.errors import DomainError
from exoticcone.linalg import (
    Mat,
    frac,
    int_rows,
    int_span,
    mat_vec,
    nonneg_combination,
)
from exoticcone.orbits import centralizer_basis
from exoticcone.rootdata import rho, signed_permutations, weyl_orbit


def brute_kostant(target, summands) -> int:
    """Count nonnegative-integer combinations by plain enumeration.

    Every summand has height (sum of prefix sums) at least 1, so any
    coefficient in a combination totalling ``target`` is bounded by the
    height of the target. No pruning beyond that bound.
    """
    height = 0
    run = 0
    for c in target:
        run += c
        height += run
    bound = max(height, 0)
    count = 0

    def rec(k, residual):
        nonlocal count
        if k == len(summands):
            if not any(residual):
                count += 1
            return
        s = summands[k]
        r = list(residual)
        for _ in range(bound + 1):
            rec(k + 1, r)
            r = [a - b for a, b in zip(r, s)]

    rec(0, list(target))
    return count


def recursive_kostant(target, summands) -> int:
    """Count nonnegative-integer combinations by recursion over the
    summands in the order given.

    The only prune is the prefix-sum one: every summand has nonnegative
    prefix sums, so a residual with a negative prefix sum is dead. No memo,
    no reordering and no forced last coefficient, so it shares none of the
    shortcuts of the library counter; unlike ``brute_kostant`` it stops at
    the first dead residual, which keeps ranks 3 and 4 in reach.
    """

    def alive(residual):
        run = 0
        for c in residual:
            run += c
            if run < 0:
                return False
        return True

    def rec(k, residual):
        if not any(residual):
            return 1
        if k == len(summands):
            return 0
        total = 0
        while alive(residual):
            total += rec(k + 1, residual)
            residual = [a - b for a, b in zip(residual, summands[k])]
        return total

    return rec(0, list(target))


def alternating_sum(mu, lam, count) -> int:
    """Sum over the Weyl group of sign(w) * count(w(mu + rho) - (lam + rho)),
    one validated ``SignedPermutation`` per term: ``w.act`` places the
    coordinates and ``w.sign()`` recounts the inversions, so it shares no
    sign or placement bookkeeping with ``rootdata.alternating_sum``."""
    r = rho(len(mu))
    shifted_mu = tuple(a + b for a, b in zip(mu, r))
    shifted_lam = tuple(a + b for a, b in zip(lam, r))
    total = 0
    for w in signed_permutations(len(mu)):
        arg = tuple(a - b for a, b in zip(w.act(shifted_mu), shifted_lam))
        total += w.sign() * count(arg)
    return total


def bwb(lam):
    """Regularization by search: the w among all signed permutations with
    w(lam + rho) strictly dominant, or None when there is none. It builds
    rho = (n, ..., 1) itself, apart from ``rootdata.rho``."""
    r = tuple(range(len(lam), 0, -1))
    shifted = tuple(a + b for a, b in zip(lam, r))
    for w in signed_permutations(len(lam)):
        img = w.act(shifted)
        if all(a > b for a, b in zip(img, img[1:] + (0,))):
            return w.sign(), tuple(a - b for a, b in zip(img, r))
    return None


def coroot_pairing(lam, alpha) -> Fraction:
    """<lam, alpha-check> = 2 (lam, alpha) / (alpha, alpha) for any
    nonzero vector alpha."""
    alpha = tuple(alpha)
    norm = sum(c * c for c in alpha)
    if norm == 0:
        raise DomainError("pairing against the zero vector")
    num = sum(a * b for a, b in zip(lam, alpha))
    return Fraction(2 * num, norm)


# -- the twisted action in doubled coordinates: the reference for rootdata ---

def twisted_act(w, lam):
    """w(lam + theta) - theta through the doubled coordinates 2 lam + 1,
    which w moves as a plain vector and which stay odd."""
    img = w.act(tuple(2 * c + 1 for c in lam))
    assert all(c % 2 for c in img)
    return tuple((c - 1) // 2 for c in img)


def _doubled_dominant(lam) -> tuple:
    return tuple(sorted((abs(2 * c + 1) for c in lam), reverse=True))


def in_tconv(lam, mu) -> bool:
    """2 lam + 1 in the hull of the orbit of 2 mu + 1."""
    return hull_contains_prefix(tuple(2 * c + 1 for c in lam),
                                _doubled_dominant(mu))


def in_tconv0(lam, mu) -> bool:
    return _doubled_dominant(lam) != _doubled_dominant(mu) and \
        in_tconv(lam, mu)


def hull_contains_lp(lam, mu) -> bool:
    """Hull membership as feasibility of a convex combination over every
    orbit point (a different constraint system from the cone test)."""
    points = sorted(weyl_orbit(mu))
    columns = [list(p) + [1] for p in points]
    target = list(lam) + [1]
    return nonneg_combination(columns, target) is not None


def hull_contains_prefix(lam, mu) -> bool:
    """Hull membership by the prefix-sum criterion; shares no code with
    the linear-programming routes."""
    rep = sorted((abs(c) for c in lam), reverse=True)
    run = 0
    for a, b in zip(mu, rep):
        run += a - b
        if run < 0:
            return False
    return True


# -- Gauss-Jordan elimination over Fraction: the reference for linalg --------

def rref(rows) -> tuple[list, list]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    m = [[frac(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def det(a: Mat) -> Fraction:
    d = len(a)
    m = [[frac(x) for x in row] for row in a]
    sign = 1
    out = Fraction(1)
    for c in range(d):
        pivot = next((i for i in range(c, d) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, d):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * out


def nullspace(rows, ncols) -> list:
    """Basis of {x : A x = 0} from the Fraction rref, one vector per free
    column, with 1 there."""
    red, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [Fraction(0)] * ncols
            v[free] = Fraction(1)
            for row, p in zip(red, pivots):
                v[p] = -row[free]
            basis.append(v)
    return basis


def span(vectors) -> tuple:
    """The reduced row echelon rows over Q of a span, as Fraction tuples."""
    return tuple(tuple(row) for row in rref(vectors)[0])


def sub_intersect(a, b, d) -> tuple:
    """Intersection of two row spans by four eliminations: the two
    annihilators, the kernel of both together, and its span."""
    if not a or not b:
        return ()
    joint = nullspace(a, d) + nullspace(b, d)
    if not joint:
        return span([[int(i == j) for j in range(d)] for i in range(d)])
    return span(nullspace(joint, d))


# -- E^x v through the centralizer: the reference for orbits.exv_module ------

def exv_module(pair) -> tuple:
    """E^x v as the span of y v over a basis of the centralizer of x: one
    kernel in d^2 unknowns, sharing nothing with the library's route
    through the kernels and images of the powers of x."""
    v = int_rows([pair.v_vec()])[0]
    return int_span([mat_vec(y, v) for y in centralizer_basis(pair.x_rows())])
