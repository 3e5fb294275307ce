"""Exact linear algebra over the rationals.

Matrices are row-major lists of lists, vectors are lists; entries are ints
or ``fractions.Fraction`` (the two interoperate exactly).

Elimination runs on ints. ``rref`` (and with it ``inverse``),
``rank``, ``nullspace``, ``det`` and the subspace operations scale each row
by the lcm of its denominators and run fraction-free Gauss-Jordan
elimination (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968): every
update divides exactly by an earlier pivot, so entries stay minors of the
input instead of growing fractions. ``rref`` turns only its final pivot
rows back into Fractions, by one division each, which yields the canonical
form over Q. Maps and spanning sets are scaled to ints the same way
(``int_multiple``, ``int_rows``) before they are multiplied out for an
elimination. ``mat_vec`` and ``mat_mul`` take each dot product as
``sum(map(mul, row, v))``, so on the int maps the hot callers pass the
products run at C speed; int input gives int entries.

A subspace is stored canonically as a tuple of int tuples: the rows of its
reduced row echelon form, each scaled to the primitive int row with a
positive pivot. Two spanning sets of one subspace give the same tuple, so
equal subspaces compare and hash equal, and the rows never leave the
integers; ``sub_rref`` gives the reduced rows over Q as Fractions. The
intersection of two subspaces is one elimination of stacked rows
(Zassenhaus), and kernels come from one int routine (``int_kernel``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DomainError, InternalInconsistency

Vec = list
Mat = list
Subspace = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not an exact rational: {x!r}") from exc
    raise DomainError(f"not an exact rational: {x!r}")


def _exact(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    x = frac(x)
    return x.numerator if x.denominator == 1 else x


def to_vec(entries) -> Vec:
    return [_exact(x) for x in entries]


def to_mat(rows) -> Mat:
    m = [[_exact(x) for x in row] for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise DomainError("ragged matrix")
    return m


def identity(d: int) -> Mat:
    return [[int(i == j) for j in range(d)] for i in range(d)]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum(map(mul, row, v)) for row in a]


def mat_pow(a: Mat, k: int) -> Mat:
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_eq(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def _int_row(row) -> tuple[list, int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    types = set(map(type, row))
    if types <= {int}:
        return list(row), 1
    if not types <= {int, Fraction}:
        row = [frac(x) for x in row]
    nums, dens = zip(*[x.as_integer_ratio() for x in row])
    den = lcm(*dens)
    if den == 1:
        return list(nums), 1
    return [p * (den // q) for p, q in zip(nums, dens)], den


def int_rows(rows) -> Mat:
    """Each row times the lcm of its denominators: every row keeps its
    span, and every entry is an int."""
    return [_int_row(row)[0] for row in rows]


def int_multiple(a: Mat) -> Mat:
    """a times the lcm of all its denominators: a positive multiple with
    int entries, so with the same kernel, image and rank of every power.
    A matrix whose entries are all ints is returned as it is, not copied,
    so a map scaled once can be passed on at no further cost."""
    if all(type(x) is int for row in a for x in row):
        return a
    rows = [_int_row(row) for row in a]
    den = lcm(*[row_den for _, row_den in rows])
    return [[x * (den // row_den) for x in ints] for ints, row_den in rows]


def _echelon(m: list) -> tuple[list, int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of the int rows
    m, in place.

    The pivot of each column is the first row at or below the current
    one that is nonzero there. Every other row with a nonzero entry f in
    the pivot column becomes (p * row - f * pivot_row) // q, where p is
    the pivot and q the pivot that row was last divided by (1 at the
    start). A row that is zero in the pivot column is left as it is,
    with its q: the Bareiss step would only scale it by p over the
    previous pivot, and dividing by its own q at its next update gives
    the same result. So every stored row is the Bareiss row of the step
    at which it was last updated, whose entries are minors of m
    (Sylvester's identity): each division is exact, and entries grow
    only as minors do. A pivot row is scaled up to the current step
    before use.

    Afterwards the first len(pivots) rows are the pivot rows, each
    holding in its pivot column the pivot it was last divided by, and
    the other rows are zero. Returns the pivot columns and the sign of
    the row permutation; for a square m of full rank, the last pivot is
    that sign times det(m).
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    last = [1] * nrows  # the pivot each row was last divided by
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            last[r], last[pivot] = last[pivot], last[r]
            sign = -sign
        prow = m[r]
        if last[r] != prev:
            q = last[r]
            prow = m[r] = [x * prev // q for x in prow]
        p = prow[c]
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                q = last[i]
                m[i] = [(p * x - f * y) // q for x, y in zip(row, prow)]
                last[i] = p
        last[r] = prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, sign


def _ratio(x: int, p: int) -> Fraction:
    if not x:
        return _ZERO
    if x == p:
        return _ONE
    return Fraction(x, p)


def rref(rows) -> tuple[list, list]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns).

    The rows are scaled to ints, eliminated fraction-free by _echelon,
    and each pivot row is divided once by its pivot at the end, which
    gives the canonical form over Q with Fraction entries.
    """
    m = int_rows(rows)
    pivots, _ = _echelon(m)
    return [
        [_ratio(x, row[c]) for x in row] for row, c in zip(m, pivots)
    ], pivots


def rank(rows) -> int:
    return len(_echelon(int_rows(rows))[0])


def int_kernel(rows, ncols: int) -> dict:
    """Int basis of {x : A x = 0} for int rows A, keyed by free column in
    increasing order.

    The vector of the free column f is nullspace's vector for f times the
    lcm P of the pivots of the eliminated rows that are nonzero at f: P
    at f, -P * row[f] / pivot at each such row's pivot column, 0
    elsewhere.
    """
    m = list(rows)
    pivots, _ = _echelon(m)
    pivot_set = set(pivots)
    basis = {}
    for free in range(ncols):
        if free in pivot_set:
            continue
        hits = [(row, c) for row, c in zip(m, pivots) if row[free]]
        scale = lcm(*[row[c] for row, c in hits])
        v = [0] * ncols
        v[free] = scale
        for row, c in hits:
            v[c] = -row[free] * scale // row[c]
        basis[free] = v
    return basis


def nullspace(rows, ncols: int) -> list:
    """Basis of {x : A x = 0} for A with ncols columns, the vector of each
    free column having 1 there, as Fractions."""
    return [
        [_ratio(x, v[free]) for x in v]
        for free, v in int_kernel(int_rows(rows), ncols).items()
    ]


def det(a: Mat) -> Fraction:
    d = len(a)
    if any(len(row) != d for row in a):
        raise DomainError("determinant of a non-square matrix")
    m = []
    den = 1
    for row in a:
        ints, row_den = _int_row(row)
        m.append(ints)
        den *= row_den
    pivots, sign = _echelon(m)
    if len(pivots) < d:
        return _ZERO
    return Fraction(sign * m[d - 1][d - 1], den) if d else _ONE


def inverse(a: Mat) -> Mat:
    d = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity(d))]
    red, pivots = rref(aug)
    if pivots != list(range(d)):
        raise DomainError("matrix is singular")
    return [row[d:] for row in red]


# -- subspaces (canonical row spans) ----------------------------------------
#
# The functions below take subspaces in the canonical form that span
# returns (tuples of int tuples) and reduce them without converting.

def _primitive(row, c) -> tuple:
    """The int row divided by the gcd of its entries, signed so that the
    entry in column c is positive."""
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    return tuple(row) if g == 1 else tuple(x // g for x in row)


def int_span(rows) -> Subspace:
    """Canonical form of the span of int rows."""
    m = list(rows)
    pivots, _ = _echelon(m)
    return tuple(_primitive(row, c) for row, c in zip(m, pivots))


def span(vectors) -> Subspace:
    """Canonical form of the span of the given vectors: the rows of the
    reduced row echelon form, each scaled to the primitive int row with
    a positive pivot."""
    return int_span(int_rows(vectors))


def sub_rref(s: Subspace) -> tuple:
    """The reduced row echelon rows of a subspace, as Fractions."""
    out = []
    for row in s:
        p = next(x for x in row if x)
        out.append(tuple(_ratio(x, p) for x in row))
    return tuple(out)


def full_space(d: int) -> Subspace:
    return tuple(map(tuple, identity(d)))


def zero_space() -> Subspace:
    return ()


def sub_dim(s: Subspace) -> int:
    return len(s)


def _in_span(echelon: Mat, v: Vec) -> bool:
    """Whether the int vector v lies in the span of the int rows of an
    echelon form, by fraction-free reduction against them."""
    for row in echelon:
        # the first nonzero entry, found at C speed; 0 for a zero row
        p = next(filter(None, row), 0)
        f = p and v[row.index(p)]
        if f:
            v = [p * x - f * y for x, y in zip(v, row)]
    return not any(v)


def contains(s: Subspace, vec) -> bool:
    return _in_span(s, _int_row(vec)[0])


def sub_leq(a: Subspace, b: Subspace) -> bool:
    return all(_in_span(b, row) for row in a)


def sub_add(a: Subspace, b: Subspace) -> Subspace:
    return int_span(a + b)


def sub_intersect(a: Subspace, b: Subspace, d: int) -> Subspace:
    """Intersection of two row spans inside an ambient space of dim d.

    One elimination of the rows (u | u) for u in a and (w | 0) for w in b
    (Zassenhaus): the row space holds (0 | y) exactly when y lies in both,
    so the eliminated rows with their pivot in the right half are (0 | y)
    for the reduced echelon rows y of the intersection.
    """
    if not a or not b:
        return zero_space()
    zero = (0,) * d
    m = [u + u for u in a] + [w + zero for w in b]
    pivots, _ = _echelon(m)
    return tuple(
        _primitive(row[d:], c - d)
        for row, c in zip(m, pivots) if c >= d
    )


def map_image(x: Mat, s: Subspace) -> Subspace:
    """x applied to the subspace s; x is scaled to ints unless it
    already is (``int_multiple``)."""
    xi = int_multiple(x)
    return int_span([mat_vec(xi, row) for row in s])


def map_preimage(x: Mat, s: Subspace, d: int) -> Subspace:
    """{w : x w lies in the row span s}."""
    ann = int_kernel(s, d).values() if s else full_space(d)
    xt = transpose(int_multiple(x))
    rows = [mat_vec(xt, y) for y in ann]
    if not rows:
        return full_space(d)
    return int_span(int_kernel(rows, d).values())


# -- exact linear feasibility ------------------------------------------------

def nonneg_combination(columns, target):
    """Exact feasibility of sum_j c_j * columns[j] = target with c_j >= 0.

    Phase-1 simplex with Bland's rule over Fractions. Returns one
    coefficient vector, or None when infeasible. The library decides hull
    membership by prefix sums instead; the tests compare that with this LP.
    """
    m = len(target)
    n = len(columns)
    if m == 0:
        return [Fraction(0)] * n
    rows = [[frac(columns[j][i]) for j in range(n)] for i in range(m)]
    b = [frac(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-x for x in rows[i]]
            b[i] = -b[i]
    ncols = n + m
    tableau = [
        rows[i] + [Fraction(int(i == k)) for k in range(m)] + [b[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    # reduced costs for "minimize the sum of artificials"
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = -sum(tableau[i][j] for i in range(m))
    obj[ncols] = -sum(b)

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][ncols] / tableau[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave is None:
            raise InternalInconsistency("phase-1 objective unbounded")
        inv = 1 / tableau[leave][enter]
        tableau[leave] = [x * inv for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [
                    x - f * y for x, y in zip(tableau[i], tableau[leave])
                ]
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tableau[leave])]
        basis[leave] = enter

    if obj[ncols] != 0:
        return None
    coeffs = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            coeffs[var] = tableau[i][ncols]
    return coeffs
