"""Independent brute-force oracles used only by the test suite."""

import functools
from fractions import Fraction

from exoticcone.bipartitions import Bipartition, enumerate_Q, filtration_dims
from exoticcone.errors import DomainError
from exoticcone.linalg import (
    Mat,
    contains,
    frac,
    int_kernel,
    int_rows,
    int_span,
    map_image,
    map_preimage,
    mat_vec as lib_mat_vec,
    nonneg_combination,
    sub_add,
    sub_intersect as lib_sub_intersect,
    sub_leq,
)
from exoticcone.orbits import (
    IsotropicFiltration,
    _maps_into,
    centralizer_basis,
    de_double,
    exv_module as lib_exv_module,
    jordan_type,
    perp,
)
from exoticcone.rootdata import (
    SignedPermutation,
    rho,
    signed_permutations,
    weyl_orbit,
)


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


def exotic_weights(n: int) -> list:
    """The exotic weights of rank n, e_i - e_j and e_i + e_j for i < j,
    and e_i, built here rather than read from ``root_data``."""
    summands = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in (-1, 1):
                summands.append(tuple(
                    1 if m == i else s if m == j else 0 for m in range(n)))
        summands.append(tuple(int(m == i) for m in range(n)))
    return summands


def graded_exotic_count(n: int):
    """The graded exotic partition count of rank n, as ``count(k, weight)``:
    the number of multisets of k ``exotic_weights(n)`` that sum to the
    weight.

    Memoised on (k, summand index, residual). Every exotic weight has
    nonnegative prefix sums, so a residual with a negative prefix sum is
    dropped.
    """
    summands = exotic_weights(n)

    @functools.lru_cache(maxsize=None)
    def rec(k, index, residual):
        run = 0
        for c in residual:
            run += c
            if run < 0:
                return 0
        if k == 0:
            return int(not any(residual))
        if index == len(summands):
            return 0
        taken = tuple(a - b for a, b in zip(residual, summands[index]))
        # one more copy of this summand, or none of it and move on
        return rec(k - 1, index, taken) + rec(k, index + 1, residual)

    return lambda k, weight: rec(k, 0, tuple(weight))


@functools.lru_cache(maxsize=None)
def _signed_group(n: int) -> tuple:
    """Every validated ``SignedPermutation`` of rank n with its sign."""
    return tuple((w, w.sign()) for w in signed_permutations(n))


def alternating_sum(mu, lam, count) -> int:
    """Sum over the Weyl group of sign(w) * count(w(mu + rho) - (lam + rho)),
    over validated ``SignedPermutation`` objects: ``w.act`` places the
    coordinates and ``w.sign()`` counts the inversions, so it shares no
    sign or placement bookkeeping with ``rootdata.alternating_sum``."""
    r = rho(len(mu))
    shifted_mu = tuple(a + b for a, b in zip(mu, r))
    shifted_lam = tuple(a + b for a, b in zip(lam, r))
    total = 0
    for w, sign in _signed_group(len(mu)):
        arg = tuple(a - b for a, b in zip(w.act(shifted_mu), shifted_lam))
        total += sign * count(arg)
    return total


def compose(w, u):
    """The product w u of two signed permutations: (w u).act(x) equals
    w.act(u.act(x))."""
    return SignedPermutation(
        tuple(w.perm[p] for p in u.perm),
        tuple(s * w.signs[p] for p, s in zip(u.perm, u.signs)))


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


# -- the closure order by its two-condition loop: the reference for hasse ----

def _part(parts, i: int) -> int:
    return parts[i] if 0 <= i < len(parts) else 0


def closure_leq(lo, hi) -> bool:
    """Closure order: lo <= hi.

    Requires, for every j >= 0, that the prefix sums of mu + nu dominate
    and that the same holds after appending the next mu part.
    """
    if lo.size != hi.size:
        raise DomainError("bipartitions of different sizes are incomparable")
    n = lo.size
    acc_lo = acc_hi = 0
    if _part(hi.mu, 0) < _part(lo.mu, 0):
        return False
    for j in range(n + 1):
        acc_lo += _part(lo.mu, j) + _part(lo.nu, j)
        acc_hi += _part(hi.mu, j) + _part(hi.nu, j)
        if acc_hi < acc_lo:
            return False
        if acc_hi + _part(hi.mu, j + 1) < acc_lo + _part(lo.mu, j + 1):
            return False
    return True


def hasse(n: int) -> list:
    """Covering pairs (lower, upper) of the loop order on bipartitions of
    n, by testing every candidate cover against every element between."""
    elems = enumerate_Q(n)
    below = {
        b: [a for a in elems if a != b and closure_leq(a, b)] for b in elems
    }
    edges = []
    for b in elems:
        for a in below[b]:
            if not any(closure_leq(a, c) for c in below[b] if c != a):
                edges.append((a, b))
    return edges


# -- Products over Fraction: the reference for linalg.mat_vec/mat_mul -------

def mat_vec(a, v) -> list:
    """a v, each entry summed term by term over Fraction."""
    return [sum((frac(row[k]) * frac(v[k]) for k in range(len(v))),
                Fraction(0)) for row in a]


def mat_mul(a, b) -> list:
    """a b, each entry summed term by term over Fraction. A b with no rows
    gives rows with no entries, as the library's row-major lists do."""
    ncols = len(b[0]) if b else 0
    return [[sum((frac(row[k]) * frac(b[k][j]) for k in range(len(b))),
                 Fraction(0)) for j in range(ncols)] for row in a]


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


def in_span(rows, vec) -> bool:
    """Whether vec lies in the span of rows: appending it to them leaves
    the Fraction rref's rank unchanged."""
    return len(rref([*rows, vec])[0]) == len(rref(rows)[0])


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
    return int_span([lib_mat_vec(y, v)
                     for y in centralizer_basis(pair.x_rows())])


# -- The orbit from two jordan_type calls: the reference for the
#    classification behind orbits.orbit_of ----------------------------------

def orbit_of(pair) -> Bipartition:
    """The orbit of a nilpotent pair from the public ``jordan_type`` on
    E = E^x v and on V/E. Each call scales x, checks that E is x-stable
    and pushes a basis (of E, or of the whole space for V/E) through the
    powers of x; the library reads the same ranks off the images of the
    powers of x that the pair already holds. E^x v is the library's, which
    ``exv_module`` above checks."""
    x = pair.x_rows()
    exv = lib_exv_module(pair)
    return Bipartition(de_double(jordan_type(x, subspace=exv)),
                       de_double(jordan_type(x, quotient_by=exv)))


# -- The stabilizer of a pair: the reference for bipartitions.orbit_dim -----

def stabilizer(pair) -> list:
    """Int basis of the Lie algebra of the stabilizer of (v, x) in
    sp(omega): the kernel of A^T omega + omega A = 0, A v = 0 and
    A x = x A in the d^2 unknowns A[i][j] (at i * d + j), as flat
    vectors. The orbit of the pair then has dimension dim sp(2n) -
    len(stabilizer(pair)) = 2n^2 + n - len(stabilizer(pair)). It shares
    nothing with ``orbit_dim`` but ``int_kernel``, which the linalg
    tests check against the Fraction nullspace above."""
    d = pair.dim
    om = pair.space.int_omega
    xm = pair._int_x
    v = int_rows([pair.v_vec()])[0]
    rows = []
    for a in range(d):
        for b in range(a + 1, d):
            # (A^T omega + omega A)[a][b]; the form is antisymmetric, so
            # the diagonal vanishes and b < a repeats a < b
            row = [0] * (d * d)
            for k in range(d):
                row[k * d + a] += om[k][b]
                row[k * d + b] += om[a][k]
            rows.append(row)
    for a in range(d):
        # (A v)[a]
        row = [0] * (d * d)
        for k in range(d):
            row[a * d + k] += v[k]
        rows.append(row)
        for b in range(d):
            # (A x - x A)[a][b]
            row = [0] * (d * d)
            for k in range(d):
                row[a * d + k] += xm[k][b]
                row[k * d + b] -= xm[a][k]
            rows.append(row)
    return list(int_kernel([r for r in rows if any(r)], d * d).values())


# -- Perp duality by recomputed perps: the reference for
#    orbits.verify_adapted ----------------------------------------------------

def _perp_via(perps: dict, sub, space):
    """``perp`` of a canonical subspace, read through perps, a dict of the
    perps already known. The form is nondegenerate, so perp is an
    involution and each computed pair is stored both ways."""
    known = perps.get(sub)
    if known is None:
        known = perps[sub] = perp(sub, space)
        perps[known] = sub
    return known


def verify_adapted_by_perps(filt, pair, b, perps=None) -> bool:
    """``verify_adapted`` with perp duality checked as V_{>= 1-a} =
    perp(V_{>= a}) for every level a, each perp computed by a kernel
    and read through perps (``_perp_via``). The library checks
    omega(V_{>= a}, V_{>= 1-a}) = 0 with dimensions adding up to 2n
    instead, and computes no perp."""
    perps = {} if perps is None else perps
    profile = filtration_dims(b)
    lo, hi = profile.levels[0][0], profile.levels[-1][0]
    if filt.range() != (lo, hi):
        return False
    xi = pair._int_x
    for a in range(lo, hi + 1):
        if len(filt.level(a)) != profile.dim(a):
            return False
        if not sub_leq(filt.level(a), filt.level(a - 1)):
            return False
        if _perp_via(perps, filt.level(a), pair.space) != filt.level(1 - a):
            return False
        if not _maps_into(xi, filt.level(a), filt.level(a + 2)):
            return False
    return contains(filt.level(1), pair.v_vec())


# -- The subspace-lattice search: the reference for the closed form of
#    orbits.adapted_filtration ------------------------------------------------

def _seed_subspaces(xi, v, exv, kernels, images) -> set:
    """The kernels and images of the powers of x, E^x v, and, for every
    k, the line through x^k v and the x-cyclic span{x^j v : j >= k}.

    In the orbit (m | ∅) the level V_{>= 1} is the x-cyclic span of v;
    from the lines alone the search needs ceil(log2 m) rounds of pairwise
    sums to build it."""
    seeds = {exv, *kernels, *images}
    chain = []
    u = int_rows([v])[0]
    while any(u):
        chain.append(u)
        u = lib_mat_vec(xi, u)
    for k in range(len(chain)):
        seeds.add(int_span([chain[k]]))
        seeds.add(int_span(chain[k:]))
    return seeds


def _assemble(pair, xi, b, profile, lattice, perps) -> list:
    """All verified filtrations whose positive levels come from the
    lattice; negative levels are forced as perps. Every perp, in the
    search and in the verification, is read through perps."""
    hi = profile.levels[-1][0]
    by_level = {}
    for a in range(1, hi + 1):
        opts = [sub for sub in lattice
                if len(sub) == profile.dim(a)
                and sub_leq(sub, _perp_via(perps, sub, pair.space))
                and (a > 1 or contains(sub, pair.v_vec()))]
        if not opts:
            return []
        by_level[a] = opts

    found = []

    def descend(a, chosen):
        if a == 0:
            levels = dict(chosen)
            for idx in range(1 - hi, 1):
                levels[idx] = _perp_via(perps, chosen[1 - idx], pair.space)
            filt = IsotropicFiltration(space=pair.space,
                                       subspaces=tuple(sorted(levels.items())),
                                       orbit=b)
            if verify_adapted_by_perps(filt, pair, b, perps):
                found.append(filt)
            return
        for sub in by_level[a]:
            if not sub_leq(chosen.get(a + 1, ()), sub):
                continue
            target = chosen.get(a + 2, () if a + 2 > hi else None)
            if target is not None and not _maps_into(xi, sub, target):
                continue
            chosen[a] = sub
            descend(a - 1, chosen)
            del chosen[a]

    descend(hi, {})
    return found


def adapted_filtration(pair, closure_depth=4):
    """The filtration adapted to (v, x), found by searching the subspace
    lattice generated from the seeds (``_seed_subspaces``) under sums,
    intersections, perps, images and preimages, for up to closure_depth
    rounds. The pair must carry a compatible form.

    Each round adds the perp, image and preimage of every new subspace,
    and the sum and intersection of every incomparable pair of a new
    subspace and a lattice member. Every seed and every operation commutes
    with the isometries, so the depth a pair needs depends on its orbit
    only; depth 2 suffices for every orbit up to n = 5. The search stops
    at the first round that assembles a verified filtration, asserts that
    it is the only one, and raises LookupError when the rounds run out.
    Of the library's filtration code it uses only ``perp``, ``_maps_into``
    and ``IsotropicFiltration``; filtrations are checked by
    ``verify_adapted_by_perps``."""
    xi = pair._int_x
    b = pair._orbit
    profile = filtration_dims(b)
    d = pair.dim
    lattice = _seed_subspaces(xi, pair.v_vec(), pair._module, *pair._powers)
    frontier = set(lattice)
    perps = {}
    for depth in range(closure_depth + 1):
        matches = _assemble(pair, xi, b, profile, lattice, perps)
        assert len(matches) <= 1, f"{len(matches)} adapted filtrations for {b}"
        if matches:
            return matches[0]
        if depth == closure_depth:
            break
        fresh = set()
        for sub in frontier:
            fresh.add(_perp_via(perps, sub, pair.space))
            fresh.add(map_image(xi, sub))
            fresh.add(map_preimage(xi, sub, d))
        done = set()
        for a in frontier:
            done.add(a)
            for bsub in lattice:
                if bsub in done or sub_leq(a, bsub) or sub_leq(bsub, a):
                    continue
                fresh.add(sub_add(a, bsub))
                fresh.add(lib_sub_intersect(a, bsub, d))
        fresh -= lattice
        if not fresh:
            break
        lattice |= fresh
        frontier = fresh
    raise LookupError(f"no adapted filtration within {closure_depth} rounds")
