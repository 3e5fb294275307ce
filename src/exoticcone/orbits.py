"""Classification of symplectic orbits on pairs (v, x) by exact rational
linear algebra.

A pair consists of a vector v in a 2n-dimensional symplectic space and a
nilpotent endomorphism x that is self-adjoint for the form (equivalently
<x w, w> = 0 for every w). Its orbit is the bipartition read off from the
Jordan type of x on the centralizer module E^x v (always a doubled type
mu mu) and on the quotient by it (nu nu). The classification never touches
the form; the form enters only through membership checking, perps, and the
adapted filtrations.

All arithmetic is exact: matrices carry ints and Fractions, ranks and
Jordan types come from echelon forms, never from floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bipartitions import Bipartition, filtration_dims
from .errors import (
    DomainError,
    FiltrationNotFound,
    NotDoubled,
    NotUnique,
    SelfCheckFailed,
)
from .linalg import (
    Subspace,
    contains,
    frac,
    full_space,
    identity,
    int_kernel,
    int_multiple,
    int_rows,
    int_span,
    map_image,
    map_preimage,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    span,
    sub_add,
    sub_dim,
    sub_intersect,
    sub_leq,
    sub_rref,
    to_mat,
    to_vec,
    transpose,
    zero_space,
)


@dataclass(frozen=True)
class SymplecticSpace:
    """2n-dimensional space with an antisymmetric invertible Gram matrix."""

    n: int
    omega: tuple

    def __post_init__(self):
        d = 2 * self.n
        om = self.omega
        if len(om) != d or any(len(row) != d for row in om):
            raise DomainError(f"Gram matrix must be {d}x{d}")
        m = [list(row) for row in om]
        if not linalg.mat_eq(transpose(m), [[-x for x in row] for row in m]):
            raise DomainError("Gram matrix must be antisymmetric")
        if linalg.det(m) == 0:
            raise DomainError("Gram matrix must be invertible")

    @property
    def dim(self) -> int:
        return 2 * self.n

    def omega_rows(self):
        return [list(row) for row in self.omega]

    def pairing(self, a, b) -> Fraction:
        return sum(x * y for x, y in zip(a, mat_vec(self.omega_rows(), b)))


def _freeze_mat(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def standard_form(n: int) -> SymplecticSpace:
    """Antidiagonal form: omega[i, 2n-1-i] = 1 for i < n, -1 for i >= n."""
    if n < 1:
        raise DomainError("standard form needs n >= 1")
    d = 2 * n
    om = [[0] * d for _ in range(d)]
    for i in range(d):
        om[i][d - 1 - i] = 1 if i < n else -1
    return SymplecticSpace(n=n, omega=_freeze_mat(om))


@dataclass(frozen=True)
class ExoticPair:
    """Candidate point (v, x); the membership conditions are checked by
    in_exotic_cone, not by construction. The form is optional: orbit
    classification is independent of it."""

    v: tuple
    x: tuple
    space: SymplecticSpace | None = None

    def __post_init__(self):
        d = len(self.v)
        if d % 2:
            raise DomainError("vector length must be even")
        if len(self.x) != d or any(len(row) != d for row in self.x):
            raise DomainError("endomorphism must be square of matching size")
        if self.space is not None and self.space.dim != d:
            raise DomainError("form dimension mismatch")

    @property
    def dim(self) -> int:
        return len(self.v)

    @property
    def n(self) -> int:
        return len(self.v) // 2

    def x_rows(self):
        return [list(row) for row in self.x]

    def v_vec(self):
        return list(self.v)


def make_pair(v, x, space: SymplecticSpace | None = None) -> ExoticPair:
    return ExoticPair(v=tuple(to_vec(v)), x=_freeze_mat(to_mat(x)), space=space)


def is_nilpotent(x) -> bool:
    """Rank of successive powers must reach 0; a stalled nonzero rank
    means an eigenvalue other than 0."""
    d = len(x)
    if d == 0:
        return True
    xi = int_multiple(x)
    power = xi
    prev = d
    while True:
        r = rank(power)
        if r == 0:
            return True
        if r == prev:
            return False
        prev = r
        power = mat_mul(power, xi)


def form_compatible(x, space: SymplecticSpace) -> bool:
    """x is self-adjoint for the form: x^T omega = omega x."""
    om = int_multiple(space.omega_rows())
    xm = int_multiple(x)
    return linalg.mat_eq(mat_mul(transpose(xm), om), mat_mul(om, xm))


def in_exotic_cone(pair: ExoticPair) -> bool:
    """Nilpotency plus, when a form is attached, self-adjointness."""
    if not is_nilpotent(pair.x_rows()):
        return False
    if pair.space is not None and not form_compatible(pair.x_rows(), pair.space):
        return False
    return True


def solve_symplectic_form(x) -> tuple:
    """An invertible antisymmetric omega with x^T omega = omega x, found
    by exact nullspace computation over the antisymmetric matrices.

    Deterministic: the basis combination sum_k t^k A_k is scanned over
    t = 1, 2, ... until the determinant is nonzero; if the determinant
    vanishes identically no such form exists and the input is rejected.
    """
    xm = int_multiple(to_mat(x))
    d = len(xm)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    index = {p: k for k, p in enumerate(pairs)}

    def omega_entry(coeffs, i, j):
        if i == j:
            return Fraction(0)
        if i < j:
            return coeffs[index[(i, j)]]
        return -coeffs[index[(j, i)]]

    rows = []
    for a in range(d):
        for b in range(a, d):
            # (x^T omega - omega x)[a][b] as a linear form in the coeffs
            row = [0] * len(pairs)
            for k in range(d):
                if xm[k][a]:
                    _accumulate(row, index, k, b, xm[k][a])
                if xm[k][b]:
                    _accumulate(row, index, a, k, -xm[k][b])
            if any(row):
                rows.append(row)
    basis = (
        nullspace(rows, len(pairs)) if rows else identity(len(pairs))
    )
    if not basis:
        raise DomainError("no nonzero invariant antisymmetric form")
    bound = d * len(basis) + 1
    for t in range(1, bound + 1):
        coeffs = [Fraction(0)] * len(pairs)
        scale = 1
        for vec in basis:
            for k, c in enumerate(vec):
                coeffs[k] += scale * c
            scale *= t
        om = [[omega_entry(coeffs, i, j) for j in range(d)] for i in range(d)]
        if linalg.det(om) != 0:
            return _freeze_mat(om)
    raise DomainError("no invertible invariant form (Jordan type not doubled)")


def _accumulate(row, index, i, j, weight):
    if i == j:
        return
    if i < j:
        row[index[(i, j)]] += weight
    else:
        row[index[(j, i)]] -= weight


def centralizer_basis(x) -> list:
    """Int basis of {y : x y = y x}, the kernel of the commutator map."""
    xm = int_multiple(to_mat(x))
    d = len(xm)
    if d == 0:
        return []
    rows = []
    for a in range(d):
        for b in range(d):
            row = [0] * (d * d)
            for k in range(d):
                if xm[a][k]:
                    row[k * d + b] += xm[a][k]
                if xm[k][b]:
                    row[a * d + k] -= xm[k][b]
            if any(row):
                rows.append(row)
    flat_basis = int_kernel(rows, d * d).values()
    return [
        [vec[i * d:(i + 1) * d] for i in range(d)] for vec in flat_basis
    ]


def exv_module(pair: ExoticPair) -> Subspace:
    """Span of y v over y commuting with x; always x-stable."""
    v = int_rows([pair.v_vec()])[0]
    vecs = [mat_vec(y, v) for y in centralizer_basis(pair.x_rows())]
    return int_span(vecs)


def _is_stable(x, sub: Subspace) -> bool:
    return sub_leq(map_image(x, sub), sub)


def jordan_type(x, subspace: Subspace | None = None,
                quotient_by: Subspace | None = None) -> tuple:
    """Jordan type of x on the full space, an x-stable subspace, or the
    quotient by one, from the rank sequence of powers: the number of
    blocks of size >= k is rank(x^(k-1)) - rank(x^k)."""
    xm = to_mat(x)
    d = len(xm)
    if subspace is not None and quotient_by is not None:
        raise DomainError("pass a subspace or a quotient, not both")
    for sub in (subspace, quotient_by):
        if sub is not None and not _is_stable(xm, sub):
            raise DomainError("subspace is not x-stable")
    # x^k of the space is spanned by vecs after k steps; on the quotient
    # its rank is that of vecs together with the quotient's rows, less s
    vecs = identity(d) if subspace is None else int_rows(subspace)
    fixed = int_rows(quotient_by or ())
    s = len(fixed)
    xi = int_multiple(xm)
    ranks = [len(vecs) - s]
    while ranks[-1] > 0:
        vecs = [w for w in (mat_vec(xi, u) for u in vecs) if any(w)]
        r = rank(vecs + fixed) - s
        if r == ranks[-1]:
            raise DomainError("endomorphism is not nilpotent on this space")
        ranks.append(r)
    blocks_ge = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
    parts = []
    for size in range(1, len(blocks_ge) + 1):
        count = blocks_ge[size - 1] - (
            blocks_ge[size] if size < len(blocks_ge) else 0
        )
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


def de_double(parts) -> tuple:
    """Inverse of lam -> (lam_1, lam_1, lam_2, lam_2, ...)."""
    parts = tuple(parts)
    if len(parts) % 2:
        raise NotDoubled(f"odd number of parts: {parts}")
    for i in range(0, len(parts), 2):
        if parts[i] != parts[i + 1]:
            raise NotDoubled(f"parts do not pair up: {parts}")
    return parts[0::2]


def orbit_of(pair: ExoticPair) -> Bipartition:
    """Bipartition (mu, nu) of the orbit through (v, x).

    Requires x nilpotent; the form, when attached, must be compatible.
    Raises NotDoubled when (v, x) lies in no orbit for any symplectic
    form, e.g. when the Jordan type of x is not doubled.
    """
    xm = pair.x_rows()
    if not is_nilpotent(xm):
        raise DomainError("x is not nilpotent")
    if pair.space is not None and not form_compatible(xm, pair.space):
        raise DomainError("x is not self-adjoint for the supplied form")
    return _orbit_from_module(xm, exv_module(pair))


def _orbit_from_module(xm, exv: Subspace) -> Bipartition:
    mu = de_double(jordan_type(xm, subspace=exv))
    nu = de_double(jordan_type(xm, quotient_by=exv))
    return Bipartition(mu, nu)


def representative(b: Bipartition) -> ExoticPair:
    """A point of the orbit b, built from paired Jordan blocks.

    For each i, two blocks of size mu_i + nu_i are paired by an
    antidiagonal pairing that makes x self-adjoint, and v receives one
    component per pair at x-height mu_i. The construction is verified by
    running the classifier on the result before returning it.
    """
    k = max(len(b.mu), len(b.nu))
    sizes = [
        (b.mu[i] if i < len(b.mu) else 0) + (b.nu[i] if i < len(b.nu) else 0)
        for i in range(k)
    ]
    d = 2 * sum(sizes)
    x = [[0] * d for _ in range(d)]
    om = [[0] * d for _ in range(d)]
    v = [0] * d
    offset = 0
    for i, m in enumerate(sizes):
        e0, f0 = offset, offset + m
        for t in range(1, m):
            # chains e_{t+1} -> e_t and f_{t+1} -> f_t
            x[e0 + t - 1][e0 + t] = 1
            x[f0 + t - 1][f0 + t] = 1
        for s in range(m):
            # <e_s, f_t> = 1 when s + t = m - 1 (0-indexed antidiagonal)
            om[e0 + s][f0 + m - 1 - s] = 1
            om[f0 + m - 1 - s][e0 + s] = -1
        height = b.mu[i] if i < len(b.mu) else 0
        if height > 0:
            v[e0 + height - 1] = 1
        offset += 2 * m
    space = SymplecticSpace(n=b.size, omega=_freeze_mat(om)) if d else None
    pair = ExoticPair(v=tuple(v), x=_freeze_mat(x), space=space)
    if space is not None and not in_exotic_cone(pair):
        raise SelfCheckFailed(f"constructed pair violates membership for {b}")
    if orbit_of(pair) != b:
        raise SelfCheckFailed(
            f"constructed pair classifies as {orbit_of(pair)}, wanted {b}"
        )
    return pair


def perp(sub: Subspace, space: SymplecticSpace) -> Subspace:
    """{w : <w, u> = 0 for all u in the subspace}."""
    if not sub:
        return full_space(space.dim)
    om = int_multiple(space.omega_rows())
    rows = [mat_vec(om, u) for u in sub]
    return int_span(int_kernel(rows, space.dim).values())


@dataclass(frozen=True)
class IsotropicFiltration:
    """Chain of subspaces V_{>= a} keyed by the index a, stored over the
    saturated range; outside it the chain is the full space or zero.
    Each level may be given by any spanning rows; it is stored in the
    canonical form of ``span``."""

    space: SymplecticSpace
    subspaces: tuple  # sorted ((a, Subspace), ...)

    def __post_init__(self):
        levels = tuple((a, span(sub)) for a, sub in self.subspaces)
        object.__setattr__(self, "subspaces", levels)

    def level(self, a: int) -> Subspace:
        lo, hi = self.subspaces[0][0], self.subspaces[-1][0]
        if a < lo:
            return full_space(self.space.dim)
        if a > hi:
            return zero_space()
        return dict(self.subspaces)[a]

    def range(self):
        return self.subspaces[0][0], self.subspaces[-1][0]

    def as_dict(self) -> dict:
        """Each level's reduced row echelon rows, as Fractions."""
        return {a: sub_rref(sub) for a, sub in self.subspaces}


def verify_adapted(filt: IsotropicFiltration, pair: ExoticPair,
                   b: Bipartition) -> bool:
    """Check the filtration against the profile of b and the pair:
    nesting, perp duality, prescribed dimensions, v in V_{>= 1}, and
    x V_{>= a} inside V_{>= a+2}."""
    if pair.space is None:
        raise DomainError("verification needs a symplectic form")
    profile = filtration_dims(b)
    lo, hi = profile.levels[0][0], profile.levels[-1][0]
    flo, fhi = filt.range()
    if (flo, fhi) != (lo, hi):
        return False
    xm = pair.x_rows()
    for a in range(lo, hi + 1):
        if sub_dim(filt.level(a)) != profile.dim(a):
            return False
        if not sub_leq(filt.level(a), filt.level(a - 1)):
            return False
        if perp(filt.level(a), pair.space) != filt.level(1 - a):
            return False
        if not sub_leq(map_image(xm, filt.level(a)), filt.level(a + 2)):
            return False
    if not contains(filt.level(1), pair.v_vec()):
        return False
    return True


def _seed_subspaces(pair: ExoticPair, exv: Subspace) -> set:
    d = pair.dim
    xm = int_multiple(pair.x_rows())
    seeds = {zero_space(), full_space(d), exv}
    # the x-chain through v (each member is an iterated image of the line)
    u = int_rows([pair.v_vec()])[0]
    while any(u):
        seeds.add(int_span([u]))
        u = mat_vec(xm, u)
    power = identity(d)
    for _ in range(d):
        power = mat_mul(xm, power)
        image = int_span(transpose(power))
        kernel = int_span(int_kernel(power, d).values())
        seeds.add(image)
        seeds.add(kernel)
        if not image:
            break
    return seeds


def _assemble(pair, b, profile, lattice):
    """All verified filtrations whose positive levels come from the
    lattice; negative levels are forced as perps."""
    d = pair.dim
    xm = pair.x_rows()
    hi = profile.levels[-1][0]
    by_level = {}
    for a in range(1, hi + 1):
        want = profile.dim(a)
        opts = []
        for sub in lattice:
            if sub_dim(sub) != want:
                continue
            if not sub_leq(sub, perp(sub, pair.space)):
                continue
            if a == 1 and not contains(sub, pair.v_vec()):
                continue
            opts.append(sub)
        if not opts:
            return []
        by_level[a] = opts

    found = []

    def descend(a, chosen):
        if a == 0:
            levels = {}
            for idx in range(1, hi + 1):
                levels[idx] = chosen[idx]
            for idx in range(1 - hi, 1):
                levels[idx] = perp(chosen[1 - idx], pair.space)
            filt = IsotropicFiltration(
                space=pair.space,
                subspaces=tuple(sorted(levels.items())),
            )
            if verify_adapted(filt, pair, b):
                found.append(filt)
            return
        for sub in by_level[a]:
            above = chosen.get(a + 1, zero_space())
            if not sub_leq(above, sub):
                continue
            target = chosen.get(a + 2)
            if target is None and a + 2 > hi:
                target = zero_space()
            if target is not None and not sub_leq(map_image(xm, sub), target):
                continue
            chosen[a] = sub
            descend(a - 1, chosen)
            del chosen[a]

    descend(hi, {})
    # descend holds itself through its closure; dropping the name breaks
    # that cycle, so by_level is freed now, not at the next full collection
    del descend
    unique = {}
    for filt in found:
        unique[filt.subspaces] = filt
    return list(unique.values())


def adapted_filtration(pair: ExoticPair, closure_depth: int = 4
                       ) -> IsotropicFiltration:
    """The unique filtration adapted to (v, x), found by searching the
    subspace lattice generated from natural seeds (images and kernels of
    powers of x, the line through v, the centralizer module) under sums,
    intersections, perps, images, and preimages, up to closure_depth
    rounds.

    The orbit theory guarantees uniqueness, so the search stops at the
    first round that produces a verified filtration; two distinct
    verified filtrations raise NotUnique (an implementation bug), and an
    exhausted search raises FiltrationNotFound rather than guessing.
    """
    if pair.space is None:
        raise DomainError("adapted filtration needs a symplectic form")
    xm = pair.x_rows()
    if not in_exotic_cone(pair):
        raise DomainError("pair is not in the exotic cone for this form")
    exv = exv_module(pair)
    b = _orbit_from_module(xm, exv)
    profile = filtration_dims(b)
    d = pair.dim
    lattice = _seed_subspaces(pair, exv)
    frontier = set(lattice)

    for depth in range(closure_depth + 1):
        matches = _assemble(pair, b, profile, lattice)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise NotUnique(
                f"{len(matches)} adapted filtrations found for orbit {b}"
            )
        if depth == closure_depth:
            break
        fresh = set()
        for sub in frontier:
            for derived in (
                perp(sub, pair.space),
                map_image(xm, sub),
                map_preimage(xm, sub, d),
            ):
                if derived not in lattice:
                    fresh.add(derived)
        for a in frontier:
            for bsub in lattice:
                for derived in (
                    sub_add(a, bsub),
                    sub_intersect(a, bsub, d),
                ):
                    if derived not in lattice:
                        fresh.add(derived)
        fresh -= lattice
        if not fresh:
            break
        lattice |= fresh
        frontier = fresh
    raise FiltrationNotFound(
        f"no adapted filtration within closure depth {closure_depth} "
        f"for orbit {b}; raise closure_depth"
    )


def random_symplectic(space: SymplecticSpace, seed: int,
                      count: int = 5) -> tuple:
    """Deterministic product of symplectic transvections
    w -> w + <w, u> u with small random integer u; the defining identity
    g^T omega g = omega is asserted before returning."""
    rng = random.Random(seed)
    d = space.dim
    om = space.omega_rows()
    g = identity(d)
    for _ in range(count):
        u = [rng.randint(-2, 2) for _ in range(d)]
        om_u = mat_vec(om, u)
        trans = [
            [int(i == j) + u[i] * om_u[j] for j in range(d)]
            for i in range(d)
        ]
        g = mat_mul(trans, g)
    if not linalg.mat_eq(mat_mul(transpose(g), mat_mul(om, g)), om):
        raise SelfCheckFailed("transvection product does not preserve omega")
    return _freeze_mat(g)


def conjugate_pair(pair: ExoticPair, g) -> ExoticPair:
    """(v, x) -> (g v, g x g^{-1}), staying in the same orbit."""
    gm = to_mat(g)
    g_inv = linalg.inverse(gm)
    return ExoticPair(
        v=tuple(to_vec(mat_vec(gm, pair.v_vec()))),
        x=_freeze_mat(to_mat(mat_mul(gm, mat_mul(pair.x_rows(), g_inv)))),
        space=pair.space,
    )


# -- JSON encoding of pairs at the CLI boundary ------------------------------

def rational_to_json(x):
    f = frac(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _vec_to_json(v):
    return [rational_to_json(x) for x in v]


def _mat_to_json(m):
    return [[rational_to_json(x) for x in row] for row in m]


def pair_from_json(obj) -> ExoticPair:
    """Read {"n":..., "v":[...], "x":[[...]], "omega": optional} with
    rationals as ints or "p/q" strings."""
    if not isinstance(obj, dict):
        raise DomainError("pair document must be a JSON object")
    try:
        n = obj["n"]
        if type(n) is not int:
            raise DomainError(f"n must be an integer: {n!r}")
        v = to_vec(obj["v"])
        x = to_mat(obj["x"])
    except KeyError as exc:
        raise DomainError(f"pair document is missing {exc}") from exc
    if len(v) != 2 * n or len(x) != 2 * n:
        raise DomainError(f"v and x must have dimension 2n = {2 * n}")
    space = None
    if obj.get("omega") is not None:
        space = SymplecticSpace(n=n, omega=_freeze_mat(to_mat(obj["omega"])))
    return ExoticPair(v=tuple(v), x=_freeze_mat(x), space=space)


def pair_to_json(pair: ExoticPair) -> dict:
    out = {
        "n": pair.n,
        "v": _vec_to_json(pair.v),
        "x": _mat_to_json(pair.x),
    }
    if pair.space is not None:
        out["omega"] = _mat_to_json(pair.space.omega)
    return out
