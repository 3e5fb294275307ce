"""Classification of symplectic orbits on pairs (v, x) by exact rational
linear algebra.

A pair consists of a vector v in a 2n-dimensional symplectic space and a
nilpotent endomorphism x that is self-adjoint for the form (equivalently
<x w, w> = 0 for every w). Its orbit is the bipartition read off from the
Jordan type of x on the centralizer module E^x v (always a doubled type
mu mu) and on the quotient by it (nu nu). The classification never touches
the form; the form enters only through membership checking, perps, and the
adapted filtrations.

A pair is classified once, and what that computes stays with the pair:
the kernels and images of the powers of x, E^x v (below), then the two
Jordan types, read off the rank sequences of x on E = E^x v and on V/E.
The ranks on E are dim x^k E, from repeated images of E; the ranks on
V/E are dim(im x^k + E) - dim E, from the images of the powers already
held. Whether x is self-adjoint for the attached form is checked once
per pair too.

E^x v = z(x) v is the smallest subspace that contains v and is stable
under every map commuting with x (hyperinvariant). For nilpotent x the
hyperinvariant subspaces form the lattice generated by the kernels and
images of the powers of x, and that lattice is distributive (P. A.
Fillmore, D. A. Herrero and W. E. Longstaff, "The hyperinvariant
subspace lattice of a linear transformation", Linear Algebra Appl. 17,
1977). So E^x v is the intersection, over 0 <= i < h, of the smallest
ker x^i + im x^j that contains v, where h is the nilpotency index, and
only d x d eliminations are needed; the centralizer itself is never
built.

The filtration V_{>= a} adapted to a pair of orbit b is, in closed form,
the weight filtration of N = x + v omega(v, .) (P. Deligne, "La
conjecture de Weil II", Publ. Math. IHES 52, 1980, 1.6): V_{>= a} is the
sum of the weight spaces of weight >= a, where N raises weights by 2 and
has the Jordan type phiC(b) of Achar and Henderson ("Orbit closures in
the enhanced nilpotent cone", Adv. Math. 219, 2008). So

    V_{>= 1}     = sum over i >= 1 of (ker N^i ∩ im N^i),
    V_{>= 0}     = perp(V_{>= 1}),
    V_{>= a + 2} = N V_{>= a}      for a >= 0, as N maps weight k onto
                                   weight k + 2 for every k >= -1,
    V_{>= 1 - a} = perp(V_{>= a})  for a >= 1.

The result is checked against the profile of b, the perp duality, v in
V_{>= 1} and x V_{>= a} in V_{>= a + 2} before it is returned; a failure
raises InternalInconsistency, and since the adapted filtration is unique,
a filtration that passes is the adapted one. The check computes no perp:
as omega is nondegenerate, V_{>= 1 - a} = perp(V_{>= a}) holds exactly
when omega(V_{>= a}, V_{>= 1 - a}) = 0 and the two dimensions add up to
2n, and by antisymmetry the levels a >= 1 cover every pair. The closed
form was checked against a search of the subspace lattice generated by
the kernels and images of the powers of x, E^x v and the x-cyclic spans
of v (kept in the tests as the oracle) on every orbit up to n = 7 and on
conjugates of each orbit up to n = 6, and it verifies on a dense
conjugate of every orbit up to n = 8.

All arithmetic is exact: matrices carry ints and Fractions, ranks and
Jordan types come from echelon forms, never from floating point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import linalg
from .bipartitions import Bipartition, filtration_dims
from .errors import (
    DomainError,
    InternalInconsistency,
    NotDoubled,
    SelfCheckFailed,
)
from .linalg import (
    Subspace,
    _in_span,
    _int_image,
    contains,
    frac,
    full_space,
    identity,
    int_kernel,
    int_multiple,
    int_rows,
    int_span,
    mat_mul,
    mat_vec,
    rank,
    span,
    sub_add,
    sub_dim,
    sub_intersect,
    sub_leq,
    to_mat,
    to_vec,
    transpose,
    zero_space,
)
from .records import Record


class SymplecticSpace(Record):
    """2n-dimensional space with an antisymmetric invertible Gram matrix.
    The entries may be ints, Fractions or "p/q" strings; they are stored
    as a tuple of tuples, an integral entry as an int."""

    n: int
    omega: tuple

    def __post_init__(self):
        d = 2 * self.n
        m = to_mat(self.omega)
        if len(m) != d or any(len(row) != d for row in m):
            raise DomainError(f"Gram matrix must be {d}x{d}")
        object.__setattr__(self, "omega", _freeze_mat(m))
        if not _antisymmetric(m):
            raise DomainError("Gram matrix must be antisymmetric")
        if linalg.det(m) == 0:
            raise DomainError("Gram matrix must be invertible")

    @property
    def dim(self) -> int:
        return 2 * self.n

    def omega_rows(self):
        return [list(row) for row in self.omega]

    @cached_property
    def int_omega(self):
        """A positive int multiple of the Gram matrix, scaled once: it has
        the same kernels, so ``perp`` can use it on every call."""
        return int_multiple(self.omega)


def _antisymmetric(m) -> bool:
    """m^T = -m, checked in place, the diagonal too (j = i)."""
    return all(m[i][j] == -m[j][i]
               for i in range(len(m)) for j in range(i + 1))


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
    return SymplecticSpace(n=n, omega=om)


class ExoticPair(Record):
    """Candidate point (v, x); the membership conditions are checked by
    in_exotic_cone, not by construction. The form is optional: orbit
    classification is independent of it. Entries are normalised as in
    ``SymplecticSpace``, so a pair built from lists is hashable."""

    v: tuple
    x: tuple
    space: SymplecticSpace | None = None

    def __post_init__(self):
        v, x = tuple(to_vec(self.v)), to_mat(self.x)
        d = len(v)
        if d % 2:
            raise DomainError("vector length must be even")
        if len(x) != d or any(len(row) != d for row in x):
            raise DomainError("endomorphism must be square of matching size")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "x", _freeze_mat(x))
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

    # What the classification of the pair computes, and the verified
    # adapted filtration, kept with the pair so that each is computed at
    # most once. The cached values live in the instance dict: equality
    # and hashing still see only the fields.

    @cached_property
    def _int_x(self):
        """A positive int multiple of x: it has the same kernels, images
        and stable subspaces."""
        return int_multiple(self.x_rows())

    @cached_property
    def _powers(self) -> tuple[list, list]:
        """Kernels and images of the powers of x (``_power_spaces``).
        Raises DomainError, and caches nothing, when x is not nilpotent."""
        return _power_spaces(self._int_x)

    @cached_property
    def _module(self) -> Subspace:
        """E^x v (``exv_module``)."""
        return _exv(self._int_x, self.v_vec(), *self._powers)

    @cached_property
    def _orbit(self) -> Bipartition:
        """The orbit read off from E^x v; the form is not checked here."""
        return _orbit_from_module(self._int_x, self._module, self._powers[1])

    @cached_property
    def _self_adjoint(self) -> bool:
        """x is self-adjoint for the attached form (``form_compatible``);
        True when no form is attached."""
        return self.space is None or form_compatible(self._int_x, self.space)

    @cached_property
    def _adapted(self) -> IsotropicFiltration:
        """``adapted_filtration``, read after ``_check_in_cone``."""
        return _weight_filtration(self)


make_pair = ExoticPair


def form_compatible(x, space: SymplecticSpace) -> bool:
    """x is self-adjoint for the form: x^T omega = omega x. The form is
    antisymmetric (``SymplecticSpace`` checks it), so (omega x)^T = x^T
    omega^T = -x^T omega, and the identity holds exactly when omega x is
    antisymmetric, diagonal included: one product instead of two."""
    return _antisymmetric(mat_mul(space.int_omega, int_multiple(x)))


def in_exotic_cone(pair: ExoticPair) -> bool:
    """Nilpotency plus, when a form is attached, self-adjointness."""
    try:
        pair._powers
    except DomainError:
        return False
    return pair._self_adjoint


_NO_FORM = "no invertible invariant form (Jordan type not doubled)"


def solve_symplectic_form(x) -> tuple:
    """An invertible antisymmetric omega with x^T omega = omega x, found
    by an exact int kernel over the antisymmetric matrices.

    Deterministic: with K_k the kernel vectors, 1 at their free columns,
    sum_k t^k K_k is scanned over t = 1, 2, ... until the determinant is
    nonzero; if it vanishes identically no such form exists and the input
    is rejected. The scan runs on ints, on L times the sum for the lcm L
    of the free entries of ``int_kernel``, and divides by L at the end.
    """
    xm = int_multiple(to_mat(x))
    d = len(xm)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    # omega[i][j] = sign * coeffs[k] for (k, sign) = slot[i, j]; the
    # diagonal has no slot and is 0
    slot = {}
    for k, (i, j) in enumerate(pairs):
        slot[i, j], slot[j, i] = (k, 1), (k, -1)

    rows = []
    for a in range(d):
        for b in range(a, d):
            # (x^T omega - omega x)[a][b] as a linear form in the coeffs
            row = [0] * len(pairs)
            for m in range(d):
                for ij, w in (((m, b), xm[m][a]), ((a, m), -xm[m][b])):
                    if w and ij in slot:
                        k, sign = slot[ij]
                        row[k] += sign * w
            if any(row):
                rows.append(row)
    kernel = int_kernel(rows, len(pairs))
    if not kernel and d:
        # the zero space has no nonzero form, but its empty form is
        # invertible, and the scan below returns it
        raise DomainError("no nonzero invariant antisymmetric form")
    den = lcm(*[vec[free] for free, vec in kernel.items()])
    basis = [[c * (den // vec[free]) for c in vec]
             for free, vec in kernel.items()]
    for t in range(1, d * len(basis) + 2):
        coeffs = [sum(c * t ** k for k, c in enumerate(col))
                  for col in zip(*basis)]
        om = [[0] * d for _ in range(d)]
        for (i, j), (k, sign) in slot.items():
            om[i][j] = sign * coeffs[k]
        if linalg.det(om) != 0:
            return _freeze_mat([[Fraction(c, den) for c in row]
                                for row in om])
    raise DomainError(_NO_FORM)


def centralizer_basis(x) -> list:
    """Int basis of {y : x y = y x}, the kernel of the commutator map.

    A kernel in d^2 unknowns. The library no longer calls it: E^x v comes
    from kernels and images of powers of x (``exv_module``). It stays as
    the oracle that the tests check ``exv_module`` against, and under
    this name because the benchmark's tracer looks it up.
    """
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


def _power_spaces(xi, stop: int | None = None) -> tuple[list, list]:
    """Kernels and images of the powers of the int map xi: lists with
    kernels[k] = ker x^k and images[k] = im x^k for k = 0, ..., h, where
    h is the nilpotency index (images[h] is zero, kernels[h] everything),
    or for k = 0, ..., stop when stop is given and below h.

    The rank of the image falls at every step until it reaches 0, so a
    rank that stalls above 0 means x is not nilpotent, and the loop stops
    within d steps either way.
    """
    d = len(xi)
    kernels, images = [zero_space()], [full_space(d)]
    power = identity(d)
    while images[-1] and len(images) - 1 != stop:
        power = mat_mul(xi, power)
        image = int_span(transpose(power))
        if len(image) == len(images[-1]):
            raise DomainError("x is not nilpotent")
        images.append(image)
        kernels.append(int_span(int_kernel(power, d).values()))
    return kernels, images


def _exv(xi, v, kernels, images) -> Subspace:
    """E^x v from the kernels and images of the powers of xi (see
    ``exv_module``)."""
    d = len(xi)
    h = len(images) - 1
    u = int_rows([v])[0]
    exv = full_space(d)
    for i in range(h):
        # v lies in ker x^i + im x^j exactly when x^i v lies in
        # im x^(i+j), so J(i) = top - i for the largest top <= h with
        # x^i v in im x^top
        top = h
        while not _in_span(images[top], u):
            top -= 1
        image = images[top - i]
        term = sub_add(kernels[i], image) if i else image
        if len(term) < d:
            exv = term if len(exv) == d else sub_intersect(exv, term, d)
        if not any(u):
            # x^i v = 0, so every later term contains this one, ker x^i
            break
        u = mat_vec(xi, u)
    return exv


def exv_module(pair: ExoticPair) -> Subspace:
    """E^x v, the span of y v over y commuting with x; always x-stable.

    For nilpotent x of nilpotency index h (Fillmore-Herrero-Longstaff,
    see the module docstring),

        E^x v = intersection over 0 <= i < h of ker x^i + im x^J(i),

    where J(i) is the largest j <= h - i with v in ker x^i + im x^j.
    Raises DomainError when x is not nilpotent.
    """
    return pair._module


def _maps_into(xi, s: Subspace, t: Subspace) -> bool:
    """x s lies in t, for the int map xi: each x u, for u a row of s,
    reduces to 0 against t. The predicate of sub_leq(map_image(xi, s),
    t), without an elimination of x s."""
    return all(_in_span(t, mat_vec(xi, u)) for u in s)


def _parts(ranks) -> tuple:
    """The Jordan type with rank sequence ranks, where ranks[k] is the
    rank of x^k and the sequence ends in 0. There are g_k = ranks[k-1] -
    ranks[k] blocks of size >= k, so the type is the partition conjugate
    to (g_1, g_2, ...): its i-th part, from 0, counts the k with g_k > i."""
    ge = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(g > i for g in ge) for i in range(ge[0] if ge else 0))


def jordan_type(x, subspace: Subspace | None = None,
                quotient_by: Subspace | None = None) -> tuple:
    """Jordan type of x on the full space, an x-stable subspace, or the
    quotient by one, from the rank sequence of powers (``_parts``): the
    number of blocks of size >= k is rank(x^(k-1)) - rank(x^k).

    The classifier does not call it: ``_orbit_from_module`` reads the
    same rank sequences off the images of the powers of x that the pair
    already holds. This is the general entry point, which scales x,
    checks stability and raises when x is not nilpotent on the space."""
    xi = int_multiple(to_mat(x))
    d = len(xi)
    if subspace is not None and quotient_by is not None:
        raise DomainError("pass a subspace or a quotient, not both")
    for sub in (subspace, quotient_by):
        if sub is not None and not _maps_into(xi, sub, sub):
            raise DomainError("subspace is not x-stable")
    # x^k of the space is spanned by vecs after k steps; on the quotient
    # its rank is that of vecs together with the quotient's rows, less s
    vecs = identity(d) if subspace is None else int_rows(subspace)
    fixed = int_rows(quotient_by or ())
    s = len(fixed)
    ranks = [len(vecs) - s]
    while ranks[-1] > 0:
        vecs = [w for w in (mat_vec(xi, u) for u in vecs) if any(w)]
        r = rank(vecs + fixed) - s
        if r == ranks[-1]:
            raise DomainError("endomorphism is not nilpotent on this space")
        ranks.append(r)
    return _parts(ranks)


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
    form. When the Jordan type of x itself is not doubled, its message is
    the one the form solve gives (``solve_symplectic_form``).
    """
    _check_in_cone(pair)
    return pair._orbit


def _check_in_cone(pair: ExoticPair):
    """The membership errors of ``orbit_of`` and ``adapted_filtration``."""
    pair._powers  # raises DomainError when x is not nilpotent
    if not pair._self_adjoint:
        raise DomainError("x is not self-adjoint for the supplied form")


def _orbit_from_module(xi, exv: Subspace, images) -> Bipartition:
    """The orbit from the Jordan types of the nilpotent int map xi on E =
    exv and on V/E, with images[k] = im x^k: the rank of x^k is dim x^k E
    on E and dim(im x^k + E) - dim E on V/E."""
    e = len(exv)
    on_module = [e]
    sub = _int_image(xi, exv)
    if not sub_leq(sub, exv):
        raise InternalInconsistency("E^x v is not x-stable")
    while on_module[-1]:
        on_module.append(len(sub))
        sub = _int_image(xi, sub)
    # images[0] is the whole space
    on_quotient = [len(xi) - e]
    on_quotient += [len(sub_add(image, exv)) - e for image in images[1:]]
    try:
        return Bipartition(de_double(_parts(on_module)),
                           de_double(_parts(on_quotient)))
    except NotDoubled:
        # when x's own type is not doubled, no form makes it self-adjoint:
        # say so, as the form solve of adapted_filtration does
        parts = _parts([len(image) for image in images])
        if parts[0::2] != parts[1::2]:
            raise NotDoubled(_NO_FORM) from None
        raise


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
    space = SymplecticSpace(n=b.size, omega=om) if d else None
    pair = ExoticPair(v=v, x=x, space=space)
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
    om = space.int_omega
    rows = [mat_vec(om, u) for u in sub]
    return int_span(int_kernel(rows, space.dim).values())


class IsotropicFiltration(Record, uncompared=("orbit",)):
    """Chain of subspaces V_{>= a} over the saturated range, stored as one
    run of consecutive indices, so V_{>= a} is entry a - lo; outside the
    range the chain is the full space or zero. The constructor takes each
    level as any spanning rows of length ``space.dim``, in the canonical
    form of ``span``.
    ``adapted_filtration`` builds every level in that form already and
    hands the levels over through ``_of_canonical``, which trusts them and
    eliminates none again, together with the orbit of the pair; equality
    ignores the orbit."""

    space: SymplecticSpace
    subspaces: tuple  # ((lo, Subspace), (lo + 1, Subspace), ...)
    orbit: Bipartition | None = None

    def __post_init__(self):
        d = self.space.dim
        if any(len(row) != d for _, sub in self.subspaces for row in sub):
            raise DomainError(
                f"every row of a filtration level must have length {d}")
        self._store(tuple((a, span(sub)) for a, sub in self.subspaces))

    @classmethod
    def _of_canonical(cls, space, levels: tuple, orbit):
        """The filtration with the sorted levels ((a, Subspace), ...),
        each already in the canonical form of ``span``; only the indices
        are checked."""
        filt = object.__new__(cls)
        filt.__dict__.update(space=space, orbit=orbit)
        filt._store(levels)
        return filt

    def _store(self, levels: tuple):
        indices = [a for a, _ in levels]
        if (not indices or any(type(a) is not int for a in indices)
                or indices != [*range(indices[0], indices[-1] + 1)]):
            raise DomainError("filtration levels must be a nonempty run of "
                              f"consecutive increasing int indices: {indices}")
        object.__setattr__(self, "subspaces", levels)

    def level(self, a: int) -> Subspace:
        lo, hi = self.range()
        if a < lo:
            return full_space(self.space.dim)
        return self.subspaces[a - lo][1] if a <= hi else zero_space()

    def range(self):
        return self.subspaces[0][0], self.subspaces[-1][0]

    def as_dict(self) -> dict:
        """Each level's reduced row echelon rows over Q, read off its
        canonical int rows: a row whose pivot p is 1 is returned as it
        is, and otherwise each entry x becomes the int x // p when p
        divides it and Fraction(x, p) when it does not."""
        return {a: tuple(map(_reduced_row, sub)) for a, sub in self.subspaces}


def _reduced_row(row: tuple) -> tuple:
    p = next(filter(None, row))
    if p == 1:
        return row
    return tuple(Fraction(x, p) if x % p else x // p for x in row)


def verify_adapted(filt: IsotropicFiltration, pair: ExoticPair,
                   b: Bipartition) -> bool:
    """Check the filtration against the profile of b and the pair:
    nesting, prescribed dimensions, perp duality, v in V_{>= 1}, and
    x V_{>= a} inside V_{>= a+2}.

    Perp duality, V_{>= 1-a} = perp(V_{>= a}), is checked without a perp:
    omega(V_{>= a}, V_{>= 1-a}) = 0 for a >= 1, with the two dimensions
    adding up to 2n. The form is nondegenerate, so V_{>= 1-a} lies in
    perp(V_{>= a}) and has its dimension, which makes the two equal; and
    omega is antisymmetric, so a >= 1 covers every pair (a, 1 - a) once.

    An orbit b other than the pair's reads False unchecked: orbits with
    one collapse share a profile. The filtration kept with this pair
    object (``ExoticPair._adapted``) answers from the check made there;
    every other call checks in full. A pair outside the exotic cone raises
    the DomainError of ``orbit_of``, as do a pair without a form and a
    pair of another dimension."""
    if pair.space is None:
        raise DomainError("verification needs a symplectic form")
    if filt.space.dim != pair.dim:
        raise DomainError(f"filtration of dimension {filt.space.dim} "
                          f"checked against a pair of dimension {pair.dim}")
    _check_in_cone(pair)
    if b != pair._orbit:
        return False
    if pair.__dict__.get("_adapted") is filt:
        return True
    return _verify(filt, pair, pair.space, filtration_dims(b))


def _verify(filt, pair, space, profile) -> bool:
    """``verify_adapted`` against the profile of b and the form of space,
    reading both chains by index (lo = 1 - hi in every profile). V_{>= lo}
    lies in the whole space: the constructor refuses other row lengths."""
    lo, hi = profile.levels[0][0], profile.levels[-1][0]
    if filt.range() != (lo, hi):
        return False
    levels = [sub for _, sub in filt.subspaces] + [(), ()]  # zero past hi
    for i, ((_, dim), sub) in enumerate(zip(profile.levels, levels)):
        if sub_dim(sub) != dim:
            return False
        if i and not sub_leq(sub, levels[i - 1]):
            return False
        if not _maps_into(pair._int_x, sub, levels[i + 2]):
            return False
    om = space.int_omega
    for a in range(1, hi + 1):
        sub, dual = levels[a - lo], levels[1 - a - lo]
        if sub_dim(sub) + sub_dim(dual) != pair.dim:
            return False
        for u in sub:
            w = mat_vec(om, u)
            if any(sum(map(mul, w, y)) for y in dual):
                return False
    return contains(levels[1 - lo], pair.v_vec())


def adapted_filtration(pair: ExoticPair) -> IsotropicFiltration:
    """The unique filtration adapted to (v, x): the weight filtration of
    N = x + v omega(v, .), built in closed form (see the module docstring)
    and checked by ``_verify`` before it is returned.

    The powers of x, E^x v and the orbit come from the pair's cache, so a
    pair that ``orbit_of`` has classified is not classified again; the
    verified filtration is kept there too (``ExoticPair._adapted``), so a
    second call returns the same object. The
    construction takes one perp for each level a >= 1, and the check takes
    none (see ``verify_adapted``). Every level comes out of ``int_span``,
    ``perp``, ``_int_image`` or ``sub_intersect`` in canonical form, so the
    filtration trusts the levels as they are and eliminates none again.
    The profile of the orbit is computed once (``filtration_dims``), for
    the top index and the check. A filtration that fails the check, or
    an N whose powers stall before they vanish, raises
    InternalInconsistency: both are ruled out by the theory.

    A pair without a form gets the one ``solve_symplectic_form`` finds,
    after the membership checks and before the orbit; the filtration
    carries the form it was built with.
    """
    _check_in_cone(pair)
    return pair._adapted


def _weight_filtration(pair: ExoticPair) -> IsotropicFiltration:
    """``adapted_filtration`` of a pair in the exotic cone."""
    space = pair.space or SymplecticSpace(
        n=pair.n, omega=solve_symplectic_form(pair._int_x))
    b = pair._orbit
    profile = filtration_dims(b)
    top = profile.levels[-1][0]
    d = pair.dim
    # N = x + u u^T omega, a positive multiple of x + t v omega(v, .), t > 0
    u = int_rows([pair.v_vec()])[0]
    row = [-c for c in mat_vec(space.int_omega, u)]  # u^T omega
    ni = [[a + c * r for a, r in zip(xrow, row)]
          for xrow, c in zip(pair._int_x, u)]
    # on a Jordan chain of N of length m, ker N^i and im N^i meet in the
    # top min(i, m - i) vectors, all of weight >= 1, and at i = m // 2 in
    # every vector of weight >= 1; no chain is longer than top
    try:
        kernels, images = _power_spaces(ni, top // 2)
    except DomainError as exc:
        raise InternalInconsistency(
            f"N is not nilpotent for orbit {b}") from exc
    meets = [meet for meet in (sub_intersect(kernels[k], images[k], d)
                               for k in range(1, len(images))) if meet]
    # a single nonzero intersection is canonical already
    levels = {1: meets[0] if len(meets) == 1
              else int_span([w for meet in meets for w in meet])}
    levels[0] = perp(levels[1], space)
    for a in range(2, top + 1):
        # N maps weight k onto weight k + 2 for every k >= -1
        levels[a] = _int_image(ni, levels[a - 2])
        levels[1 - a] = perp(levels[a], space)
    filt = IsotropicFiltration._of_canonical(
        space, tuple(sorted(levels.items())), b)
    if not _verify(filt, pair, space, profile):
        raise InternalInconsistency(
            f"the weight filtration of N fails verification for orbit {b}")
    return filt


def random_symplectic(space: SymplecticSpace, seed: int) -> tuple:
    """Deterministic product of five symplectic transvections
    w -> w + <w, u> u with small random integer u; the defining identity
    g^T omega g = omega is asserted before returning."""
    rng = random.Random(seed)
    d = space.dim
    om = space.omega_rows()
    g = identity(d)
    for _ in range(5):
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
    """(v, x) -> (g v, g x g^{-1}), staying in the same orbit. When the
    pair carries a form, g must preserve it (g^T omega g = omega), or
    DomainError is raised: the form is kept, and any other g moves x off
    the self-adjoint maps of that form."""
    gm = to_mat(g)
    g_inv = linalg.inverse(gm)
    if pair.space is not None:
        om = pair.space.omega_rows()
        if not linalg.mat_eq(mat_mul(transpose(gm), mat_mul(om, gm)), om):
            raise DomainError("g does not preserve the form of the pair: "
                              "g^T omega g != omega")
    # integral entries of g^-1 as ints: a symplectic int g has det 1,
    # so its products run on ints
    return ExoticPair(
        v=mat_vec(gm, pair.v_vec()),
        x=mat_mul(gm, mat_mul(pair.x_rows(), to_mat(g_inv))),
        space=pair.space,
    )


# -- JSON encoding of pairs at the CLI boundary ------------------------------

def rational_to_json(x):
    """An int as it is, any other exact rational (``frac``) as an int when
    it is integral and as a "p/q" string otherwise."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else frac(x)
    p, q = f.numerator, f.denominator
    return p if q == 1 else f"{p}/{q}"


def mat_to_json(m):
    return [[rational_to_json(x) for x in row] for row in m]


def _json_array(value, name: str, rows: bool = False) -> list:
    if type(value) is not list or rows and any(
            type(row) is not list for row in value):
        raise DomainError(
            f"{name} must be a JSON array{' of arrays' * rows}")
    return value


def pair_from_json(obj) -> ExoticPair:
    """Read {"n":..., "v":[...], "x":[[...]], "omega": optional} with
    rationals as ints or "p/q" strings; any other key is refused."""
    if not isinstance(obj, dict):
        raise DomainError("pair document must be a JSON object")
    unknown = [key for key in obj if key not in ("n", "v", "x", "omega")]
    if unknown:
        raise DomainError(f"pair document has an unknown key {unknown[0]!r}; "
                          "the keys are n, v, x and omega")
    try:
        n = obj["n"]
        if type(n) is not int:
            raise DomainError(f"n must be an integer: {n!r}")
        v = _json_array(obj["v"], "v")
        x = _json_array(obj["x"], "x", rows=True)
    except KeyError as exc:
        raise DomainError(f"pair document is missing {exc}") from exc
    if len(v) != 2 * n or len(x) != 2 * n:
        raise DomainError(f"v and x must have dimension 2n = {2 * n}")
    omega = obj.get("omega")
    space = None if omega is None else SymplecticSpace(
        n=n, omega=_json_array(omega, "omega", rows=True))
    return ExoticPair(v=v, x=x, space=space)


def pair_to_json(pair: ExoticPair) -> dict:
    out = {
        "n": pair.n,
        "v": [rational_to_json(c) for c in pair.v],
        "x": mat_to_json(pair.x),
    }
    if pair.space is not None:
        out["omega"] = mat_to_json(pair.space.omega)
    return out
