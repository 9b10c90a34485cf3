"""Distance, intersection and nearest-point computation for quadrics.

A quadric is X^T A X + 2 B^T X - 1 = 0 with symmetric A (an ellipsoid when A
is sign-definite). A linear variety is C^T X = H with independent columns.
Every problem is reduced to a univariate polynomial in z whose minimal
positive simple zero is the squared distance; the polynomial arises as a
discriminant of a pencil determinant, and the nearest points are recovered
rationally from the pencil's multiple zero.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

from .discrim import (
    bezout_matrix_biv,
    discriminant_biv_param,
    discriminant_param,
    integer_pencil,
    multiple_zero_biv,
    multiple_zero_near,
)
from .errors import DegeneracyError, InputError, NoPositiveRootError, SingularMatrixError
from .linalg import (
    MatrixQ,
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    VectorQ,
    adjugate,
    block_matrix,
    definiteness,
    det_bipoly_matrix,
    det_unipoly_matrix,
    determinant,
    inverse,
    rank,
    solve_linear,
)
from .poly import BiPoly, RatFunc, UniPoly, divrem, field_gcd, poly_gcd, squarefree_decomposition
from .realroots import (
    MIXED_OR_ZERO,
    NO_REAL_ROOTS,
    IsolatingInterval,
    count_roots,
    isolate_real_roots,
    refine_interval,
    root_signs_summary,
)
from .scalar import QQ, rational, snap, sqrt_approx, tolerance

MU = "mu"
LAM = "lam"
ZVAR = "z"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class Quadric:
    """Surface X^T A X + 2 B^T X - 1 = 0."""

    __slots__ = ("a", "b", "dim")

    def __init__(self, a: MatrixQ, b: VectorQ):
        if not a.is_symmetric():
            raise ValueError("quadric matrix must be symmetric")
        if a.rows != b.dim:
            raise ValueError("dimension mismatch between matrix and vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dim", a.rows)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Quadric is immutable")

    def __eq__(self, other):
        return isinstance(other, Quadric) and self.a == other.a and self.b == other.b

    def residual_at(self, x: VectorQ):
        """X^T A X + 2 B^T X - 1 at the given point."""
        return x.dot(self.a * x) + 2 * self.b.dot(x) - 1

    @property
    def centered(self) -> bool:
        return self.b.is_zero()


def normalize(a: MatrixQ, b: VectorQ, c) -> Quadric:
    """Scale X^T A X + 2 B^T X + c = 0 so that the constant becomes -1."""
    c = rational(c)
    if not c:
        raise ValueError("surface through the origin: constant term must be nonzero")
    s = QQ(-1) / c
    return Quadric(a.scale(s), b.scale(s))


class LinearVariety:
    """Affine subspace C^T X = H with linearly independent columns in C."""

    __slots__ = ("c", "h", "gram", "dim", "codim")

    def __init__(self, c: MatrixQ, h: VectorQ | None = None):
        k = c.cols
        if k > c.rows:
            raise ValueError("more columns than ambient dimension")
        if rank(c) != k:
            raise ValueError("columns are not linearly independent")
        if h is None:
            h = VectorQ.zero(k)
        if h.dim != k:
            raise ValueError("offset length must match the number of columns")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "gram", c.transpose() * c)
        object.__setattr__(self, "dim", c.rows)
        object.__setattr__(self, "codim", k)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LinearVariety is immutable")

    def residual_at(self, y: VectorQ):
        r = self.c.transpose() * y - self.h
        return max((abs(e) for e in r), default=QQ(0))


@dataclass
class RootInfo:
    value: object
    error: object
    multiplicity: int


@dataclass
class NearestPair:
    x: tuple
    y: tuple
    residuals: dict


@dataclass
class DistanceReport:
    kind: str
    intersecting: bool
    certificate: dict
    fz: UniPoly | None = None
    extraneous_z_power: int = 0
    extraneous_square: UniPoly | None = None
    positive_zeros: list = field(default_factory=list)
    z_star: RootInfo | None = None
    d: object = None
    d_error: object = None
    simple: bool | None = None
    multipliers: dict = field(default_factory=dict)
    nearest_pairs: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    alternate_z: RootInfo | None = None
    t_star: object = None
    branch: str | None = None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def ellipsoid_definiteness(q: Quadric) -> str:
    d = definiteness(q.a)
    if d not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE):
        raise DegeneracyError(
            "not-an-ellipsoid", "quadric matrix is not sign-definite"
        )
    return d


def check_real_ellipsoid(q: Quadric) -> str:
    """Definiteness of A, verifying the surface is nonempty over the reals."""
    d = ellipsoid_definiteness(q)
    _check_nonempty(q, d, "surface")
    return d


def _check_nonempty(q: Quadric, d: str, subject: str):
    """Reject a negative-definite quadric (definiteness d) with no real points."""
    if d == NEGATIVE_DEFINITE and 1 + q.b.dot(solve_linear(q.a, q.b)) >= 0:
        raise DegeneracyError("empty-surface", f"{subject} has no real points")


# ---------------------------------------------------------------------------
# pencils: the polynomial whose discriminant in mu gives F(z)
# ---------------------------------------------------------------------------


def _corner_pencil(rows, z_coeff, var) -> BiPoly:
    """det(rows) + z * z_coeff * det(rows without the last row and column).

    ``rows`` is a square matrix of UniPoly or scalar entries in ``var``;
    z enters only its last diagonal entry, with coefficient ``z_coeff``. The
    result is a BiPoly in (``var``, z), main variable first: row j holds the
    z-linear coefficient of var^j.
    """
    d0 = det_unipoly_matrix(rows, var)
    slope = z_coeff * det_unipoly_matrix([row[:-1] for row in rows[:-1]], var)
    deg = max(d0.degree, slope.degree)
    return BiPoly([(d0.coeff(j), slope.coeff(j)) for j in range(deg + 1)], (var, ZVAR))


def variety_pencil(e: Quadric, v: LinearVariety) -> BiPoly:
    """The bordered-determinant pencil for an ellipsoid vs linear variety.

    det([A | C | B; mu C^T | G | -mu h; B^T | -h^T | -1 + mu z]): the rows
    carrying the Gram block are pre-scaled by mu so the result is a genuine
    polynomial in mu; z enters linearly through the corner entry.
    """
    n, k = e.dim, v.codim
    mu = UniPoly.x(MU)
    a, b, c, h, g = e.a, e.b, v.c, v.h, v.gram
    rows = [list(a.entries[i]) + list(c.entries[i]) + [b[i]] for i in range(n)]
    rows += [
        [mu * c.entry(j, i) for j in range(n)] + list(g.entries[i]) + [mu * (-h[i])]
        for i in range(k)
    ]
    rows.append(list(b) + [-x for x in h] + [QQ(-1)])
    return _corner_pencil(rows, mu, MU)


def bordered_point_rows(a, b, c, x0: VectorQ, mu):
    """Rows of the point pencil's bordered matrix, without its z term.

    [A - mu I | B + mu x0] and [(B + mu x0)^T | c - mu |x0|^2]; ``a`` is a
    sequence of rows, and the entries and ``mu`` lie in any polynomial ring
    that holds mu. The pencil adds mu * z to the last diagonal entry.
    """
    n = len(a)
    border = [b[i] + mu * x0[i] for i in range(n)]
    rows = [
        [a[i][j] - (mu if i == j else 0) for j in range(n)] + [border[i]]
        for i in range(n)
    ]
    rows.append(border + [c - mu * x0.dot(x0)])
    return rows


def bordered_point_pencil(a, b, c, x0: VectorQ) -> BiPoly:
    """Pencil of X^T A X + 2 B^T X + c = 0 against the point x0.

    The (n+1) bordered determinant of ``bordered_point_rows`` over Q[mu],
    with mu z added to its last diagonal entry.
    """
    mu = UniPoly.x(MU)
    return _corner_pencil(bordered_point_rows(a, b, c, x0, mu), mu, MU)


def point_pencil(e: Quadric, x0: VectorQ) -> BiPoly:
    """Pencil for the point-to-quadric problem: the (n+1) bordered determinant."""
    return bordered_point_pencil(e.a.entries, e.b, QQ(-1), x0)


def centered_pencil(q1: Quadric, q2: Quadric) -> BiPoly:
    """det(lam A1 + (z - lam) A2 - lam (z - lam) A1 A2) as a pencil in lam, z.

    The BiPoly's first variable is lam, the main one, and its second is z.
    """
    n = q1.dim
    lam = BiPoly.variable(0, (LAM, ZVAR))
    z = BiPoly.variable(1, (LAM, ZVAR))
    a1a2 = q1.a * q2.a
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = (
                lam * q1.a.entry(i, j)
                + (z - lam) * q2.a.entry(i, j)
                - lam * (z - lam) * a1a2.entry(i, j)
            )
            row.append(entry)
        rows.append(row)
    return det_bipoly_matrix(rows, (LAM, ZVAR))


def general_sign_pencil(q1: Quadric, q2: Quadric) -> BiPoly:
    """Pencil whose discriminant's real-root signs certify intersection.

    det([A2 - lam A1 | B2 - lam B1; (B2 - lam B1)^T | lam - 1 - z]).
    """
    n = q1.dim
    lam = UniPoly.x(LAM)
    border = [q2.b[i] - lam * q1.b[i] for i in range(n)]
    rows = [
        [q2.a.entry(i, j) - lam * q1.a.entry(i, j) for j in range(n)] + [border[i]]
        for i in range(n)
    ]
    rows.append(border + [lam - 1])
    return _corner_pencil(rows, -1, LAM)


def general_bipoly_at(q1: Quadric, q2: Quadric, z):
    """The two-multiplier determinant polynomial at a fixed rational z."""
    n = q1.dim
    z = rational(z)
    m1 = BiPoly.variable(0, ("mu1", "mu2"))
    m2 = BiPoly.variable(1, ("mu1", "mu2"))
    a1, b1, a2, b2 = q1.a, q1.b, q2.a, q2.b
    a2a1 = a2 * a1
    a2b1 = a2 * b1
    b2a1 = [sum((b2[i] * a1.entry(i, j) for i in range(n)), QQ(0)) for j in range(n)]
    b2b1 = b2.dot(b1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(
                m1 * a1.entry(i, j) + m2 * a2.entry(i, j) - a2a1.entry(i, j)
            )
        row.append(m1 * b1[i] + m2 * b2[i] - a2b1[i])
        rows.append(row)
    last = []
    for j in range(n):
        last.append(m1 * b1[j] + m2 * b2[j] - b2a1[j])
    last.append(-m1 - m2 - b2b1 + m1 * m2 * z)
    rows.append(last)
    return det_bipoly_matrix(rows, ("mu1", "mu2"))


# ---------------------------------------------------------------------------
# intersection certificates
# ---------------------------------------------------------------------------


def variety_intersects(e: Quadric, v: LinearVariety):
    """(intersects, certificate) for an ellipsoid vs linear variety.

    The bordered-determinant sign rule compares the constrained critical
    value against the value at infinity along the variety, so it needs the
    variety to be at least one-dimensional; a zero-dimensional variety (full
    codimension) is a point and is tested by direct substitution.
    """
    d = ellipsoid_definiteness(e)
    n, k = e.dim, v.codim
    if k == n:
        point = solve_linear(v.c.transpose(), v.h)
        res = e.residual_at(point)
        return not res, res
    zero_kk = MatrixQ.zeros(k, k)
    bordered = block_matrix(
        [
            [e.a, MatrixQ.from_columns([list(e.b)]), v.c],
            [
                MatrixQ([list(e.b)]),
                MatrixQ([[QQ(-1)]]),
                MatrixQ([[-h for h in v.h]]),
            ],
            [v.c.transpose(), MatrixQ.from_columns([[-h for h in v.h]]), zero_kk],
        ]
    )
    cert = determinant(bordered)
    factor = (-1) ** (k - 1) if d == POSITIVE_DEFINITE else (-1) ** n
    return cert * factor >= 0, cert


def centered_intersects(q1: Quadric, q2: Quadric):
    """Centered quadrics intersect iff A1 - A2 is not sign-definite."""
    if not q1.centered or not q2.centered:
        raise InputError("both quadrics must be centered")
    if definiteness(q1.a) != POSITIVE_DEFINITE:
        raise DegeneracyError("not-an-ellipsoid", "first matrix must be positive definite")
    cls = definiteness(q1.a - q2.a)
    return cls not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE), cls


def _critical_sign_range(pencil: BiPoly):
    """Signs of the second quadric's function over the first ellipsoid.

    The critical points of V(X) = X^T A2 X + 2 B2^T X - 1 on the first
    surface U(X) = 0 are X(lam) = -M^(-1) (B2 - lam B1) with M = A2 - lam A1,
    at the real zeros lam of U(X(lam)). V is continuous on a compact surface,
    so its range is [min, max] over those zeros and the intersection verdict
    only needs the signs, determined exactly by refining each root bracket
    until the sign polynomial has no zero inside it.

    Both polynomials come from the sign pencil c0(lam) + z c1(lam), where
    c1 = -det M and the pencil vanishes at z(lam) = -c0/c1, the value of
    V - lam U at X(lam). Its derivative is z'(lam) = -U(X(lam)), so the
    constraint is h = det M^2 U(X(lam)) = c0' c1 - c0 c1' and the sign
    polynomial is det M^2 V(X(lam)) = lam h - c0 c1.

    Returns (has_negative_or_zero, has_positive_or_zero, has_zero).
    """
    bits = 96
    c0 = pencil.eval_var(1, 0)
    c1 = pencil.eval_var(1, 1) - c0
    h = c0.derivative() * c1 - c0 * c1.derivative()
    v_num = UniPoly.x(pencil.vars[0]) * h - c0 * c1
    if not h:
        raise DegeneracyError("degenerate-critical-system", "constraint vanishes")
    # strip multiplier values where the parameterization blows up
    g = poly_gcd(h, c1)
    while g.degree > 0:
        h = h / g
        g = poly_gcd(h, c1)
    if h.degree < 1:
        raise DegeneracyError(
            "degenerate-critical-system", "no finite critical multipliers"
        )
    intervals = isolate_real_roots(h)
    if not intervals:
        raise DegeneracyError(
            "degenerate-critical-system", "no real critical multiplier"
        )
    shared = poly_gcd(h, v_num)
    has_neg = has_pos = has_zero = False
    for iv in intervals:
        if iv.exact:
            value = v_num.eval(iv.lo)
            if not value:
                has_zero = True
            elif value > 0:
                has_pos = True
            else:
                has_neg = True
            continue
        if shared.degree > 0 and (shared.eval(iv.lo) > 0) != (shared.eval(iv.hi) > 0):
            has_zero = True  # V vanishes exactly at this critical point
            continue
        r = refine_interval(iv, bits)
        width = bits
        while not r.exact and v_num and count_roots(v_num, r.lo, r.hi):
            width += 64
            r = refine_interval(r, width)
        value = v_num.eval(r.lo if r.exact else r.midpoint)
        if not value:
            has_zero = True
        elif value > 0:
            has_pos = True
        else:
            has_neg = True
    return has_neg, has_pos, has_zero


def general_intersects(q1: Quadric, q2: Quadric):
    """(intersects, sign summary, Phi) via the real-root signs of Phi(z).

    Phi's real zeros carry the critical values of the second quadric's
    function on the first surface; the surfaces intersect exactly when those
    take both signs or vanish. Multiple real zeros of Phi are ambiguous
    (they may come from complex critical pairs, as mirror-symmetric
    configurations show), so in that case the verdict falls back to the
    direct critical-value analysis.
    """
    ellipsoid_definiteness(q1)
    pencil = general_sign_pencil(q1, q2)
    phi = discriminant_param(pencil)
    if not phi:
        raise DegeneracyError("identically-zero-pencil", "sign pencil degenerates")
    phi = phi.normalized()
    intervals = isolate_real_roots(phi)
    summary = root_signs_summary(intervals)
    if all(iv.multiplicity == 1 for iv in intervals):
        return summary == MIXED_OR_ZERO, summary, phi
    has_neg, has_pos, has_zero = _critical_sign_range(pencil)
    return has_zero or (has_neg and has_pos), summary, phi


# ---------------------------------------------------------------------------
# distance polynomials
# ---------------------------------------------------------------------------


def _finalize_distance_poly(f: UniPoly) -> UniPoly:
    if not f:
        raise DegeneracyError(
            "identically-zero-discriminant", "distance polynomial degenerates to zero"
        )
    return f.normalized()


def _squarefree_in_main(pencil: BiPoly) -> BiPoly:
    """Divide a pencil by its repeated main-variable factors.

    The pencil and the result are BiPolys with the main variable first and
    the parameter second. Works over the rational-function field in the
    parameter, then clears denominators.
    """
    main, var = pencil.vars
    coeffs = [RatFunc(UniPoly(row, var)) for row in pencil.coeffs]
    g = UniPoly(coeffs, main)
    h = field_gcd(g, g.derivative())
    if h.degree == 0:
        return pencil
    sf, r = divrem(g, h)
    if r:
        raise AssertionError("inexact square-free division")
    # divrem leaves a zero quotient coefficient as a plain rational
    sf = [c if isinstance(c, RatFunc) else RatFunc(c, var=var) for c in sf.coeffs]
    lcm = UniPoly.const(1, var)
    for c in sf:
        d = c.den
        lcm = (lcm * d) / poly_gcd(lcm, d)
    return BiPoly([(c.num * (lcm / c.den)).coeffs for c in sf], pencil.vars)


class Pencil:
    """A pairing's pencil, built on first use and deflated at most once.

    Calling it gives the pencil: a BiPoly with the main variable (mu or lam)
    first and z second. ``distance_poly()`` takes F(z) from it and recovery
    reads it afterwards, so both see the same, possibly deflated, pencil.
    """

    def __init__(self, build: Callable[[], BiPoly]):
        self._build = build
        self._pencil = None

    def __call__(self) -> BiPoly:
        if self._pencil is None:
            self._pencil = self._build()
        return self._pencil

    def distance_poly(self) -> UniPoly:
        """F(z), the pencil's discriminant in its main variable.

        It vanishes identically when the pencil has a repeated factor for
        every z (spheres, surfaces of revolution, concentric configurations);
        the pencil is then replaced by its square-free part, and F is taken
        from that.
        """
        # discriminant_param's proven degree, (2 deg_main - 1) deg_z, is
        # 2n + 1 for a point, 2k + 1 for a variety and (4n - 1) n if centred
        f = discriminant_param(self())
        if not f:
            self._pencil = _squarefree_in_main(self._pencil)
            if self._pencil.deg1 < 2:
                raise DegeneracyError(
                    "identically-zero-discriminant", "pencil reduces below quadratic degree"
                )
            f = discriminant_param(self._pencil)
        return _finalize_distance_poly(f)


def variety_distance_poly(e: Quadric, v: LinearVariety, pencil: Pencil | None = None) -> UniPoly:
    """F(z): squared distance to the variety is its minimal positive simple zero.

    ``pencil`` is the ``variety_pairing``'s; without it the pairing is built.
    """
    return (pencil or variety_pairing(e, v)).distance_poly()


def point_distance_poly(e: Quadric, x0: VectorQ, pencil: Pencil | None = None) -> UniPoly:
    """F(z) for the distance from a point to the quadric, as above."""
    if not e.residual_at(x0):
        raise DegeneracyError(
            "point-on-surface", "the point lies on the quadric, so d = 0 and there is no F(z)"
        )
    return (pencil or point_pairing(e, x0)).distance_poly()


def centered_distance_poly(q1: Quadric, q2: Quadric, pencil: Pencil | None = None) -> UniPoly:
    """F(z) for two centered quadrics (trailing z-power factor retained), as above."""
    return (pencil or centered_pairing(q1, q2)).distance_poly()


def general_z_pencil(q1: Quadric, q2: Quadric):
    # z enters general_bipoly_at only as mu1*mu2*z in the corner entry, so
    # the determinant is g0 + z*g1: two builds serve every node and recovery
    g0 = general_bipoly_at(q1, q2, 0)
    return g0, general_bipoly_at(q1, q2, 1) - g0


def _general_raw(q1: Quadric, q2: Quadric, pencil) -> UniPoly:
    n = q1.dim
    g0, g1 = pencil
    bound = 2 * n * (n + 1) + 2 * n * n
    return discriminant_biv_param(integer_pencil(g0, g1), n + 2, bound, var=ZVAR)


def general_distance_poly_full(q1: Quadric, q2: Quadric, pencil):
    """(F(z), extraneous square factor) for two quadrics in general position.

    The two-multiplier discriminant carries, on top of the critical values of
    the squared distance, an extraneous perfect-square factor E(z)^2 of total
    degree dim*(dim-1). It is recognized by exactly that signature in the
    square-free decomposition and divided out; when the signature is absent
    (coincident genuine double zeros) the raw polynomial is returned intact
    and candidate validation downstream copes with it. ``pencil`` is the
    pair's ``general_z_pencil``.
    """
    raw = _finalize_distance_poly(_general_raw(q1, q2, pencil))
    n = q1.dim
    m = trailing_z_power(raw)
    body = UniPoly(raw.coeffs[m:], raw.var) if m else raw
    factors = squarefree_decomposition(body)
    if all(k in (1, 2) for _, k in factors):
        square = UniPoly.const(1, raw.var)
        for fac, k in factors:
            if k == 2:
                square = square * fac
        if square.degree * 2 == n * (n - 1):
            reduced = body / (square * square)
            return _finalize_distance_poly(reduced.shift_up(m)), square.normalized()
    return raw, None


def general_distance_poly(q1: Quadric, q2: Quadric) -> UniPoly:
    """F(z) for two quadrics, built on the route ``solve_general`` takes."""
    return general_pairing(q1, q2).distance_poly()


def trailing_z_power(f: UniPoly) -> int:
    m = 0
    for c in f.coeffs:
        if c:
            break
        m += 1
    return m


# ---------------------------------------------------------------------------
# nearest-point recovery
# ---------------------------------------------------------------------------


def gated_multiple_zero(g, bits: int):
    """(snapped multiple zero, residuals) of g, a pencil at a snapped z.

    g is a UniPoly in one multiplier, whose zero is a rational, or a BiPoly
    in two, whose zero is a pair. The residuals are g and each first partial
    of g at the zero, divided by the sum of |c| max(1, |zero|)^k over g's
    terms c of degree k, where |zero| is the largest coordinate. Raises
    ``multiple-zero-residual`` when one exceeds ``tolerance(bits)``.
    """
    if isinstance(g, BiPoly):
        zero = tuple(snap(m, bits) for m in multiple_zero_biv(bezout_matrix_biv(g), strict=False))
        point, terms = zero, [(i + j, c) for (i, j), c in g.terms()]
        partials = (g, g.derivative(0), g.derivative(1))
    else:
        zero = snap(multiple_zero_near(g), bits)
        point, terms = (zero,), enumerate(g.coeffs)
        partials = (g, g.derivative())
    size = max(QQ(1), *map(abs, point))
    scale = sum((abs(c) * size**k for k, c in terms), QQ(0))
    residuals = tuple(abs(h.eval(*point)) / scale for h in partials)
    if max(residuals) > tolerance(bits):
        raise DegeneracyError(
            "multiple-zero-residual", "recovered pencil zero fails the residual gate"
        )
    return zero, residuals


def variety_nearest_points(e: Quadric, v: LinearVariety, z_hat, bits: int, pencil: BiPoly):
    """Nearest points (X on the quadric, Y on the variety) at the refined z.

    mu is the multiple zero of ``pencil``, the pair's pencil as F(z) left
    it. X and the multipliers nu solve A X + (mu / 2) C nu = -B and
    C^T X + (G / 2) nu = h, and Y = X + C nu / 2. A point x0 is the variety
    C = I, h = x0 with its own ``point_pencil``: then X solves
    (A - mu I) X = -(B + mu x0), nu = 2 (x0 - X) and Y = x0.
    Returns (X, Y, info) where info carries the multiplier data and residuals.
    """
    mu, residuals = gated_multiple_zero(pencil.eval_var(1, snap(z_hat, bits)), bits)
    m = block_matrix([[e.a, v.c.scale(mu / 2)], [v.c.transpose(), v.gram.scale(QQ(1, 2))]])
    try:
        solution = solve_linear(m, VectorQ(list(-e.b) + list(v.h)))
    except SingularMatrixError:
        raise DegeneracyError(
            "singular-multiplier-system", "distance attained at multiple point pairs"
        ) from None
    x, nu = VectorQ(solution[: e.dim]), VectorQ(solution[e.dim :])
    y = x + (v.c * nu).scale(QQ(1, 2))
    return x, y, {"mu": mu, "multipliers": tuple(nu), "pencil_residuals": residuals}


def centered_nearest_points(q1: Quadric, q2: Quadric, z_hat, bits: int, pencil: BiPoly):
    """Nearest points on two centered quadrics from the pencil kernel.

    lam is the multiple zero of ``pencil``, the pair's ``centered_pencil`` as
    F(z) left it, at the refined z. X spans the kernel of
    M = lam A1 + (z - lam) A2 - lam (z - lam) A2 A1 and is read off a nonzero
    column of the adjugate; Y comes from a nonzero row. Both are normalized
    onto their quadrics; the sign pairing is fixed by the distance identity.
    Returns (X, Y, info) like variety_nearest_points.
    """
    n = q1.dim
    z = snap(z_hat, bits)
    lam, residuals = gated_multiple_zero(pencil.eval_var(1, z), bits)
    coef = lam * (z - lam)
    m = q1.a.scale(lam) + q2.a.scale(z - lam) - (q2.a * q1.a).scale(coef)
    adj = adjugate(m)
    best_col, best_col_size = None, QQ(-1)
    best_row, best_row_size = None, QQ(-1)
    for j in range(n):
        size = sum((abs(adj.entry(i, j)) for i in range(n)), QQ(0))
        if size > best_col_size:
            best_col_size, best_col = size, adj.col(j)
        size = sum((abs(adj.entry(j, i)) for i in range(n)), QQ(0))
        if size > best_row_size:
            best_row_size, best_row = size, adj.row(j)
    if not best_col_size or not best_row_size:
        raise DegeneracyError("vanishing-adjugate", "kernel recovery failed")
    x_dir, y_dir = best_col, best_row
    qx = x_dir.dot(q1.a * x_dir)
    qy = y_dir.dot(q2.a * y_dir)
    if qx <= 0 or qy <= 0:
        raise DegeneracyError(
            "complex-nearest-points", "normalization radicand is not positive"
        )
    sx, _ = sqrt_approx(qx, bits)
    sy, _ = sqrt_approx(qy, bits)
    x = x_dir.scale(1 / sx)
    y = y_dir.scale(1 / sy)
    # the two sign choices differ in |X - Y|^2; pick the one matching z
    d_plus = (x - y).norm2()
    d_minus = (x + y).norm2()
    if abs(d_plus - z) > abs(d_minus - z):
        y = -y
    return x, y, {"lam": lam, "pencil_residuals": residuals}


def general_nearest_points(q1: Quadric, q2: Quadric, z_hat, bits: int, pencil):
    """Nearest points for general quadrics via the two recovered multipliers.

    ``pencil`` is the pair's ``general_z_pencil``.
    """
    z_hat = snap(z_hat, bits)
    (mu1, mu2), _ = gated_multiple_zero(pencil[0] + z_hat * pencil[1], bits)
    if not mu1 or not mu2:
        # lam1 = 1 / mu2 and lam2 = 1 / mu1 would be infinite
        raise DegeneracyError("singular-multiplier-system", "a recovered multiplier is zero")
    a1_inv = inverse(q1.a)
    a2_inv = inverse(q2.a)
    m = MatrixQ.identity(q1.dim) - a1_inv.scale(mu2) - a2_inv.scale(mu1)
    if not determinant(m):
        raise DegeneracyError("singular-multiplier-system", "kernel matrix is singular")
    q = -(a1_inv * q1.b) + (a2_inv * q2.b)
    w = solve_linear(m, q)
    x = -(a1_inv * q1.b) + (a1_inv * w).scale(mu2)
    y = -(a2_inv * q2.b) - (a2_inv * w).scale(mu1)
    return x, y, {"lam1": 1 / mu2, "lam2": 1 / mu1, "mu1": mu1, "mu2": mu2}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass
class Pairing:
    """A validated pair of surfaces and the steps that solving it shares.

    ``report`` holds the intersection certificate, ``distance_poly()`` builds
    F(z), and ``recover(z_hat, bits)`` returns nearest points (X, Y, info) at
    a zero of F, which are checked against ``first`` and ``other``. Both
    steps read one pencil, built once per pairing. When the pair has a
    ``centre`` of symmetry, the mirror image of each nearest pair through it
    is a nearest pair too. Identical surfaces and a family (held as
    ``first``) have no ``recover``.
    """

    report: DistanceReport
    distance_poly: Callable[[], UniPoly]
    recover: Callable
    first: Quadric
    other: object
    centre: VectorQ | None = None


def _root_info(r: IsolatingInterval) -> RootInfo:
    """A refined zero as (value, error, multiplicity)."""
    if r.exact:
        return RootInfo(r.lo, QQ(0), r.multiplicity)
    return RootInfo(r.midpoint, r.width / 2, r.multiplicity)


def _distance_fields(report: DistanceReport, z_info: RootInfo, bits: int):
    """Headline the zero z_info: z*, its simplicity and d = sqrt(z*)."""
    report.z_star = z_info
    report.simple = z_info.multiplicity == 1
    d, derr = sqrt_approx(z_info.value, bits)
    report.d = d
    report.d_error = derr


def _geometric_residuals(pairs, e1, other, z_hat):
    out = []
    for x, y in pairs:
        res = {
            "on_first_surface": abs(e1.residual_at(x)),
            "distance_identity": abs((x - y).norm2() - z_hat),
        }
        if isinstance(other, Quadric):
            res["on_second_surface"] = abs(other.residual_at(y))
        else:
            res["on_variety"] = other.residual_at(y)
        out.append(res)
    return out


def _residuals_pass(residuals, bits):
    tol = tolerance(bits)
    return all(v <= tol for r in residuals for v in r.values())


def _solve_pipeline(pairing: Pairing, bits) -> DistanceReport:
    """The steps every pairing shares once its certificate is in the report.

    Intersecting surfaces stop at d = 0. Otherwise ``distance_poly()`` builds
    F(z), its positive zeros are refined, and the squared distance is the
    first of them whose ``recover`` nearest points validate.
    """
    report = pairing.report
    if report.intersecting:
        report.d = QQ(0)
        report.d_error = QQ(0)
        return report
    f = pairing.distance_poly()
    report.fz = f
    report.extraneous_z_power = trailing_z_power(f)
    report.positive_zeros = [
        _root_info(refine_interval(iv, bits)) for iv in isolate_real_roots(f, positive=True)
    ]
    return _finish_with_recovery(pairing, bits)


def variety_pairing(e: Quadric, v: LinearVariety) -> Pairing:
    if e.dim != v.dim:
        raise InputError("quadric and variety dimensions differ")
    check_real_ellipsoid(e)
    inter, cert = variety_intersects(e, v)
    report = DistanceReport(
        kind="variety-quadric",
        intersecting=inter,
        certificate={"bordered_determinant": cert},
    )
    pencil = Pencil(lambda: variety_pencil(e, v))
    return Pairing(
        report,
        lambda: variety_distance_poly(e, v, pencil),
        lambda z_hat, bits: variety_nearest_points(e, v, z_hat, bits, pencil()),
        first=e,
        other=v,
    )


def solve_variety(e: Quadric, v: LinearVariety, bits: int = 128) -> DistanceReport:
    return _solve_pipeline(variety_pairing(e, v), bits)


def point_pairing(e: Quadric, x0: VectorQ) -> Pairing:
    if e.dim != x0.dim:
        raise InputError("point dimension mismatch")
    check_real_ellipsoid(e)
    side = e.residual_at(x0)
    report = DistanceReport(
        kind="point-quadric",
        intersecting=not side,
        certificate={"point_residual": side},
    )
    variety = LinearVariety(MatrixQ.identity(e.dim), x0)
    pencil = Pencil(lambda: point_pencil(e, x0))
    return Pairing(
        report,
        lambda: point_distance_poly(e, x0, pencil),
        lambda z_hat, bits: variety_nearest_points(e, variety, z_hat, bits, pencil()),
        first=e,
        other=variety,
    )


def solve_point(e: Quadric, x0: VectorQ, bits: int = 128) -> DistanceReport:
    return _solve_pipeline(point_pairing(e, x0), bits)


def centered_pairing(q1: Quadric, q2: Quadric) -> Pairing:
    if q1.dim != q2.dim:
        raise InputError("dimension mismatch")
    inter, cls = centered_intersects(q1, q2)
    report = DistanceReport(
        kind="centered-quadric-quadric",
        intersecting=inter,
        certificate={"difference_definiteness": cls},
    )
    pencil = Pencil(lambda: centered_pencil(q1, q2))
    return Pairing(
        report,
        lambda: centered_distance_poly(q1, q2, pencil),
        lambda z_hat, bits: centered_nearest_points(q1, q2, z_hat, bits, pencil()),
        first=q1,
        other=q2,
        centre=VectorQ.zero(q1.dim),
    )


def solve_centered(q1: Quadric, q2: Quadric, bits: int = 128) -> DistanceReport:
    return _solve_pipeline(centered_pairing(q1, q2), bits)


def _is_scalar_matrix(m: MatrixQ):
    a = m.entry(0, 0)
    for i in range(m.rows):
        for j in range(m.cols):
            if m.entry(i, j) != (a if i == j else 0):
                return None
    return a


def _sphere_data(q: Quadric):
    """(center, squared radius) when the quadric is a sphere, else None."""
    alpha = _is_scalar_matrix(q.a)
    if alpha is None or not alpha:
        return None
    center = q.b.scale(QQ(-1) / alpha)
    r2 = (1 + q.b.dot(q.b) / alpha) / alpha
    return center, r2


def sphere_distance_poly(q1: Quadric, q2: Quadric) -> UniPoly:
    """F(z) for two spheres, from the one-dimensional coaxial reduction.

    The pencil determinant of a sphere pair factors identically. The critical
    squared distances are (sqrt(D2) +- r1 +- r2)^2, with D2 the squared
    distance of the centres; their product polynomial has rational
    coefficients by symmetry.
    """
    (c1, r1sq) = _sphere_data(q1)
    (c2, r2sq) = _sphere_data(q2)
    d2 = (c1 - c2).norm2()
    e1 = 2 * (r1sq + r2sq)
    e0 = (r1sq - r2sq) ** 2
    z = UniPoly.x(ZVAR)
    u = (z - d2) ** 2
    v = z + d2
    f = u * u + u * (e1 * e1 - 2 * e0 - 2 * e1 * v) + (
        e0 * e0 - 2 * e0 * e1 * v + 4 * e0 * v * v
    )
    return _finalize_distance_poly(f)


def _sphere_pairing(q1: Quadric, q2: Quadric) -> Pairing:
    """Two spheres, solved by the coaxial reduction of ``sphere_distance_poly``.

    ``general_pairing`` has checked both surfaces, so both radii are real.
    """
    (c1, r1sq) = _sphere_data(q1)
    (c2, r2sq) = _sphere_data(q2)
    delta = c1 - c2
    d2 = delta.norm2()
    t = d2 - r1sq - r2sq
    cert = t * t - 4 * r1sq * r2sq
    report = DistanceReport(
        kind="quadric-quadric",
        intersecting=cert <= 0,
        certificate={"sphere_gap": cert},
    )
    report.warnings.append("sphere pair solved by the coaxial reduction")

    def recover(z_hat, bits):
        if not d2:
            raise DegeneracyError(
                "singular-multiplier-system", "concentric spheres: no unique pair"
            )
        inv_norm, _ = sqrt_approx(1 / d2, bits + 16)
        r1a, _ = sqrt_approx(r1sq, bits + 16)
        r2a, _ = sqrt_approx(r2sq, bits + 16)
        unit = delta.scale(inv_norm)
        best = None
        for s1 in (1, -1):
            for s2 in (1, -1):
                x = c1 + unit.scale(s1 * r1a)
                y = c2 + unit.scale(s2 * r2a)
                gap = abs((x - y).norm2() - z_hat)
                if best is None or gap < best[0]:
                    best = (gap, x, y)
        return best[1], best[2], {"direction": tuple(unit)}

    return Pairing(report, lambda: sphere_distance_poly(q1, q2), recover, q1, q2)


def _common_centre_pairing(q1: Quadric, q2: Quadric):
    """The centred pairing of two quadrics moved to their common centre.

    Quadrics with nonsingular A share the centre -A^-1 B when A1^-1 B1 =
    A2^-1 B2. Moved there, each is X^T A X - (1 + B^T A^-1 B) = 0. The
    nearest points move back, and are checked against the quadrics as given.
    None when the centres differ, or when the second surface is a cone
    through its centre (constant 0), which has no normalized translate. The
    first surface is a nonempty ellipsoid, so A1 is nonsingular and its
    constant is nonzero.
    """
    if not determinant(q2.a):
        return None
    shift = solve_linear(q1.a, q1.b)
    if shift != solve_linear(q2.a, q2.b):
        return None
    zero = VectorQ.zero(q1.dim)
    k1, k2 = 1 + q1.b.dot(shift), 1 + q2.b.dot(shift)
    if not k2:
        return None
    inner = centered_pairing(normalize(q1.a, zero, -k1), normalize(q2.a, zero, -k2))
    inner.report.kind = "quadric-quadric"
    inner.report.warnings.append("common-centre pair solved as a centred pair")
    centre = -shift

    def recover(z_hat, bits):
        x, y, info = inner.recover(z_hat, bits)
        return x + centre, y + centre, info

    return Pairing(inner.report, inner.distance_poly, recover, q1, q2, centre)


def _identical_distance_poly():
    raise DegeneracyError(
        "identical-surfaces", "identical surfaces meet everywhere and have no distance polynomial"
    )


def general_pairing(q1: Quadric, q2: Quadric) -> Pairing:
    """Validate two quadrics and certify them by the route that solves them.

    Identical surfaces intersect; sphere pairs take the coaxial reduction and
    pairs with a common centre the centred one. Every other pair takes the
    sign pencil and the bivariate discriminant.
    """
    if q1.dim != q2.dim:
        raise InputError("dimension mismatch")
    check_real_ellipsoid(q1)
    _check_nonempty(q2, definiteness(q2.a), "second surface")
    if q1 == q2:
        report = DistanceReport(
            kind="quadric-quadric", intersecting=True, certificate={"identical": True}
        )
        return Pairing(report, _identical_distance_poly, None, q1, q2)
    if _sphere_data(q1) is not None and _sphere_data(q2) is not None:
        return _sphere_pairing(q1, q2)
    centred = _common_centre_pairing(q1, q2)
    if centred is not None:
        return centred
    inter, summary, phi = general_intersects(q1, q2)
    report = DistanceReport(
        kind="quadric-quadric",
        intersecting=inter,
        certificate={"root_sign_summary": summary, "phi": phi},
    )
    if summary == NO_REAL_ROOTS:
        report.warnings.append(
            "sign pencil has no real zeros; classified as non-intersecting"
        )

    pencil = functools.cache(lambda: general_z_pencil(q1, q2))  # F builds, recovery reads

    def distance_poly():
        f, square = general_distance_poly_full(q1, q2, pencil())
        if square is not None and square.degree > 0:
            report.warnings.append(
                "extraneous square factor removed from the distance polynomial"
            )
            report.extraneous_square = square
        return f

    return Pairing(
        report,
        distance_poly,
        lambda z_hat, bits: general_nearest_points(q1, q2, z_hat, bits, pencil()),
        first=q1,
        other=q2,
    )


def solve_general(q1: Quadric, q2: Quadric, bits: int = 128) -> DistanceReport:
    return _solve_pipeline(general_pairing(q1, q2), bits)


def _finish_with_recovery(pairing: Pairing, bits, zeros=None):
    """Select the squared distance among the positive zeros, ascending.

    Each candidate must support nearest-point recovery with real points whose
    surface and distance residuals pass the refinement tolerance. Simple
    zeros that fail (extraneous-factor roots, or complex critical pairs) are
    skipped with a note; a multiple minimal zero is never skipped silently:
    it stays the headline value with the first validated zero alongside.
    ``zeros``, the report's positive zeros by default, may be lazy: it is
    read only up to the zero that validates.
    """
    report = pairing.report
    chosen = z0 = None
    skipped = []
    for cand in report.positive_zeros if zeros is None else zeros:
        z0 = z0 or cand
        try:
            x, y, info = pairing.recover(cand.value, bits)
            pairs = [(x, y)]
            if pairing.centre is not None:
                twice = pairing.centre.scale(2)
                pairs.append((twice - x, twice - y))
            residuals = _geometric_residuals(
                pairs, pairing.first, pairing.other, cand.value
            )
            if not _residuals_pass(residuals, bits):
                raise DegeneracyError(
                    "recovery-residuals", "nearest-point residuals exceed tolerance"
                )
        except DegeneracyError as exc:
            skipped.append((cand, exc.code))
            continue
        chosen = cand
        break
    if z0 is None:
        raise NoPositiveRootError()
    failures = [
        f"recovery at zero ~{float(cand.value):.9g} failed: {code}"
        for cand, code in skipped
    ]
    if chosen is None:
        # nothing validated: report the minimal positive zero without points
        headline = z0
        report.warnings.extend(failures)
        report.warnings.append("no positive zero supported nearest-point recovery")
    elif chosen is not z0 and z0.multiplicity > 1:
        # ambiguous multiple minimum: keep it as the headline, never
        # silently substitute; the validated candidate rides alongside
        headline = z0
        report.alternate_z = chosen
        report.warnings.append(
            "minimal positive zero is multiple and its recovery failed; "
            f"first validated zero ~{float(chosen.value):.9g} reported alongside"
        )
        report.warnings.extend(failures)
    else:
        # simple zeros below the accepted one are extraneous-factor roots
        headline = chosen
        report.nearest_pairs = [
            NearestPair(tuple(x), tuple(y), res) for (x, y), res in zip(pairs, residuals)
        ]
        report.multipliers = info or {}
        for cand, code in skipped:
            report.warnings.append(
                f"skipped positive zero ~{float(cand.value):.9g} "
                f"(failed validation: {code})"
            )
        if chosen.multiplicity > 1 and chosen is z0:
            report.warnings.append(
                "minimal positive zero is multiple; the distance certificate does not apply"
            )
    _distance_fields(report, headline, bits)
    return report
