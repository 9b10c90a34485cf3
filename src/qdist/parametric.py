"""Distance from a point to a one-parameter polynomial family of ellipsoids.

The distance surface F(z, t) collects, for every family member, the
point-to-member distance polynomial. Its discriminant in t (the iterated
discriminant) together with the interval-endpoint specializations yields the
candidate squared distances; candidates are validated by stationarity
residuals, and the nearest point comes from the winning member's own F,
which is F(z, t) at the member's t up to a constant factor.
Candidate zeros are compared by their brackets, refined only as far as that
needs, and to the full precision only when their value is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .discrim import discriminant_param
from .errors import DegeneracyError, InputError, NoPositiveRootError
from .linalg import MatrixQ, VectorQ, det_bipoly_matrix
from .metrics import (
    MU,
    ZVAR,
    DistanceReport,
    Pairing,
    Pencil,
    RootInfo,
    _distance_fields,
    _finish_with_recovery,
    _root_info,
    bordered_point_rows,
    gated_multiple_zero,
    normalize,
    point_pairing,
    trailing_z_power,
)
from .poly import BiPoly, UniPoly, _ieval, interpolate_verified, poly_gcd
from .realroots import (
    IsolatingInterval,
    count_roots,
    isolate_real_roots,
    positive_roots,
    refine,
    refine_interval,
)
from .scalar import QQ, int_clear, rational, snap, tolerance

TVAR = "t"


class QuadricFamily:
    """Family X^T A(t) X + 2 B(t)^T X + c(t) = 0 with polynomial coefficients.

    The constant term defaults to -1; a polynomial constant admits families
    whose normalized form would not depend polynomially on the parameter.
    The caller asserts that members are ellipsoids on the interval; the
    constructor checks only the shapes and the symmetry of A(t), not this.
    """

    __slots__ = ("a", "b", "c", "dim", "interval")

    def __init__(self, a, b, c=None, interval=None):
        rows = [[_as_tpoly(e) for e in row] for row in a]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("family matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("family matrix must be symmetric")
        vec = [_as_tpoly(e) for e in b]
        if len(vec) != n:
            raise ValueError("dimension mismatch")
        if c is None:
            c = UniPoly.const(QQ(-1), TVAR)
        else:
            c = _as_tpoly(c)
        if interval is not None:
            lo, hi = rational(interval[0]), rational(interval[1])
            if hi < lo:
                lo, hi = hi, lo
            interval = (lo, hi)
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "b", vec)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "interval", interval)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("QuadricFamily is immutable")

    def coefficients(self, t):
        """(A(t), B(t), c(t)) at a rational parameter value."""
        t = rational(t)
        a = MatrixQ([[e.eval(t) for e in row] for row in self.a])
        return a, VectorQ([e.eval(t) for e in self.b]), self.c.eval(t)

    def member(self, t):
        """The family member at a rational parameter value, normalized."""
        return normalize(*self.coefficients(t))


def _as_tpoly(e):
    if isinstance(e, UniPoly):
        return UniPoly(e.coeffs, TVAR)
    if isinstance(e, (list, tuple)):
        return UniPoly(e, TVAR)
    return UniPoly.const(e, TVAR)


def _family_pencil(fam: QuadricFamily, x0: VectorQ):
    """The point pencil of every member at once, as integer polynomials in t.

    With A(t), B(t) and c(t) in the entries of ``bordered_point_rows``, the
    pencil is det(rows) + z * mu * det(rows without the last row and
    column), both polynomials in (mu, t). Returns (content, [(p0, p1)]):
    the pencil's mu^j coefficient at t is content * (p0(t) + z * p1(t)),
    with p0 and p1 ascending integer vectors.
    """
    vars = (MU, TVAR)

    def lift(p: UniPoly) -> BiPoly:
        return BiPoly([list(p.coeffs)], vars)

    mu = BiPoly.variable(0, vars)
    rows = bordered_point_rows(
        [[lift(e) for e in row] for row in fam.a], [lift(e) for e in fam.b], lift(fam.c), x0, mu
    )
    d0 = det_bipoly_matrix(rows, vars)
    slope = det_bipoly_matrix([row[:-1] for row in rows[:-1]], vars) * mu
    # coeffs[j] of a BiPoly in (mu, t) is the t-vector of its mu^j coefficient
    pairs = [
        [list(p.coeffs[j]) if j < len(p.coeffs) else [] for p in (d0, slope)]
        for j in range(max(d0.deg1, slope.deg1) + 1)
    ]
    content, flat = int_clear([x for pair in pairs for p in pair for x in p])
    ints = iter(flat)
    return content, [[[next(ints) for _ in p] for p in pair] for pair in pairs]


def family_distance_surface(fam: QuadricFamily, x0: VectorQ) -> BiPoly:
    """F(z, t): for each t the member's distance polynomial in z.

    Built by exact interpolation over parameter nodes with verification
    nodes; nodes where the pencil degenerates are skipped. The point pencil
    is built once over Q[mu, t]; a node evaluates its coefficients.
    """
    n = fam.dim
    row_degrees = []
    for i in range(n):
        row_degrees.append(
            max([fam.a[i][j].degree for j in range(n)] + [fam.b[i].degree, 0])
        )
    row_degrees.append(max([e.degree for e in fam.b] + [fam.c.degree, 0]))
    d_phi = sum(row_degrees)
    bound = (2 * (n + 1) - 1) * max(d_phi, 1)

    content, pencil_t = _family_pencil(fam, x0)

    def coefficients(t):
        # z-coefficients of the member's distance polynomial, from the
        # unnormalized data of its point pencil
        pencil = BiPoly(
            [(content * _ieval(p0, t), content * _ieval(p1, t)) for p0, p1 in pencil_t],
            (MU, ZVAR),
        )
        if pencil.deg1 != n + 1:
            return None
        try:
            return discriminant_param(pencil).coeffs
        except DegeneracyError:
            return None

    cols = interpolate_verified(coefficients, bound, TVAR)
    terms = {}
    for j, p in enumerate(cols):
        for i, coeff in enumerate(p.coeffs):
            if coeff:
                terms[(j, i)] = coeff
    return BiPoly.from_terms(terms, (ZVAR, TVAR))


def _z_power(surface: BiPoly) -> int:
    """The largest s with z^s dividing F(z, t)."""
    return next(i for i, row in enumerate(surface.coeffs) if any(row))


def _t_pencil(surface: BiPoly) -> Pencil:
    """G(z, t) as a pencil in t, main variable t first: F(z, t) = z^s c(t) G(z, t).

    c(t), the largest factor in t alone, vanishes where a member's F does,
    as a circle member's does where its centre is x0, at a real or complex
    t. It holds no distance; left in, it would add to the iterated
    discriminant a multiple zero at the circle's squared radius.
    """

    def build():
        rows = [UniPoly(row, TVAR) for row in surface.coeffs[_z_power(surface) :]]
        content = functools.reduce(poly_gcd, rows)
        g = [(row / content).coeffs for row in rows]
        return BiPoly.from_terms(
            {(j, i): c for i, row in enumerate(g) for j, c in enumerate(row) if c}, (TVAR, ZVAR)
        )

    return Pencil(build)


def family_distance_poly(
    fam: QuadricFamily, x0: VectorQ, surface: BiPoly | None = None, pencil: Pencil | None = None
):
    """(iterated discriminant, endpoint polynomial at a, endpoint at b).

    The iterated discriminant is None when F(z, t) is at most linear in t
    (endpoint/ member evaluation is then the only branch). Unbounded
    intervals yield None endpoints. A caller that already holds the distance
    surface F(z, t) passes it in to skip rebuilding it, and one that reads
    the surface's t-pencil afterwards passes that: like every pairing's
    pencil, it is deflated when its discriminant vanishes identically.
    """
    if surface is None:
        surface = family_distance_surface(fam, x0)
    if not surface:
        raise DegeneracyError(
            "identically-zero-discriminant",
            "the distance surface vanishes: every member's pencil has a repeated factor",
        )
    if fam.interval is not None:
        fa = surface.eval_var(1, fam.interval[0]).normalized()
        fb = surface.eval_var(1, fam.interval[1]).normalized()
    elif surface.deg2 < 1:
        # constant family: the single member carries the answer
        fa, fb = surface.eval_var(1, QQ(0)).normalized(), None
    else:
        fa = fb = None
    pencil = pencil or _t_pencil(surface)
    if pencil().deg1 < 2:
        return None, fa, fb
    big_f = pencil.distance_poly()
    # at each z the discriminant in t (a resultant with the derivative) of
    # z^s G is z^(s (2 deg_t - 1)) times that of G, for G of degree deg_t
    return big_f.shift_up(_z_power(surface) * (2 * pencil().deg1 - 1)).normalized(), fa, fb


class _Zero:
    """A zero held by its bracket and refined only as far as it is read.

    Refining on from the current bracket follows the bisection path that
    refining the isolating interval would, so it reaches the same brackets.
    ``near``, an open interval that likely holds the zero, is handed to
    every refinement, which skips the sign tests outside it once it is
    confirmed and reaches the same brackets either way.
    """

    def __init__(self, iv: IsolatingInterval, near=None):
        self.origin = self.iv = iv
        self.near = near
        self.bits = -1

    def at(self, bits: int) -> IsolatingInterval:
        if self.bits < bits:
            self.iv, self.bits = refine_interval(self.iv, bits, self.near), bits
        return self.iv

    def value(self, bits: int):
        iv = self.at(bits)
        return iv.lo if iv.exact else iv.midpoint


def _below(x: _Zero, y: _Zero, bits: int) -> bool:
    """x.value(bits) < y.value(bits), refining both only until they separate."""
    for width in (-1, bits // 4, bits):
        a, b = x.at(width), y.at(width)
        if a.exact and b.exact:
            break
        if a.hi <= b.lo:
            return True
        if b.hi <= a.lo:
            return False
    return x.value(bits) < y.value(bits)


class _Member:
    """A family member's F, up to a constant factor, and its positive zeros.

    The first zero is isolated at once and held as a _Zero, refined inside
    ``near`` where that holds it; the others are isolated only when
    recovery reaches them.
    """

    def __init__(self, poly: UniPoly, near=None):
        self.poly = poly
        self._later = positive_roots(poly)
        first = next(self._later, None)
        self.first = None if first is None else _Zero(first, near)

    def zeros(self, bits: int):
        """RootInfo of the positive zeros, ascending, each refined when read."""
        if self.first is not None:
            yield _root_info(self.first.at(bits))
        for iv in self._later:
            yield _root_info(refine_interval(iv, bits))


@dataclass
class _Candidate:
    zero: _Zero  # gives z at the full precision
    source: str  # "interior-stationary", "endpoint-a", "endpoint-b"
    multiplicity: int
    t: object
    member: _Member


def _point_residual(fam: QuadricFamily, x0: VectorQ) -> UniPoly:
    """r(t) = x0^T A(t) x0 + 2 B(t)^T x0 + c(t): zero where a member holds x0."""
    n = fam.dim
    r = fam.c
    for i in range(n):
        r = r + fam.b[i] * (2 * x0[i])
        for j in range(n):
            r = r + fam.a[i][j] * (x0[i] * x0[j])
    return r


def _holds_point(r: UniPoly, interval) -> bool:
    """Whether r vanishes in the closed interval (anywhere if it is None)."""
    if not r:
        return True
    if interval is None:
        return bool(isolate_real_roots(r))
    lo, hi = interval
    return not r.eval(lo) or not r.eval(hi) or count_roots(r, lo, hi) > 0


def _first_crossing(r: UniPoly, interval, bits: int):
    """Smallest zero of r in the closed interval (the real line if None).

    Exact when the zero is recognized as rational, else refined to 2^-bits;
    the interval's start (or 0) when r vanishes identically. The interval
    must hold a zero of r.
    """
    if not r:
        return interval[0] if interval else QQ(0)
    for iv in isolate_real_roots(r):
        if interval is None:
            return refine(iv, bits)
        lo, hi = interval
        # shrink the bracket until it lies on one side of each end point
        width = bits
        while not iv.exact and (iv.lo < lo < iv.hi or iv.lo < hi < iv.hi):
            iv = refine_interval(iv, width)
            width += 64
        if lo <= iv.lo and iv.hi <= hi:
            return refine(iv, bits)


def family_pairing(fam: QuadricFamily, x0: VectorQ) -> Pairing:
    """The family's certificate step: does a member in the interval hold x0?

    The certificate is r(t), the point's residual in the members' equation.
    ``distance_poly()`` is the iterated discriminant that ``family_solve``
    reports as F. There is no ``recover``: ``family_solve`` recovers on the
    winning member.
    """
    if x0.dim != fam.dim:
        raise InputError("point dimension mismatch")
    r = _point_residual(fam, x0)
    report = DistanceReport(
        kind="family-point",
        intersecting=_holds_point(r, fam.interval),
        certificate={"point_residual": r},
    )

    def distance_poly():
        big_f = family_distance_poly(fam, x0)[0]
        if big_f is None:
            raise DegeneracyError(
                "no-iterated-discriminant",
                "the distance surface is at most linear in the parameter, so the "
                "endpoint members carry the answer and there is no iterated F(z)",
            )
        return big_f

    return Pairing(report, distance_poly, None, fam, x0)


def family_solve(fam: QuadricFamily, x0: VectorQ, bits: int = 128) -> DistanceReport:
    """Distance from the point to the nearest family member over the interval.

    When a member in the interval passes through the point the distance is
    0, and t_star is the smallest such parameter.
    """
    report = family_pairing(fam, x0).report
    if report.intersecting:
        report.d = report.d_error = QQ(0)
        report.t_star = _first_crossing(report.certificate["point_residual"], fam.interval, bits)
        return report
    surface = family_distance_surface(fam, x0)
    pencil = _t_pencil(surface)  # F builds it, interior validation reads it
    big_f, fa, fb = family_distance_poly(fam, x0, surface, pencil)
    report.fz = big_f
    report.extraneous_z_power = trailing_z_power(big_f) if big_f is not None else 0
    if big_f is None:
        report.warnings.append(
            "distance surface does not depend on the parameter; "
            "endpoint members carry the answer"
        )

    # only the minimal positive zero of an endpoint matters; without an
    # interval the only endpoint polynomial is a constant family's member at 0
    lo, hi = fam.interval or (QQ(0), QQ(0))
    endpoints = []
    for poly, label, t_end in ((fa, "endpoint-a", lo), (fb, "endpoint-b", hi)):
        member = _Member(poly) if poly else None
        if member is not None and member.first is not None:
            end = member.first
            endpoints.append(_Candidate(end, label, end.origin.multiplicity, t_end, member))
    if len(endpoints) == 2 and _below(endpoints[1].zero, endpoints[0].zero, bits):
        endpoints.reverse()  # endpoint a first on a tie
    interior = positive_roots(big_f) if big_f is not None else ()
    # interior zeros are isolated ascending, each only when it is next to be
    # tried, and yield to an endpoint zero strictly below them
    best = zero = None
    for iv in interior:
        if iv.multiplicity != 1:
            continue
        zero = _Zero(iv)
        if endpoints and _below(endpoints[0].zero, zero, bits):
            break
        best = _validate_interior(fam, surface, pencil(), zero, bits)
        if best is not None:
            break
        report.warnings.append(
            f"interior zero ~{float(zero.value(bits)):.9g} failed stationarity validation"
        )
    if best is None and endpoints:
        best = endpoints[0]
    if best is None:
        raise NoPositiveRootError(
            "no candidate zero passed validation" if zero else
            "no positive candidate zero: point appears enclosed by every member"
        )
    z_info = RootInfo(best.zero.value(bits), QQ(1, 1 << bits), best.multiplicity)
    _distance_fields(report, z_info, bits)
    report.t_star = best.t
    report.branch = best.source
    # nearest point on the winning member, as solve_point would find it
    try:
        pairing, shift = _member_pairing(fam, best.t, x0)
        if not pairing.report.intersecting:
            sub = _finish_with_recovery(pairing, bits, best.member.zeros(bits))
            if sub.nearest_pairs:
                report.nearest_pairs = sub.nearest_pairs
                report.multipliers = sub.multipliers
            if shift is not None:
                for pair in sub.nearest_pairs:
                    pair.x, pair.y = (tuple(shift + VectorQ(v)) for v in (pair.x, pair.y))
    except (DegeneracyError, ValueError) as exc:
        report.warnings.append(f"nearest point on winning member unavailable: {exc}")
    return report


def _member_pairing(fam: QuadricFamily, t, x0: VectorQ):
    """``point_pairing`` of x0 and the member at t, and the shift back, if any.

    A member through the origin, c(t) = 0, has no normalized form. It is
    then taken in coordinates centred at x0, as A(t), B(t) + A(t) x0 with
    constant r(t), nonzero since no member in range holds x0, against the
    origin; its nearest points move back by x0, as ``_common_centre_pairing``
    moves a pair's.
    """
    a, b, c = fam.coefficients(t)
    if c:
        return point_pairing(normalize(a, b, c), x0), None
    centred = normalize(a, b + a * x0, x0.dot(a * x0) + 2 * b.dot(x0))
    return point_pairing(centred, VectorQ.zero(fam.dim)), x0


def _validate_interior(fam, surface, pencil: BiPoly, zero: _Zero, bits):
    """Check an interior candidate: recover t, test stationarity and attainment.

    t is the multiple zero of the surface's t-pencil at the candidate z, and
    stationarity is its ``gated_multiple_zero`` gate. Works with snapped
    (small-denominator) stand-ins for the refined values; the induced
    residual error stays orders of magnitude below the gate. The member
    distance is stationary in t at the true t, so the member's first zero
    differs from z by O((t_hat - t)^2) and is refined inside z's bracket.
    """
    z_hat = zero.value(bits)
    f_at_z = pencil.eval_var(1, snap(z_hat, bits))  # polynomial in t
    if f_at_z.degree < 2:
        return None
    try:
        t_hat, _ = gated_multiple_zero(f_at_z, bits)
    except DegeneracyError:
        return None
    tol = tolerance(bits)
    if fam.interval is not None:
        lo, hi = fam.interval
        if t_hat < lo - tol or t_hat > hi + tol:
            return None
    # attainment: the candidate must be the member's own minimal distance
    member_poly = surface.eval_var(1, t_hat)
    if not member_poly:
        return None
    bracket = zero.at(bits)
    try:
        member = _Member(member_poly, (bracket.lo, bracket.hi))
    except (ValueError, AssertionError):
        return None
    first = member.first
    if first is not None and first.value(bits // 2) < z_hat - tolerance(bits // 2):
        return None  # a smaller positive zero: z_hat is a far branch
    return _Candidate(zero, "interior-stationary", 1, t_hat, member)
