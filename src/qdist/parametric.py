"""Distance from a point to a one-parameter polynomial family of ellipsoids.

The distance surface F(z, t) collects, for every family member, the
point-to-member distance polynomial. Its discriminant in t (the iterated
discriminant) together with the interval-endpoint specializations yields the
candidate squared distances; candidates are validated by stationarity
residuals, and the nearest point comes from the winning member's own F.
Candidate zeros are compared by their brackets, refined only as far as that
needs, and to the full precision only when their value is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discrim import bezout_matrix, discriminant_param, multiple_zero_uni
from .errors import DegeneracyError, InputError, NoPositiveRootError
from .linalg import MatrixQ, VectorQ
from .metrics import (
    ZVAR,
    DistanceReport,
    RootInfo,
    _distance_fields,
    _finish_with_recovery,
    _root_info,
    _scaled_pencil_residuals,
    bordered_point_pencil,
    normalize,
    point_pairing,
)
from .poly import BiPoly, UniPoly, interpolate_verified
from .realroots import (
    IsolatingInterval,
    count_roots,
    holds_root,
    isolate_real_roots,
    positive_roots,
    refine,
    refine_interval,
)
from .scalar import QQ, rational, snap, tolerance

TVAR = "t"


class QuadricFamily:
    """Family X^T A(t) X + 2 B(t)^T X + c(t) = 0 with polynomial coefficients.

    The constant term defaults to -1; a polynomial constant admits families
    whose normalized form would not depend polynomially on the parameter.
    The caller asserts that members are ellipsoids on the interval; this is
    spot-checked at sample parameter values on construction.
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

    @property
    def param_degree(self) -> int:
        return max(
            [e.degree for row in self.a for e in row]
            + [e.degree for e in self.b]
            + [self.c.degree]
        )

    def member(self, t):
        """The family member at a rational parameter value, normalized."""
        t = rational(t)
        a = MatrixQ([[e.eval(t) for e in row] for row in self.a])
        b = VectorQ([e.eval(t) for e in self.b])
        c = self.c.eval(t)
        return normalize(a, b, c)


def _as_tpoly(e):
    if isinstance(e, UniPoly):
        return UniPoly(e.coeffs, TVAR)
    if isinstance(e, (list, tuple)):
        return UniPoly(e, TVAR)
    return UniPoly.const(e, TVAR)


def family_distance_surface(fam: QuadricFamily, x0: VectorQ) -> BiPoly:
    """F(z, t): for each t the member's distance polynomial in z.

    Built by exact interpolation over parameter nodes with verification
    nodes; nodes where the pencil degenerates are skipped.
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

    def coefficients(t):
        # z-coefficients of the member's distance polynomial, from the
        # unnormalized data of its point pencil
        pencil = bordered_point_pencil(
            [[e.eval(t) for e in row] for row in fam.a],
            [e.eval(t) for e in fam.b],
            fam.c.eval(t),
            x0,
        )
        if pencil.degree != n + 1:
            return None
        try:
            return discriminant_param(pencil, degree_bound=2 * (n + 1)).coeffs
        except DegeneracyError:
            return None

    cols = interpolate_verified(coefficients, bound, TVAR)
    terms = {}
    for j, p in enumerate(cols):
        for i, coeff in enumerate(p.coeffs):
            if coeff:
                terms[(j, i)] = coeff
    return BiPoly.from_terms(terms, (ZVAR, TVAR))


def family_distance_poly(
    fam: QuadricFamily, x0: VectorQ, surface: BiPoly | None = None
):
    """(iterated discriminant, endpoint polynomial at a, endpoint at b).

    The iterated discriminant is None when F(z, t) does not genuinely depend
    on t (endpoint/ member evaluation is then the only branch). Unbounded
    intervals yield None endpoints. A caller that already holds the distance
    surface F(z, t) passes it in to skip rebuilding it.
    """
    if surface is None:
        surface = family_distance_surface(fam, x0)
    if fam.interval is not None:
        fa = surface.eval_var(1, fam.interval[0]).normalized()
        fb = surface.eval_var(1, fam.interval[1]).normalized()
    else:
        fa = fb = None
    deg_t = surface.deg2
    if deg_t < 2:
        if fam.interval is None and deg_t < 1:
            # constant family: the single member carries the answer
            fa = surface.eval_var(1, QQ(0)).normalized()
        return None, fa, fb
    pp = surface.as_parampoly(1)  # main variable t, parameter z
    deg_z = surface.deg1
    bound = (2 * deg_t - 1) * max(deg_z, 1)
    big_f = discriminant_param(pp, degree_bound=bound)
    if not big_f:
        return None, fa, fb
    return big_f.normalized(), fa, fb


class _Zero:
    """A zero held by its bracket and refined only as far as it is read.

    Refining on from the current bracket follows the bisection path that
    refining the isolating interval would, so it reaches the same brackets.
    """

    def __init__(self, iv: IsolatingInterval):
        self.origin = self.iv = iv
        self.bits = -1

    def at(self, bits: int) -> IsolatingInterval:
        if self.bits < bits:
            self.iv, self.bits = refine_interval(self.iv, bits), bits
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


@dataclass
class _Candidate:
    zero: _Zero  # gives z at the full precision
    source: str  # "interior", "endpoint-a", "endpoint-b"
    multiplicity: int
    t: object = None
    member: _Zero | None = None  # first zero of the member's F, if refined


def _point_residual(fam: QuadricFamily, x0: VectorQ) -> UniPoly:
    """r(t) = x0^T A(t) x0 + 2 B(t)^T x0 + c(t): zero where a member holds x0."""
    n = fam.dim
    r = fam.c
    for i in range(n):
        r = r + fam.b[i] * (2 * x0[i])
        for j in range(n):
            r = r + fam.a[i][j] * (x0[i] * x0[j])
    return r


def _first_crossing(r: UniPoly, interval, bits: int):
    """Smallest zero of r in the closed interval (the real line if None).

    Exact when the zero is recognized as rational, else refined to 2^-bits;
    None when r has no zero there. r must not vanish identically.
    """
    if interval is None:
        roots = isolate_real_roots(r)
        return refine(roots[0], bits) if roots else None
    lo, hi = interval
    # the common case, no crossing, needs no isolation of r
    if r.eval(lo) and r.eval(hi) and not count_roots(r, lo, hi):
        return None
    for iv in isolate_real_roots(r):
        # shrink the bracket until it lies on one side of each end point
        width = bits
        while not iv.exact and (iv.lo < lo < iv.hi or iv.lo < hi < iv.hi):
            iv = refine_interval(iv, width)
            width += 64
        if lo <= iv.lo and iv.hi <= hi:
            return refine(iv, bits)
    return None


def family_solve(fam: QuadricFamily, x0: VectorQ, bits: int = 128) -> DistanceReport:
    """Distance from the point to the nearest family member over the interval.

    When a member in the interval passes through the point the distance is
    0, and t_star is the smallest such parameter.
    """
    if x0.dim != fam.dim:
        raise InputError("point dimension mismatch")
    r = _point_residual(fam, x0)
    if r:
        t_cross = _first_crossing(r, fam.interval, bits)
    else:
        t_cross = fam.interval[0] if fam.interval else QQ(0)
    if t_cross is not None:
        return DistanceReport(
            kind="family-point",
            intersecting=True,
            certificate={"point_residual": r},
            d=QQ(0),
            d_error=QQ(0),
            t_star=t_cross,
        )
    surface = family_distance_surface(fam, x0)
    big_f, fa, fb = family_distance_poly(fam, x0, surface)
    report = DistanceReport(
        kind="family-point",
        intersecting=False,
        certificate={},
        fz=big_f,
    )
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
        iv = next(positive_roots(poly), None) if poly else None
        if iv is not None:
            end = _Zero(iv)  # also the first zero of the member's own F
            endpoints.append(_Candidate(end, label, iv.multiplicity, t_end, end))
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
        best = _validate_interior(fam, x0, surface, zero, bits)
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
    if best.source == "interior":
        report.certificate["branch"] = "interior-stationary"
    else:
        report.certificate["branch"] = best.source
    # nearest point on the winning member, as solve_point would find it
    try:
        pairing = point_pairing(fam.member(best.t), x0)
        if not pairing.report.intersecting:
            zeros = _member_zeros(pairing.distance_poly(), best.member, bits)
            sub = _finish_with_recovery(pairing, bits, zeros)
            if sub.nearest_pairs:
                report.nearest_pairs = sub.nearest_pairs
                report.multipliers = sub.multipliers
    except (DegeneracyError, ValueError) as exc:
        report.warnings.append(f"nearest point on winning member unavailable: {exc}")
    return report


def _member_zeros(f: UniPoly, known: _Zero | None, bits):
    """RootInfo of f's positive zeros, ascending, each refined when it is read.

    A zero isolated by ``known.origin`` whose factor has its root in
    ``known``'s bracket too refines on from that bracket, which is on its path.
    """
    for iv in positive_roots(f):
        if known is not None and iv == known.origin:
            a, b = known.iv.lo, known.iv.hi
            if holds_root(iv.poly, a, b):
                iv = IsolatingInterval(a, b, iv.multiplicity, iv.poly)
        yield _root_info(refine_interval(iv, bits))


def _validate_interior(fam, x0, surface, zero: _Zero, bits):
    """Check an interior candidate: recover t, test stationarity and attainment.

    Works with snapped (small-denominator) stand-ins for the refined values;
    the induced residual error stays orders of magnitude below the gate.
    """
    z_hat = zero.value(bits)
    tol = tolerance(bits)
    z_snap = snap(z_hat, bits)
    f_at_z = surface.eval_var(0, z_snap)  # polynomial in t
    if f_at_z.degree < 2:
        return None
    try:
        data = bezout_matrix(f_at_z)
        t_hat = multiple_zero_uni(data, strict=False)
    except DegeneracyError:
        return None
    t_hat = snap(t_hat, bits)
    # stationarity residuals, scaled by the coefficient size (and |t| for r1)
    r0, r1 = _scaled_pencil_residuals(f_at_z, t_hat)
    if r0 > tol or r1 > tol * max(QQ(1), abs(t_hat)):
        return None
    if fam.interval is not None:
        lo, hi = fam.interval
        if t_hat < lo - tol or t_hat > hi + tol:
            return None
    # attainment: the candidate must be the member's own minimal distance
    member_poly = surface.eval_var(1, t_hat)
    if not member_poly:
        return None
    try:
        first = next(positive_roots(member_poly), None)
    except (ValueError, AssertionError):
        return None
    member = None if first is None else _Zero(first)
    if member is not None and member.value(bits // 2) < z_hat - tolerance(bits // 2):
        return None  # a smaller positive zero: z_hat is a far branch
    return _Candidate(zero, "interior", 1, t_hat, member)
