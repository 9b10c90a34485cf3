"""Distance from a point to a one-parameter polynomial family of ellipsoids.

The distance surface F(z, t) collects, for every family member, the
point-to-member distance polynomial. Its discriminant in t (the iterated
discriminant) together with the interval-endpoint specializations yields the
candidate squared distances; candidates are validated by stationarity
residuals and by re-solving the winning member before acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discrim import bezout_matrix, discriminant_param, multiple_zero_uni
from .errors import DegeneracyError, NoPositiveRootError
from .linalg import MatrixQ, VectorQ
from .metrics import (
    ZVAR,
    DistanceReport,
    RootInfo,
    _distance_fields,
    _scaled_pencil_residuals,
    bordered_point_pencil,
    normalize,
    solve_point,
)
from .poly import BiPoly, UniPoly, interpolate_verified
from .realroots import positive_roots, refine
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


@dataclass
class _Candidate:
    z: object
    source: str  # "interior", "endpoint-a", "endpoint-b"
    multiplicity: int
    t: object = None


def family_solve(fam: QuadricFamily, x0: VectorQ, bits: int = 128) -> DistanceReport:
    """Distance from the point to the nearest family member over the interval."""
    if x0.dim != fam.dim:
        raise ValueError("point dimension mismatch")
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
        if poly is None or not poly:
            continue
        roots = positive_roots(poly)
        if roots:
            iv = roots[0]
            endpoints.append(_Candidate(refine(iv, poly, bits), label, iv.multiplicity, t_end))
    endpoints.sort(key=lambda c: c.z)  # stable: endpoint a first on a tie
    interior = []
    if big_f is not None:
        interior = [iv for iv in positive_roots(big_f) if iv.multiplicity == 1]
    if not interior and not endpoints:
        raise NoPositiveRootError(
            "no positive candidate zero: point appears enclosed by every member"
        )
    # interior zeros ascend in isolation order; each is refined only when it
    # is next to be tried, and yields to an endpoint zero strictly below it
    best = None
    for iv in interior:
        z_hat = refine(iv, big_f, bits)
        if endpoints and endpoints[0].z < z_hat:
            break
        best = _validate_interior(fam, x0, surface, z_hat, bits)
        if best is not None:
            break
        report.warnings.append(
            f"interior zero ~{float(z_hat):.9g} failed stationarity validation"
        )
    if best is None and endpoints:
        best = endpoints[0]
    if best is None:
        raise NoPositiveRootError(
            "no candidate zero passed validation"
        )
    _distance_fields(report, RootInfo(best.z, QQ(1, 1 << bits), best.multiplicity), bits)
    report.t_star = best.t
    if best.source == "interior":
        report.certificate["branch"] = "interior-stationary"
    else:
        report.certificate["branch"] = best.source
    # nearest point on the winning member
    try:
        member = fam.member(best.t)
        sub = solve_point(member, x0, bits)
        if sub.nearest_pairs:
            report.nearest_pairs = sub.nearest_pairs
            report.multipliers = sub.multipliers
    except (DegeneracyError, ValueError, NoPositiveRootError) as exc:
        report.warnings.append(f"nearest point on winning member unavailable: {exc}")
    return report


def _validate_interior(fam, x0, surface, z_hat, bits):
    """Check an interior candidate: recover t, test stationarity and attainment.

    Works with snapped (small-denominator) stand-ins for the refined values;
    the induced residual error stays orders of magnitude below the gate.
    """
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
        roots = positive_roots(member_poly)
    except (ValueError, AssertionError):
        return None
    if roots and refine(roots[0], member_poly, bits // 2) < z_hat - tolerance(bits // 2):
        return None  # a smaller positive zero: z_hat is a far branch
    return _Candidate(z_hat, "interior", 1, t_hat)
