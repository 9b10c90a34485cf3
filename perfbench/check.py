"""Independent check of a rendered distance report.

The check reads only the problem dict and the JSON report, recomputes every
nearest point's residuals exactly with ``fractions.Fraction``, and for point,
variety and pair problems compares ``d`` with a floating-point minimum found
by sampling the first surface and polishing the best samples. It returns
None for a report that passes, or a short reason code.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
from scipy.optimize import brentq, minimize

BRUTE_TOLERANCE = 1e-6


def _vec(values):
    return [F(v) for v in values]


def _quadric(q):
    """Normalized (A, B) with X^T A X + 2 B^T X - 1 = 0."""
    s = F(-1) / F(q.get("c", -1))
    return ([[F(v) * s for v in row] for row in q["a"]], [F(v) * s for v in q["b"]])


def _residual(ab, x):
    a, b = ab
    n = len(x)
    quad = sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n))
    return quad + 2 * sum(b[i] * x[i] for i in range(n)) - 1


def _dist2(x, y):
    return sum((u - v) ** 2 for u, v in zip(x, y))


def _tpoly(e, t):
    coeffs = e if isinstance(e, list) else [e]
    return sum(F(c) * t**i for i, c in enumerate(coeffs))


def _family_member(fam, t):
    a = [[_tpoly(e, t) for e in row] for row in fam["a"]]
    b = [_tpoly(e, t) for e in fam["b"]]
    c = _tpoly(fam.get("c", -1), t)
    s = F(-1) / c
    return ([[v * s for v in row] for row in a], [v * s for v in b])


def _exact_reason(problem, report, bits):
    """Residual checks of every nearest pair against the problem data."""
    tol = F(1, 1 << (bits // 2))
    kind = problem["kind"]
    z = F(report["z_star"]["value"])
    d = F(report["d"]["value"])
    if abs(d * d - z) > tol:
        return "d-vs-z-star"
    if kind == "family-point":
        if report.get("t_star") is None:
            return "no-t-star"
        first = _family_member(problem["family"], F(report["t_star"]["value"]))
    else:
        first = _quadric(problem["quadric"])
    for pair in report["nearest_pairs"]:
        x, y = _vec(pair["x"]), _vec(pair["y"])
        if abs(_residual(first, x)) > tol:
            return "x-off-first-surface"
        if kind in ("point-quadric", "family-point"):
            off = max(abs(u - v) for u, v in zip(y, _vec(problem["point"])))
        elif kind == "variety-quadric":
            var = problem["variety"]
            h = _vec(var.get("offset") or [0] * len(var["columns"]))
            off = max(abs(sum(F(c) * u for c, u in zip(col, y)) - hj)
                      for col, hj in zip(var["columns"], h))
        else:
            off = abs(_residual(_quadric(problem["quadric2"]), y))
        if off > tol:
            return "y-off-second-surface"
        if abs(_dist2(x, y) - z) > tol:
            return "distance-identity"
    return None


# ---------------------------------------------------------------------------
# floating-point minimum
# ---------------------------------------------------------------------------


class _Ellipsoid:
    """Float ellipsoid (X-c)^T S (X-c) = 1 of a normalized positive-definite quadric."""

    def __init__(self, ab):
        a = np.array([[float(v) for v in row] for row in ab[0]])
        b = np.array([float(v) for v in ab[1]])
        sol = np.linalg.solve(a, b)
        self.center = -sol
        shape = a / (1.0 + b @ sol)
        self.s, self.axes = np.linalg.eigh(shape)
        lower = np.linalg.cholesky(shape)
        self.to_surface = np.linalg.inv(lower.T)

    def points(self, u):
        """Surface points for unit direction rows u."""
        return self.center + u @ self.to_surface.T

    # The nearest surface point to x is c + (I + t S)^(-1) (x - c) for the
    # largest root t of sum s_i y_i^2 / (1 + t s_i)^2 = 1 (y: x - c in the
    # axes of S). That sum decreases on (-1/max(s), inf), so the root is
    # bracketed by a point just above the pole and sqrt(sum y_i^2 / s_i) + 1.

    def _bracket(self, y):
        pole = -1.0 / self.s[-1]
        step = np.full(y.shape[0], -pole)
        for _ in range(200):
            low = self._secular(y, pole + step) <= 0.0
            if not low.any():
                break
            step[low] /= 2.0
        hi = np.sqrt(np.sum(y * y / self.s, axis=1)) + 1.0
        return pole + step, hi

    def _secular(self, y, t):
        s = self.s
        return np.sum(s * y * y / (1.0 + t[:, None] * s) ** 2, axis=1) - 1.0

    def _distance2(self, y, t):
        s = self.s
        return np.sum((t[:, None] * s * y / (1.0 + t[:, None] * s)) ** 2, axis=1)

    def distance2_many(self, x):
        """Squared distances from the rows of x to the surface (bisection)."""
        y = (x - self.center) @ self.axes
        lo, hi = self._bracket(y)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            above = self._secular(y, mid) > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return self._distance2(y, 0.5 * (lo + hi))

    def distance2_one(self, x):
        """Squared distance from the point x to the surface (Brent's method)."""
        y = ((x - self.center) @ self.axes)[None, :]
        lo, hi = self._bracket(y)
        t = brentq(lambda v: float(self._secular(y, np.array([v]))[0]),
                   float(lo[0]), float(hi[0]), xtol=1e-15, rtol=1e-15, maxiter=500)
        return float(self._distance2(y, np.array([t]))[0])


def _angles_to_unit(angles):
    """Hyperspherical angles (rows) to unit vectors in one more dimension."""
    angles = np.atleast_2d(angles)
    count, m = angles.shape
    out = np.ones((count, m + 1))
    for i in range(m):
        out[:, i] *= np.cos(angles[:, i])
        out[:, i + 1:] *= np.sin(angles[:, i])[:, None]
    return out


def _unit_to_angles(u):
    m = len(u) - 1
    angles = np.zeros(m)
    for i in range(m):
        rest = np.linalg.norm(u[i:])
        angles[i] = np.arccos(np.clip(u[i] / rest, -1.0, 1.0)) if rest else 0.0
    if m and u[-1] < 0:
        angles[-1] = 2 * np.pi - angles[-1]
    return angles


_SAMPLES = {2: 720, 3: 6000, 4: 20000}


def _surface_minimum(ell, dist2_many, dist2_one, n, rng):
    """Minimum of a squared distance over the first surface.

    Samples random directions, then polishes the two best with
    Nelder-Mead over hyperspherical angles.
    """
    u = rng.standard_normal((_SAMPLES[n], n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    values = dist2_many(ell.points(u))
    best = float(values.min())

    def objective(angles):
        return dist2_one(ell.points(_angles_to_unit(angles))[0])

    for idx in np.argsort(values)[:2]:
        res = minimize(
            objective,
            _unit_to_angles(u[idx]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-14 * max(1.0, best), "maxiter": 2000},
        )
        best = min(best, float(res.fun))
    return best


def brute_distance(problem):
    """Floating-point distance for point, variety and quadric-pair problems."""
    rng = np.random.default_rng(12345)
    kind = problem["kind"]
    ell = _Ellipsoid(_quadric(problem["quadric"]))
    n = len(problem["quadric"]["a"])
    if kind == "point-quadric":
        p = np.array([float(F(v)) for v in problem["point"]])

        def many(x):
            return np.sum((x - p) ** 2, axis=1)

        def one(x):
            return float(np.sum((x - p) ** 2))

    elif kind == "variety-quadric":
        var = problem["variety"]
        c = np.array([[float(F(v)) for v in col] for col in var["columns"]]).T
        h = np.array([float(F(v)) for v in (var.get("offset") or [0] * c.shape[1])])
        gram_inv = np.linalg.inv(c.T @ c)

        def many(x):
            r = x @ c - h
            return np.einsum("ij,jk,ik->i", r, gram_inv, r)

        def one(x):
            r = x @ c - h
            return float(r @ gram_inv @ r)

    else:
        other = _Ellipsoid(_quadric(problem["quadric2"]))
        many, one = other.distance2_many, other.distance2_one
    return float(np.sqrt(_surface_minimum(ell, many, one, n, rng)))


def check_report(problem, report, bits=128):
    """None when the report passes every check, else the reason code."""
    if report.get("status") != "ok":
        return "status-not-ok"
    if report.get("intersecting"):
        return "reported-intersecting"
    if "d" not in report or "z_star" not in report:
        return "no-distance"
    if not report.get("nearest_pairs"):
        return "no-nearest-points"
    reason = _exact_reason(problem, report, bits)
    if reason is not None:
        return reason
    if problem["kind"] != "family-point":
        try:
            brute = brute_distance(problem)
        except (ValueError, np.linalg.LinAlgError):
            return "brute-force-failed"
        if abs(float(F(report["d"]["value"])) - brute) > BRUTE_TOLERANCE:
            return "brute-force-mismatch"
    return None
