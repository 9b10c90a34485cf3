"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from qdist.discrim import discriminant_param, quotient_basis_monomials
from qdist.errors import DegeneracyError
from qdist.linalg import MatrixQ, VectorQ, definiteness, determinant
from qdist.metrics import Quadric, bordered_point_pencil, normalize
from qdist.poly import (
    BiPoly,
    NewtonInterp,
    NodeValues,
    UniPoly,
    divrem,
    field_gcd,
    interpolate_verified,
)
from qdist.scalar import QQ, rational


def rand_rat(rng, lo=-6, hi=6, den=4):
    return QQ(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonzero_rat(rng, lo=1, hi=6, den=4):
    q = QQ(rng.randint(lo, hi), rng.randint(1, den))
    return q if rng.random() < 0.5 else -q


def rand_poly(rng, deg, var="x", lo=-8, hi=8, den=3):
    cs = [rand_rat(rng, lo, hi, den) for _ in range(deg)]
    cs.append(QQ(rng.randint(1, hi), rng.randint(1, den)))
    return UniPoly(cs, var)


def rand_matrix(rng, rows, cols, lo=-5, hi=5, den=3):
    return MatrixQ([[rand_rat(rng, lo, hi, den) for _ in range(cols)] for _ in range(rows)])


def rand_symmetric(rng, n, lo=-5, hi=5, den=3):
    rows = [[QQ(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = rand_rat(rng, lo, hi, den)
            rows[i][j] = v
            rows[j][i] = v
    return MatrixQ(rows)


def rand_pd_matrix(rng, n):
    while True:
        r = rand_matrix(rng, n, n, -3, 3, 2)
        a = r.transpose() * r + MatrixQ.identity(n).scale(QQ(1, rng.randint(1, 3)))
        if definiteness(a) == "positive-definite":
            return a


def ellipsoid_at(shape: MatrixQ, center: VectorQ) -> Quadric:
    """(X-c)^T M (X-c) = 1 in normalized form; shape must be positive definite."""
    const = center.dot(shape * center) - 1
    if not const:
        raise ValueError("center lies on the unit shell; shift it")
    return normalize(shape, (shape * center).scale(QQ(-1)), const)


def rand_ellipsoid(rng, n, spread):
    """Random real ellipsoid with rational data, roughly unit size."""
    while True:
        m = rand_pd_matrix(rng, n)
        c = VectorQ([QQ(rng.randint(-spread, spread), rng.randint(1, 2)) for _ in range(n)])
        if c.dot(m * c) != 1:
            return ellipsoid_at(m, c)


def sylvester_matrix(p: UniPoly, q: UniPoly) -> MatrixQ:
    m, n = p.degree, q.degree
    size = m + n
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = []
    for i in range(n):
        rows.append([QQ(0)] * i + pc + [QQ(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([QQ(0)] * i + qc + [QQ(0)] * (size - n - 1 - i))
    return MatrixQ(rows)


def sylvester_resultant(p: UniPoly, q: UniPoly):
    """Independent determinantal resultant oracle."""
    return determinant(sylvester_matrix(p, q))


def cofactor_expansion_det(m: MatrixQ):
    """Naive cofactor-expansion determinant, as an independent oracle."""
    n = m.rows
    if n == 1:
        return m.entry(0, 0)
    acc = QQ(0)
    for j in range(n):
        if not m.entry(0, j):
            continue
        sub = m.submatrix(0, j)
        term = m.entry(0, j) * cofactor_expansion_det(sub)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def fraction_simplest_in_interval(lo, hi):
    """Simplest rational in the closed interval, by the recursive
    continued-fraction rule on Fractions: an independent oracle."""
    lo, hi = min(lo, hi), max(lo, hi)
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return QQ(0)
    if lo < 0:
        return -fraction_simplest_in_interval(-hi, -lo)
    c = math.ceil(lo)
    if c <= hi:
        return QQ(c)
    f = math.floor(lo)
    return f + 1 / fraction_simplest_in_interval(1 / (hi - f), 1 / (lo - f))


def fraction_det_at(entries, *point):
    """Cofactor-expansion determinant of a polynomial matrix at a point."""
    return cofactor_expansion_det(MatrixQ([[e.eval(*point) for e in row] for row in entries]))


def workload_problems(name: str, seed: int, count: int):
    """The first ``count`` problems of a perfbench workload pool."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate(name, seed)[:count]


def digits_tolerance(text: str):
    """(value, tolerance) from a printed decimal: 2 units in the last place."""
    v = rational_from_decimal(text)
    frac = text.split(".")[1] if "." in text else ""
    place = -len(frac)
    return v, 2 * QQ(10) ** place


def rational_from_decimal(text: str):
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    text = text.lstrip("+-")
    if "." in text:
        whole, frac = text.split(".")
        den = 10 ** len(frac)
        return sign * QQ(int(whole or 0) * den + int(frac), den)
    return sign * QQ(int(text))


def assert_printed(value, printed: str, label=""):
    expected, tol = digits_tolerance(printed)
    assert abs(value - expected) <= tol, (
        f"{label}: {float(value)} differs from printed {printed}"
    )


def sturm_chain(p: UniPoly):
    """Sturm sequence of p (usually the square-free part): a root-count oracle."""
    chain = [p, p.derivative()]
    while chain[-1]:
        _, r = divrem(chain[-2], chain[-1])
        if not r:
            break
        # scale to a primitive polynomial; positive factors keep signs valid
        _, r = (-r).primitive()
        chain.append(r)
    return chain


def _var_at(chain, x):
    """Sign variations of the Sturm chain at x, zeros skipped."""
    signs = [v > 0 for v in (p.eval(x) for p in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


class FractionGradientReducer:
    """Reduction modulo both partials of g by a Fraction echelon: an oracle.

    Same monomial order, working degree and reason codes as
    ``qdist.discrim.GradientReducer``, with every pivot row scaled to lead 1.
    """

    def __init__(self, g: BiPoly, extra_degree: int = 0):
        n = g.total_degree
        self.basis = quotient_basis_monomials(n)
        self.max_degree = max(i + j for i, j in self.basis) + n + extra_degree
        basis_set = set(self.basis)
        window = [(i, j) for i in range(self.max_degree + 1)
                  for j in range(self.max_degree + 1 - i)]
        nonbasis = [m for m in window if m not in basis_set]
        self.index = {m: k for k, m in enumerate(nonbasis + self.basis)}
        self.n_nonbasis = len(nonbasis)
        self.dim = len(self.index)
        self.pivots = {}
        shift_deg = self.max_degree - (n - 1)
        for dp in (g.derivative(0), g.derivative(1)):
            terms = list(dp.terms())
            for a1 in range(shift_deg + 1):
                for a2 in range(shift_deg + 1 - a1):
                    v = [QQ(0)] * self.dim
                    for (i, j), c in terms:
                        v[self.index[(i + a1, j + a2)]] = c
                    self._eliminate(v)
                    lead = next((k for k, c in enumerate(v) if c), None)
                    if lead is None:
                        continue
                    if lead >= self.n_nonbasis:
                        raise DegeneracyError("gradient-reduction-non-unique", "oracle")
                    inv = 1 / v[lead]
                    self.pivots[lead] = [(k, c * inv) for k, c in enumerate(v) if c]

    def _eliminate(self, v):
        for lead in sorted(self.pivots):
            c = v[lead]
            if c:
                for k, pk in self.pivots[lead]:
                    v[k] = v[k] - c * pk

    def reduce(self, p: BiPoly):
        v = [QQ(0)] * self.dim
        for (i, j), c in p.terms():
            v[self.index[(i, j)]] = c
        self._eliminate(v)
        if any(v[: self.n_nonbasis]):
            raise DegeneracyError("gradient-reduction-unsolvable", "oracle")
        return v[self.n_nonbasis :]


def fraction_bezout_rows(g: BiPoly):
    """Rows of ``bezout_matrix_biv(g)`` computed by the Fraction oracle."""
    for extra in (0, 2, 4):
        reducer = FractionGradientReducer(g, extra_degree=extra)
        try:
            return [reducer.reduce(BiPoly.from_terms({m: QQ(1)}, g.vars) * g)
                    for m in reducer.basis]
        except DegeneracyError:
            if extra == 4:
                raise


def fraction_squarefree_decomposition(p: UniPoly):
    """Yun's decomposition over Fraction coefficients, by Euclid's gcd: an oracle.

    Returns [(monic factor, multiplicity)] by ascending multiplicity, as
    ``qdist.poly.squarefree_decomposition`` does.
    """
    p = p.monic()
    dp = p.derivative()
    g = field_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    out = []
    w, y = p / g, dp / g
    z = y - w.derivative()
    i = 1
    while w.degree > 0:
        h = field_gcd(w, z)
        if h.degree > 0:
            out.append((h, i))
        w = w / h
        y = z / h
        z = y - w.derivative()
        i += 1
    return out


class FractionNewtonInterp:
    """Newton divided differences over Fraction nodes and values: an oracle."""

    def __init__(self, var="x"):
        self.var = var
        self.xs = []
        self.diffs = []
        self._row = []

    def add_point(self, x, y):
        x, y = QQ(x), QQ(y)
        row = [y]
        for k, prev in enumerate(self._row):
            row.append((row[k] - prev) / (x - self.xs[len(self.xs) - 1 - k]))
        self.xs.append(x)
        self._row = row
        self.diffs.append(row[-1])

    def polynomial(self):
        acc = UniPoly.const(self.diffs[-1], self.var)
        for i in range(len(self.xs) - 2, -1, -1):
            acc = acc * UniPoly((-self.xs[i], 1), self.var) + self.diffs[i]
        return acc


def table_per_order_interpolate(compute, bound, var="x", max_pole_order=0):
    """``qdist.poly.interpolate_verified`` without the modular screen: an oracle.

    Every node feeds t^k * value(t) to one exact Newton table per pole order
    k and component; the first node where every component of some k (the
    smallest on a tie) has 3 vanishing last divided differences returns its
    interpolant of the earlier nodes. Same node stream, bounds and reason
    codes.
    """
    def row_of(y):
        return y if isinstance(y, tuple) else (y,)

    tables = {k: [] for k in range(max_pole_order + 1)}
    nodes = []
    for t, y in NodeValues(compute, skip_zero=max_pole_order > 0).points():
        row = row_of(y)
        for k, table in tables.items():
            while len(table) < len(row):
                table.append(NewtonInterp(var))
                for x in nodes:
                    table[-1].add_point(x, 0)
            for j, it in enumerate(table):
                it.add_point(t, (row[j] if j < len(row) else 0) * t**k)
        nodes.append(t)
        for table in tables.values():
            if len(nodes) >= 3 and all(it.tail_is_zero(3) for it in table):
                polys = [it.polynomial(drop=3) for it in table]
                return polys if isinstance(y, tuple) else polys[0]
        tables = {k: table for k, table in tables.items() if len(nodes) < 2 * bound + k + 4}
        if not tables:
            break
    raise DegeneracyError(
        "interpolation-verification", "interpolated polynomial failed verification"
    )


def per_node_family_surface(fam, x0):
    """F(z, t) of a family, with the point pencil built anew at every node
    from the members' rational data: a reference for
    ``qdist.parametric.family_distance_surface``, same nodes and bound."""
    n = fam.dim
    row_degrees = [
        max([fam.a[i][j].degree for j in range(n)] + [fam.b[i].degree, 0]) for i in range(n)
    ]
    row_degrees.append(max([e.degree for e in fam.b] + [fam.c.degree, 0]))
    bound = (2 * (n + 1) - 1) * max(sum(row_degrees), 1)

    def coefficients(t):
        pencil = bordered_point_pencil(
            [[e.eval(t) for e in row] for row in fam.a],
            [e.eval(t) for e in fam.b],
            fam.c.eval(t),
            x0,
        )
        if pencil.deg1 != n + 1:
            return None
        try:
            return discriminant_param(pencil).coeffs
        except DegeneracyError:
            return None

    cols = interpolate_verified(coefficients, bound, "t")
    terms = {(j, i): c for j, p in enumerate(cols) for i, c in enumerate(p.coeffs) if c}
    return BiPoly.from_terms(terms, ("z", "t"))
