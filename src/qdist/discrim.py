"""Discriminants: exact values, and matrices of division remainders.

Univariate: the value is resultant(g, g'), by the integer subresultant
sequence. Row l of the remainder matrix holds the coefficients of
x^l * g(x) modulo g'(x); N^N * lead(g)^N times its determinant is the same
value, and the cofactors of the last row locate a unique multiple zero.
That matrix is the paper's construction and stays the reference; a
multiple zero is read, where it can be, off the first subresultant
s1 * x + s0 of (g, g') instead, which the same integer sequence computes:
-s0 / s1 equals the ratio of those cofactors, with g's multiple zero exact
or only approximate.

Bivariate: row m of the analogue holds the coefficients of x^m * g over a
fixed basis of (N-1)^2 power products x^m, after reduction modulo the ideal
generated by both partial derivatives: the matrix of multiplication by g in
the quotient ring. Only g is reduced directly; each other row is the
reduction of a variable times an earlier row (a multiplication chain), so
one fraction-free echelon of the shifted partials up to degree
max(max basis degree + 1, N) serves every row. The determinant of that
matrix equals the product of g over its stationary points, and its
cofactors locate a unique multiple zero. Inputs whose shifted partials meet
the basis span have no unique matrix and are reported as degenerate.

Parameter-dependent inputs are handled by exact evaluation / interpolation
at rational nodes with verification nodes guarding the degree bound.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import DegeneracyError
from .linalg import MatrixQ, _scaled_det, char_poly, cofactor, determinant
from .poly import (
    BiPoly,
    NodeValues,
    UniPoly,
    _first_subresultant,
    _ieval,
    _iderivative,
    _int_resultant,
    divrem,
    interpolate_verified,
)
from .scalar import QQ, int_clear


class BezoutData:
    """Remainder-coefficient matrix plus the cofactor data derived from it.

    The bivariate matrix comes as ``scaled_rows``, each a rational scale and
    a primitive integer row: its determinant is the product of the scales
    times an integer Bareiss determinant, and the rational matrix is built
    only when it is read, for cofactors or a characteristic polynomial. The
    univariate matrix is given whole, as its entries may be rational
    functions of a parameter.
    """

    def __init__(self, matrix: MatrixQ | None, size: int, source=None, scaled_rows=None):
        self._matrix = matrix
        self.scaled_rows = scaled_rows
        self.size = size
        self.source = source
        self._det = None

    @property
    def matrix(self) -> MatrixQ:
        if self._matrix is None:
            self._matrix = MatrixQ([[scale * c for c in ints] for scale, ints in self.scaled_rows])
        return self._matrix

    @property
    def det(self):
        if self._det is None:
            if self.scaled_rows is None:
                self._det = determinant(self.matrix)
            else:
                self._det = _scaled_det(self.scaled_rows)
        return self._det

    def last_row_cofactor(self, j):
        return cofactor(self.matrix, self.size - 1, j)


# ---------------------------------------------------------------------------
# univariate case
# ---------------------------------------------------------------------------


def bezout_matrix(g: UniPoly) -> BezoutData:
    """Matrix of remainders of x^l * g modulo g', l = 0..deg(g)-2."""
    n = g.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    dg = g.derivative()
    rows = []
    _, r = divrem(g, dg)
    for _ in range(n - 1):
        rows.append([r.coeff(j) for j in range(n - 1)])
        if len(rows) == n - 1:
            break
        _, r = divrem(r.shift_up(1), dg)
    return BezoutData(MatrixQ(rows), n - 1, source=g)


def discriminant_uni(coeffs):
    """Discriminant of g: resultant(g, g'), by the integer subresultant PRS.

    ``coeffs`` are g's ascending rational or integer coefficients, with a
    nonzero last entry (a UniPoly's ``coeffs``). Vanishes exactly when g
    has a multiple complex zero. It equals N^N * lead(g)^N * det of the
    ``bezout_matrix`` remainder matrix: multiplication by g modulo g' has
    determinant prod g(zeros of g'), and resultant(g', g) contributes
    lead(g')^deg(g) = (N*lead)^N. With
    g = content * a over the integers it is content^(2N - 1) times the
    integer resultant(a, a').
    """
    n = len(coeffs) - 1
    if n < 2:
        raise ValueError("degree must be at least 2")
    content, a = int_clear(coeffs)
    return content ** (2 * n - 1) * _int_resultant(a, _iderivative(a))


def _cofactor_ratios(data: BezoutData, count: int):
    """Ratios cof(i,1)/cof(i,0), ... for a usable cofactor row.

    The cofactor rows of a singular matrix with one-dimensional kernel are
    all proportional to the kernel vector (1, lambda_1, ...), scaled by a
    left-kernel coordinate that may vanish for special inputs; the last row
    is tried first, then the remaining rows through the full adjugate.
    """
    c0 = data.last_row_cofactor(0)
    if c0:
        return [data.last_row_cofactor(j) / c0 for j in range(1, count + 1)]
    from .linalg import adjugate

    adj = adjugate(data.matrix)
    best = None
    best_size = None
    for i in range(data.size - 1, -1, -1):
        lead = adj.entry(0, i)
        if not lead:
            continue
        size = abs(lead)
        if best is None or size > best_size:
            best, best_size = i, size
    if best is None:
        raise DegeneracyError(
            "non-unique-multiple-zero", "all leading cofactors vanish"
        )
    lead = adj.entry(0, best)
    return [adj.entry(j, best) / lead for j in range(1, count + 1)]


def multiple_zero_uni(data: BezoutData, strict: bool = True):
    """The unique multiple zero, recovered rationally from the cofactors.

    With strict=True the determinant must vanish exactly. strict=False
    supports recovery at high-precision rational approximations of an
    algebraic parameter, where the determinant is only near zero; callers
    must then validate residuals.
    """
    if strict and data.det:
        raise DegeneracyError("no-multiple-zero", "determinant does not vanish")
    g = data.source
    if data.size == 1:
        # quadratic: the double zero is the zero of the derivative
        dg = g.derivative()
        return -dg.coeff(0) / dg.coeff(1)
    return _cofactor_ratios(data, 1)[0]


def multiple_zero_near(g: UniPoly):
    """The multiple zero of g, or its stand-in when g is only near one.

    Equals ``multiple_zero_uni(bezout_matrix(g), strict=False)`` and raises
    what it raises. With g = content * a over the integers and N >= 3, the
    first subresultant s1 * x + s0 of (a, a') is an integer combination
    u * a + v * a' with deg u <= N - 3, so it lies in the span of the first
    N - 2 remainder rows, which the last row's cofactors annihilate; when
    s1 != 0 those rows are independent and do not reach the constants, so
    the cofactor ratio is -s0 / s1 exactly. Without an element of degree 1
    in the sequence (s1 = 0) the cofactors answer.
    """
    if g.degree >= 3:
        first = _first_subresultant(int_clear(g.coeffs)[1])
        if first is not None:
            s1, s0 = first
            return QQ(-s0, s1)
    return multiple_zero_uni(bezout_matrix(g), strict=False)


def linear_representation(g: UniPoly):
    """Polynomials (u, v) with v*g + u*g' identically det of the remainder matrix."""
    n = g.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    data = bezout_matrix(g)
    m = data.size
    B = data.matrix
    cof0 = [cofactor(B, l, 0) for l in range(m)]
    var = g.var
    v = UniPoly(cof0, var)
    # replacement column built from the last-column entries of the matrix
    last_col = [B.entry(i, m - 1) for i in range(m)]
    bhat_det = UniPoly.zero(var)
    for l in range(m):
        rho = UniPoly(list(reversed(last_col[:l])), var)
        bhat_det = bhat_det + rho * cof0[l]
    b0 = g.coeffs[n]
    b1 = g.coeffs[n - 1] if n - 1 < len(g.coeffs) else QQ(0)
    lin = UniPoly((b1 / (QQ(n) * b0), 1), var)
    u = lin * v * QQ(-1, n) - bhat_det * (QQ(1) / (QQ(n) * b0))
    return u, v


# ---------------------------------------------------------------------------
# bivariate case
# ---------------------------------------------------------------------------


def quotient_basis_monomials(total_degree: int):
    """The (N-1)^2 power products x1^j1 x2^j2 with j1 < N-1, j2 <= 2(N-j1-2).

    Reordered so that positions 0, 1, 2 hold 1, x1, x2.
    """
    n = total_degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    mons = [
        (j1, j2)
        for j1 in range(n - 1)
        for j2 in range(2 * (n - j1 - 2) + 1)
    ]
    head = [(0, 0)]
    for m in ((1, 0), (0, 1)):
        if m in mons:
            head.append(m)
    rest = sorted(m for m in mons if m not in head)
    return head + rest


def _monomials_leq(d: int):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


class IntBiPoly:
    """content * the sum of c * x1^i * x2^j over ``ints`` = {(i, j): c}.

    A bivariate polynomial held on integers, with the rational content
    apart and no zero terms. ``GradientReducer`` and ``bezout_matrix_biv``
    take it where they take a BiPoly: both give ``total_degree``,
    ``derivative`` and ``int_terms``, so both reduce with the same integer
    arithmetic.
    """

    __slots__ = ("content", "ints")

    def __init__(self, content, ints):
        self.content = content
        self.ints = ints

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.ints), default=-1)

    def int_terms(self):
        """(content, [(monomial, int)]) with primitive integers, as
        ``BiPoly.int_terms`` gives them."""
        g = math.gcd(*self.ints.values()) or 1
        return self.content * g, [(m, c // g) for m, c in self.ints.items()]

    def derivative(self, which: int) -> "IntBiPoly":
        out = {}
        for (i, j), c in self.ints.items():
            k = (i, j)[which]
            if k:
                out[(i - 1, j) if which == 0 else (i, j - 1)] = k * c
        return IntBiPoly(self.content, out)


def integer_pencil(g0: BiPoly, g1: BiPoly):
    """node(t): g0 + t * g1 at an integer t, as an IntBiPoly.

    g0 and g1 are cleared to integers once, with one content, so a node is
    integer multiply-adds.
    """
    terms0, terms1 = list(g0.terms()), list(g1.terms())
    content, ints = int_clear([c for _, c in terms0 + terms1])
    base = {m: c for (m, _), c in zip(terms0, ints)}
    slope = [(m, c) for (m, _), c in zip(terms1, ints[len(terms0):])]

    def node(t):
        terms = dict(base)
        for m, c in slope:
            terms[m] = terms.get(m, 0) + t * c
        return IntBiPoly(content, {m: c for m, c in terms.items() if c})

    return node


class GradientReducer:
    """Reduces polynomials modulo the two partial derivatives of g.

    The shifted partials x^a * dg/dx_i up to the working degree (the window)
    are brought to echelon form over a monomial order that lists the fixed
    quotient basis last; reducing a polynomial by those pivot rows leaves its
    coefficients over the basis. When the shifted partials span part of the
    basis span (gradient ideal not zero-dimensional of the expected degree)
    those coefficients are not unique, and construction raises
    DegeneracyError.

    The smallest useful window has degree max(max basis degree + 1, N): it
    holds every product of a basis monomial with a variable, which is all
    the multiplication chain of ``bezout_matrix_biv`` reduces, and the
    partials themselves. For N = 4 that is 21 monomials and 12 shifted
    partials.

    The echelon is fraction-free (Bareiss, Math. Comp. 1968): integer rows,
    divided by their content after every pivot step, so that each is the
    primitive integer multiple of the row a rational echelon would hold.
    """

    def __init__(self, g: BiPoly | IntBiPoly, degree: int):
        n = g.total_degree
        if n < 2:
            raise ValueError("degree must be at least 2")
        self.basis = quotient_basis_monomials(n)
        self.size = (n - 1) ** 2
        if len(self.basis) != self.size:
            raise AssertionError("basis size mismatch")
        basis_set = set(self.basis)
        nonbasis = [m for m in _monomials_leq(degree) if m not in basis_set]
        self.index = {m: k for k, m in enumerate(nonbasis + self.basis)}
        self.n_nonbasis = len(nonbasis)
        self.dim = len(self.index)
        # lead position -> primitive integer row as (position, value) pairs, lead first
        self.pivots = {}
        for dp in (g.derivative(0), g.derivative(1)):
            _, terms = dp.int_terms()
            for a1, a2 in _monomials_leq(degree - (n - 1)):
                v = [0] * self.dim
                for (i, j), c in terms:
                    v[self.index[(i + a1, j + a2)]] = c
                self._eliminate(v)
                lead = next((k for k, c in enumerate(v) if c), None)
                if lead is None:
                    continue
                if lead >= self.n_nonbasis:
                    raise DegeneracyError(
                        "gradient-reduction-non-unique",
                        "gradient ideal meets the quotient basis span",
                    )
                self.pivots[lead] = [(k, c) for k, c in enumerate(v) if c]

    def _eliminate(self, v):
        """Clear the integer vector v at every pivot position, in place.

        Returns integers (num, den) with v = num/den * (v_in - a combination
        of pivot rows); every pivot step leaves v primitive.
        """
        num = den = 1
        for lead in sorted(self.pivots):
            c = v[lead]
            if c:
                row = self.pivots[lead]
                h = math.gcd(c, row[0][1])
                a, b = row[0][1] // h, c // h
                if a != 1:
                    v[:] = [a * x for x in v]
                    num *= a
                for k, pk in row:
                    v[k] -= b * pk
                content = math.gcd(*v)
                if content > 1:
                    v[:] = [x // content for x in v]
                    den *= content
        return num, den

    def _normal_form(self, terms):
        """(scale, ints): the polynomial with integer terms [(monomial, int)]
        is congruent to scale times ints over the quotient basis."""
        v = [0] * self.dim
        for m, c in terms:
            v[self.index[m]] = c
        num, den = self._eliminate(v)
        if any(v[: self.n_nonbasis]):
            raise DegeneracyError(
                "gradient-reduction-unsolvable",
                "polynomial does not reduce to the quotient basis",
            )
        return QQ(den, num), v[self.n_nonbasis :]

    def multiplication_rows(self, g: BiPoly | IntBiPoly):
        """Coefficients of m * g over the quotient basis, for each basis m.

        Each row comes as (rational scale, primitive integer row).

        A multiplication chain (Moller & Stetter, Numer. Math. 1995): only g
        itself is reduced as given; every other row is the reduction of
        x_i times the row of m / x_i, which the basis order lists earlier.
        Normal forms are linear and x_i * (p - NF(p)) lies in the ideal, so
        this is the normal form of m * g, while the largest polynomial
        reduced has degree max basis degree + 1.
        """
        rows = {}  # basis monomial -> (rational scale, primitive integer row)
        for m in self.basis:
            if m == (0, 0):
                factor, terms = g.int_terms()
            else:
                step = (0, 1) if m[1] else (1, 0)
                factor, ints = rows[(m[0] - step[0], m[1] - step[1])]
                terms = [((b[0] + step[0], b[1] + step[1]), c)
                         for b, c in zip(self.basis, ints) if c]
            scale, ints = self._normal_form(terms)
            rows[m] = factor * scale, ints
        return [rows[m] for m in self.basis]


def bezout_matrix_biv(g: BiPoly | IntBiPoly) -> BezoutData:
    """The (N-1)^2 reduction-coefficient matrix for all basis monomials.

    The rows come from ``GradientReducer.multiplication_rows`` in the
    smallest window. When a special input leaves some product unreduced
    there, the window grows to the natural degree bound of a direct
    reduction of m * g (max basis degree + N), then by 2 and by 4.
    """
    n = g.total_degree
    top = max(i + j for i, j in quotient_basis_monomials(n))
    windows = sorted({max(top + 1, n), top + n, top + n + 2, top + n + 4})
    for degree in windows:
        reducer = GradientReducer(g, degree)
        try:
            rows = reducer.multiplication_rows(g)
        except DegeneracyError:  # gradient-reduction-unsolvable
            if degree == windows[-1]:
                raise
            continue
        return BezoutData(None, reducer.size, source=g, scaled_rows=rows)


def discriminant_biv(g: BiPoly):
    """(discriminant value, matrix data); the value is det of the matrix.

    Equals the product of g over the stationary points of g (generic case:
    both partials of full degree, no stationary points at infinity).
    """
    data = bezout_matrix_biv(g)
    return data.det, data


def multiple_zero_biv(data: BezoutData, strict: bool = True):
    """Coordinates of the unique common zero of g and both partials."""
    if data.size < 3:
        raise DegeneracyError(
            "basis-too-small", "coordinate recovery needs at least 3 basis monomials"
        )
    if strict and data.det:
        raise DegeneracyError("no-multiple-zero", "determinant does not vanish")
    r = _cofactor_ratios(data, 2)
    return r[0], r[1]


# ---------------------------------------------------------------------------
# parameter-dependent discriminants by evaluation / interpolation
# ---------------------------------------------------------------------------


def discriminant_param(pp: BiPoly) -> UniPoly:
    """Discriminant in the main variable of a parameter-dependent polynomial.

    pp is a pencil: a BiPoly whose first variable is the main one and whose
    second is the parameter, so row i of ``pp.coeffs`` is the parameter
    polynomial of main^i. Returns the exact polynomial in the parameter
    (unnormalized; callers usually take the primitive part). Nodes where the
    leading coefficient vanishes are skipped so every evaluation sees the
    generic degree.

    pp is cleared once to content * integer coefficients, so each node is an
    integer Horner evaluation and an integer discriminant. The discriminant
    of content * g is content^(2n - 1) times that of g, for main degree n.
    It is the (2n - 1) x (2n - 1) Sylvester determinant of g and g', whose
    entries have parameter degree at most d = deg2, so its interpolant over
    (2n - 1) d + 1 valid nodes is exact: interpolation stops there unless
    its early stop comes first.
    """
    n = pp.deg1
    if n < 2:
        raise ValueError("main degree must be at least 2")
    content, flat = int_clear([x for row in pp.coeffs for x in row])
    width = pp.deg2 + 1
    rows = [flat[i : i + width] for i in range(0, len(flat), width)]

    def compute(t):
        values = [_ieval(row, t) for row in rows]
        if not values[-1]:
            return None
        return discriminant_uni(values)

    degree = (2 * n - 1) * pp.deg2
    return interpolate_verified(compute, degree, pp.vars[1], proven=True) * content ** (2 * n - 1)


def discriminant_biv_param(
    build,
    expected_degree: int,
    degree_bound: int,
    var: str = "z",
) -> UniPoly:
    """Interpolated bivariate discriminant of a parameter-dependent polynomial.

    build(node) must return the specialized BiPoly or IntBiPoly; nodes where
    the total degree drops or the gradient reduction degenerates are skipped.

    The discriminant is a rational function of the coefficients, and when the
    leading form of the input carries the parameter (as the two-multiplier
    distance pencils do) its specialization acquires a pole at zero and
    nowhere else. The reconstruction therefore finds the minimal k for which
    z^k times the value function is a polynomial, verified at extra nodes.
    """

    def matrix_at(t):
        g = build(t)
        if g.total_degree != expected_degree:
            return None
        try:
            return bezout_matrix_biv(g)
        except DegeneracyError:
            return None

    n = expected_degree
    max_pole_order = 2 * n * (n - 1)
    matrices = NodeValues(matrix_at, skip_zero=True)

    def det_at(t):
        data = matrices(t)
        return None if data is None else data.det

    # probe: an identically vanishing determinant signals a singular branch
    # of the pencil that persists for every parameter value (symmetric
    # configurations); deflate it away by taking the product of the nonzero
    # eigenvalues of the matrix, i.e. the lowest nonvanishing coefficient of
    # its characteristic polynomial, at a fixed deflation index.
    if any(data.det for _, data in islice(matrices.points(), 6)):
        return interpolate_verified(det_at, degree_bound, var, max_pole_order)

    def lowest_char_coeff(t):
        data = matrices(t)
        if data is None:
            return None
        chi = char_poly(data.matrix, "x")
        return next((i, c) for i, c in enumerate(chi.coeffs) if c)

    lowest = NodeValues(lowest_char_coeff, skip_zero=True)
    indices = [i for _, (i, _) in islice(lowest.points(), 6)]
    index = max(set(indices), key=indices.count)

    def deflated_at(t):
        low = lowest(t)
        return low[1] if low is not None and low[0] == index else None

    return interpolate_verified(deflated_at, degree_bound, var, max_pole_order)
