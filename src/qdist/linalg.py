"""Exact dense linear algebra over the rationals.

Determinants run fraction-free (denominators cleared per row, then Bareiss
over the integers) so intermediate growth stays polynomial. The same Bareiss
loop accepts any exact field entries (rational functions, polynomials with
exact division), which the elimination constructions rely on.
"""

from __future__ import annotations

from itertools import islice
from math import lcm

from .errors import SingularMatrixError
from .poly import UniPoly, _ieval, integer_nodes, interpolate
from .scalar import QQ, RAT_TYPE, den, is_rational, num, rational


def _coerce_entry(c):
    if isinstance(c, bool):
        raise TypeError("bool entry")
    if isinstance(c, int):
        return QQ(c)
    return c


class VectorQ:
    """Immutable exact vector."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = tuple(_coerce_entry(e) for e in entries)
        if not es:
            raise ValueError("empty vector")
        object.__setattr__(self, "entries", es)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("VectorQ is immutable")

    @classmethod
    def zero(cls, n):
        return cls([QQ(0)] * n)

    @classmethod
    def unit(cls, n, i):
        return cls([QQ(1) if j == i else QQ(0) for j in range(n)])

    @property
    def dim(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, VectorQ) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        return VectorQ([a + b for a, b in zip(self.entries, other.entries, strict=True)])

    def __sub__(self, other):
        return VectorQ([a - b for a, b in zip(self.entries, other.entries, strict=True)])

    def __neg__(self):
        return VectorQ([-a for a in self.entries])

    def scale(self, c):
        c = _coerce_entry(c)
        return VectorQ([a * c for a in self.entries])

    def dot(self, other):
        return sum((a * b for a, b in zip(self.entries, other.entries, strict=True)), QQ(0))

    def norm2(self):
        return self.dot(self)

    def is_zero(self):
        return all(not e for e in self.entries)

    def __repr__(self):
        return "VectorQ(" + ", ".join(str(e) for e in self.entries) + ")"


class MatrixQ:
    """Immutable exact matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_coerce_entry(c) for c in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", w)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("MatrixQ is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[QQ(1) if i == j else QQ(0) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([[QQ(0)] * c for _ in range(r)])

    @classmethod
    def diag(cls, values):
        values = list(values)
        n = len(values)
        return cls([[values[i] if i == j else QQ(0) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns):
        cols = [list(c) for c in columns]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged columns")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    # -- queries -----------------------------------------------------------

    @property
    def is_square(self):
        return self.rows == self.cols

    def entry(self, i, j):
        return self.entries[i][j]

    def row(self, i):
        return VectorQ(self.entries[i])

    def col(self, j):
        return VectorQ([r[j] for r in self.entries])

    def is_symmetric(self):
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def __eq__(self, other):
        return isinstance(other, MatrixQ) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return MatrixQ(
            [
                [a + b for a, b in zip(r1, r2, strict=True)]
                for r1, r2 in zip(self.entries, other.entries, strict=True)
            ]
        )

    def __sub__(self, other):
        return MatrixQ(
            [
                [a - b for a, b in zip(r1, r2, strict=True)]
                for r1, r2 in zip(self.entries, other.entries, strict=True)
            ]
        )

    def __neg__(self):
        return MatrixQ([[-c for c in row] for row in self.entries])

    def scale(self, c):
        c = _coerce_entry(c)
        return MatrixQ([[a * c for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, VectorQ):
            if self.cols != other.dim:
                raise ValueError("shape mismatch")
            return VectorQ(
                [sum((a * b for a, b in zip(row, other.entries)), QQ(0)) for row in self.entries]
            )
        if isinstance(other, MatrixQ):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.entries))
            return MatrixQ(
                [
                    [sum((a * b for a, b in zip(row, col)), QQ(0)) for col in ot]
                    for row in self.entries
                ]
            )
        return self.scale(other)

    def transpose(self):
        return MatrixQ(list(zip(*self.entries)))

    def submatrix(self, drop_row, drop_col):
        return MatrixQ(
            [
                [c for j, c in enumerate(row) if j != drop_col]
                for i, row in enumerate(self.entries)
                if i != drop_row
            ]
        )

    def leading_principal(self, k):
        return MatrixQ([row[:k] for row in self.entries[:k]])

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in row) for row in self.entries)
        return f"MatrixQ[{body}]"


def block_matrix(blocks):
    """Assemble a matrix from a 2-D grid of MatrixQ blocks."""
    rows = []
    for brow in blocks:
        height = brow[0].rows
        for i in range(height):
            rows.append([c for blk in brow for c in blk.entries[i]])
    return MatrixQ(rows)


# ---------------------------------------------------------------------------
# determinants / solving
# ---------------------------------------------------------------------------


def _det_bareiss_int(rows):
    """Bareiss determinant of an integer matrix (list of int lists)."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri = a[i]
            rk = a[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - aik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _det_generic(rows):
    """Fraction-free Bareiss over any exact field entries."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                zero = a[k][k]
                return zero * 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                v = a[i][j] * pivot - aik * a[k][j]
                a[i][j] = v if prev is None else v / prev
            a[i][k] = aik * 0
        prev = pivot
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def determinant(m: MatrixQ):
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    if all(isinstance(c, RAT_TYPE) for row in m.entries for c in row):
        # clear denominators row-wise, integer Bareiss, undo scaling
        scale, rows = 1, []
        for row in m.entries:
            l = lcm(*(den(c) for c in row))
            scale *= l
            rows.append([num(c) * (l // den(c)) for c in row])
        return QQ(_det_bareiss_int(rows), scale)
    return _det_generic(m.entries)


def cofactor(m: MatrixQ, i, j):
    minor = determinant(m.submatrix(i, j))
    return minor if (i + j) % 2 == 0 else -minor


def adjugate(m: MatrixQ) -> MatrixQ:
    """Adjugate matrix: m * adj(m) = det(m) * I, also for singular m."""
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    if n == 1:
        return MatrixQ([[QQ(1)]])
    if n <= 4:
        return MatrixQ([[cofactor(m, j, i) for j in range(n)] for i in range(n)])
    d = determinant(m)
    if d:
        inv = inverse(m)
        return inv.scale(d)
    return MatrixQ([[cofactor(m, j, i) for j in range(n)] for i in range(n)])


def solve_linear(m: MatrixQ, rhs: VectorQ) -> VectorQ:
    """Exact solution of m x = rhs for nonsingular m."""
    if not m.is_square:
        raise ValueError("solve requires a square matrix")
    if m.rows != rhs.dim:
        raise ValueError("shape mismatch")
    n = m.rows
    a = [list(row) + [rhs[i]] for i, row in enumerate(m.entries)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k]:
                piv = i
                break
        if piv is None:
            raise SingularMatrixError()
        a[k], a[piv] = a[piv], a[k]
        pk = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / pk
            if not f:
                continue
            for j in range(k, n + 1):
                a[i][j] = a[i][j] - f * a[k][j]
    x = [QQ(0)] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * x[j]
        x[k] = acc / a[k][k]
    return VectorQ(x)


def inverse(m: MatrixQ) -> MatrixQ:
    cols = [solve_linear(m, VectorQ.unit(m.rows, i)) for i in range(m.rows)]
    return MatrixQ.from_columns([list(c) for c in cols])


def rank(m: MatrixQ) -> int:
    a = [list(r) for r in m.entries]
    r = 0
    for c in range(m.cols):
        piv = None
        for i in range(r, m.rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pk = a[r][c]
        for i in range(r + 1, m.rows):
            f = a[i][c] / pk
            if f:
                for j in range(c, m.cols):
                    a[i][j] = a[i][j] - f * a[r][j]
        r += 1
        if r == m.rows:
            break
    return r


# ---------------------------------------------------------------------------
# definiteness classification
# ---------------------------------------------------------------------------

POSITIVE_DEFINITE = "positive-definite"
NEGATIVE_DEFINITE = "negative-definite"
INDEFINITE = "indefinite"
SEMIDEFINITE_DEGENERATE = "semidefinite-degenerate"


def char_poly(m: MatrixQ, var="x") -> UniPoly:
    """det(var*I - m), by exact interpolation."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")

    def shifted_det(t):
        shifted = MatrixQ(
            [
                [t - c if i == j else -c for j, c in enumerate(row)]
                for i, row in enumerate(m.entries)
            ]
        )
        return determinant(shifted)

    return interpolate(_node_points(shifted_det, m.rows), var)


def eigenvalue_sign_counts(m: MatrixQ):
    """(#negative, #zero, #positive) eigenvalue signs of a symmetric matrix.

    Counts come from the isolated roots of the characteristic polynomial, so
    they refer to distinct eigenvalues; only presence/absence of each sign is
    meaningful to callers.
    """
    from .realroots import isolate_real_roots, root_sign_counts

    return root_sign_counts(isolate_real_roots(char_poly(m)))


def definiteness(m: MatrixQ) -> str:
    """Exact sign classification of a symmetric matrix."""
    if not m.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    n = m.rows
    minors = [determinant(m.leading_principal(k)) for k in range(1, n + 1)]
    if all(minors):
        if all(d > 0 for d in minors):
            return POSITIVE_DEFINITE
        # order-k leading minor of a negative definite matrix has sign (-1)^k
        if all((d > 0) == (k % 2 == 1) for k, d in enumerate(minors)):
            return NEGATIVE_DEFINITE
        return INDEFINITE
    neg, zero, pos = eigenvalue_sign_counts(m)
    if pos and neg:
        return INDEFINITE
    if zero:
        return SEMIDEFINITE_DEGENERATE
    return POSITIVE_DEFINITE if pos else NEGATIVE_DEFINITE


# ---------------------------------------------------------------------------
# determinants of matrices with polynomial entries (by interpolation)
# ---------------------------------------------------------------------------


def _node_points(f, degree: int):
    """(t, f(t)) at the first degree + 1 integer nodes; exact bounds need no check."""
    return [(t, f(t)) for t in islice(integer_nodes(), degree + 1)]


def det_unipoly_matrix(entries, var="x") -> UniPoly:
    """Determinant of a square matrix of UniPoly/scalar entries.

    Each row is cleared of denominators once, so a node is integer Horner
    evaluations and an integer Bareiss determinant, divided by the scales.
    """
    scale, ints, bound = 1, [], 0
    for row in entries:
        row = [c if isinstance(c, UniPoly) else UniPoly.const(c, var) for c in row]
        bound += max(max(c.degree, 0) for c in row)
        l = lcm(*(den(x) for c in row for x in c.coeffs))
        scale *= l
        ints.append([[num(x) * (l // den(x)) for x in c.coeffs] for c in row])

    def det_at(t):
        return QQ(_det_bareiss_int([[_ieval(e, t) for e in row] for row in ints]), scale)

    return interpolate(_node_points(det_at, bound), var)


def det_bipoly_matrix(entries, vars=("x1", "x2")):
    """Determinant of a square matrix of BiPoly/scalar entries, as a BiPoly."""
    from .poly import BiPoly

    scale, ints, b1, b2 = 1, [], 0, 0
    for row in entries:
        row = [c if isinstance(c, BiPoly) else BiPoly.const(c, vars) for c in row]
        b1 += max(max(c.deg1, 0) for c in row)
        b2 += max(max(c.deg2, 0) for c in row)
        l = lcm(*(den(x) for c in row for r in c.coeffs for x in r))
        scale *= l
        ints.append([[[num(x) * (l // den(x)) for x in r] for r in c.coeffs] for c in row])

    def det_at(t1, t2):
        values = [[_ieval([_ieval(r, t2) for r in e], t1) for e in row] for row in ints]
        return QQ(_det_bareiss_int(values), scale)

    # interpolate in var2 for each var1 node, then in var1 coefficientwise
    polys_at_node1 = _node_points(
        lambda t1: interpolate(_node_points(lambda t2: det_at(t1, t2), b2), vars[1]), b1
    )
    grid_rows = [
        interpolate([(t1, p.coeff(j)) for t1, p in polys_at_node1], vars[0])
        for j in range(b2 + 1)
    ]
    terms = {}
    for j, p in enumerate(grid_rows):
        for i, c in enumerate(p.coeffs):
            if c:
                terms[(i, j)] = c
    return BiPoly.from_terms(terms, vars)
