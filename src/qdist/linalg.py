"""Exact dense linear algebra over the rationals.

Determinant, rank, solution, inverse and definiteness of a rational matrix
share one fraction-free elimination: each row is cleared of denominators,
then Bareiss keeps every entry an integer minor, so growth stays
polynomial. A determinant with other exact field entries (rational
functions of a parameter) runs the same elimination, dividing in the field.
"""

from __future__ import annotations

from itertools import islice
from math import prod
from operator import floordiv, truediv

from .errors import SingularMatrixError
from .poly import UniPoly, _ieval, integer_nodes, interpolate
from .scalar import QQ, RAT_TYPE, int_clear


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
# fraction-free elimination: determinants, rank, solving
# ---------------------------------------------------------------------------


def _pivot(a, r, c, prev, div):
    """Clear column c below the pivot a[r][c] by one Bareiss step; returns the pivot.

    The division by the previous pivot is exact (Sylvester's identity).
    """
    pivot, top = a[r][c], a[r]
    for row in a[r + 1 :]:
        f = row[c]
        for j in range(c + 1, len(top)):
            row[j] = div(row[j] * pivot - f * top[j], prev)
        row[c] = 0
    return pivot


def _eliminate(a, width, div=floordiv):
    """Fraction-free echelon form (Bareiss, Math. Comp. 1968) of the rows a,
    in place, pivoting on the first ``width`` columns.

    Returns (rank, sign of the row swaps). On integer rows every entry stays
    an integer minor of the input. Other exact field entries (rational
    functions of a parameter) pass ``div=truediv``.
    """
    r, sign, prev = 0, 1, 1
    for c in range(width):
        i = r
        while i < len(a) and not a[i][c]:
            i += 1
        if i == len(a):
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        prev = _pivot(a, r, c, prev, div)
        r += 1
    return r, sign


def _det(a, div=floordiv):
    """Determinant of the square rows a, which the elimination overwrites;
    a zero of the entries' type when a is singular."""
    r, sign = _eliminate(a, len(a), div)
    return sign * a[-1][-1] if r == len(a) else a[0][0] * 0


def _scaled_det(scaled_rows):
    """Determinant of the matrix whose rows are (scale, integer row) pairs."""
    return prod(s for s, _ in scaled_rows) * _det([list(ints) for _, ints in scaled_rows])


def determinant(m: MatrixQ):
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    if all(isinstance(c, RAT_TYPE) for row in m.entries for c in row):
        return _scaled_det([int_clear(row) for row in m.entries])
    return _det([list(row) for row in m.entries], truediv)


def cofactor(m: MatrixQ, i, j):
    if m.rows == 1:
        return QQ(1)
    minor = determinant(m.submatrix(i, j))
    return minor if (i + j) % 2 == 0 else -minor


def adjugate(m: MatrixQ) -> MatrixQ:
    """Adjugate matrix: m * adj(m) = det(m) * I, also for singular m."""
    if not m.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    d = determinant(m) if n > 4 else 0
    if d:
        return inverse(m).scale(d)
    return MatrixQ([[cofactor(m, j, i) for j in range(n)] for i in range(n)])


def _solve(m: MatrixQ, columns):
    """The solutions x of m x = b, one per column b, from one elimination of
    the cleared rows of [m | b ...]. Its last pivot d is the determinant of
    the cleared m up to sign, so d * x is integral (Cramer's rule) and the
    back substitution divides integers exactly.
    """
    if not m.is_square:
        raise ValueError("solve requires a square matrix")
    n = m.rows
    a = [int_clear(list(row) + [b[i] for b in columns])[1] for i, row in enumerate(m.entries)]
    if _eliminate(a, n)[0] < n:
        raise SingularMatrixError()
    d = a[-1][n - 1]
    solutions = []
    for k in range(n, n + len(columns)):
        y = [0] * n
        for i in reversed(range(n)):
            row = a[i]
            y[i] = (d * row[k] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
        solutions.append([QQ(v, d) for v in y])
    return solutions


def solve_linear(m: MatrixQ, rhs: VectorQ) -> VectorQ:
    """Exact solution of m x = rhs for nonsingular m."""
    if m.is_square and m.rows != rhs.dim:
        raise ValueError("shape mismatch")
    return VectorQ(_solve(m, [rhs])[0])


def inverse(m: MatrixQ) -> MatrixQ:
    return MatrixQ.from_columns(_solve(m, [VectorQ.unit(m.rows, i) for i in range(m.rows)]))


def rank(m: MatrixQ) -> int:
    return _eliminate([int_clear(row)[1] for row in m.entries], m.cols)[0]


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


def _inertia(a):
    """(#negative, #zero, #positive) eigenvalues of the symmetric integer rows a.

    A symmetric elimination with diagonal pivots p_1, p_2, ... is a congruence
    to diag(p_1, p_2 / p_1, ...): Sylvester's law of inertia. When the
    remaining diagonal is 0 but a_ij is not, adding row and column j to row
    and column i (a congruence) makes a_ii = 2 a_ij.
    """
    n, prev, same = len(a), 1, []
    for r in range(n):
        i = next((i for i in range(r, n) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a[r:]:
                row[i] += row[j]
        a[r], a[i] = a[i], a[r]
        for row in a[r:]:
            row[r], row[i] = row[i], row[r]
        p = _pivot(a, r, r, prev, floordiv)
        same.append((p > 0) == (prev > 0))
        prev = p
    pos = sum(same)
    return len(same) - pos, n - len(same), pos


def definiteness(m: MatrixQ) -> str:
    """Exact sign classification of a symmetric matrix, by its inertia."""
    if not m.is_symmetric():
        raise ValueError("definiteness requires a symmetric matrix")
    n = m.rows
    # one positive scale for the whole matrix keeps the congruence symmetric
    ints = int_clear([c for row in m.entries for c in row])[1]
    neg, zero, pos = _inertia([ints[i : i + n] for i in range(0, n * n, n)])
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
    evaluations and an integer Bareiss determinant, times the rows' scales.
    """
    scale, ints, bound = QQ(1), [], 0
    for row in entries:
        row = [c if isinstance(c, UniPoly) else UniPoly.const(c, var) for c in row]
        bound += max(max(c.degree, 0) for c in row)
        factor, flat = int_clear([x for c in row for x in c.coeffs])
        scale *= factor
        it = iter(flat)
        ints.append([list(islice(it, len(c.coeffs))) for c in row])

    def det_at(t):
        return scale * _det([[_ieval(e, t) for e in row] for row in ints])

    return interpolate(_node_points(det_at, bound), var)


def det_bipoly_matrix(entries, vars=("x1", "x2")):
    """Determinant of a square matrix of BiPoly/scalar entries, as a BiPoly."""
    from .poly import BiPoly

    scale, ints, b1, b2 = QQ(1), [], 0, 0
    for row in entries:
        row = [c if isinstance(c, BiPoly) else BiPoly.const(c, vars) for c in row]
        b1 += max(max(c.deg1, 0) for c in row)
        b2 += max(max(c.deg2, 0) for c in row)
        factor, flat = int_clear([x for c in row for r in c.coeffs for x in r])
        scale *= factor
        it = iter(flat)
        ints.append([[list(islice(it, len(r))) for r in c.coeffs] for c in row])

    def det_at(t1, t2):
        values = [[_ieval([_ieval(r, t2) for r in e], t1) for e in row] for row in ints]
        return scale * _det(values)

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
