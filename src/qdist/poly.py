"""Dense exact polynomial arithmetic.

UniPoly is a univariate polynomial with ascending, trimmed coefficients.
Coefficients are exact rationals; they may also be RatFunc values (rational
functions of one symbolic parameter) so that a parameter can ride along
through division and determinant computations.

BiPoly is a dense bivariate polynomial on a coefficient grid. A pencil,
whose discriminant in one variable is a polynomial in the other, is a
BiPoly with the main variable (mu or lam) first and the parameter (z)
second: row i of its grid is the parameter polynomial of main^i.

The exact kernels work on primitive integer coefficient lists and return
rational polynomials: gcds (the heuristic gcd, with the primitive remainder
sequence as fallback), Yun's square-free decomposition, resultants (the
subresultant sequence) and exact division. Interpolation runs at integer
nodes, so its divided differences stay integers until a division is inexact.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .errors import DegeneracyError
from .scalar import QQ, den, int_clear, is_rational, num


def _coerce(c):
    if isinstance(c, bool):
        raise TypeError("bool coefficient")
    if isinstance(c, int):
        return QQ(c)
    return c


class UniPoly:
    """Immutable univariate polynomial, coefficients ascending by power."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var="x"):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("UniPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var="x"):
        return cls((), var)

    @classmethod
    def const(cls, c, var="x"):
        return cls((c,), var)

    @classmethod
    def x(cls, var="x"):
        return cls((0, 1), var)

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else QQ(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if is_rational(other) or isinstance(other, RatFunc):
            if not self.coeffs:
                return not other
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(_coerce(other), self.var)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other if isinstance(other, UniPoly) else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = _coerce(other)
            return UniPoly([a * c for a in self.coeffs], self.var)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(self.var)
        out = [QQ(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, UniPoly):
            q, r = divrem(self, other)
            if r:
                raise ValueError("inexact polynomial division")
            return q
        c = _coerce(other)
        return UniPoly([a / c for a in self.coeffs], self.var)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly.const(1, self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift_up(self, k: int):
        """Multiply by var**k."""
        if not self.coeffs:
            return self
        return UniPoly((QQ(0),) * k + self.coeffs, self.var)

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:], self.var)

    def eval(self, point):
        point = _coerce(point)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        return acc if acc is not None else QQ(0)

    # -- rational-coefficient utilities -------------------------------------

    def primitive(self):
        """(content, primitive part); primitive has integer coefficients.

        The content is positive, so the sign stays on the primitive part.
        """
        c, ints = int_clear(self.coeffs)
        if not c:
            return QQ(0), self
        return c, UniPoly(ints, self.var)

    def normalized(self):
        """Primitive integer-coefficient polynomial with positive lead."""
        _, p = self.primitive()
        if p and p.lead < 0:
            p = -p
        return p

    def monic(self):
        if not self.coeffs:
            return self
        return self / self.lead

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{i}")
        return " + ".join(reversed(parts)).replace("+ -", "- ")


def divrem(numer: UniPoly, denom: UniPoly):
    """Exact division with remainder: numer = q*denom + r, deg r < deg denom."""
    if not denom:
        raise ZeroDivisionError("division by zero polynomial")
    var = numer.var
    r = list(numer.coeffs)
    d = denom.coeffs
    dd = len(d) - 1
    dlead = d[-1]
    if len(r) - 1 < dd:
        return UniPoly.zero(var), numer
    q = [QQ(0)] * (len(r) - dd)
    for k in range(len(r) - 1 - dd, -1, -1):
        c = r[k + dd]
        if not c:
            continue
        f = c / dlead
        q[k] = f
        for j in range(dd + 1):
            r[k + j] = r[k + j] - f * d[j]
    return UniPoly(q, var), UniPoly(r[:dd], var)


# ---------------------------------------------------------------------------
# integer kernels: gcd, square-free decomposition, resultant
# ---------------------------------------------------------------------------


def _ideg(a):
    return len(a) - 1


def _itrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _iprimitive(a):
    g = math.gcd(*a)
    if g > 1:
        a = [v // g for v in a]
    return a


def _ipositive(a):
    """a with its leading coefficient made positive."""
    return [-v for v in a] if a[-1] < 0 else a


def _iderivative(a):
    return [i * v for i, v in enumerate(a)][1:]


def _imonic(a, var) -> UniPoly:
    lead = a[-1]
    return UniPoly([QQ(v, lead) for v in a], var)


def _iprem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over the integers."""
    r = list(a)
    db = _ideg(b)
    lb = b[-1]
    e = _ideg(r) - db + 1
    while r and _ideg(r) >= db:
        top = r[-1]
        shift = _ideg(r) - db
        r = [c * lb for c in r]
        for j in range(db + 1):
            r[shift + j] -= top * b[j]
        _itrim(r)
        e -= 1
    if e > 0 and r:
        scale = lb**e
        r = [c * scale for c in r]
    return r


def _iexquo(a, b):
    """a / b over the integers when b divides a there, else None."""
    db = _ideg(b)
    lb = b[-1]
    r = list(a)
    if _ideg(r) < db:
        return None if any(r) else []
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if not c:
            continue
        f, m = divmod(c, lb)
        if m:
            return None
        q[k] = f
        for j in range(db):
            r[k + j] -= f * b[j]
    return None if any(r[:db]) else q


def _prs_gcd(a, b):
    """Primitive gcd of primitive integer polynomials by the primitive PRS."""
    if _ideg(a) < _ideg(b):
        a, b = b, a
    while b:
        r = _iprem(a, b)
        a, b = b, _iprimitive(r)
    return _ipositive(a)


def _ieval(a, x):
    acc = 0
    for v in reversed(a):
        acc = acc * x + v
    return acc


# evaluation points the heuristic gcd tries before the remainder sequence
GCDHEU_TRIES = 6


def _heuristic_gcd(a, b):
    """Primitive gcd of primitive integer polynomials by GCDHEU, or None.

    Char, Geddes & Gonnet (JSC 1989): the integer gcd of a(xi) and b(xi),
    read back as balanced xi-adic digits, has a primitive part h. With
    xi >= 2 * min(|a|, |b|) + 2 (max-norms), h is the gcd as soon as it
    divides both a and b exactly; otherwise xi grows and is tried again.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(GCDHEU_TRIES):
        gamma = math.gcd(_ieval(a, xi), _ieval(b, xi))
        digits = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        h = _ipositive(_iprimitive(digits))
        if _iexquo(a, h) is not None and _iexquo(b, h) is not None:
            return h
        xi = xi * 73794 // 27011
    return None


def _igcd(a, b):
    """Primitive gcd, lead positive, of two integer polynomials (b may be 0)."""
    a = _iprimitive(a)
    if not b:
        return _ipositive(a)
    b = _iprimitive(b)
    if len(a) == 1 or len(b) == 1:
        return [1]
    h = _heuristic_gcd(a, b)
    return h if h is not None else _prs_gcd(a, b)


def field_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by plain Euclid; works for any exact field coefficients."""
    a, b = p, q
    while b:
        _, r = divrem(a, b)
        a, b = b, r
    if not a:
        return a
    return a.monic()


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over the rationals, computed on primitive integer vectors.

    The heuristic gcd is tried first; the primitive remainder sequence
    answers when it fails ``GCDHEU_TRIES`` times.
    """
    if not p:
        return q.monic() if q else q
    if not q:
        return p.monic()
    return _imonic(_igcd(int_clear(p.coeffs)[1], int_clear(q.coeffs)[1]), p.var)


def _integer_yun(a):
    """Yun's square-free decomposition of a primitive integer polynomial.

    Returns (primitive factor, multiplicity) by ascending multiplicity; every
    division is exact over the integers because each divisor is primitive.
    """
    out = []
    if len(a) == 1:
        return out
    da = _iderivative(a)
    g = _igcd(a, da)
    w, y = _iexquo(a, g), _iexquo(da, g)
    i = 1
    while len(w) > 1:
        z = _itrim([u - v for u, v in zip_longest(y, _iderivative(w), fillvalue=0)])
        h = _igcd(w, z)
        if len(h) > 1:
            out.append((h, i))
        w, y = _iexquo(w, h), _iexquo(z, h)
        i += 1
    return out


def squarefree_factors(p: UniPoly):
    """(m, factors): p = c * var^m * prod f^k over ``factors`` = [(f, k)].

    Each f is a square-free primitive integer coefficient list (ascending,
    lead positive) with f(0) != 0, the f are pairwise coprime and the k
    ascend. The root at 0 is stripped before Yun's algorithm runs.
    """
    if not p:
        raise ValueError("zero polynomial")
    a = int_clear(p.coeffs)[1]
    m = 0
    while not a[m]:
        m += 1
    return m, _integer_yun(a[m:])


def squarefree_decomposition(p: UniPoly):
    """Yun decomposition: list of (monic factor, multiplicity).

    The product of factor^multiplicity equals p up to a nonzero constant;
    the factors are pairwise coprime and their multiplicities ascend. The
    root at 0 joins the factor of its multiplicity, or forms its own.
    """
    if p.degree == 0:
        return []
    m, factors = squarefree_factors(p)
    if m:
        ks = [k for _, k in factors]
        if m in ks:
            i = ks.index(m)
            factors[i] = ([0] + factors[i][0], m)
        else:
            i = sum(1 for k in ks if k < m)
            factors.insert(i, ([0, 1], m))
    return [(_imonic(f, p.var), k) for f, k in factors]


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'); same distinct roots, all simple."""
    g, sf = gcd_squarefree(p)
    return sf


def gcd_squarefree(p: UniPoly):
    """(monic gcd(p, p'), p / gcd)."""
    if not p:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return UniPoly.const(1, p.var), p
    content, a = int_clear(p.coeffs)
    g = _igcd(a, _iderivative(a))
    # p / (g / lead g) = content * lead(g) * (a / g)
    scale = content * g[-1]
    return _imonic(g, p.var), UniPoly([scale * v for v in _iexquo(a, g)], p.var)


def resultant(p: UniPoly, q: UniPoly):
    """Resultant with the convention lead(p)^deg(q) * prod q(roots of p).

    Computed by the subresultant polynomial remainder sequence.
    """
    if not p or not q:
        raise ValueError("resultant of the zero polynomial")
    cp, a = int_clear(p.coeffs)
    cq, b = int_clear(q.coeffs)
    return cp**q.degree * cq**p.degree * _int_resultant(a, b)


def _subresultant_prs(a, b):
    """The subresultant remainder sequence of integer vectors a, b.

    Brown & Traub (JACM 1971): each pseudo-remainder is divided exactly by
    the scale the sequence carries, so every element is, up to sign, a
    subresultant of (a, b), with coefficients no larger. Requires
    deg a >= deg b >= 1. Yields (sign, h, a, b) after each division: b is
    the new element ([] once an element divides the one before it), a the
    element before it, h the current scale, and sign the resultant's sign
    so far. Stops once b has degree 0 or less.
    """
    s = g = h = 1
    while True:
        da, db = _ideg(a), _ideg(b)
        delta = da - db
        if (da % 2 == 1) and (db % 2 == 1):
            s = -s
        r = _iprem(a, b)
        a = b
        denom = g * h**delta
        b = [c // denom for c in r]
        if b:
            g = a[-1]
            h = h if delta == 0 else (g**delta // h ** (delta - 1))
        yield s, h, a, b
        if _ideg(b) <= 0:
            return


def _int_resultant(a, b):
    """resultant(a, b) of nonzero integer vectors; a constant operand c
    gives c^(degree of the other)."""
    if _ideg(a) == 0:
        return a[0] ** _ideg(b)
    if _ideg(b) == 0:
        return b[0] ** _ideg(a)
    s = 1
    if _ideg(a) < _ideg(b):
        if (_ideg(a) % 2 == 1) and (_ideg(b) % 2 == 1):
            s = -s
        a, b = b, a
    for sign, h, a, b in _subresultant_prs(a, b):
        pass  # the resultant is read off the sequence's last element
    if not b:
        return 0
    da = _ideg(a)
    final = b[0] ** da // h ** (da - 1) if da >= 1 else h
    return s * sign * final


def _first_subresultant(a):
    """(s1, s0) of the degree-1 subresultant s1 * x + s0 of (a, a'), up to
    a common factor, or None when the sequence has no element of degree 1.

    a is an integer vector of degree at least 3. An element of degree 1 in
    the sequence is similar to that subresultant; with none, the
    subresultant is zero or a constant.
    """
    for _, _, _, b in _subresultant_prs(a, _iderivative(a)):
        if len(b) == 2:
            return b[1], b[0]
    return None


# ---------------------------------------------------------------------------
# rational functions of one parameter (coefficient field for UniPoly)
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of two univariate rational-coefficient polynomials.

    Canonical form: gcd removed, monic denominator. Supports mixed
    arithmetic with ints and rationals so it can serve as a coefficient
    field for UniPoly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, var="a"):
        if not isinstance(num, UniPoly):
            num = UniPoly.const(_coerce(num), var)
        if den is None:
            den = UniPoly.const(1, num.var)
        elif not isinstance(den, UniPoly):
            den = UniPoly.const(_coerce(den), num.var)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if num and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num / g
                den = den / g
        lc = den.lead
        if lc != 1:
            num = num / lc
            den = den / lc
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def parameter(cls, var="a"):
        return cls(UniPoly.x(var))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if is_rational(other):
            return self.den.degree == 0 and self.num == UniPoly.const(other, self.num.var)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def _lift(self, other):
        if isinstance(other, RatFunc):
            return other
        if is_rational(other):
            return RatFunc(UniPoly.const(other, self.num.var))
        if isinstance(other, UniPoly):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if not self.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(o.num * self.den, o.den * self.num)

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc(self.den**(-k), self.num**(-k))
        return RatFunc(self.num**k, self.den**k)

    def derivative(self):
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def eval(self, point):
        dv = self.den.eval(point)
        if not dv:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(point) / dv

    def __repr__(self):
        if self.den == UniPoly.const(1, self.den.var):
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


class BiPoly:
    """Dense bivariate polynomial; coeffs[i][j] goes with v1^i * v2^j."""

    __slots__ = ("coeffs", "vars")

    def __init__(self, coeffs, vars=("x1", "x2")):
        rows = [[_coerce(c) for c in row] for row in coeffs]
        width = max((len(r) for r in rows), default=0)
        rows = [r + [QQ(0)] * (width - len(r)) for r in rows]
        while rows and all(not c for c in rows[-1]):
            rows.pop()
        if rows:
            w = len(rows[0])
            while w > 1 and all(not r[w - 1] for r in rows):
                w -= 1
            rows = [r[:w] for r in rows]
        object.__setattr__(self, "coeffs", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "vars", tuple(vars))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls, vars=("x1", "x2")):
        return cls([], vars)

    @classmethod
    def const(cls, c, vars=("x1", "x2")):
        return cls([[c]], vars)

    @classmethod
    def variable(cls, which: int, vars=("x1", "x2")):
        if which == 0:
            return cls([[0], [1]], vars)
        return cls([[0, 1]], vars)

    @classmethod
    def from_terms(cls, terms, vars=("x1", "x2")):
        """terms: mapping (i, j) -> coefficient."""
        if not terms:
            return cls.zero(vars)
        d1 = max(i for i, _ in terms)
        d2 = max(j for _, j in terms)
        rows = [[QQ(0)] * (d2 + 1) for _ in range(d1 + 1)]
        for (i, j), c in terms.items():
            rows[i][j] = rows[i][j] + _coerce(c)
        return cls(rows, vars)

    @property
    def deg1(self) -> int:
        return len(self.coeffs) - 1

    @property
    def deg2(self) -> int:
        return len(self.coeffs[0]) - 1 if self.coeffs else -1

    @property
    def total_degree(self) -> int:
        best = -1
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c and i + j > best:
                    best = i + j
        return best

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def coeff(self, i, j):
        if 0 <= i < len(self.coeffs) and 0 <= j < len(self.coeffs[0]):
            return self.coeffs[i][j]
        return QQ(0)

    def terms(self):
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    yield (i, j), c

    def int_terms(self):
        """(content, [(monomial, int)]): self is content times the primitive
        integer terms, and the content is positive (0 for the zero poly)."""
        terms = list(self.terms())
        content, ints = int_clear([c for _, c in terms])
        return content, [(m, x) for (m, _), x in zip(terms, ints)]

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other, self.vars)
        r1 = max(len(self.coeffs), len(other.coeffs))
        r2 = max(self.deg2 + 1, other.deg2 + 1, 1)
        rows = [[self.coeff(i, j) + other.coeff(i, j) for j in range(r2)] for i in range(r1)]
        return BiPoly(rows, self.vars)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly([[-c for c in row] for row in self.coeffs], self.vars)

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other, self.vars)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            c = _coerce(other)
            return BiPoly([[a * c for a in row] for row in self.coeffs], self.vars)
        if not self.coeffs or not other.coeffs:
            return BiPoly.zero(self.vars)
        out = [
            [QQ(0)] * (self.deg2 + other.deg2 + 1)
            for _ in range(self.deg1 + other.deg1 + 1)
        ]
        for (i, j), a in self.terms():
            for (k, l), b in other.terms():
                out[i + k][j + l] = out[i + k][j + l] + a * b
        return BiPoly(out, self.vars)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = BiPoly.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self, which: int) -> "BiPoly":
        if which == 0:
            rows = [
                [i * c for c in row] for i, row in enumerate(self.coeffs)
            ][1:]
            return BiPoly(rows, self.vars)
        rows = [[j * row[j] for j in range(1, len(row))] for row in self.coeffs]
        return BiPoly(rows, self.vars)

    def eval(self, p1, p2):
        p1, p2 = _coerce(p1), _coerce(p2)
        acc = QQ(0)
        for row in reversed(self.coeffs):
            inner = QQ(0)
            for c in reversed(row):
                inner = inner * p2 + c
            acc = acc * p1 + inner
        return acc

    def eval_var(self, which: int, value) -> UniPoly:
        """Substitute one variable, producing a UniPoly in the other."""
        value = _coerce(value)
        if which == 0:
            out = [QQ(0)] * (self.deg2 + 1 if self.coeffs else 0)
            p = QQ(1)
            for row in self.coeffs:
                for j, c in enumerate(row):
                    out[j] = out[j] + c * p
                p = p * value
            return UniPoly(out, self.vars[1])
        out = []
        for row in self.coeffs:
            acc = QQ(0)
            for c in reversed(row):
                acc = acc * value + c
            out.append(acc)
        return UniPoly(out, self.vars[0])

    def __repr__(self):
        parts = []
        for (i, j), c in self.terms():
            parts.append(f"{c}*{self.vars[0]}^{i}*{self.vars[1]}^{j}")
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# exact interpolation
# ---------------------------------------------------------------------------


class NewtonInterp:
    """Incremental Newton interpolation, exact.

    Integer nodes and values keep the divided differences integers: each is
    taken by ``divmod``, and only a division that leaves a remainder makes a
    rational. Rational nodes or values work too.
    """

    def __init__(self, var="x"):
        self.var = var
        self.xs = []
        self.diffs = []  # leading column of the divided-difference table
        self._row = []  # last row of the table, the only one add_point needs

    def add_point(self, x, y):
        x, y = _integral(x), _integral(y)
        row = [y]
        xs = self.xs
        for k, prev in enumerate(self._row):
            row.append(_divide(row[k] - prev, x - xs[len(xs) - 1 - k]))
        xs.append(x)
        self._row = row
        self.diffs.append(row[-1])

    def tail_is_zero(self, count: int) -> bool:
        """True if the last ``count`` divided differences vanish."""
        if len(self.diffs) < count:
            return False
        return all(not d for d in self.diffs[-count:])

    def polynomial(self, drop: int = 0) -> UniPoly:
        """The interpolant of all points but the last ``drop``."""
        size = len(self.xs) - drop
        if size <= 0:
            return UniPoly.zero(self.var)
        acc = [self.diffs[size - 1]]  # Horner in the Newton basis, ascending
        for i in range(size - 2, -1, -1):
            x = self.xs[i]
            acc.append(acc[-1])
            for j in range(len(acc) - 2, 0, -1):
                acc[j] = acc[j - 1] - x * acc[j]
            acc[0] = self.diffs[i] - x * acc[0]
        return UniPoly(acc, self.var)


def _integral(v):
    """v, as an int when it is an integral rational."""
    if isinstance(v, int) or den(v) != 1:
        return v
    return num(v)


def _divide(a, b):
    """a / b, exact; an int whenever the quotient is an integer."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return QQ(a, b) if r else q
    return _integral(a / b)


def interpolate(points, var="x") -> UniPoly:
    it = NewtonInterp(var)
    for x, y in points:
        it.add_point(x, y)
    return it.polynomial()


def integer_nodes():
    """Deterministic stream of small distinct integers: 0, 1, -1, 2, -2, ..."""
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


# invalid nodes an exact function may have before it counts as degenerate
SKIP_BUDGET = 60


class NodeValues:
    """An exact function of one integer node, evaluated at most once per node.

    compute(t) returns the value at t, or None at a node that must be skipped
    (a specialization that drops degree or degenerates). Callers that probe a
    few nodes before interpolating share the values through one instance,
    which lives no longer than the call that made it.
    """

    def __init__(self, compute, skip_zero=False):
        self._compute = compute
        self._skip_zero = skip_zero
        self._cache = {}

    def __call__(self, t):
        if t not in self._cache:
            self._cache[t] = self._compute(t)
        return self._cache[t]

    def points(self):
        """(node, value) at the valid nodes, in the order of integer_nodes()."""
        nodes = integer_nodes()
        if self._skip_zero:
            next(nodes)
        skips = 0
        for t in nodes:
            y = self(t)
            if y is not None:
                yield t, y
                continue
            skips += 1
            if skips > SKIP_BUDGET:
                raise DegeneracyError(
                    "degenerate-specialization", "too many invalid interpolation nodes"
                )


# modulus of interpolate_verified's pole-order screen (the Mersenne prime 2^61 - 1)
SCREEN_PRIME = (1 << 61) - 1


def _residue(v):
    """The rational v modulo SCREEN_PRIME, or None when that divides its denominator."""
    d = den(v) % SCREEN_PRIME
    if not d:
        return None
    return num(v) * pow(d, -1, SCREEN_PRIME) % SCREEN_PRIME


def _exact_tables(nodes, values, k, width, var):
    """Newton tables, one per component, of t^k * value(t) over the nodes."""
    tables = [NewtonInterp(var) for _ in range(width)]
    for t, y in zip(nodes, values):
        for j, it in enumerate(tables):
            it.add_point(t, _entry(y, j) * t**k)
    return tables


def interpolate_verified(
    compute, bound: int, var="x", max_pole_order: int = 0, proven: bool = False
):
    """Exact polynomial recovered from an exact function of one rational.

    compute is a function as NodeValues takes, evaluated at most once per
    node. Its values are rationals, or tuples of rationals that are
    interpolated componentwise (a list of polynomials is returned; short
    tuples are padded with zeros).
    One pass over the valid nodes stops at the first node where, for some
    pole order k <= max_pole_order (the smallest on a tie), every component
    of t^k * value(t) has 3 vanishing last divided differences: its
    interpolant of the earlier nodes matches exactly at those 3. With
    max_pole_order > 0 the node 0, the possible pole, is never used. The
    bound is a guess: order k is dropped after 2 * bound + k + 4 points (the
    bound doubled once, plus 3 verification nodes); with every order
    dropped, the function counts as degenerate. With ``proven`` (and
    max_pole_order = 0) the bound is a proven degree bound instead, and the
    interpolant of bound + 1 nodes is returned when the early stop has not
    come first.

    The differences are screened modulo the prime SCREEN_PRIME: each order
    keeps one table of residues per component, and only an order whose
    residues pass gets exact Newton tables, built over the same nodes and
    then kept up to date node by node. Exact differences that vanish also
    vanish modulo the prime, so the order, node and polynomial returned are
    those of exact tables for every order. A value whose denominator the
    prime divides moves every order to exact tables. With max_pole_order = 0
    there is nothing to screen: the exact tables start at the first node.
    """
    nodes, values, width = [], [], 0
    # k -> residue tables; a single order would only fill its exact tables later
    screens = {k: [] for k in range(max_pole_order + 1)} if max_pole_order else {}
    exact = {} if max_pole_order else {0: []}  # k -> Newton tables
    for t, y in NodeValues(compute, skip_zero=max_pole_order > 0).points():
        row = _row(y)
        residues = tuple(_residue(v) for v in row) if screens else ()
        if None in residues:
            for k in screens:
                exact[k] = _exact_tables(nodes, values, k, width, var)
            screens = {}
        inverses = [pow(t - x, -1, SCREEN_PRIME) for x in reversed(nodes)] if screens else []
        nodes.append(t)
        values.append(row)
        width = max(width, len(row))
        for k, table in screens.items():
            while len(table) < len(row):  # a new component: zero so far
                table.append(([0] * (len(nodes) - 1), [0] * (len(nodes) - 1)))
            tk = pow(t, k, SCREEN_PRIME)
            for j, (last, diffs) in enumerate(table):
                new = [_entry(residues, j) * tk % SCREEN_PRIME]
                for i, prev in enumerate(last):
                    new.append((new[i] - prev) * inverses[i] % SCREEN_PRIME)
                last[:] = new
                diffs.append(new[-1])
        for k, tables in exact.items():
            while len(tables) < len(row):
                tables.append(NewtonInterp(var))
                for x in nodes[:-1]:
                    tables[-1].add_point(x, 0)
            for j, it in enumerate(tables):
                it.add_point(t, _entry(y, j) * t**k)
        for k in sorted(screens.keys() | exact.keys()):
            if len(nodes) < 3:
                break
            if k in screens and not any(any(diffs[-3:]) for _, diffs in screens[k]):
                del screens[k]
                exact[k] = _exact_tables(nodes, values, k, width, var)
            if k in exact and all(it.tail_is_zero(3) for it in exact[k]):
                polys = [it.polynomial(drop=3) for it in exact[k]]
                return polys if isinstance(y, tuple) else polys[0]
        if proven and len(nodes) > bound:
            polys = [it.polynomial() for it in exact[0]]
            return polys if isinstance(y, tuple) else polys[0]
        limit = len(nodes) - 2 * bound - 4
        screens = {k: table for k, table in screens.items() if k > limit}
        exact = {k: tables for k, tables in exact.items() if k > limit}
        if not screens and not exact:
            break
    raise DegeneracyError(
        "interpolation-verification", "interpolated polynomial failed verification"
    )


def _row(y):
    return y if isinstance(y, tuple) else (y,)


def _entry(y, j):
    row = _row(y)
    return row[j] if j < len(row) else 0
