"""Exact real-root isolation and refinement.

Every computation is exact. Roots are reported as disjoint isolating
intervals with rational ends (zero-width for roots that are recognized as
rational), with exact multiplicities taken from the square-free
decomposition, which Yun's algorithm computes over the integers with the
root at 0 stripped first. Isolation bisects intervals in the manner of
Vincent, Collins and Akritas: each interval carries the product of the
square-free factors mapped onto (0, 1) as an integer polynomial, and
Descartes' rule of signs counts its roots there.

Every isolating interval keeps the one square-free factor that holds its
root, with integer coefficients, so refinement computes no square-free part
of its own: it bisects the rational bracket by sign tests of that factor.
The factor has no other root in the bracket, so the brackets are those the
whole square-free part would give. A refined root is returned exact when it
is hit by a midpoint or when the simplest rational in the final bracket is
a root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import NoPositiveRootError
from .poly import UniPoly, squarefree_factors, squarefree_part
from .scalar import QQ, den, int_clear, num, simplest_in_interval

ALL_POSITIVE = "all-positive"
ALL_NEGATIVE = "all-negative"
MIXED_OR_ZERO = "mixed-or-zero"
NO_REAL_ROOTS = "none"


@dataclass(frozen=True)
class IsolatingInterval:
    """Open interval (lo, hi) containing exactly one distinct real root.

    lo == hi means the root is the exact rational lo. ``poly`` is the
    square-free factor of the isolated polynomial whose roots have this
    multiplicity, with integer coefficients and any root at 0 divided out
    (the variable itself for the root 0). On an inexact interval it is
    nonzero at both ends, changes sign across it and has no other root in
    it, and refinement bisects on it.
    """

    lo: object
    hi: object
    multiplicity: int
    poly: UniPoly = field(compare=False, repr=False)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self):
        return (self.lo + self.hi) / 2

    @property
    def width(self):
        return self.hi - self.lo


def _unit_transform(cs, lo, hi):
    """Primitive integer polynomial q with q(y) ~ p(lo + (hi - lo) y).

    ``cs`` are p's integer coefficients, ascending. The roots of q in (0, 1)
    are the images of p's roots in (lo, hi). With lo = a/d and hi - lo = c/d,
    Horner's rule builds d^n p((a + c y)/d) in integers.
    """
    d = lcm(den(lo), den(hi))
    a, c = num(lo * d), num((hi - lo) * d)
    acc = [cs[-1]]
    scale = 1
    for k in range(len(cs) - 2, -1, -1):
        scale *= d
        nxt = [a * x for x in acc] + [0]
        for i, x in enumerate(acc):
            nxt[i + 1] += c * x
        nxt[0] += cs[k] * scale
        acc = nxt
    g = gcd(*acc)
    return [x // g for x in acc]


def _halve(q):
    """2^n q(y/2): the left half of (0, 1) stretched onto (0, 1).

    The common power of two of the coefficients is divided out.
    """
    n = len(q) - 1
    out = [c << (n - k) for k, c in enumerate(q)]
    twos = min((c & -c).bit_length() for c in out if c) - 1
    return [c >> twos for c in out] if twos else out


def _shift_by_one(q):
    """q(y + 1), by the Taylor shift of repeated synthetic division."""
    q = list(q)
    n = len(q) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            q[k] += q[k + 1]
    return q


def _descartes(q):
    """Sign variations of (y + 1)^n q(1/(y + 1)).

    Descartes' rule of signs bounds the number of q's roots in (0, 1),
    counted with multiplicity, by this number and matches its parity; a
    count of 0 or 1 is therefore exact.
    """
    count = prev = 0
    for c in _shift_by_one(q[::-1]):
        if c:
            if prev and (c > 0) != (prev > 0):
                count += 1
            prev = c
    return count


def _split(q):
    """(left half, right half) of q on (0, 1); right[0] == 0 iff q(1/2) == 0."""
    left = _halve(q)
    return left, _shift_by_one(left)


def _count_roots(q):
    """Exact number of roots in (0, 1) of a square-free integer polynomial.

    A root at 0 or 1 changes no Descartes count, so it is never counted.
    """
    count = _descartes(q)
    if count < 2:
        return count
    left, right = _split(q)
    if right[0]:
        return _count_roots(left) + _count_roots(right)
    return _count_roots(left) + 1 + _count_roots(right[1:])


def count_roots(p: UniPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    if not p:
        raise ValueError("zero polynomial")
    return _count_roots(_unit_transform(int_clear(squarefree_part(p).coeffs)[1], lo, hi))


def root_bound(p: UniPoly):
    """Rational B with every real root of p strictly inside (-B, B)."""
    lead = abs(p.lead)
    m = max((abs(c) for c in p.coeffs[:-1]), default=QQ(0))
    return QQ(2) + m / lead


def _isolate_squarefree(s: UniPoly, lo, hi):
    """Disjoint open isolating intervals for roots of square-free s in (lo, hi).

    Requires s(lo) != 0 and s(hi) != 0. Each interval carries s mapped onto
    (0, 1) as an integer polynomial, whose Descartes count decides whether
    the interval is dropped, kept or halved.
    """
    cs = int_clear(s.coeffs)[1]
    out = []
    stack = [(lo, hi, _unit_transform(cs, lo, hi))]
    while stack:
        a, b, q = stack.pop()
        n = _descartes(q)
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        left, right = _split(q)
        if not right[0]:
            # exact root at the midpoint; carve out a root-free neighborhood
            delta = (b - a) / 4
            while True:
                if s.eval(m - delta) and s.eval(m + delta):
                    if _count_roots(_unit_transform(cs, m - delta, m + delta)) == 1:
                        break
                delta = delta / 2
            out.append((m, m))
            stack.append((a, m - delta, _unit_transform(cs, a, m - delta)))
            stack.append((m + delta, b, _unit_transform(cs, m + delta, b)))
        else:
            stack.append((a, m, left))
            stack.append((m, b, right))
    return out


def isolate_real_roots(p: UniPoly):
    """Isolating intervals for all distinct real roots, sorted ascending."""
    if not p:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return []
    zero_mult, int_factors = squarefree_factors(p)
    factors = [(UniPoly(f, p.var), k) for f, k in int_factors]
    # the root at zero is stripped, so every other interval has a fixed sign
    s_rest = UniPoly.const(1, p.var)
    for f, _ in factors:
        s_rest = s_rest * f
    raw = []
    if s_rest.degree >= 1:
        b = root_bound(s_rest)
        eps = QQ(1)
        while not s_rest.eval(eps) or not s_rest.eval(-eps):
            eps = eps / 2
        # split at zero so every interval lies on one side of it
        for lo, hi in ((-b, -eps), (-eps, QQ(0)), (QQ(0), eps), (eps, b)):
            raw.extend(_isolate_squarefree(s_rest, lo, hi))
    # collapse intervals whose root is a recognizable rational
    refined = []
    for a, bnd in raw:
        if a == bnd:
            refined.append((a, bnd))
            continue
        cand = simplest_in_interval(a, bnd)
        if cand != a and cand != bnd and not s_rest.eval(cand):
            refined.append((cand, cand))
        else:
            refined.append((a, bnd))
    # each root takes the multiplicity of the square-free factor that holds
    # it, and keeps that factor: its only root in the bracket is this one
    out = []
    if zero_mult:
        out.append(IsolatingInterval(QQ(0), QQ(0), zero_mult, UniPoly.x(p.var)))
    for a, bnd in refined:
        for f, k in factors:
            if a == bnd:
                if not f.eval(a):
                    break
            else:
                fa, fb = f.eval(a), f.eval(bnd)
                if fa and fb and (fa > 0) != (fb > 0):
                    break
        else:
            raise AssertionError("could not attribute a multiplicity")
        out.append(IsolatingInterval(a, bnd, k, f))
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def _bisect(iv: IsolatingInterval, bits: int):
    """Shrink the bracket to width <= 2^-bits; returns (lo, hi), lo == hi if exact."""
    if iv.exact:
        return iv.lo, iv.lo
    s = iv.poly
    lo, hi = iv.lo, iv.hi
    flo = s.eval(lo)
    target = QQ(1, 1 << bits)
    while hi - lo > target:
        mid = (lo + hi) / 2
        v = s.eval(mid)
        if not v:
            return mid, mid
        if (v > 0) == (flo > 0):
            lo = mid
            flo = v
        else:
            hi = mid
    cand = simplest_in_interval(lo, hi)
    if cand != lo and cand != hi and not s.eval(cand):
        return cand, cand
    return lo, hi


def refine(iv: IsolatingInterval, bits: int):
    """Rational approximation within 2^-bits of the root isolated by iv."""
    lo, hi = _bisect(iv, bits)
    return lo if lo == hi else (lo + hi) / 2


def refine_interval(iv: IsolatingInterval, bits: int) -> IsolatingInterval:
    """Shrink the isolating interval to width at most 2^-bits."""
    lo, hi = _bisect(iv, bits)
    return IsolatingInterval(lo, hi, iv.multiplicity, iv.poly)


def positive_roots(p: UniPoly):
    """Isolating intervals of the positive real roots, ascending.

    Intervals never straddle zero, so a bracket starting at 0 is positive
    unless it is the exact root 0.
    """
    return [
        iv for iv in isolate_real_roots(p)
        if (iv.exact and iv.lo > 0) or (not iv.exact and iv.lo >= 0)
    ]


def min_positive_zero(p: UniPoly, bits: int = 128):
    """Smallest positive real root: (approximation, is_simple, multiplicity)."""
    roots = positive_roots(p)
    if not roots:
        raise NoPositiveRootError()
    iv = roots[0]
    return refine(iv, bits), iv.multiplicity == 1, iv.multiplicity


def root_sign_counts(intervals):
    """(#negative, #zero, #positive) distinct roots among isolating intervals.

    Intervals never straddle zero, so each one isolates a root of one sign.
    """
    zero = sum(1 for iv in intervals if iv.exact and not iv.lo)
    pos = sum(1 for iv in intervals if iv.lo >= 0) - zero
    return len(intervals) - zero - pos, zero, pos


def root_signs_summary(intervals) -> str:
    """Classify the signs of the roots isolated by ``intervals``."""
    neg, zero, pos = root_sign_counts(intervals)
    if zero or (neg and pos):
        return MIXED_OR_ZERO
    if pos:
        return ALL_POSITIVE
    if neg:
        return ALL_NEGATIVE
    return NO_REAL_ROOTS


def real_root_signs(p: UniPoly) -> str:
    """Classify signs of the real roots of p."""
    return root_signs_summary(isolate_real_roots(p))
