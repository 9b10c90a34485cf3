"""Exact real-root isolation and refinement.

Every computation is exact. Roots are reported as disjoint isolating
intervals with rational ends (zero-width for roots that are recognized as
rational), with exact multiplicities taken from the square-free
decomposition, which Yun's algorithm computes over the integers with the
root at 0 stripped first. Isolation bisects intervals in the manner of
Vincent, Collins and Akritas: each interval carries the product of the
square-free factors mapped onto (0, 1) as an integer polynomial, and
Descartes' rule of signs counts its roots there. The tree is walked left
half first, so the roots come ascending and lazily: a caller that takes the
first positive root alone isolates that root alone, and no negative one.

The tree of the positive range (eps, B) has B = 2 + max|c| / |lead|, which
can lie far above every root (2^171 for a degree-85 F(z) whose first root
is below 55). Isolation starts instead at the deepest node of the tree's
left spine, (eps, eps + (B - eps) / 2^j), whose right end still reaches
Fujiwara's bound 2 max |a_(n-i) / a_n|^(1/i) on every complex root, taken
up to a power of two from bit lengths; the negative range starts on its
right spine, mirrored. The intervals do not change. The nodes skipped
above the start hold the start node and siblings with no root, and the
spine's midpoints there are no roots, so the walk from the top would reach
the start node and yield nothing else. The Descartes count of a node is at
least that of each half, so when the start node counts 2 or more every
node above it splits, as the walk from the top does; when it counts 1, the
walk from the top stops at the highest spine node that counts 1, which a
bisection over the spine's depth finds.

Every isolating interval keeps the one square-free factor that holds its
root, with integer coefficients, so refinement computes no square-free part
of its own: it bisects the rational bracket by sign tests of that factor.
The factor has no other root in the bracket, so the brackets are those the
whole square-free part would give. A refined root is returned exact when it
is hit by a midpoint or when the simplest rational in the final bracket is
a root. A caller may hand over a narrower open bracket said to hold the
root; once two sign tests confirm it, only the midpoints inside it are
evaluated, and the brackets stay those of plain bisection.
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
    """q(y + 1)'s coefficients, ascending, each once a synthetic division fixes it."""
    q = list(q)
    n = len(q) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            q[k] += q[k + 1]
        yield q[i]
    yield q[n]


def _descartes(q):
    """Sign variations of (y + 1)^n q(1/(y + 1)), counted up to 2.

    Descartes' rule of signs bounds the number of q's roots in (0, 1),
    counted with multiplicity, by this number and matches its parity; a
    count of 0 or 1 is therefore exact, and 2 stands for 2 or more, so the
    shift stops at the second variation.
    """
    count = prev = 0
    for c in _shift_by_one(q[::-1]):
        if c:
            if prev and (c > 0) != (prev > 0):
                count += 1
                if count == 2:
                    break
            prev = c
    return count


def _scaled_eval(cs, x):
    """d^n p(a/d) for x = a/d and p's integer coefficients cs, ascending.

    An integer with the sign of p(x), zero exactly when x is a root.
    """
    a, d = num(x), den(x)
    acc, power = cs[-1], 1
    for c in reversed(cs[:-1]):
        power *= d
        acc = acc * a + c * power
    return acc


def _imul(a, b):
    """The product of two integer coefficient vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def holds_root(f: UniPoly, lo, hi) -> bool:
    """Whether f has a root in the bracket: at lo == hi, or strictly inside."""
    a, b = f.eval(lo), f.eval(hi)
    return not a if lo == hi else bool(a and b and (a > 0) != (b > 0))


def _count_roots(q):
    """Exact number of roots in (0, 1) of a square-free integer polynomial.

    A root at 0 or 1 changes no Descartes count, so it is never counted.
    """
    count = _descartes(q)
    if count < 2:
        return count
    left = _halve(q)
    right = list(_shift_by_one(left))
    if right[0]:
        return _count_roots(left) + _count_roots(right)
    return _count_roots(left) + 1 + _count_roots(right[1:])


def count_roots(p: UniPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    if not p:
        raise ValueError("zero polynomial")
    return _count_roots(_unit_transform(int_clear(squarefree_part(p).coeffs)[1], lo, hi))


def _root_bound(cs):
    return QQ(2) + QQ(max(map(abs, cs[:-1]), default=0), abs(cs[-1]))


def root_bound(p: UniPoly):
    """Rational B = 2 + max|c| / |lead|: every real root of p is inside (-B, B)."""
    return _root_bound(int_clear(p.coeffs)[1])


def _fujiwara_exponent(cs):
    """k with every complex root of the integer vector cs below 2^k in modulus.

    Fujiwara (1916) bounds each root by 2 max_i |a_(n-i) / a_n|^(1/i). As
    |a| < 2^bitlen(a) and |a_n| >= 2^(bitlen(a_n) - 1), the i-th term is
    below 2^ceil((bitlen(a_(n-i)) - bitlen(a_n) + 1) / i).
    """
    lead = abs(cs[-1]).bit_length()
    terms = (-((lead - abs(c).bit_length() - 1) // i)
             for i, c in enumerate(reversed(cs[:-1]), 1) if c)
    return 1 + max(terms, default=0)


def _isolate_below_bound(cs, eps, b, top, positive):
    """The intervals of ``_isolate_squarefree(cs, eps, b)`` (positive) or
    ``_isolate_squarefree(cs, -b, -eps)``, started below the bound ``top``.

    ``top`` exceeds the modulus of every root of cs, and eps < b. The spine
    node at depth i is (eps, eps + (b - eps) / 2^i) on the positive range,
    and its mirror image on the negative one; see the module docstring for
    why the intervals are the same.
    """
    width = b - eps
    if top <= eps:
        return  # no root beyond eps
    ratio = width / (top - eps)
    depth = (num(ratio) // den(ratio)).bit_length() - 1 if ratio >= 1 else 0

    def node(i):
        end = eps + width / (1 << i)
        return (eps, end) if positive else (-end, -eps)

    start = _unit_transform(cs, *node(depth))
    count = _descartes(start)
    if count >= 2:
        yield from _isolate_squarefree(cs, *node(depth), start)
    elif count == 1:
        high, low = 0, depth  # the counts fall with depth, and node(low) counts 1
        while high < low:
            mid = (high + low) // 2
            if _descartes(_unit_transform(cs, *node(mid))) == 1:
                low = mid
            else:
                high = mid + 1
        yield node(low)


def _isolate_squarefree(cs, lo, hi, q=None):
    """Disjoint open isolating intervals for roots of square-free cs in (lo, hi).

    cs are integer coefficients, ascending, nonzero at lo and hi. Each
    interval carries cs mapped onto (0, 1) as an integer polynomial, whose
    Descartes count decides whether the interval is dropped, kept or
    halved; q is that polynomial for (lo, hi) when the caller has it. The
    tree is walked left half first, so the intervals come ascending, and a
    subtree is bisected only once the intervals below it have been taken.
    """
    stack = [(lo, hi, _unit_transform(cs, lo, hi) if q is None else q, False)]
    while stack:
        a, b, q, shift = stack.pop()
        if q is None:  # an exact root at a midpoint, after the roots below it
            yield a, a
            continue
        if shift:  # a right half, stretched only once it is taken
            q = list(_shift_by_one(q))
        n = _descartes(q)
        if n == 0:
            continue
        if n == 1:
            yield a, b
            continue
        m = (a + b) / 2
        left = _halve(q)
        if not sum(left):  # q(1/2) == 0
            # exact root at the midpoint; carve out a root-free neighborhood
            delta = (b - a) / 4
            while True:
                if _scaled_eval(cs, m - delta) and _scaled_eval(cs, m + delta):
                    if _count_roots(_unit_transform(cs, m - delta, m + delta)) == 1:
                        break
                delta = delta / 2
            stack.append((m + delta, b, _unit_transform(cs, m + delta, b), False))
            stack.append((m, m, None, False))
            stack.append((a, m - delta, _unit_transform(cs, a, m - delta), False))
        else:
            stack.append((m, b, left, True))
            stack.append((a, m, left, False))


def _ascending_roots(p: UniPoly, positive: bool):
    """Isolating intervals of p's distinct real roots, ascending and lazy.

    Each interval is isolated, collapsed and attributed only when it is
    taken. With ``positive`` the negative ranges and the root 0 are skipped.
    """
    if not p:
        raise ValueError("zero polynomial")
    if p.degree < 1:
        return
    zero_mult, int_factors = squarefree_factors(p)
    factors = [(UniPoly(f, p.var), k) for f, k in int_factors]
    # the root at zero is stripped, so every other interval has a fixed sign
    s_rest = [1]
    for f, _ in int_factors:
        s_rest = _imul(s_rest, f)

    def interval(a, bnd):
        # collapse an interval whose root is a recognizable rational
        if a != bnd:
            cand = simplest_in_interval(a, bnd)
            if cand != a and cand != bnd and not _scaled_eval(s_rest, cand):
                a = bnd = cand
        # the root takes the multiplicity of the square-free factor that
        # holds it, and keeps that factor: its only root in the bracket
        for f, k in factors:
            if holds_root(f, a, bnd):
                return IsolatingInterval(a, bnd, k, f)
        raise AssertionError("could not attribute a multiplicity")

    below = above = ()  # lazy walks of the ranges below and above zero
    if len(s_rest) > 1:
        b = _root_bound(s_rest)
        top = QQ(2) ** _fujiwara_exponent(s_rest)
        eps = QQ(1)
        while not _scaled_eval(s_rest, eps) or not _scaled_eval(s_rest, -eps):
            eps = eps / 2
        # split at zero so every interval lies on one side of it
        below = (_isolate_below_bound(s_rest, eps, b, top, False),
                 _isolate_squarefree(s_rest, -eps, QQ(0)))
        above = (_isolate_squarefree(s_rest, QQ(0), eps),
                 _isolate_below_bound(s_rest, eps, b, top, True))
    if not positive:
        for walk in below:
            yield from (interval(*iv) for iv in walk)
        if zero_mult:
            yield IsolatingInterval(QQ(0), QQ(0), zero_mult, UniPoly.x(p.var))
    for walk in above:
        yield from (interval(*iv) for iv in walk)


def isolate_real_roots(p: UniPoly, positive: bool = False):
    """Isolating intervals for the distinct (or only the positive) real roots, ascending."""
    return list(_ascending_roots(p, positive))


def _confirmed(iv: IsolatingInterval, bracket):
    """The open bracket (a, b), clipped to iv, if iv's root is shown to lie in it.

    iv's factor has one root in iv, so a sign change across the clipped
    bracket places that root strictly inside it. None otherwise.
    """
    a, b = max(bracket[0], iv.lo), min(bracket[1], iv.hi)
    if a >= b:
        return None
    fa, fb = iv.poly.eval(a), iv.poly.eval(b)
    return (a, b) if fa and fb and (fa > 0) != (fb > 0) else None


def _skip(lo, hi, inner, target):
    """(lo, hi) after the bisection steps whose midpoints lie outside ``inner``.

    ``inner`` is an open interval that holds the root, and the steps stop at
    width ``target``, as plain bisection's do. In units of the width, from
    lo, the step at depth j keeps the part [m, m + 1] / 2^j that holds
    inner's left end, m = floor(u_a 2^j), and it holds the right end while
    m + 1 >= u_b 2^j. A midpoint strictly inside inner separates its ends,
    so the parts that hold both are those reached while every midpoint lies
    outside; the deepest one is found by bisecting on j.
    """
    width = hi - lo
    ua = (max(inner[0], lo) - lo) / width
    ub = (min(inner[1], hi) - lo) / width
    ratio = width / target
    steps = (-(-num(ratio) // den(ratio)) - 1).bit_length()  # plain bisection's

    def left(j):
        return (num(ua) << j) // den(ua)

    low, high = 0, steps
    while low < high:
        j = (low + high + 1) // 2
        if (left(j) + 1) * den(ub) >= num(ub) << j:
            low = j
        else:
            high = j - 1
    part = width / (1 << low)
    m = left(low)
    return lo + m * part, lo + (m + 1) * part


def _bisect(iv: IsolatingInterval, bits: int, bracket=None):
    """Shrink the bracket to width <= 2^-bits; returns (lo, hi), lo == hi if exact.

    ``bracket`` is an open interval (a, b) said to hold the same root. Once
    ``_confirmed``, the steps whose midpoints lie at or outside it are taken
    without a sign test (``_skip``): such a midpoint is no root, and the
    bracket says on which side the root lies. Only midpoints inside it are
    evaluated, so the brackets are those of plain bisection.
    """
    if iv.exact:
        return iv.lo, iv.lo
    s = iv.poly
    lo, hi = iv.lo, iv.hi
    flo = s.eval(lo)
    inner = bracket and _confirmed(iv, bracket)
    target = QQ(1, 1 << bits)
    while hi - lo > target:
        if inner:
            lo, hi = _skip(lo, hi, inner, target)
            if hi - lo <= target:
                break
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


def refine_interval(iv: IsolatingInterval, bits: int, bracket=None) -> IsolatingInterval:
    """Shrink the isolating interval to width at most 2^-bits.

    ``bracket``, an open interval said to hold the same root, saves sign
    tests when two of them confirm it; the result is the same either way.
    """
    lo, hi = _bisect(iv, bits, bracket)
    return IsolatingInterval(lo, hi, iv.multiplicity, iv.poly)


def positive_roots(p: UniPoly):
    """Isolating intervals of the positive real roots, ascending and lazy."""
    return _ascending_roots(p, True)


def min_positive_zero(p: UniPoly, bits: int = 128):
    """Smallest positive real root: (approximation, is_simple, multiplicity)."""
    iv = next(positive_roots(p), None)
    if iv is None:
        raise NoPositiveRootError()
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
