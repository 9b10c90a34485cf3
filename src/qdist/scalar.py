"""Exact rational scalars and low-level numeric helpers.

Everything in the package computes over arbitrary-precision rationals.
The backend is chosen at import: gmpy2's mpq when the optional gmpy2
extra is installed, otherwise the standard library's fractions.Fraction,
which is the default and the backend the test suite runs on. Both are
exact; gmpy2 is faster. ``RAT_TYPE`` names the backend in use.
"""

from __future__ import annotations

import math
import sys

# exact coefficients routinely exceed the default str() guard for huge ints
try:
    sys.set_int_max_str_digits(2_000_000)
except AttributeError:  # pragma: no cover - older interpreters have no limit
    pass

try:
    import gmpy2 as _g
    from gmpy2 import mpq as QQ

    def _isqrt(n: int) -> int:
        return int(_g.isqrt(n))

except ImportError:  # the default backend when the gmpy2 extra is absent
    from fractions import Fraction as QQ

    def _isqrt(n: int) -> int:
        return math.isqrt(n)

RAT_TYPE = type(QQ(0))


def rational(value, den=None):
    """Coerce an int, "p/q" string or rational to an exact rational."""
    if den is not None:
        return QQ(value, den)
    if isinstance(value, RAT_TYPE):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return QQ(value)
    if isinstance(value, str):
        try:
            return QQ(value.strip().replace(" ", ""))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_rational(value) -> bool:
    return isinstance(value, (int, RAT_TYPE))


def num(q) -> int:
    return int(q.numerator)


def den(q) -> int:
    return int(q.denominator)


def int_clear(values):
    """(content, ints) with values == [content * k for k in ints].

    The content is a positive rational (0 when every value is 0) and the
    integers are primitive, carrying the signs.
    """
    lcm = math.lcm(*(den(v) for v in values))
    ints = [num(v) * (lcm // den(v)) for v in values]
    g = math.gcd(*ints)
    if g > 1:
        ints = [k // g for k in ints]
    return QQ(g, lcm), ints


def format_rational(q) -> str:
    """Serialize as "p" or "p/q" (never a float)."""
    q = rational(q)
    if den(q) == 1:
        return str(num(q))
    return f"{num(q)}/{den(q)}"


def sqrt_lower(q, bits: int):
    """Largest k/(d*2^bits) whose square is <= q; error below 2^-bits."""
    q = rational(q)
    if q < 0:
        raise ValueError("negative radicand")
    p, d = num(q), den(q)
    k = _isqrt((p * d) << (2 * bits))
    return QQ(k, d << bits)


def sqrt_approx(q, bits: int):
    """Rational approximation of sqrt(q) with a proven error bound."""
    return sqrt_lower(q, bits), QQ(1, 1 << bits)


def tolerance(bits: int):
    """Residual acceptance threshold tied to a refinement width."""
    return QQ(1, 1 << (bits // 2))


def snap(value, bits: int):
    """Simplest rational within 2^-max(bits - 16, 0) of the value.

    ``bits`` is the refinement precision; the snap keeps 16 guard bits below
    it and never widens past 1. Recovery formulas are Lipschitz in their
    inputs, so working with the snapped value keeps residuals far below
    tolerance while keeping the intermediate integers small.
    """
    w = QQ(1, 1 << max(bits - 16, 0))
    return simplest_in_interval(value - w, value + w)


def simplest_in_interval(lo, hi):
    """Rational with the smallest denominator inside the closed interval.

    Each continued-fraction quotient f that both ends share maps [a/b, c/d]
    to [1/(c/d - f), 1/(a/b - f)] and extends the convergents p/q.
    """
    lo, hi = rational(lo), rational(hi)
    if hi < lo:
        lo, hi = hi, lo
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return QQ(0)
    sign = -1 if lo < 0 else 1
    if lo < 0:
        lo, hi = -hi, -lo
    a, b, c, d = num(lo), den(lo), num(hi), den(hi)
    p0, p1, q0, q1 = 1, 0, 0, 1
    while (-a // b) * -d > c:  # no integer in [a/b, c/d]
        f = a // b
        a, b, c, d = d, c - f * d, b, a - f * b
        p0, p1, q0, q1 = p0 * f + p1, p0, q0 * f + q1, q0
    k = -(-a // b)
    return QQ(sign * (p0 * k + p1), q0 * k + q1)


def decimal_str(q, digits: int = 30) -> str:
    """Round-to-nearest positional decimal with ``digits`` significant digits."""
    q = rational(q)
    if q == 0:
        return "0"
    neg = q < 0
    q = -q if neg else q
    p, d = num(q), den(q)
    # exponent e such that 10^e <= q < 10^(e+1); bit_length avoids huge str()
    e = int((p.bit_length() - d.bit_length()) * 0.30103)
    while 10 ** max(e, 0) * d > p * 10 ** max(-e, 0):
        e -= 1
    while 10 ** max(e + 1, 0) * d <= p * 10 ** max(-(e + 1), 0):
        e += 1
    shift = digits - 1 - e
    if shift >= 0:
        m = (2 * p * 10**shift + d) // (2 * d)
    else:
        scale = d * 10**(-shift)
        m = (2 * p + scale) // (2 * scale)
    if len(str(m)) > digits:  # rounding carried into an extra digit
        m //= 10
        e += 1
    s = str(m)
    point = e + 1
    if 0 < point <= len(s):
        text = s[:point] + ("." + s[point:] if point < len(s) else "")
    elif point <= 0:
        text = "0." + "0" * (-point) + s
    else:
        text = s + "0" * (point - len(s))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return ("-" if neg else "") + text
