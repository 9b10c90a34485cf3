"""The iterative simplest_in_interval against the recursive Fraction oracle."""

import random

import pytest

from helpers import fraction_simplest_in_interval
from qdist.scalar import QQ, simplest_in_interval, snap


def _rat(rng, size, den_digits):
    return QQ(rng.randint(-size, size), rng.randint(1, 10 ** rng.randint(1, den_digits)))


def _interval(rng, shape):
    lo = abs(_rat(rng, 10**6, 9))
    width = abs(_rat(rng, 1000, 12))
    if shape == "negative":
        return -lo - width, -lo
    if shape == "straddles-0":
        return -lo, width
    if shape == "equal-ends":
        return lo, lo
    if shape == "integer-ends":
        a = rng.randint(-50, 50)
        return QQ(a), QQ(a + rng.randint(0, 3))
    return lo, lo + width  # positive


@pytest.mark.parametrize(
    "shape", ["positive", "negative", "straddles-0", "equal-ends", "integer-ends"]
)
def test_simplest_in_interval_matches_recursive_oracle(shape):
    rng = random.Random(f"simplest/{shape}")
    for _ in range(300):
        lo, hi = _interval(rng, shape)
        if rng.random() < 0.5:
            lo, hi = hi, lo  # the ends may come in either order
        got = simplest_in_interval(lo, hi)
        assert got == fraction_simplest_in_interval(lo, hi)
        assert min(lo, hi) <= got <= max(lo, hi)


def test_snap_matches_oracle_on_narrow_brackets():
    # snap at 128 bits: brackets of width 2^-111 around values with big
    # denominators, the continued fractions recovery walks every time
    rng = random.Random(5)
    w = QQ(1, 1 << 112)
    for _ in range(100):
        v = QQ(rng.getrandbits(200) - (1 << 199), rng.getrandbits(150) + 1)
        assert snap(v, 128) == fraction_simplest_in_interval(v - w, v + w)
