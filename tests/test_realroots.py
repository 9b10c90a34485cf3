import hashlib
import random

from helpers import _var_at, assert_printed, rand_poly, sturm_chain, workload_problems
from qdist import realroots
from qdist.errors import NoPositiveRootError
from qdist.poly import UniPoly, divrem, squarefree_part
from qdist.realroots import (
    ALL_NEGATIVE,
    ALL_POSITIVE,
    MIXED_OR_ZERO,
    NO_REAL_ROOTS,
    IsolatingInterval,
    isolate_real_roots,
    min_positive_zero,
    positive_roots,
    real_root_signs,
    refine,
    root_bound,
)
from qdist.scalar import QQ, decimal_str, format_rational, int_clear

import pytest

Z = UniPoly.x("z")


def test_isolate_simple_rational_roots():
    roots = isolate_real_roots((Z - 1) * (Z - 4))
    assert [(iv.lo, iv.hi, iv.multiplicity) for iv in roots] == [
        (QQ(1), QQ(1), 1),
        (QQ(4), QQ(4), 1),
    ]


def test_isolate_with_multiplicities():
    roots = isolate_real_roots((Z - 1) ** 2 * (Z - 2))
    assert [(iv.lo, iv.multiplicity) for iv in roots] == [(QQ(1), 2), (QQ(2), 1)]


def test_isolate_corrected_quartic_from_axis_problem():
    # quartic whose two real zeros the worked ellipsoid example reports
    f = UniPoly(
        [61289436065, -1086769525104, 245988221152, -38807307008, 1331935488], "z"
    )
    roots = isolate_real_roots(f)
    reals = [refine(iv, 80) for iv in roots]
    assert len(reals) == 2
    assert_printed(reals[0], "0.05712805")
    assert_printed(reals[1], "22.54560673")


def test_min_positive_zero_multiple():
    value, simple, mult = min_positive_zero((Z - 1) ** 2 * (Z - 2))
    assert value == 1 and not simple and mult == 2


def test_min_positive_zero_point_family_factorizations():
    # (z-(x0-2)^2)(z-(x0+2)^2)(3z-(3-x0^2))^2 at x0=3: minimal positive simple 1
    x0 = QQ(3)
    f = (Z - (x0 - 2) ** 2) * (Z - (x0 + 2) ** 2) * (3 * Z - (3 - x0**2)) ** 2
    value, simple, mult = min_positive_zero(f)
    assert value == 1 and simple and mult == 1
    # same family at x0=1: minimal positive zero 2/3 with multiplicity 2
    x0 = QQ(1)
    f = (Z - (x0 - 2) ** 2) * (Z - (x0 + 2) ** 2) * (3 * Z - (3 - x0**2)) ** 2
    value, simple, mult = min_positive_zero(f)
    assert value == QQ(2, 3) and not simple and mult == 2


def test_min_positive_zero_none_raises():
    with pytest.raises(NoPositiveRootError):
        min_positive_zero(Z**2 + 1)


def test_refine_rational_root_is_exact():
    iv = isolate_real_roots(3 * Z - 1)[0]
    assert refine(iv, 10) == QQ(1, 3)
    assert refine(iv, 200) == QQ(1, 3)


def test_refine_smallest_zero_of_reference_sextic():
    f = UniPoly(
        [2866271785, -59826725574, 130176444432, -115515184664, 50706209664,
         -10969697376, 936086976],
        "z",
    )
    iv = isolate_real_roots(f)[0]
    assert_printed(refine(iv, 128), "0.053945666")


def test_refine_sqrt2():
    f = Z**2 - 2
    iv = [i for i in isolate_real_roots(f) if i.lo >= 0 or i.hi > 0][-1]
    v = refine(iv, 64)
    assert decimal_str(v, 18).startswith("1.4142135623730950")


def test_refine_monotone_in_bits():
    rng = random.Random(77)
    for _ in range(25):
        p = rand_poly(rng, rng.randint(2, 6))
        for iv in isolate_real_roots(p):
            if iv.exact:
                continue
            v1 = refine(iv, 16)
            v2 = refine(iv, 32)
            v3 = refine(iv, 64)
            assert abs(v2 - v1) <= QQ(1, 1 << 15)
            assert abs(v3 - v2) <= QQ(1, 1 << 31)


def test_sturm_count_matches_isolation():
    rng = random.Random(13)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(1, 9))
        if p.degree < 1:
            continue
        s = squarefree_part(p)
        chain = sturm_chain(s)
        b = root_bound(s)
        count = _var_at(chain, -b) - _var_at(chain, b)
        assert count == len(isolate_real_roots(p))


def test_multiplicities_account_for_degree():
    rng = random.Random(29)
    for _ in range(30):
        # construct products of known linear factors and a positive-definite tail
        p = UniPoly.const(1, "z")
        total = 0
        for _ in range(rng.randint(1, 3)):
            r = QQ(rng.randint(-5, 5), rng.randint(1, 3))
            k = rng.randint(1, 3)
            p = p * (Z - r) ** k
            total += k
        pairs = rng.randint(0, 2)
        for _ in range(pairs):
            p = p * (Z**2 + QQ(rng.randint(1, 5)))
        got = {}
        for iv in isolate_real_roots(p):
            got[iv.lo] = got.get(iv.lo, 0) + iv.multiplicity
        assert sum(got.values()) == total
        assert p.degree == total + 2 * pairs


def _seeded_product(rng):
    """(p, {rational root: multiplicity}, degree of the factors with no real root).

    p is a product of powers of (z - r) with dyadic, small-denominator and
    zero roots r, of (z - a)^2 - 2 c^2 with irrational roots a +- c sqrt(2),
    and of irreducible quadratics (z - a)^2 + c.
    """
    p = UniPoly.const(QQ(rng.randint(1, 5), rng.randint(1, 3)), "z")
    rational, no_real = {}, 0
    for _ in range(rng.randint(1, 4)):
        pick = rng.random()
        k = rng.randint(1, 3)
        if pick < 0.7:
            if pick < 0.3:
                r = QQ(rng.randint(-40, 40), 1 << rng.randint(0, 5))
            elif pick < 0.6:
                r = QQ(rng.randint(-20, 20), rng.randint(1, 7))
            else:
                r = QQ(0)
            p = p * (Z - r) ** k
            rational[r] = rational.get(r, 0) + k
            continue
        a = QQ(rng.randint(-9, 9), rng.randint(1, 4))
        c = QQ(rng.randint(1, 9), rng.randint(1, 4))
        if pick < 0.85:
            p = p * ((Z - a) ** 2 - 2 * c * c) ** k
        else:
            p = p * ((Z - a) ** 2 + c) ** k
            no_real += 2 * k
    return p, rational, no_real


def test_isolation_invariants_on_seeded_products():
    rng = random.Random(2024)
    for _ in range(80):
        p, rational, no_real = _seeded_product(rng)
        roots = isolate_real_roots(p)
        s = squarefree_part(p)
        chain = sturm_chain(s)
        b = root_bound(s)
        assert len(roots) == _var_at(chain, -b) - _var_at(chain, b)
        assert sum(iv.multiplicity for iv in roots) == p.degree - no_real
        # a zero-width interval is a rational root; every rational root is
        # found exactly, at isolation or by refine, with its multiplicity
        assert all(iv.lo in rational for iv in roots if iv.exact)
        found = {refine(iv, 128): iv.multiplicity for iv in roots}
        assert {r: k for r, k in found.items() if r in rational} == rational
        for iv in roots:
            assert not iv.lo < 0 < iv.hi
        for u, v in zip(roots, roots[1:]):
            assert u.hi <= v.lo and (u.lo, u.hi) != (v.lo, v.hi)


def test_carve_around_root_at_midpoint(monkeypatch):
    # root bound 15 and eps 1, so the first midpoint of (1, 15) is the root 8;
    # 3/2 shares that node, which therefore splits by carving out (9/2, 23/2)
    p = (Z - 8) * (Z - QQ(3, 2)) * (Z**2 + 1)
    assert root_bound(p) == 15
    carved = []
    count_roots = realroots._count_roots
    monkeypatch.setattr(
        realroots, "_count_roots", lambda q: carved.append(q) or count_roots(q)
    )
    roots = isolate_real_roots(p)
    assert carved
    assert [(iv.lo, iv.hi) for iv in roots] == [(QQ(1), QQ(9, 2)), (QQ(8), QQ(8))]
    assert refine(roots[0], 64) == QQ(3, 2)


# sha256 of every root of 200 seeded products refined at 16, 64 and 128 bits,
# generated with Sturm-sequence isolation: the bisection tree is the same, so
# refinement from either isolation reaches the same brackets
REFINED_ROOTS_SHA256 = "4e1f9c71114cbe5c8d324b6ae34271eeae57824df084f83b9157ea43bb11bbbd"


def test_refined_roots_pin():
    rng = random.Random(7)
    digest = hashlib.sha256()
    for i in range(200):
        p = _seeded_product(rng)[0]
        for iv in isolate_real_roots(p):
            for bits in (16, 64, 128):
                digest.update(f"{i}:{bits}:{format_rational(refine(iv, bits))};".encode())
    assert digest.hexdigest() == REFINED_ROOTS_SHA256


def test_real_root_signs():
    assert real_root_signs(Z**2 - 1) == MIXED_OR_ZERO
    assert real_root_signs(Z**2 + 1) == NO_REAL_ROOTS
    assert real_root_signs((Z - 1) * (Z - 2)) == ALL_POSITIVE
    assert real_root_signs((Z + 1) * (Z + 2)) == ALL_NEGATIVE
    assert real_root_signs(Z * (Z - 1)) == MIXED_OR_ZERO


def test_interval_invariants():
    rng = random.Random(41)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(2, 7))
        s = squarefree_part(p)
        # a root at zero is always exact; strip it for endpoint sign tests
        cs = list(s.coeffs)
        while cs and not cs[0]:
            cs.pop(0)
        s_nz = UniPoly(cs, "z")
        for iv in isolate_real_roots(p):
            if iv.exact:
                assert not s.eval(iv.lo)
            else:
                assert (s_nz.eval(iv.lo) > 0) != (s_nz.eval(iv.hi) > 0)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    num=st.integers(min_value=-40, max_value=40),
    den=st.integers(min_value=1, max_value=25),
    extra=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_rational_roots_detected_exactly(num, den, extra):
    r = QQ(num, den)
    p = (Z - r) * (Z**2 + extra)
    roots = isolate_real_roots(p)
    assert len(roots) == 1
    assert roots[0].multiplicity == 1
    # refinement recognizes the rational root exactly (zero-width bracket)
    assert refine(roots[0], 64) == r


def _brackets(iv, bits, pad_bits):
    """Open brackets that hold iv's root, miss it, straddle an end of iv or
    have no width, from iv refined to ``bits``."""
    near = realroots.refine_interval(iv, bits)
    lo, hi, mid = near.lo, near.hi, near.midpoint
    pad = QQ(1, 1 << pad_bits)
    return [
        (lo - pad, hi + pad),  # holds the root
        (lo, hi),  # holds it unless near is exact
        (iv.lo, lo),  # misses it
        (hi, iv.hi),  # misses it
        (iv.lo - 1, mid),  # straddles the left end
        (mid, iv.hi + pad),  # straddles the right end
        (mid, mid),  # degenerate
        (iv.lo - 1, iv.hi + 1),  # all of iv and beyond it
    ]


def _dyadic_interval(c, e, j, k, cofactor):
    """An interval (c, c + 2^e) isolating the dyadic root c + j 2^(e - k) of
    (z - root) * cofactor, for odd j < 2^k: bisection's k-th midpoint hits it."""
    width = QQ(2) ** e
    root = c + j * width / (1 << k)
    f = UniPoly([-root * (1 << k), 1 << k], "z") * cofactor
    return IsolatingInterval(QQ(c), c + width, 1, f)


@given(
    coeffs=st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=8),
    dyadic=st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 62), st.integers(1, 6)),
    bits=st.integers(min_value=1, max_value=140),
    pad_bits=st.integers(min_value=0, max_value=160),
)
@settings(max_examples=30, deadline=None)
def test_refine_inside_a_bracket_keeps_every_bracket(coeffs, dyadic, bits, pad_bits):
    # a confirmed bracket only saves sign tests: refined brackets are == to
    # those of plain bisection, whether the bracket holds the root, misses
    # it, straddles an end of the interval or has no width
    p = UniPoly(coeffs, "z")
    if p.degree < 1:
        return
    p = UniPoly(int_clear(squarefree_part(p).coeffs)[1], "z")
    c, e, j, k = dyadic
    intervals = isolate_real_roots(p)
    intervals.append(_dyadic_interval(c, e, (2 * j + 1) % (1 << k), k, Z**2 + 1))
    for iv in intervals:
        plain = {width: realroots.refine_interval(iv, width) for width in (8, 64, 128)}
        brackets = _brackets(iv, bits, pad_bits)
        for bracket in brackets:
            for width in (8, 64, 128):
                assert realroots.refine_interval(iv, width, bracket) == plain[width]
            twice = realroots.refine_interval(realroots.refine_interval(iv, 64, bracket), 128,
                                              bracket)
            assert twice == plain[128]
        if not iv.exact:  # the bracket that holds the root is confirmed
            assert realroots._confirmed(iv, brackets[0])


def test_refine_computes_no_squarefree_part(monkeypatch):
    # isolation hands each interval its square-free part; refinement reuses it
    from qdist import poly

    p = (Z**2 - 2) * (Z - QQ(1, 3)) ** 2 * Z * (Z**3 - Z - 1)
    roots = isolate_real_roots(p)

    def forbidden(*args):
        raise AssertionError("square-free part recomputed")

    for module, name in ((realroots, "squarefree_part"), (realroots, "squarefree_factors"),
                         (poly, "poly_gcd"), (poly, "gcd_squarefree"), (poly, "_igcd")):
        monkeypatch.setattr(module, name, forbidden)
    values = [refine(iv, 64) for iv in roots]
    assert values[1:3] == [0, QQ(1, 3)]
    assert [iv.multiplicity for iv in roots] == [1, 1, 2, 1, 1]
    narrow = [realroots.refine_interval(iv, 96) for iv in roots]
    assert all(iv.width <= QQ(1, 1 << 96) for iv in narrow)
    assert [realroots.refine_interval(iv, 128).lo for iv in narrow[1:3]] == [0, QQ(1, 3)]
    assert narrow[4].poly is roots[4].poly


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_factor_brackets_equal_product_brackets(k):
    # p = E * C^2 * N^3 * z^k: each interval bisects on the factor that holds
    # its root, and reaches the brackets the whole square-free part reaches
    e, c, n = Z**2 - 3 * Z + 1, Z**3 - 2, (2 * Z**2 - 7) * (3 * Z - 1)
    p = e * c**2 * n**3 * Z**k
    whole = squarefree_part(p)
    whole = UniPoly(whole.coeffs[1:], "z") if not whole.coeffs[0] else whole
    roots = isolate_real_roots(p)
    assert [iv.multiplicity for iv in roots] == [3] + [k] * bool(k) + [3, 1, 2, 3, 1]
    for iv in roots:
        assert not divrem(p, iv.poly)[1]
        if iv.exact:
            continue
        assert iv.poly.degree < whole.degree
        product = IsolatingInterval(iv.lo, iv.hi, iv.multiplicity, whole)
        for bits in (16, 64, 128):
            mine = realroots.refine_interval(iv, bits)
            theirs = realroots.refine_interval(product, bits)
            assert (mine.lo, mine.hi) == (theirs.lo, theirs.hi)


def _positive_part(roots):
    return [iv for iv in roots if iv.lo > 0 or (not iv.exact and iv.lo >= 0)]


def _midpoint_products(rng):
    # the seeded products, and ones whose root bound puts a rational root on
    # the first midpoint of (1, b), as in test_carve_around_root_at_midpoint
    for _ in range(60):
        yield _seeded_product(rng)[0]
    for _ in range(20):
        tail, _, _ = _seeded_product(rng)
        p = (Z - 8) * (Z - QQ(3, 2)) * (Z**2 + 1)
        yield p * tail if root_bound(squarefree_part(p * tail)) == 15 else p
    yield (Z - 8) * (Z - QQ(3, 2)) * (Z**2 + 1) * (Z + 3) * Z**2


def test_lazy_positive_roots_match_isolation():
    rng = random.Random(909)
    hits = 0
    for p in _midpoint_products(rng):
        whole = _positive_part(isolate_real_roots(p))
        for lazy in (list(positive_roots(p)), isolate_real_roots(p, positive=True)):
            assert lazy == whole
            assert [iv.poly for iv in lazy] == [iv.poly for iv in whole]
        hits += any(iv.exact and iv.lo == 8 for iv in whole)
    assert hits


def test_first_positive_root_runs_fewer_descartes_calls(monkeypatch):
    p = (Z - 8) * (Z - QQ(3, 2)) * (Z**2 - 2) * (Z**2 - 7) * (Z**3 - 5 * Z - 1)
    calls = []
    descartes = realroots._descartes
    monkeypatch.setattr(realroots, "_descartes", lambda q: calls.append(q) or descartes(q))
    first = next(positive_roots(p))
    first_calls = len(calls)
    calls.clear()
    every = list(positive_roots(p))
    assert first == every[0] and len(every) > 3
    assert 0 < first_calls < len(calls)


def test_descartes_count_stops_at_two():
    # the count is exact below 2, and any larger count reads 2
    rng = random.Random(4)
    for _ in range(200):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(2, 12))]
        if not q[-1]:
            continue
        signs = [c > 0 for c in realroots._shift_by_one(q[::-1]) if c]
        full = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert realroots._descartes(q) == min(full, 2)


def _walk(cs, eps, b, positive):
    """(intervals from the start below Fujiwara's bound, intervals from the
    top of the tree, Descartes calls of each) on the positive range
    (eps, b) or the negative range (-b, -eps)."""
    top = QQ(2) ** realroots._fujiwara_exponent(cs)
    calls = []
    descartes = realroots._descartes
    realroots._descartes = lambda q: calls.append(q) or descartes(q)
    try:
        start = list(realroots._isolate_below_bound(cs, eps, b, top, positive))
        n_start = len(calls)
        whole = list(realroots._isolate_squarefree(cs, *((eps, b) if positive else (-b, -eps))))
    finally:
        realroots._descartes = descartes
    return start, whole, n_start, len(calls) - n_start


def _wide_products(rng):
    # many small real roots: the root bound lies far above them
    for _ in range(30):
        p = _seeded_product(rng)[0]
        for _ in range(rng.randint(6, 16)):
            p = p * (Z - QQ(rng.randint(-12, 12), rng.randint(1, 3)))
        yield p


def test_start_below_fujiwara_bound_keeps_intervals():
    rng = random.Random(1916)
    deep = 0
    for p in _wide_products(rng):
        s = squarefree_part(p)
        cs = int_clear(s.coeffs)[1]
        while not cs[0]:
            cs.pop(0)
        top = QQ(2) ** realroots._fujiwara_exponent(cs)
        chain = sturm_chain(UniPoly(cs, "z"))
        b = root_bound(UniPoly(cs, "z"))
        # no real root beyond the bound (Sturm), and the tree's bound is far above
        assert _var_at(chain, top) == _var_at(chain, b)
        assert _var_at(chain, -b) == _var_at(chain, -top)
        eps = QQ(1)
        while not s.eval(eps) or not s.eval(-eps):
            eps /= 2
        for positive in (True, False):
            start, whole, n_start, n_whole = _walk(cs, eps, b, positive)
            assert start == whole
            deep += n_start < n_whole
    assert deep >= 40


@pytest.mark.parametrize(
    "factor, expected",
    [
        # a rational root on the midpoint 8 of the node (1, 15) below the start
        ((Z - 8) * (2 * Z - 3) * (Z**2 + 1), [(QQ(1), QQ(9, 2)), (QQ(8), QQ(8))]),
        # one positive root: the walk from the top stops at the highest spine
        # node that counts 1, the start node's parent (1, 225) or the root
        ((Z - 32) * ((Z + 1) ** 2 + 169), [(QQ(1), QQ(225))]),
        ((Z - 3) * (Z**2 + 1) * (Z + 5), [(QQ(1), 1 + QQ(7 * 2**40))]),
        # none: the start node counts 0
        ((Z + 2) * (Z**2 + Z + 1), []),
    ],
)
def test_start_below_fujiwara_bound_on_a_tall_tree(factor, expected):
    # the tree (1, 1 + 7 * 2^40) is far taller than the roots need
    cs = int_clear(factor.coeffs)[1]
    b = 1 + QQ(7 * 2**40)
    start, whole, n_start, n_whole = _walk(cs, QQ(1), b, True)
    assert start == whole == expected
    assert n_start < 15
    # the same roots negated, on the negative range
    mirror = [c if k % 2 == 0 else -c for k, c in enumerate(cs)]
    start, whole, _, _ = _walk(mirror, QQ(1), b, False)
    assert start == whole == [(-hi, -lo) for lo, hi in reversed(expected)]


def test_first_root_of_a_family_discriminant_runs_few_descartes_calls(monkeypatch):
    # F(z) of pair-family seed 1's first family has degree 85 and root bound
    # ~2^171, and its first positive root lies in (1, 55.3): the walk from
    # the top of the tree took 167 Descartes calls to reach it
    from qdist.cli import ProblemFile
    from qdist.parametric import family_distance_poly

    problem = next(p for p in workload_problems("pair-family", 1, 6) if p["kind"] == "family-point")
    p = ProblemFile(problem)
    big_f, _, _ = family_distance_poly(p.family, p.point)
    assert big_f.degree == 85
    calls = []
    descartes = realroots._descartes
    monkeypatch.setattr(realroots, "_descartes", lambda q: calls.append(q) or descartes(q))
    first = next(positive_roots(big_f))
    assert len(calls) <= 20
    assert first.lo == 1 and 55 < first.hi < 56 and first.multiplicity == 1
