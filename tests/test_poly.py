import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FractionNewtonInterp,
    fraction_squarefree_decomposition,
    rand_poly,
    sylvester_resultant,
    table_per_order_interpolate,
)
from qdist import poly
from qdist.errors import DegeneracyError
from qdist.poly import (
    BiPoly,
    NewtonInterp,
    NodeValues,
    RatFunc,
    UniPoly,
    divrem,
    field_gcd,
    gcd_squarefree,
    interpolate_verified,
    poly_gcd,
    resultant,
    squarefree_decomposition,
)
from qdist.scalar import QQ, int_clear

X = UniPoly.x("x")

rats = st.builds(
    QQ,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=8),
)


def poly_strategy(max_deg=8):
    return st.lists(rats, min_size=1, max_size=max_deg + 1).map(
        lambda cs: UniPoly(cs, "x")
    )


def test_divrem_exact_factor():
    q, r = divrem(X**2 + 3 * X + 2, X + 1)
    assert q == X + 2
    assert not r


def test_divrem_unit_divisor():
    p = 3 * X**4 - X + QQ(1, 2)
    q, r = divrem(p, UniPoly.const(1, "x"))
    assert q == p and not r


def test_divrem_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        divrem(X, UniPoly.zero("x"))


def test_quintic_remainder_with_symbolic_parameter():
    # x^5 + 6x^4 + 2x^3 + a*x^2 - x + 3 modulo its derivative, with the
    # parameter riding along as a rational-function coefficient
    a = RatFunc.parameter("a")
    g = UniPoly([3, -1, a, 2, 6, 1], "x")
    _, r = divrem(g, g.derivative())
    expected = UniPoly(
        [
            QQ(81, 25),
            RatFunc(UniPoly([QQ(-4, 5), QQ(-12, 25)], "a")),
            RatFunc(UniPoly([QQ(-36, 25), QQ(3, 5)], "a")),
            QQ(-124, 25),
        ],
        "x",
    )
    assert r == expected


@given(p=poly_strategy(7), q=poly_strategy(5))
@settings(max_examples=120, deadline=None)
def test_divrem_roundtrip(p, q):
    if not q:
        return
    quot, rem = divrem(p, q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


def test_derivative_basics():
    assert (X**3).derivative() == 3 * X**2
    assert UniPoly.const(7, "x").derivative() == UniPoly.zero("x")


@given(p=poly_strategy(6), q=poly_strategy(6))
@settings(max_examples=100, deadline=None)
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(p=poly_strategy(6), q=poly_strategy(6), t=rats)
@settings(max_examples=100, deadline=None)
def test_eval_commutes_with_multiplication(p, q, t):
    assert (p * q).eval(t) == p.eval(t) * q.eval(t)


def test_eval_basics():
    assert (X**2 + 1).eval(2) == 5
    assert UniPoly.zero("x").eval(QQ(7, 3)) == 0


def test_gcd_squarefree_constructed_multiplicity():
    p = (X - 1) ** 2 * (X - 2)
    g, sf = gcd_squarefree(p)
    assert g == X - 1
    assert sf.normalized() == ((X - 1) * (X - 2)).normalized()


def test_gcd_squarefree_already_squarefree():
    g, sf = gcd_squarefree(X**2 - 1)
    assert g == UniPoly.const(1, "x")
    assert sf == X**2 - 1


def test_quintic_gcd_at_special_parameter_value():
    # at a = -7 the quintic acquires the double zero -1
    g = UniPoly([3, -1, QQ(-7), 2, 6, 1], "x")
    gg, _ = gcd_squarefree(g)
    _, rem = divrem(gg, X + 1)
    assert not rem


def test_resultant_linear_case():
    assert resultant(X - 2, X - 5) == -3


def test_resultant_sylvester_example():
    assert sylvester_resultant(X**2 + 1, X**2 - 1) == 4
    assert resultant(X**2 + 1, X**2 - 1) == 4


def test_resultant_common_factor_is_zero():
    p = (X - 1) * (X + 3)
    assert resultant(p, p) == 0


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(42)
    for _ in range(120):
        p = rand_poly(rng, rng.randint(1, 6))
        q = rand_poly(rng, rng.randint(1, 6))
        assert resultant(p, q) == sylvester_resultant(p, q)


def test_int_resultant_takes_a_constant_operand():
    # a constant c against degree n has resultant c^n, on either side
    rng = random.Random(19)
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
        c = [rng.choice([-1, 1]) * rng.randint(1, 9)]
        p, q = UniPoly(a, "x"), UniPoly(c, "x")
        assert poly._int_resultant(a, c) == resultant(p, q) == c[0] ** (len(a) - 1)
        assert poly._int_resultant(c, a) == resultant(q, p) == c[0] ** (len(a) - 1)
    assert poly._int_resultant([1, 0, 1], [3]) == poly._int_resultant([3], [1, 0, 1]) == 9


def test_resultant_zero_input_raises():
    with pytest.raises(ValueError):
        resultant(UniPoly.zero("x"), X)


def test_gcd_nonconstant_iff_resultant_with_derivative_vanishes():
    rng = random.Random(9)
    for _ in range(60):
        if rng.random() < 0.5:
            p = rand_poly(rng, rng.randint(2, 6))
        else:
            r = rand_poly(rng, 1)
            p = r * r * rand_poly(rng, rng.randint(0, 3))
        if p.degree < 2:
            continue
        g = poly_gcd(p, p.derivative())
        assert (g.degree > 0) == (resultant(p, p.derivative()) == 0)


def test_squarefree_decomposition_structure():
    p = (X - 1) ** 3 * (X + 2) ** 2 * (X - 5)
    facs = dict()
    for f, k in squarefree_decomposition(p):
        facs[k] = f
    assert facs[1] == X - 5
    assert facs[2] == X + 2
    assert facs[3] == X - 1


def _seeded_factor_product(rng):
    """(p, zero multiplicity): a product of powers of coprime factors and of z.

    The power of z equals another factor's multiplicity in about half the
    products and differs from all of them otherwise.
    """
    p = UniPoly.const(QQ(rng.randint(1, 9), rng.randint(1, 5)), "x")
    ks = []
    for r in rng.sample(range(1, 12), rng.randint(1, 3)):
        k = rng.randint(1, 4)
        f = X - QQ(r, rng.randint(1, 3)) if rng.random() < 0.5 else X * X - QQ(r, 2) * X + r
        p = p * f**k
        ks.append(k)
    m = rng.choice(ks) if rng.random() < 0.5 else rng.choice([0, 5, 6])
    return p.shift_up(m), m


def test_integer_yun_matches_fraction_yun():
    rng = random.Random(15)
    seen = set()
    for _ in range(120):
        p, m = _seeded_factor_product(rng)
        got = squarefree_decomposition(p)
        assert got == fraction_squarefree_decomposition(p)
        ks = [k for _, k in got]
        assert ks == sorted(ks)
        if m:
            seen.add(sum(1 for f, k in got if not f.coeffs[0] and k == m and f.degree > 1))
    # z^m merged into another factor's power, and z^m standing alone
    assert seen == {0, 1}


def test_heuristic_gcd_matches_prs(monkeypatch):
    rng = random.Random(16)
    prs_calls = []
    prs = poly._prs_gcd
    monkeypatch.setattr(poly, "_prs_gcd", lambda a, b: prs_calls.append(1) or prs(a, b))
    cases = []
    for _ in range(60):
        common = rand_poly(rng, rng.randint(0, 4))
        p = common * rand_poly(rng, rng.randint(1, 5))
        q = common * rand_poly(rng, rng.randint(1, 5))
        cases.append((p, q))
    cases.append((X**4 - 1, (X - 1) ** 2 * (X + 1)))
    expected = [field_gcd(p, q) for p, q in cases]
    assert [poly_gcd(p, q) for p, q in cases] == expected
    assert not prs_calls
    for p, q in cases:
        a, b = int_clear(p.coeffs)[1], int_clear(q.coeffs)[1]
        assert poly._heuristic_gcd(a, b) == poly._prs_gcd(a, b)
    # with no evaluation point left the remainder sequence answers alone
    monkeypatch.setattr(poly, "GCDHEU_TRIES", 0)
    assert [poly_gcd(p, q) for p, q in cases] == expected
    assert len(prs_calls) >= len(cases)


def test_newton_interp_with_inexact_divisions():
    # t(t - 1)/2 is an integer at every integer node, but the divided
    # differences at nodes 0, 1, -1, 2, -2, 3 are not all integers
    t = UniPoly.x("t")
    target = t * (t - 1) / 2
    it, oracle = NewtonInterp("t"), FractionNewtonInterp("t")
    for x in islice(poly.integer_nodes(), 6):
        it.add_point(x, target.eval(x))
        oracle.add_point(x, target.eval(x))
    assert it.diffs == oracle.diffs
    assert any(isinstance(d, int) for d in it.diffs)
    assert any(not isinstance(d, int) for d in it.diffs)
    assert it.tail_is_zero(3)
    assert it.polynomial(drop=3) == it.polynomial() == oracle.polynomial() == target


def test_newton_interp_matches_fraction_oracle():
    rng = random.Random(17)
    for _ in range(40):
        f = rand_poly(rng, rng.randint(0, 7), "t")
        # distinct nodes: k/3 for odd k is never an even integer
        nodes = [QQ(k, 3) if k % 2 else QQ(k) for k in rng.sample(range(-20, 20), 9)]
        it, oracle = NewtonInterp("t"), FractionNewtonInterp("t")
        for x in nodes:
            it.add_point(x, f.eval(x))
            oracle.add_point(x, f.eval(x))
        assert it.diffs == oracle.diffs
        assert it.polynomial() == oracle.polynomial() == f


def test_pencil_evaluation_and_derivatives():
    # a pencil p(mu, z) = (z^2 + 1) mu^2 + z mu + 3, main variable first
    p = BiPoly([[3], [0, 1], [1, 0, 1]], ("mu", "z"))
    assert p.eval_var(1, 2) == UniPoly([3, 2, 5], "mu")
    dm = p.derivative(0)
    assert dm.eval_var(1, 2) == UniPoly([2, 10], "mu")
    dz = p.derivative(1)
    assert dz.eval_var(1, 2) == UniPoly([0, 1, 4], "mu")


def test_bipoly_arithmetic_and_eval():
    x1 = BiPoly.variable(0)
    x2 = BiPoly.variable(1)
    g = x1**2 + x2**2 - 1
    assert g.total_degree == 2
    assert g.eval(QQ(3, 5), QQ(4, 5)) == 0
    assert g.derivative(0) == 2 * x1
    line = g.eval_var(0, QQ(1, 2))
    assert line == UniPoly([QQ(-3, 4), 0, 1], "x2")


def test_ratfunc_arithmetic():
    a = RatFunc.parameter("a")
    f = (a**2 - 1) / (a - 1)
    assert f == a + 1  # gcd cancellation
    g = 1 / (a + 2)
    assert (g * (a + 2)) == 1
    with pytest.raises(ZeroDivisionError):
        f / RatFunc(UniPoly.zero("a"))
    assert f.derivative() == 1


def test_interpolate_verified_recovers_polynomial():
    p = UniPoly([3, QQ(-1, 2), 0, 7, QQ(2, 5)], "t")
    assert interpolate_verified(p.eval, 4, "t") == p
    # tuple values are interpolated componentwise; at t = 0 the trimmed
    # coefficients of 1 + t*z are the short tuple (1,), padded with a zero
    cols = interpolate_verified(lambda t: UniPoly([1, t], "z").coeffs, 1, "t")
    assert cols == [UniPoly([1], "t"), UniPoly([0, 1], "t")]


def test_interpolate_verified_finds_minimal_pole_order():
    p = UniPoly([5, -2, 0, 1], "t")  # nonzero at t = 0, so the pole order is exact
    for k in range(4):
        f = interpolate_verified(lambda t: p.eval(t) / t**k, 3, "t", max_pole_order=6)
        assert f == p


def test_interpolate_verified_stops_after_three_verification_nodes():
    rng = random.Random(5)
    for _ in range(60):
        bound, max_k = rng.randint(0, 8), rng.randint(0, 6)
        p = rand_poly(rng, rng.randint(0, 2 * bound), "t")
        if not p.eval(0):
            p = p + 1  # the pole order of p / t^k is then exactly k
        k = rng.randint(0, max_k)
        seen = []

        def compute(t):
            seen.append(t)
            return p.eval(t) / t**k

        assert interpolate_verified(compute, bound, "t", max_k) == p
        assert len(seen) == p.degree + 4
        # past the doubled bound of every pole order the call gives up after
        # the fit and verification nodes of the last order, and no later
        seen.clear()
        high = p * UniPoly.x("t") ** (2 * bound + max_k + 1) + 1
        with pytest.raises(DegeneracyError):
            interpolate_verified(
                lambda t: seen.append(t) or high.eval(t) / t**k, bound, "t", max_k
            )
        assert len(seen) == 2 * bound + max_k + 4


def test_interpolate_verified_skip_budget():
    with pytest.raises(DegeneracyError) as exc:
        interpolate_verified(lambda t: None, 3, "t")
    assert exc.value.code == "degenerate-specialization"
    # 19 skipped nodes (t = 0, ±1, ..., ±9) stay within the budget
    p = UniPoly([1, 2, 3], "t")
    assert interpolate_verified(lambda t: None if abs(t) < 10 else p.eval(t), 2, "t") == p


def test_interpolate_verified_doubles_the_bound_once():
    p = UniPoly([1, 0, 0, 0, 0, 0, 0, 1], "t")  # degree 7
    assert interpolate_verified(p.eval, 4, "t") == p  # 4 < 7 <= 8
    with pytest.raises(DegeneracyError) as exc:
        interpolate_verified(p.eval, 3, "t")  # 7 > 6
    assert exc.value.code == "interpolation-verification"


def test_interpolate_verified_evaluates_each_node_once():
    p = UniPoly([2, 0, 1], "t")
    seen = []

    def compute(t):
        seen.append(t)
        return None if t == 2 else p.eval(t) / t**2

    values = NodeValues(compute, skip_zero=True)
    assert [t for t, _ in islice(values.points(), 3)] == [1, -1, -2]
    assert interpolate_verified(values, 2, "t", max_pole_order=4) == p
    assert 0 not in seen and len(seen) == len(set(seen))


def _interpolate_both(compute, bound, max_k=0):
    """interpolate_verified and the table-per-order oracle on the same function.

    Returns (outcome, nodes evaluated) of each, the outcome being the result
    or the DegeneracyError code.
    """
    out = []
    for interp in (interpolate_verified, table_per_order_interpolate):
        seen = []
        try:
            result = interp(lambda t: seen.append(t) or compute(t), bound, "t", max_k)
        except DegeneracyError as exc:
            result = exc.code
        out.append((result, seen))
    return out


P_SCREEN = poly.SCREEN_PRIME


@pytest.mark.parametrize("case", [
    "pole-0", "pole-1", "pole-2", "pole-3", "tuple", "tuple-growing",
    "shifted-by-p", "shifted-beyond-bound", "denominator-p", "denominator-p-later",
    "over-bound",
])
def test_screen_matches_table_per_order_oracle(case):
    p = UniPoly([5, -2, 0, 1, QQ(3, 7)], "t")  # nonzero at 0: the pole order is exact
    t = UniPoly.x("t")
    bound, max_k = 4, 6
    if case.startswith("pole-"):
        k = int(case[-1])
        compute = lambda x: p.eval(x) / QQ(x) ** k
    elif case == "tuple":
        compute = lambda x: (p.eval(x), QQ(x, 3), p.eval(x) ** 2 / x**2)
    elif case == "tuple-growing":
        # trimmed coefficients: a short tuple at node 0, a shorter one at 2
        compute = lambda x: UniPoly([1, x, x * (x - 2)], "z").coeffs
        max_k = 0
    elif case == "shifted-by-p":
        # congruent to p modulo the prime: the screen passes at degree + 4
        # nodes, the exact check rejects, and degree 7 is found later
        q = p + P_SCREEN * t**7
        compute = lambda x: q.eval(x) / x
    elif case == "shifted-beyond-bound":
        q = p + P_SCREEN * t**12
        compute = q.eval
    elif case == "denominator-p":
        compute = lambda x: p.eval(x) / (P_SCREEN * x**2)
    elif case == "denominator-p-later":
        # node 1 is screened; node -1 is the first whose denominator is the prime
        q = p + (t - 1) * t**5 / P_SCREEN
        compute = lambda x: q.eval(x) / x
    else:
        q = p * t**9 + 1
        compute = q.eval
    (got, got_nodes), (want, want_nodes) = _interpolate_both(compute, bound, max_k)
    assert got == want
    assert got_nodes == want_nodes
    if case in ("shifted-beyond-bound", "over-bound"):
        assert got == "interpolation-verification"
    else:
        assert not isinstance(got, str)


def test_screen_fills_exact_tables_for_the_passing_order_only(monkeypatch):
    # only order 2 passes the screen, so the exact tables see its nodes once
    p = UniPoly([5, -2, 0, 1], "t")
    calls = []
    add_point = NewtonInterp.add_point
    monkeypatch.setattr(NewtonInterp, "add_point",
                        lambda self, x, y: calls.append(x) or add_point(self, x, y))
    assert interpolate_verified(lambda x: p.eval(x) / x**2, 3, "t", max_pole_order=6) == p
    assert len(calls) == p.degree + 4
