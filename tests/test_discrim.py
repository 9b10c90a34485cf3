import random

import mpmath as mp
import pytest

from helpers import rand_poly, rand_rat
from qdist.discrim import (
    bezout_matrix,
    bezout_matrix_biv,
    discriminant_biv,
    discriminant_param,
    discriminant_uni,
    linear_representation,
    multiple_zero_biv,
    multiple_zero_uni,
    quotient_basis_monomials,
)
from qdist.errors import DegeneracyError
from qdist.linalg import MatrixQ, VectorQ, det_unipoly_matrix, rank, solve_linear
from qdist.poly import BiPoly, ParamPoly, RatFunc, UniPoly, divrem, resultant
from qdist.realroots import isolate_real_roots, refine
from qdist.scalar import QQ

X = UniPoly.x("x")
A = UniPoly.x("a")


def quintic(alpha):
    return UniPoly([3, -1, alpha, 2, 6, 1], "x")


def test_bezout_matrix_quadratic():
    data = bezout_matrix(X**2 + 3 * X + 2)
    assert data.size == 1
    assert data.matrix.entry(0, 0) == QQ(-1, 4)


def test_bezout_matrix_double_root():
    assert bezout_matrix((X - 1) ** 2).det == 0


def test_quintic_parameter_determinant_identity():
    data = bezout_matrix(quintic(RatFunc.parameter("a")))
    expected_num = (A + 7) * (
        324 * A**4 + 5481 * A**3 - 87771 * A**2 - 409817 * A + 5759315
    )
    assert data.det == RatFunc(expected_num, UniPoly.const(3125, "a"))


def test_quintic_multiple_zeros_at_special_parameters():
    # the rational one: at a = -7 the double zero is exactly -1
    d7 = bezout_matrix(quintic(QQ(-7)))
    assert d7.det == 0
    assert multiple_zero_uni(d7) == -1
    # the two irrational parameter values, refined from the quartic factor
    quart = 324 * A**4 + 5481 * A**3 - 87771 * A**2 - 409817 * A + 5759315
    expected = {}
    for iv in isolate_real_roots(quart):
        a_hat = refine(iv, quart, 160)
        lam = multiple_zero_uni(bezout_matrix(quintic(a_hat)), strict=False)
        expected[round(float(a_hat), 5)] = float(lam)
    assert abs(expected[-24.63939] - (-3.80947138)) < 1e-7
    assert abs(expected[-9.29645] - 0.74648466) < 1e-7


def test_discriminant_uni_examples():
    assert discriminant_uni(X**2 + 3 * X + 2) == -1
    assert discriminant_uni((X - 1) ** 2 * (X + 5)) == 0


def test_discriminant_definition_product_oracle():
    # lead^(deg g') * product of g'(roots of g) for a factored example
    g = (X + 1) * (X + 2)
    dg = g.derivative()
    assert discriminant_uni(g) == dg.eval(-1) * dg.eval(-2)


def test_discriminant_matches_resultant():
    rng = random.Random(8)
    for _ in range(120):
        p = rand_poly(rng, rng.randint(2, 8))
        assert discriminant_uni(p) == resultant(p, p.derivative())


def test_discriminant_scaling_laws():
    # under the resultant normalization: D(c*g) = c^(2N-1) D(g) and
    # D(x*g) = (-1)^deg(g) * g(0)^2 * D(g)
    rng = random.Random(15)
    for _ in range(60):
        n = rng.randint(2, 6)
        p = rand_poly(rng, n)
        c = rand_rat(rng, 1, 7, 3)
        assert discriminant_uni(p * c) == c ** (2 * n - 1) * discriminant_uni(p)
        if p.eval(0):
            lhs = discriminant_uni(p.shift_up(1))
            rhs = (-1) ** n * p.eval(0) ** 2 * discriminant_uni(p)
            assert lhs == rhs


def test_multiple_zero_constructed_double_root():
    g = (X - 2) ** 2 * (X + 1)
    data = bezout_matrix(g)
    assert data.det == 0
    assert multiple_zero_uni(data) == 2


def test_multiple_zero_requires_vanishing_determinant():
    with pytest.raises(DegeneracyError):
        multiple_zero_uni(bezout_matrix(X**2 + 3 * X + 2))


def test_multiple_zero_exact_quadratic_pencil():
    # point (3,0) against the unit circle at z = 4: -(2 mu + 1)^2
    phi = UniPoly([-1, -4, -4], "mu")
    data = bezout_matrix(phi)
    assert data.det == 0
    assert multiple_zero_uni(data) == QQ(-1, 2)


def test_linear_representation_quadratic_example():
    g = X**2 + 3 * X + 2
    u, v = linear_representation(g)
    assert v == UniPoly.const(1, "x")
    assert u == UniPoly([QQ(-3, 4), QQ(-1, 2)], "x")
    assert v * g + u * g.derivative() == UniPoly.const(QQ(-1, 4), "x")


def test_linear_representation_degenerate_square():
    g = (X - 1) ** 2
    u, v = linear_representation(g)
    assert v * g + u * g.derivative() == UniPoly.zero("x")


def test_linear_representation_random_identity_and_degrees():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = rand_poly(rng, n)
        u, v = linear_representation(g)
        d = bezout_matrix(g).det
        assert v * g + u * g.derivative() == UniPoly.const(d, "x")
        assert u.degree <= n - 1
        assert v.degree <= n - 2
        # spot-check the identity pointwise as well
        for _ in range(7):
            t = rand_rat(rng)
            assert v.eval(t) * g.eval(t) + u.eval(t) * g.derivative().eval(t) == d


def test_quotient_basis():
    assert quotient_basis_monomials(2) == [(0, 0)]
    basis3 = quotient_basis_monomials(3)
    assert basis3[:3] == [(0, 0), (1, 0), (0, 1)]
    assert len(basis3) == 4
    assert len(quotient_basis_monomials(5)) == 16


def _check_rows_against_ideal(g, rows):
    """x^m*g minus the basis expansion of row m must lie in the gradient ideal.

    Membership is solvability of the exact linear system for the cofactors
    q1, q2 in q1*dg/dx1 + q2*dg/dx2, with terms up to degree 3N: the target
    must not raise the rank of the shifted partials. A perturbed row must
    fail the same check.
    """
    n = g.total_degree
    degree = 3 * n
    mons = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]

    def coefficients(p):
        return [p.coeff(i, j) for i, j in mons]

    shifted = [
        coefficients(BiPoly.from_terms({a: QQ(1)}) * g.derivative(k))
        for k in (0, 1)
        for a in mons
        if sum(a) <= degree - (n - 1)
    ]
    base = rank(MatrixQ(shifted))

    def in_ideal(p):
        return rank(MatrixQ(shifted + [coefficients(p)])) == base

    basis = quotient_basis_monomials(n)
    for mono, row in zip(basis, rows):
        rest = BiPoly.from_terms({mono: QQ(1)}) * g - BiPoly.from_terms(
            {m: c for m, c in zip(basis, row) if c}
        )
        assert in_ideal(rest)
        assert not in_ideal(rest - 1)


def test_reduce_circle():
    g = BiPoly.from_terms({(2, 0): 1, (0, 2): 1, (0, 0): -1})
    rows = bezout_matrix_biv(g).matrix.entries
    assert [list(r) for r in rows] == [[QQ(-1)]]
    _check_rows_against_ideal(g, rows)


def test_reduce_hyperbola():
    g = BiPoly.from_terms({(1, 1): 1, (0, 0): -1})
    rows = bezout_matrix_biv(g).matrix.entries
    assert [list(r) for r in rows] == [[QQ(-1)]]
    _check_rows_against_ideal(g, rows)


def test_reduce_reexpansion_oracle_cubic():
    rng = random.Random(72)
    done = 0
    while done < 3:
        g = BiPoly.from_terms(
            {(i, j): rand_rat(rng, -4, 4, 2) for i in range(4) for j in range(4 - i)}
        )
        if g.total_degree != 3:
            continue
        try:
            data = bezout_matrix_biv(g)
        except DegeneracyError:
            continue
        _check_rows_against_ideal(g, data.matrix.entries)
        done += 1


def test_reduce_degenerate_basis_is_reported():
    # for this cubic x2^2 is congruent to x1 modulo the gradient ideal, so
    # the fixed monomial set cannot be a quotient basis; the reduction must
    # surface that instead of silently choosing coefficients
    g = BiPoly.from_terms({(3, 0): 1, (0, 3): 1, (1, 1): -3, (0, 0): 1})
    with pytest.raises(DegeneracyError) as exc:
        bezout_matrix_biv(g)
    assert exc.value.code == "gradient-reduction-non-unique"


def test_discriminant_biv_trivial():
    circle = BiPoly.from_terms({(2, 0): 1, (0, 2): 1, (0, 0): -1})
    val, _ = discriminant_biv(circle)
    assert val == -1
    cone = BiPoly.from_terms({(2, 0): 1, (0, 2): 1})
    val0, _ = discriminant_biv(cone)
    assert val0 == 0


def test_discriminant_biv_quadratic_oracle():
    rng = random.Random(33)
    done = 0
    while done < 40:
        a, b, c, d, e, f = (rand_rat(rng, -5, 5, 3) for _ in range(6))
        g = BiPoly.from_terms(
            {(2, 0): a, (1, 1): b, (0, 2): c, (1, 0): d, (0, 1): e, (0, 0): f}
        )
        if g.total_degree != 2:
            continue
        m = MatrixQ([[2 * a, b], [b, 2 * c]])
        try:
            sol = solve_linear(m, VectorQ([-d, -e]))
        except Exception:
            continue
        val, _ = discriminant_biv(g)
        assert val == g.eval(sol[0], sol[1])
        done += 1


def _cubic_with_node(rng, px, py):
    """Generic cubic with a prescribed singular point and full-degree partials."""
    while True:
        coeffs = {
            (i, j): rand_rat(rng, -4, 4, 2)
            for i in range(4)
            for j in range(4 - i)
            if (i, j) not in ((0, 0), (1, 0), (0, 1))
        }
        rest = BiPoly.from_terms(coeffs)
        gx = rest.derivative(0).eval(px, py)
        gy = rest.derivative(1).eval(px, py)
        c10 = -gx
        c01 = -gy
        c00 = -(rest.eval(px, py) + c10 * px + c01 * py)
        g = rest + BiPoly.from_terms({(1, 0): c10, (0, 1): c01, (0, 0): c00})
        if g.total_degree != 3:
            continue
        try:
            val, data = discriminant_biv(g)
        except DegeneracyError:
            continue
        if val:
            continue
        try:
            multiple_zero_biv(data)
        except DegeneracyError:
            # the forced singular point came out non-unique (deeper than a
            # node); the recovery formula requires uniqueness, so resample
            continue
        return g, val, data


def test_multiple_zero_biv_constructed_nodes():
    rng = random.Random(51)
    for px, py in ((QQ(0), QQ(0)), (QQ(1), QQ(2)), (QQ(-1, 2), QQ(3))):
        _, val, data = _cubic_with_node(rng, px, py)
        assert val == 0
        l1, l2 = multiple_zero_biv(data)
        assert (l1, l2) == (px, py)


def test_multiple_zero_biv_requires_vanishing_determinant():
    rng = random.Random(99)
    while True:
        g = BiPoly.from_terms(
            {(i, j): rand_rat(rng, -4, 4, 2) for i in range(4) for j in range(4 - i)}
        )
        if g.total_degree != 3:
            continue
        try:
            val, data = discriminant_biv(g)
        except DegeneracyError:
            continue
        if val:
            break
    with pytest.raises(DegeneracyError):
        multiple_zero_biv(data)


def test_discriminant_biv_stationary_product_oracle():
    """Cubic case: determinant equals the product of g over the 4 stationary
    points, checked numerically at 256-bit precision."""
    rng = random.Random(63)
    mp.mp.prec = 300
    done = 0
    while done < 3:
        g = BiPoly.from_terms(
            {
                (i, j): rand_rat(rng, -4, 4, 2)
                for i in range(4)
                for j in range(4 - i)
            }
        )
        if g.total_degree != 3:
            continue
        try:
            val, _ = discriminant_biv(g)
        except DegeneracyError:
            continue
        g1, g2 = g.derivative(0), g.derivative(1)

        def as_x2_poly(bp):
            return [
                UniPoly([bp.coeff(i, j) for i in range(bp.deg1 + 1)], "x1")
                for j in range(bp.deg2 + 1)
            ]

        p1, p2 = as_x2_poly(g1), as_x2_poly(g2)
        m, n = len(p1) - 1, len(p2) - 1
        size = m + n
        zero = UniPoly.zero("x1")
        rows = []
        pc = list(reversed(p1))
        qc = list(reversed(p2))
        for i in range(n):
            rows.append([zero] * i + pc + [zero] * (size - m - 1 - i))
        for i in range(m):
            rows.append([zero] * i + qc + [zero] * (size - n - 1 - i))
        res = det_unipoly_matrix(rows, "x1")
        if res.degree != 4:
            continue

        def to_mp(c):
            return mp.mpf(int(c.numerator)) / mp.mpf(int(c.denominator))

        def poly_at_x1(bp, x1):
            return [
                sum(to_mp(bp.coeff(i, j)) * x1**i for i in range(bp.deg1 + 1))
                for j in range(bp.deg2, -1, -1)
            ]

        x1_roots = mp.polyroots([to_mp(c) for c in reversed(res.coeffs)],
                                maxsteps=200, extraprec=200)
        product = mp.mpf(1)
        used = 0
        for x1 in x1_roots:
            c1 = poly_at_x1(g1, x1)
            for x2 in mp.polyroots(c1, maxsteps=200, extraprec=200):
                if abs(mp.polyval(poly_at_x1(g2, x1), x2)) < mp.mpf(2) ** -120:
                    product *= mp.polyval(poly_at_x1(g, x1), x2)
                    used += 1
        if used != 4:
            continue
        target = to_mp(val)
        scale = max(abs(target), abs(product), mp.mpf(1) * 0 + mp.mpf(10) ** -30)
        assert abs(product - target) / scale < mp.mpf(10) ** -20
        done += 1


def test_discriminant_param_interpolation():
    # discriminant in mu of (mu^2 + z*mu + 1) is z^2 - 4 up to the pinned
    # normalization (resultant convention): N^N*b0^N*detB = z^2 - 4 exactly
    pp = ParamPoly([UniPoly.const(1, "z"), UniPoly([0, 1], "z"), UniPoly.const(1, "z")],
                   "mu", "z")
    f = discriminant_param(pp)
    z = UniPoly.x("z")
    assert f == 4 - z * z or f == z * z - 4
    # direct check at a node
    assert f.eval(3) == discriminant_uni(pp.eval_param(3))


def test_last_row_cofactors_field():
    data = bezout_matrix((X - 2) ** 2 * (X + 1))
    assert [data.last_row_cofactor(j) for j in range(data.size)] == [QQ(2), QQ(4)]
    assert multiple_zero_uni(data) == QQ(4) / QQ(2)
