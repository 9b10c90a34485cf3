import random

import pytest

from helpers import (
    assert_printed,
    ellipsoid_at,
    rand_ellipsoid,
    rand_pd_matrix,
    rand_rat,
)
from qdist import discrim, metrics
from qdist.discrim import discriminant_param
from qdist.errors import DegeneracyError, InputError
from qdist.linalg import (
    MatrixQ,
    VectorQ,
    adjugate,
    determinant,
    inverse,
)
from qdist.metrics import (
    LinearVariety,
    Quadric,
    _general_raw,
    centered_distance_poly,
    centered_intersects,
    general_bipoly_at,
    general_distance_poly,
    general_distance_poly_full,
    general_intersects,
    general_nearest_points,
    general_sign_pencil,
    general_z_pencil,
    normalize,
    point_distance_poly,
    point_pairing,
    point_pencil,
    solve_centered,
    solve_general,
    solve_point,
    solve_variety,
    trailing_z_power,
    variety_distance_poly,
    variety_intersects,
    variety_pencil,
)
from qdist.poly import BiPoly, RatFunc, UniPoly
from qdist.realroots import isolate_real_roots, min_positive_zero
from qdist.scalar import QQ

Z = UniPoly.x("z")


def axis_problem():
    a = MatrixQ([[7, -2, 0], [-2, 6, -2], [0, -2, 5]])
    b = VectorQ([QQ(-37, 2), -6, QQ(3, 2)])
    e = normalize(a, b, 54)
    v = LinearVariety(MatrixQ.from_columns([[0, 1, 0], [0, 0, 1]]))
    return e, v


def unit_circle():
    return Quadric(MatrixQ.identity(2), VectorQ.zero(2))


def circle_at(cx, cy, r=1):
    center = VectorQ([cx, cy])
    shape = MatrixQ.identity(2)
    return ellipsoid_at(shape.scale(QQ(1, r * r)), center)


def ellipse_2_1():
    # x^2/4 + y^2 = 1
    return Quadric(MatrixQ.diag([QQ(1, 4), QQ(1)]), VectorQ.zero(2))


# -- normalization -----------------------------------------------------------


def test_normalize_circle():
    q = normalize(MatrixQ.identity(2), VectorQ.zero(2), -4)
    assert q.a == MatrixQ.identity(2).scale(QQ(1, 4))
    assert q.b.is_zero()


def test_normalize_matches_displayed_entries():
    e, _ = axis_problem()
    assert e.a.entry(0, 0) == QQ(-7, 54)
    assert e.a.entry(0, 1) == QQ(1, 27)
    assert e.b.entries == (QQ(37, 108), QQ(1, 9), QQ(-1, 36))


def test_normalize_zero_constant_rejected():
    with pytest.raises(ValueError):
        normalize(MatrixQ.identity(2), VectorQ.zero(2), 0)


# -- intersection certificates ----------------------------------------------


def test_variety_intersects_unit_circle_and_axis():
    inter, cert = variety_intersects(
        unit_circle(), LinearVariety(MatrixQ.from_columns([[1, 0]]))
    )
    assert inter and cert >= 0


def test_variety_no_intersection_offset_circle():
    inter, _ = variety_intersects(
        circle_at(3, 0), LinearVariety(MatrixQ.from_columns([[1, 0]]))
    )
    assert not inter


def test_variety_no_intersection_worked_example():
    e, v = axis_problem()
    inter, _ = variety_intersects(e, v)
    assert not inter


def test_centered_intersects_cases():
    q1 = unit_circle()
    assert centered_intersects(q1, q1)[0]
    q3 = Quadric(MatrixQ.identity(2).scale(QQ(1, 9)), VectorQ.zero(2))
    assert not centered_intersects(q1, q3)[0]
    a1 = Quadric(MatrixQ([[10, -6], [-6, 8]]), VectorQ.zero(2))
    a2 = Quadric(MatrixQ([[1, QQ(1, 2)], [QQ(1, 2), 1]]), VectorQ.zero(2))
    inter, cls = centered_intersects(a1, a2)
    assert not inter and cls == "positive-definite"


def test_centered_intersects_requires_centered():
    with pytest.raises(InputError):
        centered_intersects(circle_at(3, 0), unit_circle())


@pytest.mark.parametrize("solve", [solve_point, solve_variety, solve_centered, solve_general])
def test_dimension_mismatch_is_an_input_error(solve):
    e, v = axis_problem()
    other = {
        solve_point: VectorQ([1, 2]),
        solve_variety: LinearVariety(MatrixQ.from_columns([[1, 0]])),
        solve_centered: unit_circle(),
        solve_general: circle_at(3, 0),
    }[solve]
    with pytest.raises(InputError):
        solve(e, other)


def test_squarefree_in_main_keeps_a_zero_coefficient():
    # (mu^2 - z)^2 deflates to mu^2 - z, whose mu^1 coefficient divrem
    # leaves as a plain rational 0
    square = BiPoly([[0, 0, 1], [], [0, -2], [], [1]], ("mu", "z"))
    assert metrics._squarefree_in_main(square) == BiPoly([[0, -1], [], [1]], ("mu", "z"))


@pytest.mark.parametrize("solve", [solve_point, solve_variety])
def test_dimension_mismatch_is_checked_before_definiteness(solve):
    # a hyperbola alone is a degeneracy (exit 3), but an operand of the wrong
    # dimension is a usage error (exit 2), and it is reported first
    hyperbola = Quadric(MatrixQ([[1, 0], [0, -1]]), VectorQ.zero(2))
    other = {
        solve_point: VectorQ([1, 2, 3]),
        solve_variety: LinearVariety(MatrixQ.from_columns([[1, 0, 0]])),
    }[solve]
    with pytest.raises(InputError):
        solve(hyperbola, other)


def test_general_intersects_cases():
    # overlapping circles (the center cannot be on the unit shell, which
    # would put the surface through the origin and defeat normalization)
    assert general_intersects(unit_circle(), circle_at(QQ(3, 2), 0))[0]
    assert not general_intersects(unit_circle(), circle_at(4, 0))[0]


def diag_ellipse(diagonal, center):
    """(X-c)^T D (X-c) = 1 for a diagonal shape D."""
    return ellipsoid_at(MatrixQ.diag([QQ(d) for d in diagonal]), VectorQ(center))


@pytest.mark.parametrize(
    "q1, q2, intersecting, summary",
    [
        (diag_ellipse([1, 4], [0, 0]), diag_ellipse([4, 1], [5, 0]), False, "mixed-or-zero"),
        (unit_circle(), diag_ellipse([1, 4], [4, 0]), False, "all-negative"),
        (diag_ellipse([1, 4], [0, 0]), diag_ellipse([4, 1], [1, 0]), True, "mixed-or-zero"),
        (
            diag_ellipse([1, QQ(1, 4)], [0, 0]),
            diag_ellipse([QQ(1, 25), QQ(1, 36)], [1, 0]),
            False,
            "all-negative",
        ),
        (
            ellipsoid_at(MatrixQ([[2, 1], [1, 2]]), VectorQ([0, 0])),
            ellipsoid_at(MatrixQ([[2, -1], [-1, 2]]), VectorQ([QQ(1, 2), QQ(1, 2)])),
            True,
            "mixed-or-zero",
        ),
    ],
    ids=["coaxial-apart", "circle-on-axis", "coaxial-crossing", "nested", "tilted-crossing"],
)
def test_general_intersects_multiple_phi_zero(q1, q2, intersecting, summary):
    # a multiple real zero of Phi sends the verdict to the critical values
    # of the second quadric's function on the first surface; the sign
    # summary alone would call the coaxial-apart pair intersecting
    inter, sign_summary, phi = general_intersects(q1, q2)
    assert any(iv.multiplicity > 1 for iv in isolate_real_roots(phi))
    assert sign_summary == summary
    assert inter == intersecting


@pytest.mark.parametrize(
    "q1, q2, code",
    [
        (diag_ellipse([1, 2], [0, 0]), diag_ellipse([QQ(1, 9), QQ(1, 16)], [0, 0]), None),
        (diag_ellipse([1, 2], [1, 1]), diag_ellipse([QQ(1, 9), QQ(1, 16)], [1, 1]), None),
        (
            diag_ellipse([1, 2], [QQ(1, 2), QQ(-3, 7)]),
            diag_ellipse([QQ(1, 9), QQ(1, 16)], [QQ(1, 2), QQ(-3, 7)]),
            None,
        ),
        (
            diag_ellipse([1, 2, 2], [0, 0, 0]),
            diag_ellipse([2, 1, 1], [4, 0, 0]),
            "identically-zero-pencil",
        ),
    ],
    ids=["concentric-at-origin", "concentric-at-1-1", "concentric-off-grid",
         "coaxial-revolution"],
)
def test_solve_general_symmetric_pair_is_classified(q1, q2, code):
    # a pair with a common centre is solved as a centred pair moved there;
    # surfaces of revolution about one axis still degenerate the sign pencil
    if code is not None:
        with pytest.raises(DegeneracyError) as exc:
            solve_general(q1, q2)
        assert exc.value.code == code
        return
    rep = solve_general(q1, q2)
    assert rep.kind == "quadric-quadric" and rep.intersecting is False
    assert "common-centre pair solved as a centred pair" in rep.warnings
    assert rep.d == 2
    # the semi-axes 1 and 3 along x: (c +- (1, 0), c +- (3, 0))
    c = -(inverse(q1.a) * q1.b)
    pairs = {(tuple(p.x), tuple(p.y)) for p in rep.nearest_pairs}
    assert pairs == {
        ((c[0] + s, c[1]), (c[0] + 3 * s, c[1])) for s in (1, -1)
    }
    for p in rep.nearest_pairs:
        assert q1.residual_at(VectorQ(p.x)) == 0 and q2.residual_at(VectorQ(p.y)) == 0


def test_common_centre_pairs_match_the_centred_solver():
    # seeded centred ellipse pairs, given as general pairs at the origin and
    # at a common centre, get the centred solver's verdict and distance
    rng = random.Random(8)  # 3 separated pairs and 3 intersecting ones
    for _ in range(6):
        a1 = rand_pd_matrix(rng, 2)
        a2 = rand_pd_matrix(rng, 2).scale(QQ(1, rng.randint(1, 40)))
        centred = solve_centered(Quadric(a1, VectorQ.zero(2)), Quadric(a2, VectorQ.zero(2)))
        centre = VectorQ([rand_rat(rng), rand_rat(rng)])
        for c in (VectorQ.zero(2), centre):
            rep = solve_general(ellipsoid_at(a1, c), ellipsoid_at(a2, c))
            assert rep.intersecting == centred.intersecting
            assert rep.d == centred.d and rep.d_error == centred.d_error
            assert len(rep.nearest_pairs) == len(centred.nearest_pairs)


# -- distance polynomials -----------------------------------------------------


def test_variety_distance_poly_worked_example():
    e, v = axis_problem()
    f = variety_distance_poly(e, v)
    m = trailing_z_power(f)
    body = UniPoly(f.coeffs[m:], "z")
    # the four nontrivial coefficients of the quartic, primitive form
    expected = UniPoly(
        [61289436065, -1086769525104, 245988221152, -38807307008, 1331935488], "z"
    )
    assert body.normalized() == expected.normalized()


def test_variety_distance_poly_offset_circle():
    f = variety_distance_poly(circle_at(3, 0), LinearVariety(MatrixQ.from_columns([[1, 0]])))
    value, simple, mult = min_positive_zero(f)
    assert value == 4 and simple


def test_variety_degree_is_twice_codimension():
    rng = random.Random(64)
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        while True:
            e = ellipsoid_at(
                rand_pd_matrix(rng, n),
                VectorQ([rand_rat(rng, -4, 4, 2) for _ in range(n)]),
            )
            cols = [[rand_rat(rng, -3, 3, 2) for _ in range(n)] for _ in range(k)]
            try:
                v = LinearVariety(MatrixQ.from_columns(cols))
            except ValueError:
                continue
            f = variety_distance_poly(e, v)
            break
        assert f.degree - trailing_z_power(f) == 2 * k


def test_orthonormal_fast_path_matches_bordered_pencil():
    e, v = axis_problem()
    fast = variety_pencil(e, v)
    # defeat the shortcut by scaling the columns (same variety, Gram != I)
    v2 = LinearVariety(v.c.scale(QQ(2)))
    slow = variety_pencil(e, v2)
    # pencils differ by an overall constant only; compare the distance polys
    f1 = discriminant_param(fast).normalized()
    f2 = discriminant_param(slow).normalized()
    assert f1 == f2


PENCIL_SAMPLES = [(QQ(1, 3), QQ(5, 2)), (QQ(-2), QQ(7, 3)), (QQ(3, 4), QQ(-1, 5))]


def _bordered_det(top, col, row, corner):
    """det([[top, col], [row, corner]]) for a square list-of-rows ``top``."""
    rows = [list(r) + [c] for r, c in zip(top, col)] + [list(row) + [corner]]
    return determinant(MatrixQ(rows))


def _variety_det(e, v, mu, z):
    """det([A | B | C; B^T | -1 + mu z | -h^T; mu C^T | -mu h | G])."""
    n, k = e.dim, v.codim
    c, h = v.c, v.h
    rows = [
        list(e.a.entries[i]) + [e.b[i]] + list(c.entries[i]) for i in range(n)
    ]
    rows.append(list(e.b) + [-1 + mu * z] + [-x for x in h])
    rows += [
        [mu * c.entry(j, i) for j in range(n)] + [-mu * h[i]] + list(v.gram.entries[i])
        for i in range(k)
    ]
    return determinant(MatrixQ(rows))


def test_pencils_match_their_defining_determinants():
    rng = random.Random(29)
    for n in (2, 3):
        e = rand_ellipsoid(rng, n, 3)
        q2 = rand_ellipsoid(rng, n, 3)
        x0 = VectorQ([rand_rat(rng) for _ in range(n)])
        cols = [[rand_rat(rng, -3, 3, 2) for _ in range(n)] for _ in range(n - 1)]
        offset = VectorQ([QQ(i + 2, 3) for i in range(n - 1)])
        v = LinearVariety(MatrixQ.from_columns(cols), offset)
        pp, vp = point_pencil(e, x0), variety_pencil(e, v)
        sp = general_sign_pencil(e, q2)
        for t, z in PENCIL_SAMPLES:
            eye = MatrixQ.identity(n).scale(t)
            border = [e.b[i] + t * x0[i] for i in range(n)]
            assert pp.eval_var(1, z).eval(t) == _bordered_det(
                (e.a - eye).entries, border, border, -1 - t * x0.dot(x0) + t * z
            )
            assert vp.eval_var(1, z).eval(t) == _variety_det(e, v, t, z)
            a = q2.a - e.a.scale(t)
            b = [q2.b[i] - t * e.b[i] for i in range(n)]
            assert sp.eval_var(1, z).eval(t) == _bordered_det(a.entries, b, b, t - 1 - z)


def test_orthonormal_variety_pencil_matches_reduced_form():
    e, v = axis_problem()
    tilted = LinearVariety(MatrixQ.from_columns([[QQ(3, 5), QQ(4, 5)]]))
    for e, v in [(e, v), (unit_circle(), tilted), (ellipse_2_1(), tilted)]:
        pencil = variety_pencil(e, v)
        cct = v.c * v.c.transpose()
        for mu, z in PENCIL_SAMPLES:
            a = e.a - cct.scale(mu)
            reduced = _bordered_det(a.entries, e.b, e.b, -1 + mu * z)
            assert pencil.eval_var(1, z).eval(mu) == reduced == _variety_det(e, v, mu, z)


def test_point_distance_poly_factorization_on_axis():
    ell = ellipse_2_1()
    x0 = QQ(3)
    f = point_distance_poly(ell, VectorQ([x0, 0]))
    body = UniPoly(f.coeffs[trailing_z_power(f):], "z")
    expected = (Z - (x0 - 2) ** 2) * (Z - (x0 + 2) ** 2) * (3 * Z - (3 - x0**2)) ** 2
    assert body.normalized() == expected.normalized()


def test_point_distance_origin_reciprocal_largest_eigenvalue():
    ell = ellipse_2_1()
    rep = solve_point(ell, VectorQ([0, 0]))
    assert rep.z_star.value == 1  # largest eigenvalue of A is 1
    assert rep.d == 1


def test_point_on_quadric_rejected():
    # valid input with d = 0: a classified degeneracy, not a usage error
    with pytest.raises(DegeneracyError) as info:
        point_distance_poly(ellipse_2_1(), VectorQ([2, 0]))
    assert info.value.code == "point-on-surface"
    assert not isinstance(info.value, ValueError)


def test_centered_remark_reciprocal_eigenvalue_random():
    # for B = 0 the minimal positive zero is 1 over the largest eigenvalue
    rng = random.Random(90)
    from qdist.linalg import char_poly
    from qdist.realroots import isolate_real_roots, refine

    for _ in range(5):
        n = rng.randint(2, 3)
        a = rand_pd_matrix(rng, n)
        q = Quadric(a, VectorQ.zero(n))
        rep = solve_point(q, VectorQ.zero(n))
        p = char_poly(a)
        eig = max(refine(iv, 80) for iv in isolate_real_roots(p))
        assert abs(rep.z_star.value - 1 / eig) < QQ(1, 1 << 60)


# -- worked example solves ----------------------------------------------------


def test_solve_variety_worked_example():
    e, v = axis_problem()
    rep = solve_variety(e, v)
    assert not rep.intersecting
    assert_printed(rep.d, "0.23901475")
    assert_printed(rep.positive_zeros[0].value, "0.05712805")
    assert_printed(rep.positive_zeros[1].value, "22.54560673")
    assert rep.nearest_pairs
    worst = max(max(p.residuals.values()) for p in rep.nearest_pairs)
    assert worst < QQ(1, 10**30)
    # the nearest variety point lies on the first coordinate axis
    y = rep.nearest_pairs[0].y
    assert y[1] == 0 and y[2] == 0


def test_solve_point_trivial_cases():
    ell = ellipse_2_1()
    rep = solve_point(ell, VectorQ([3, 0]))
    assert rep.d == 1
    assert tuple(rep.nearest_pairs[0].x) == (QQ(2), QQ(0))
    rep0 = solve_point(ell, VectorQ([0, 0]))
    assert rep0.d == 1


def test_solve_point_multiple_minimum_is_flagged():
    rep = solve_point(ellipse_2_1(), VectorQ([1, 0]))
    assert rep.z_star.value == QQ(2, 3)
    assert rep.simple is False
    assert rep.alternate_z is not None and rep.alternate_z.value == 1
    assert any("multiple" in w for w in rep.warnings)


def test_solve_centered_two_ellipses():
    q1 = Quadric(MatrixQ([[10, -6], [-6, 8]]), VectorQ.zero(2))
    q2 = Quadric(MatrixQ([[1, QQ(1, 2)], [QQ(1, 2), 1]]), VectorQ.zero(2))
    rep = solve_centered(q1, q2)
    assert rep.extraneous_z_power == 2
    zs = [r.value for r in rep.positive_zeros]
    for printed, v in zip(
        ("0.053945666", "1.3340583883", "1.95921364", "2.8785867381"), zs
    ):
        assert_printed(v, printed)
    assert_printed(rep.d, "0.23226206")
    assert_printed(rep.multipliers["lam"], "-0.13576051")
    assert len(rep.nearest_pairs) == 2
    x = rep.nearest_pairs[0].x
    y = rep.nearest_pairs[0].y
    sx = -1 if x[0] > 0 else 1
    assert_printed(sx * x[0], "-0.3838312")
    assert_printed(sx * x[1], "-0.4418639")
    assert_printed(sx * y[0], "-0.5449964")
    assert_printed(sx * y[1], "-0.6091105")


def test_solve_centered_concentric_circles():
    q1 = unit_circle()
    q3 = Quadric(MatrixQ.identity(2).scale(QQ(1, 9)), VectorQ.zero(2))
    rep = solve_centered(q1, q3)
    assert [r.value for r in rep.positive_zeros] == [4, 16]
    assert rep.d == 2


def test_solve_general_trivial_circles():
    rep = solve_general(unit_circle(), circle_at(4, 0))
    assert rep.z_star.value == 4 and rep.d == 2
    x, y = rep.nearest_pairs[0].x, rep.nearest_pairs[0].y
    assert tuple(x) == (QQ(1), QQ(0)) and tuple(y) == (QQ(3), QQ(0))


def test_solve_general_identical_pair():
    e = ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([1, 2]))
    rep = solve_general(e, e)
    assert rep.intersecting and rep.d == 0


def test_solve_general_symmetry():
    e1 = ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([0, 0]))
    e2 = ellipsoid_at(MatrixQ([[5, -1], [-1, 4]]), VectorQ([10, 8]))
    r12 = solve_general(e1, e2)
    r21 = solve_general(e2, e1)
    assert abs(r12.d - r21.d) <= r12.d_error + r21.d_error


def test_orthogonal_invariance_signed_permutation():
    rng = random.Random(7)
    e1 = ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([0, 0]))
    e2 = ellipsoid_at(MatrixQ([[5, -1], [-1, 4]]), VectorQ([10, 8]))
    f = general_distance_poly(e1, e2)
    p = MatrixQ([[0, -1], [1, 0]])  # signed permutation (rotation by 90)

    def transform(q):
        return Quadric(p * q.a * p.transpose(), p * q.b)

    f2 = general_distance_poly(transform(e1), transform(e2))
    assert f.normalized() == f2.normalized()


def test_general_distance_poly_deflated_branch():
    # a circle against an ellipse on its axis: the bivariate determinant
    # vanishes at every node, so F(z) comes from the deflated values
    e = ellipsoid_at(MatrixQ([[1, 0], [0, 4]]), VectorQ([4, 0]))
    circle = unit_circle()
    f, square = general_distance_poly_full(circle, e, general_z_pencil(circle, e))
    assert square is None
    assert f.coeffs == tuple(QQ(c) for c in (
        1046872756224, 40389215744, -30833811312, -11824906824, -236680415,
        63565104, 13368672, -1154304, 20736,
    ))


def _separated_ellipses():
    e1 = ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([0, 0]))
    e2 = ellipsoid_at(MatrixQ([[5, -1], [-1, 4]]), VectorQ([10, 8]))
    return e1, e2


def _criterion_5_ellipsoids():
    q1 = normalize(
        MatrixQ([[7, -2, 0], [-2, 6, -2], [0, -2, 5]]),
        VectorQ([QQ(-37, 2), -6, QQ(3, 2)]),
        54,
    )
    q2 = normalize(
        MatrixQ([[189, 0, 1], [0, 1, QQ(-1, 2)], [1, QQ(-1, 2), 189]]),
        VectorQ.zero(3),
        -27,
    )
    return q1, q2


@pytest.mark.parametrize("pair", [_separated_ellipses, _criterion_5_ellipsoids])
def test_general_bipoly_is_affine_in_z(pair):
    q1, q2 = pair()
    g0, g1 = general_z_pencil(q1, q2)
    for z in (0, 1, QQ(-3, 7), QQ(49, 4), 10**6):
        assert g0 + z * g1 == general_bipoly_at(q1, q2, z)


def test_general_recovery_reads_the_pencil_of_f():
    # solve_general recovers from the z-pencil that F was built from; a fresh
    # build of the pencil must give the same points and multipliers
    q1, q2 = _separated_ellipses()
    rep = solve_general(q1, q2)
    x, y, info = general_nearest_points(q1, q2, rep.z_star.value, 128, general_z_pencil(q1, q2))
    assert (rep.nearest_pairs[0].x, rep.nearest_pairs[0].y) == (tuple(x), tuple(y))
    assert rep.multipliers == info


def _point_recovery():
    e = normalize(MatrixQ([[3, 1], [1, 2]]), VectorQ([1, -1]), -5)
    x0 = VectorQ([4, 3])
    return point_pairing(e, x0).recover, solve_point(e, x0).z_star.value


def _general_recovery():
    q1, q2 = _separated_ellipses()
    pencil = general_z_pencil(q1, q2)
    return (
        lambda z_hat, bits: general_nearest_points(q1, q2, z_hat, bits, pencil),
        solve_general(q1, q2).z_star.value,
    )


@pytest.mark.parametrize("problem", [_point_recovery, _general_recovery])
def test_recovery_gates_the_multiple_zero(problem):
    # one multiplier or two, recovery passes gated_multiple_zero at the
    # refined zero and fails it 2^-20 away, where the pencil has no
    # multiple zero
    recover, z = problem()
    recover(z, 128)
    with pytest.raises(DegeneracyError) as exc:
        recover(z + QQ(1, 1 << 20), 128)
    assert exc.value.code == "multiple-zero-residual"


def test_general_raw_stops_three_nodes_past_the_degree(monkeypatch):
    calls = []
    bezout = discrim.bezout_matrix_biv
    monkeypatch.setattr(discrim, "bezout_matrix_biv", lambda g: calls.append(g) or bezout(g))
    q1, q2 = _separated_ellipses()
    raw = _general_raw(q1, q2, general_z_pencil(q1, q2))
    # the interpolated z^k * det has degree 14; its degree bound allows 39 nodes
    assert raw.degree == 14
    assert len(calls) == raw.degree + 4


def test_part_iv_multiplier_matrix_nonsingular_on_simple_zero():
    # recovery succeeded means det M was nonzero; assert via the reported data
    e, v = axis_problem()
    rep = solve_variety(e, v)
    assert rep.simple and rep.nearest_pairs and rep.multipliers


def test_pencil_derivative_matches_multiplier_identity():
    """d(Psi)/d(mu) equals the distance-gradient expression built from the
    multiplier matrix, checked as exact rational functions at sample points."""
    rng = random.Random(19)
    e = ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([QQ(1, 3), QQ(-1, 2)]))
    v = LinearVariety(MatrixQ.from_columns([[1, 2]]))
    pencil = variety_pencil(e, v)
    a_inv = inverse(e.a)
    caic = v.c.transpose() * a_inv * v.c
    caib = v.c.transpose() * (a_inv * e.b)
    baib = e.b.dot(a_inv * e.b)
    det_a = determinant(e.a)
    z0 = QQ(5, 7)
    phi = pencil.eval_var(1, z0)
    k = v.codim

    for _ in range(5):
        mu = rand_rat(rng, -9, 9, 4)
        m = caic.scale(mu) - v.gram
        dm = determinant(m)
        if not dm:
            continue
        m_inv = inverse(m)
        # Psi = Phi / (det A * det M); its mu-derivative must equal
        # z - B^T A^-1 C M^-1 G M^-1 C^T A^-1 B
        psi_val = lambda t: phi.eval(t) / (det_a * determinant(caic.scale(t) - v.gram))
        # exact derivative via the quotient rule on the pencil representation
        dphi = phi.derivative().eval(mu)
        ddetm = sum(
            determinant(
                MatrixQ(
                    [
                        [
                            caic.entry(r, c) if r == i else
                            (caic.scale(mu) - v.gram).entry(r, c)
                            for c in range(k)
                        ]
                        for r in range(k)
                    ]
                )
            )
            for i in range(k)
        )
        detm = determinant(caic.scale(mu) - v.gram)
        lhs = (dphi * det_a * detm - phi.eval(mu) * det_a * ddetm) / (det_a * detm) ** 2
        w = m_inv * caib
        rhs = z0 - w.dot(v.gram * w)
        # the pencil is (-1)^k times the normalized bordered determinant
        assert (-1) ** k * lhs == rhs


def test_point_leading_coefficient_structure():
    """Leading z-coefficient of the raw point pencil discriminant is a fixed
    multiple of det(A)^2 times the discriminant of det(A - mu I)."""
    from qdist.discrim import discriminant_uni
    from qdist.linalg import char_poly

    rng = random.Random(55)
    ratios = set()
    for _ in range(5):
        a = rand_pd_matrix(rng, 2)
        x0 = VectorQ([rand_rat(rng, -5, 5, 2), rand_rat(rng, -5, 5, 2)])
        q = Quadric(a, VectorQ([rand_rat(rng, -2, 2, 3), rand_rat(rng, -2, 2, 3)]))
        if not q.residual_at(x0):
            continue
        raw = discriminant_param(point_pencil(q, x0))
        lead = raw.coeffs[-1]
        cp = char_poly(a, "mu")  # det(mu I - A); same discriminant as det(A - mu I)
        ref = determinant(a) ** 2 * discriminant_uni(cp.coeffs)
        ratios.add(lead / ref)
    assert len(ratios) == 1


def test_empty_surface_is_reported():
    # negative definite normalized form with no real points
    a = MatrixQ.identity(2).scale(QQ(-1))
    q = Quadric(a, VectorQ.zero(2))  # -x^2 - y^2 = 1
    with pytest.raises(DegeneracyError):
        solve_point(q, VectorQ([3, 0]))


def _nearest_x(rep):
    assert rep.nearest_pairs, rep.warnings
    return VectorQ(rep.nearest_pairs[0].x)


def test_point_against_sphere():
    # 2|X|^2 = 4: the point pencil has the factor (1/2 - mu)^2 for every z,
    # so F comes from its square-free part, and so does the nearest point
    sphere = normalize(MatrixQ.identity(3).scale(QQ(2)), VectorQ.zero(3), -4)
    rep = solve_point(sphere, VectorQ([0, 4, -5]))
    # z* = (sqrt(41) - sqrt(2))^2 = 43 - 2 sqrt(82)
    assert abs((43 - rep.z_star.value) ** 2 - 328) < QQ(1, 2**100)
    assert abs(rep.d - (41**0.5 - 2**0.5)) < 1e-12
    x = _nearest_x(rep)
    assert x[0] == 0 and 5 * x[1] + 4 * x[2] == 0 and x[1] > 0
    assert abs(x.norm2() - 2) < QQ(1, 2**100)


def test_point_on_spheroid_axis():
    # x^2 + y^2 + 2 z^2 = 4 seen from (0, 0, 5): d = 5 - sqrt(2) at (0, 0, sqrt(2))
    spheroid = normalize(MatrixQ.diag([1, 1, 2]), VectorQ.zero(3), -4)
    rep = solve_point(spheroid, VectorQ([0, 0, 5]))
    assert abs((27 - rep.z_star.value) ** 2 - 200) < QQ(1, 2**100)
    assert abs(rep.d - (5 - 2**0.5)) < 1e-12
    x = _nearest_x(rep)
    assert x[0] == x[1] == 0 and abs(x[2] ** 2 - 2) < QQ(1, 2**100) and x[2] > 0


def test_centred_recovery_reads_the_deflated_pencil():
    # coaxial spheroids with semi-axes (1, 1, 2) and (4, 4, 3): the pencil
    # has a repeated factor for every z, F comes from its square-free part,
    # and the nearest points (0, 0, +-2) and (0, 0, +-3) from the same part
    q1 = Quadric(MatrixQ.diag([1, 1, QQ(1, 4)]), VectorQ.zero(3))
    q2 = Quadric(MatrixQ.diag([QQ(1, 16), QQ(1, 16), QQ(1, 9)]), VectorQ.zero(3))
    rep = solve_centered(q1, q2)
    assert rep.z_star.value == 1 and not rep.warnings
    assert [(p.x, p.y) for p in rep.nearest_pairs] == [((0, 0, 2), (0, 0, 3)), ((0, 0, -2), (0, 0, -3))]


@pytest.mark.parametrize("builder, solve, operands", [
    ("point_pencil", solve_point, lambda: (ellipse_2_1(), VectorQ([3, 1]))),
    ("variety_pencil", solve_variety, axis_problem),
    ("centered_pencil", solve_centered, lambda: (
        Quadric(MatrixQ([[10, -6], [-6, 8]]), VectorQ.zero(2)),
        Quadric(MatrixQ([[1, QQ(1, 2)], [QQ(1, 2), 1]]), VectorQ.zero(2)),
    )),
], ids=["point", "variety", "centred"])
def test_each_pencil_is_built_once(monkeypatch, builder, solve, operands):
    # F(z) and the nearest-point recovery read one pencil per solve, and a
    # point recovers from its own pencil, not from an identity variety's
    calls = []
    for name in ("point_pencil", "variety_pencil", "centered_pencil"):
        original = getattr(metrics, name)
        monkeypatch.setattr(
            metrics, name, lambda *a, name=name, original=original: calls.append(name) or original(*a)
        )
    rep = solve(*operands())
    assert not rep.intersecting and rep.nearest_pairs
    assert calls == [builder]
