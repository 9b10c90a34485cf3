import random
from types import SimpleNamespace

import pytest

from brute import brute_point_distance
from helpers import per_node_family_surface, rand_rat, workload_problems
from qdist import discrim, realroots
from qdist.cli import ProblemFile
from qdist.discrim import discriminant_param
from qdist.errors import DegeneracyError, InputError, NoPositiveRootError
from qdist.linalg import MatrixQ, VectorQ
from qdist.metrics import gated_multiple_zero, point_pairing, solve_point
from qdist.parametric import (
    QuadricFamily,
    _t_pencil,
    _validate_interior,
    _Zero,
    family_distance_poly,
    family_distance_surface,
    family_solve,
)
from qdist.poly import BiPoly, UniPoly, divrem
from qdist.realroots import positive_roots
from qdist.scalar import QQ, snap

T = UniPoly.x("t")


def moving_ellipse_family():
    # 4(x - t)^2 + (y - s)^2 - 16 = 0 with s = t^2 - 4t
    s = T**2 - 4 * T
    c = 4 * T**2 + s * s - 16
    return QuadricFamily(
        a=[[4, 0], [0, 1]],
        b=[-4 * T, -s],
        c=c,
        interval=None,
    )


def test_constant_family_degenerates_to_member():
    fam = QuadricFamily(a=[[1, 0], [0, 1]], b=[0, 0], interval=(0, 1))
    big_f, fa, fb = family_distance_poly(fam, VectorQ([3, 0]))
    assert big_f is None
    assert fa is not None
    rep = family_solve(fam, VectorQ([3, 0]))
    assert rep.d == 2
    assert any("does not depend" in w for w in rep.warnings)


def test_moving_circles_boundary_win():
    # unit circles centered (t, 2); keeping the centers off the unit shell
    # keeps every member representable in the normalized form
    fam = QuadricFamily(
        a=[[1, 0], [0, 1]],
        b=[-T, -2],
        c=T**2 + 3,
        interval=(0, 1),
    )
    rep = family_solve(fam, VectorQ([3, 2]))
    assert rep.d == 1
    assert rep.t_star == 1
    assert rep.branch == "endpoint-b"
    assert tuple(rep.nearest_pairs[0].x) == (QQ(2), QQ(2))


def test_member_through_origin_still_solves_distance():
    # the winning member passes through the origin, so it cannot be put in
    # the normalized quadric form; it is recovered in coordinates centred
    # at the point, and its nearest point moved back
    fam = QuadricFamily(
        a=[[1, 0], [0, 1]],
        b=[-T, 0],
        c=T**2 - 1,
        interval=(0, 1),
    )
    rep = family_solve(fam, VectorQ([3, 0]))
    assert rep.d == 1
    assert rep.t_star == 1
    assert not rep.warnings
    assert (rep.nearest_pairs[0].x, rep.nearest_pairs[0].y) == ((2, 0), (3, 0))


def test_member_through_origin_at_an_irrational_distance():
    # the circle (x - t)^2 + y^2 = 4 meets the origin at t = 2, the winner
    # against (0, 5): d = sqrt(29) - 2 at X = (2, 0) + 2 (-2, 5) / sqrt(29)
    fam = QuadricFamily(a=[[1, 0], [0, 1]], b=[-T, 0], c=T**2 - 4, interval=(2, 3))
    rep = family_solve(fam, VectorQ([0, 5]))
    assert (rep.t_star, rep.branch) == (2, "endpoint-a")
    assert abs((rep.d + 2) ** 2 - 29) < QQ(1, 2**100)
    assert not any("unavailable" in w for w in rep.warnings)
    (pair,) = rep.nearest_pairs
    x = VectorQ(pair.x)
    assert pair.y == (0, 5)
    assert abs((x[0] - 2) ** 2 + x[1] ** 2 - 4) < QQ(1, 2**64)
    assert abs(5 * (x[0] - 2) + 2 * x[1]) < QQ(1, 2**64)  # on the ray from the centre
    assert all(v < QQ(1, 2**64) for v in pair.residuals.values())


def test_interior_candidate_off_its_zero_fails_the_gate():
    # the t-pencil at a z moved 2^-20 off a validated interior zero has no
    # multiple zero that passes gated_multiple_zero, so the candidate goes
    fam, x0 = moving_ellipse_family(), VectorQ([-10, 10])
    surface = family_distance_surface(fam, x0)
    pencil = _t_pencil(surface)
    big_f = family_distance_poly(fam, x0, surface, pencil)[0]
    zeros = (_Zero(iv) for iv in positive_roots(big_f) if iv.multiplicity == 1)
    zero = next(z for z in zeros if _validate_interior(fam, surface, pencil(), z, 128))
    moved = SimpleNamespace(value=lambda bits: zero.value(bits) + QQ(1, 1 << 20))
    assert _validate_interior(fam, surface, pencil(), moved, 128) is None
    with pytest.raises(DegeneracyError) as exc:
        gated_multiple_zero(pencil().eval_var(1, snap(moved.value(128), 128)), 128)
    assert exc.value.code == "multiple-zero-residual"


def test_interior_stationary_family():
    rep = family_solve(moving_ellipse_family(), VectorQ([-10, 10]))
    assert rep.branch == "interior-stationary"
    assert abs(rep.z_star.value - QQ(3770933565, 10**8)) < QQ(1, 10**7)
    assert abs(rep.t_star - QQ(-19680233599, 10**10)) < QQ(1, 10**9)


@pytest.mark.parametrize("interval", [(-1, 1), None], ids=["interval", "whole-line"])
def test_moving_circle_has_its_interior_minimum(interval):
    # a radius-2 circle centred at (t, 0), against (0, 5): d = 3 at t = 0.
    # Every member's point pencil carries the factor (1 - mu), so F(z, t)
    # holds the square of |x0 - centre(t)|^2, a factor in t alone
    fam = QuadricFamily(a=[[1, 0], [0, 1]], b=[-T, 0], c=T**2 - 4, interval=interval)
    rep = family_solve(fam, VectorQ([0, 5]))
    assert rep.d == 3 and rep.t_star == 0
    assert rep.branch == "interior-stationary"
    assert not rep.warnings
    assert tuple(rep.nearest_pairs[0].x) == (0, 2)


def test_non_ellipse_winner_reports_d_without_a_nearest_point():
    # members must be ellipsoids on the interval, and qdist does not check
    # it: A(t) = diag(3, 1 + t) is indefinite for t < -1, where this family
    # over the whole line has its winner; d comes without a nearest point
    fam = QuadricFamily(a=[[3, 0], [0, 1 + T]], b=[0, T - 2], c=2 * T**2 - 2)
    rep = family_solve(fam, VectorQ([-3, -5]))
    assert rep.branch == "interior-stationary" and rep.t_star < -1
    assert abs(rep.d - QQ(12031992803702216, 10**16)) < QQ(1, 10**12)
    assert not rep.nearest_pairs
    assert rep.warnings == [
        "nearest point on winning member unavailable: quadric matrix is not sign-definite"
    ]


def test_sphere_family_surface_vanishes_identically():
    # every member's point pencil carries (1 - mu)^2, so each member's F,
    # and with them the distance surface, vanish identically
    fam = QuadricFamily(a=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], b=[-T, 0, 0], c=T**2 - 4)
    with pytest.raises(DegeneracyError) as info:
        family_solve(fam, VectorQ([0, 5, 0]))
    assert info.value.code == "identically-zero-discriminant"


def test_iterated_discriminant_divisible_by_core_factor():
    big_f, fa, fb = family_distance_poly(moving_ellipse_family(), VectorQ([-10, 10]))
    assert fa is None and fb is None
    core = UniPoly(
        [
            3648597980765724103824,
            -202905147887926860744,
            4100511694812810849,
            -42785419475837458,
            266900597798217,
            -1058624029488,
            2645308000,
            -3774720,
            2304,
        ],
        "z",
    )
    _, r = divrem(big_f, core.normalized())
    assert not r


def test_family_branch_consistency():
    # the winner is not larger than any validated candidate square root
    fam = QuadricFamily(
        a=[[2, 0], [0, 1]],
        b=[-2 * T, UniPoly([0, 0, QQ(-1, 2)], "t")],
        c=2 * T**2 + UniPoly([0, 0, 0, 0, QQ(1, 4)], "t") - 1,
        interval=(-1, 2),
    )
    x0 = VectorQ([5, 4])
    rep = family_solve(fam, x0)
    for poly in family_distance_poly(fam, x0)[1:]:
        if poly is None or not poly:
            continue
        from qdist.realroots import min_positive_zero

        v, _, _ = min_positive_zero(poly)
        assert rep.z_star.value <= v + QQ(1, 1 << 40)


@pytest.mark.parametrize("shape", ["ellipses", "circles"])
def test_family_oracle_small_random(shape):
    # circle members put a square factor in t alone into F(z, t), which the
    # t-pencil leaves out
    rng = random.Random(2718)
    done = 0
    while done < 6:
        # base shape plus linear-in-t center motion, quadratic constant
        m11 = rng.randint(1, 4)
        m22 = m11 if shape == "circles" else rng.randint(1, 4)
        cx0, cx1 = rand_rat(rng, -2, 2, 2), rand_rat(rng, -2, 2, 2)
        cy0, cy1 = rand_rat(rng, -2, 2, 2), rand_rat(rng, -2, 2, 2)
        # member at t: m11 (x - cx(t))^2 + m22 (y - cy(t))^2 = 1
        cx = UniPoly([cx0, cx1], "t")
        cy = UniPoly([cy0, cy1], "t")
        a = [[m11, 0], [0, m22]]
        b = [-m11 * cx, -m22 * cy]
        c = m11 * cx * cx + m22 * cy * cy - 1
        lo, hi = QQ(-1), QQ(1)
        fam = QuadricFamily(a=a, b=b, c=c, interval=(lo, hi))
        x0 = VectorQ([rng.randint(3, 6), rng.randint(3, 6)])
        try:
            rep = family_solve(fam, x0)
        except NoPositiveRootError:
            continue
        if rep.simple is False:
            continue
        # two-level brute force: dense t grid + member point oracle
        best = None
        steps = 80
        for i in range(steps + 1):
            t = lo + (hi - lo) * QQ(i, steps)
            try:
                member = fam.member(t)
            except ValueError:
                continue
            d = brute_point_distance(member, x0)
            if best is None or d < best[0]:
                best = (d, t)
        if best is None:
            continue
        # refine around the best t
        import numpy as np
        from scipy.optimize import minimize_scalar

        def f(tf):
            tq = QQ(int(round(tf * 10**9)), 10**9)
            if tq < lo:
                tq = lo
            if tq > hi:
                tq = hi
            try:
                return brute_point_distance(fam.member(tq), x0)
            except ValueError:
                return float("inf")

        res = minimize_scalar(
            f,
            bracket=None,
            bounds=(float(max(lo, best[1] - QQ(1, 10))), float(min(hi, best[1] + QQ(1, 10)))),
            method="bounded",
            options={"xatol": 1e-10},
        )
        oracle = min(best[0], res.fun)
        assert abs(float(rep.d) - oracle) < 1e-5
        done += 1


def test_family_dimension_mismatch():
    fam = QuadricFamily(a=[[1, 0], [0, 1]], b=[0, 0], interval=(0, 1))
    with pytest.raises(InputError):
        family_solve(fam, VectorQ([1, 2, 3]))


def _golden_family_cases():
    # the family-endpoint and family-interior cases of test_report_golden
    yield (
        QuadricFamily(a=[[1, 0], [0, 1]], b=[-T, -2], c=T**2 + 3, interval=(0, 1)),
        VectorQ([3, 2]),
    )
    yield moving_ellipse_family(), VectorQ([-10, 10])


def _workload_families(seeds, count):
    for seed in seeds:
        for problem in workload_problems("pair-family", seed, count):
            if problem["kind"] == "family-point":
                p = ProblemFile(problem)
                yield p.family, p.point


def _interior_winner(fam, x0):
    """z*'s _Zero and the validated interior candidate, as family_solve finds them."""
    surface = family_distance_surface(fam, x0)
    pencil = _t_pencil(surface)
    big_f = family_distance_poly(fam, x0, surface, pencil)[0]
    for iv in positive_roots(big_f):
        zero = _Zero(iv)
        best = iv.multiplicity == 1 and _validate_interior(fam, surface, pencil(), zero, 128)
        if best:
            return zero, best


@pytest.mark.parametrize("case", ["family-interior", "pair-family-seed-1"])
def test_member_zero_refined_inside_z_star_bracket(case):
    # the winning member's first zero lies inside z*'s 128-bit bracket, and
    # refining it there reaches the brackets that plain refinement reaches
    if case == "family-interior":
        fam, x0 = list(_golden_family_cases())[1]
    else:
        fam, x0 = next(_workload_families((1,), 6))
    zero, best = _interior_winner(fam, x0)
    first = best.member.first
    z_star = zero.at(128)
    assert first.near == (z_star.lo, z_star.hi)
    assert realroots._confirmed(first.origin, first.near)
    plain = _Zero(first.origin)
    for bits in (64, 128):
        assert first.at(bits) == plain.at(bits)


def test_family_nearest_points_match_member_solve():
    # the family recovers on the winning member's own F, refining its zeros
    # only as recovery reaches them; solve_point on that member is the oracle
    cases = list(_golden_family_cases()) + list(_workload_families((1, 2, 3), 6))
    assert len(cases) == 11
    for fam, x0 in cases:
        rep = family_solve(fam, x0)
        sub = solve_point(fam.member(rep.t_star), x0)
        assert rep.nearest_pairs and rep.nearest_pairs == sub.nearest_pairs
        assert rep.multipliers == sub.multipliers


def test_family_extraneous_z_power_counts_leading_zeros_of_f():
    # like every other report, a family's F carries the power of z it has
    # as a factor, and its report says how large that power is
    cases = list(_golden_family_cases()) + list(_workload_families((1,), 6))
    powers = []
    for fam, x0 in cases:
        rep = family_solve(fam, x0)
        if rep.fz is not None:
            powers.append(next(i for i, c in enumerate(rep.fz.coeffs) if c))
            assert rep.extraneous_z_power == powers[-1]
    # every case has F: the golden endpoint case, a circle family, once the
    # square factor in t alone is left out of its t-pencil
    assert len(powers) == len(cases) == 5 and min(powers) > 0


def test_family_surface_matches_per_node_pencils():
    # the point pencil is built once over Q[mu, t] and evaluated at each
    # node; the reference builds it from the members' data at every node
    cases = list(_golden_family_cases()) + list(_workload_families((1, 2, 3), 6))
    assert len(cases) == 11
    for fam, x0 in cases:
        assert family_distance_surface(fam, x0) == per_node_family_surface(fam, x0)


def test_member_f_is_the_surface_at_its_t():
    # recovery reads the winning member's zeros off the surface at its t:
    # the member's own F must be that polynomial up to a constant factor,
    # at the winning t and at the interval's ends (a member through the
    # origin has no normalized form, and recovery skips it)
    cases = list(_golden_family_cases()) + list(_workload_families((1,), 6))
    assert len(cases) == 5
    for fam, x0 in cases:
        surface = family_distance_surface(fam, x0)
        t_star = family_solve(fam, x0).t_star
        for t in (t_star,) + (fam.interval or ()):
            if not fam.c.eval(t):
                continue
            own = point_pairing(fam.member(t), x0).distance_poly()
            assert surface.eval_var(1, t).normalized() == own.normalized()


def _full_iterated_discriminant(surface):
    """The t-discriminant of F(z, t) itself, with no power of z divided out."""
    pp = BiPoly.from_terms({(j, i): c for (i, j), c in surface.terms()}, ("t", "z"))
    return discriminant_param(pp).normalized()


def test_iterated_discriminant_divides_out_the_power_of_z(monkeypatch):
    # every member's F has the factor z, so F(z, t) = z G(z, t) and the
    # iterated discriminant is z^(2 deg_t - 1) times that of G: the same
    # polynomial from 58 nodes instead of the 89 that F(z, t) itself takes
    fam, x0 = moving_ellipse_family(), VectorQ([-10, 10])
    surface = family_distance_surface(fam, x0)
    assert not any(surface.coeffs[0]) and surface.deg2 == 16
    calls = []
    uni = discrim.discriminant_uni
    monkeypatch.setattr(discrim, "discriminant_uni", lambda g: calls.append(g) or uni(g))
    big_f = family_distance_poly(fam, x0, surface)[0]
    assert len(calls) == 58
    assert big_f.degree == 85
    monkeypatch.undo()
    assert big_f == _full_iterated_discriminant(surface)
    for fam, x0 in _workload_families((1, 2), 6):
        surface = family_distance_surface(fam, x0)
        assert family_distance_poly(fam, x0, surface)[0] == _full_iterated_discriminant(surface)
