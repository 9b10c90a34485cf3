"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a PASS line with its runtime (run pytest with -s to see
them). Random-case property suites use fixed seeds and are fully
deterministic.
"""

import random
import time

from brute import brute_pair_distance, brute_point_distance, brute_variety_distance
from helpers import (
    _var_at,
    assert_printed,
    ellipsoid_at,
    rand_pd_matrix,
    rand_poly,
    rand_rat,
    sturm_chain,
    sylvester_resultant,
)
from qdist.discrim import (
    bezout_matrix,
    discriminant_param,
    discriminant_uni,
    multiple_zero_uni,
)
from qdist.errors import DegeneracyError
from qdist.linalg import MatrixQ, VectorQ, adjugate, block_matrix, determinant, inverse
from qdist.metrics import (
    LinearVariety,
    Quadric,
    centered_distance_poly,
    centered_intersects,
    general_distance_poly,
    normalize,
    point_pencil,
    solve_centered,
    solve_general,
    solve_point,
    solve_variety,
    trailing_z_power,
    variety_distance_poly,
    variety_intersects,
)
from qdist.parametric import QuadricFamily, family_distance_poly, family_solve
from qdist.poly import RatFunc, UniPoly, divrem, resultant, squarefree_part
from qdist.realroots import isolate_real_roots, root_bound
from qdist.scalar import QQ

Z = UniPoly.x("z")
A = UniPoly.x("a")


def _pass(num, label, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s, limit {limit}s) - {label}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


# -- criterion 1: quintic with a parameter -----------------------------------


def test_criterion_1_quintic_parameter_discriminant():
    t0 = time.perf_counter()
    g = UniPoly([3, -1, RatFunc.parameter("a"), 2, 6, 1], "x")
    det = bezout_matrix(g).det
    reference = RatFunc(
        (A + 7) * (324 * A**4 + 5481 * A**3 - 87771 * A**2 - 409817 * A + 5759315),
        UniPoly.const(3125, "a"),
    )
    assert det == reference, "determinant identity in the parameter"
    # multiple zeros at the three parameter values, to 8 significant digits
    d7 = bezout_matrix(UniPoly([3, -1, QQ(-7), 2, 6, 1], "x"))
    assert d7.det == 0 and multiple_zero_uni(d7) == -1
    from qdist.realroots import refine

    quart = 324 * A**4 + 5481 * A**3 - 87771 * A**2 - 409817 * A + 5759315
    got = {}
    for iv in isolate_real_roots(quart):
        a_hat = refine(iv, 160)
        lam = multiple_zero_uni(
            bezout_matrix(UniPoly([3, -1, a_hat, 2, 6, 1], "x")), strict=False
        )
        got[round(float(a_hat), 4)] = lam
    assert abs(got[-24.6394] - QQ(-380947138, 10**8)) < QQ(1, 10**8) * 5
    assert abs(got[-9.2964] - QQ(74648466, 10**8)) < QQ(1, 10**8) * 5
    _pass(1, "quintic parameter family: determinant identity and multiple zeros",
          t0, 1.0)


# -- criterion 2: ellipsoid vs coordinate axis --------------------------------


def test_criterion_2_ellipsoid_to_axis():
    t0 = time.perf_counter()
    e = normalize(
        MatrixQ([[7, -2, 0], [-2, 6, -2], [0, -2, 5]]),
        VectorQ([QQ(-37, 2), -6, QQ(3, 2)]),
        54,
    )
    v = LinearVariety(MatrixQ.from_columns([[0, 1, 0], [0, 0, 1]]))
    f = variety_distance_poly(e, v)
    body = UniPoly(f.coeffs[trailing_z_power(f):], "z")
    # The commonly quoted constant term of this quartic carries a
    # digit-duplication typo. Three independent computations (the
    # remainder-matrix determinant, a Sylvester resultant in mu, and the
    # quoted zeros themselves, which are roots of THIS quartic and not of
    # the corrupted rendering) pin the correct value, asserted below.
    mine = body.normalized()
    expected = UniPoly(
        [61289436065, -1086769525104, 245988221152, -38807307008, 1331935488], "z"
    ).normalized()
    assert mine == expected
    # four of the five quoted coefficients match exactly through the 3^18
    # content; the quoted constant 237447832908365535785 contains an extra
    # digit 5 (correct value: 23744783290836535785)
    content = QQ(387420489)  # 3^18
    assert 516019098077413632 == content * 1331935488
    assert -15034745857812486912 == content * -38807307008
    assert 95300876926947983328 == content * 245988221152
    assert -421036780846089455856 == content * -1086769525104
    assert content * 61289436065 == 23744783290836535785
    assert content * 61289436065 != 237447832908365535785
    rep = solve_variety(e, v)
    assert_printed(rep.positive_zeros[0].value, "0.05712805")
    assert_printed(rep.positive_zeros[1].value, "22.54560673")
    assert_printed(rep.d, "0.23901475")
    _pass(2, "ellipsoid to coordinate axis: polynomial, zeros and distance",
          t0, 5.0)


# -- criterion 3: point to ellipse, astroid ------------------------------------


def _fex_corrected(x0, y0):
    """Reference point-to-ellipse quartic with its constant term repaired.

    The commonly quoted constant is one quarter of the true value: the
    factorization of the same polynomial at y0 = 0 forces the constant
    (x0^2-4)^2 (3-x0^2)^2, four times the quoted
    4*(...)*(x0^2/4+y0^2-1)^2.
    """
    c4 = QQ(9)
    c3 = -6 * (2 * x0**2 + 7 * y0**2 + 15)
    c2 = (-2 * x0**4 + 73 * y0**4 + 62 * x0**2 * y0**2 - 90 * x0**2
          + 270 * y0**2 + 297)
    c1 = (-56 * y0**6 - 360 * y0**2 - 62 * x0**4 - 248 * y0**4 + 4 * x0**6
          + 270 * x0**2 - 90 * x0**2 * y0**4 - 30 * x0**4 * y0**2
          + 140 * x0**2 * y0**2 - 360)
    c0 = 16 * (x0**4 + 2 * x0**2 * y0**2 + y0**4 - 6 * x0**2 + 6 * y0**2 + 9) * (
        x0**2 / QQ(4) + y0**2 - 1
    ) ** 2
    return UniPoly([c0, c1, c2, c3, c4], "z")


def _astroid_reference(x0, y0):
    return -(x0**2) * y0**2 * ((4 * x0**2 + y0**2 - 9) ** 3
                               + 972 * x0**2 * y0**2) ** 3


def _sweep_psi(ell, x0, y0):
    pencil = point_pencil(ell, VectorQ([x0, y0]))
    raw = discriminant_param(pencil)
    if not raw:
        return QQ(0)
    body = UniPoly(raw.coeffs[trailing_z_power(raw):], "z")
    if body.degree < 2:
        return QQ(0)
    return discriminant_uni(body.coeffs)


def test_criterion_3_point_to_ellipse():
    t0 = time.perf_counter()
    ell = Quadric(MatrixQ.diag([QQ(1, 4), QQ(1)]), VectorQ.zero(2))
    # (a) exact identity in (x0, y0) on a tensor grid exceeding the degree:
    # the raw pencil discriminant equals one global constant times the
    # corrected printed quartic
    const = None
    for i in range(8):
        for j in range(8):
            x0 = QQ(i) - QQ(7, 2) + QQ(1, 3)
            y0 = QQ(j) - QQ(7, 2) + QQ(1, 5)
            raw = discriminant_param(point_pencil(ell, VectorQ([x0, y0])))
            body = UniPoly(raw.coeffs[trailing_z_power(raw):], "z")
            fex = _fex_corrected(x0, y0)
            assert body.degree == 4 == fex.degree
            ratio = body.lead / fex.lead
            if const is None:
                const = ratio
            assert ratio == const
            assert body == fex * ratio
    # (b) factorization on the axis, up to content
    for x0 in (QQ(3), QQ(1), QQ(7, 2), QQ(-5, 2)):
        raw = discriminant_param(point_pencil(ell, VectorQ([x0, QQ(0)])))
        body = UniPoly(raw.coeffs[trailing_z_power(raw):], "z").normalized()
        fact = ((Z - (x0 - 2) ** 2) * (Z - (x0 + 2) ** 2)
                * (3 * Z - (3 - x0**2)) ** 2)
        assert body == fact.normalized()
    # (c) the z-discriminant surface equals the axis/astroid reference
    # product up to one nonzero constant, on a 43x43 grid (degrees <= 36)
    const = None
    for i in range(-21, 22):
        for j in range(-21, 22):
            x0, y0 = QQ(i, 7), QQ(j, 7)
            mine = _sweep_psi(ell, x0, y0)
            reference = _astroid_reference(x0, y0)
            if const is None and mine and reference:
                const = mine / reference
            if reference == 0 or mine == 0:
                assert (mine == 0) == (reference == 0), (x0, y0)
            else:
                assert mine == const * reference, (x0, y0)
    _pass(3, "point-to-ellipse: quartic identity, axis factorization, astroid",
          t0, 10.0)


# -- criterion 4: two ellipses -------------------------------------------------


def test_criterion_4_two_ellipses():
    t0 = time.perf_counter()
    q1 = Quadric(MatrixQ([[10, -6], [-6, 8]]), VectorQ.zero(2))
    q2 = Quadric(MatrixQ([[1, QQ(1, 2)], [QQ(1, 2), 1]]), VectorQ.zero(2))
    rep = solve_centered(q1, q2)
    sextic = UniPoly(
        [2866271785, -59826725574, 130176444432, -115515184664, 50706209664,
         -10969697376, 936086976],
        "z",
    )
    assert rep.fz == (sextic.shift_up(2)).normalized()
    zs = [r.value for r in rep.positive_zeros]
    assert len(zs) == 4
    for printed, v in zip(
        ("0.053945666", "1.3340583883", "1.95921364", "2.8785867381"), zs
    ):
        assert_printed(v, printed)
    assert_printed(rep.d, "0.23226206")
    assert_printed(rep.multipliers["lam"], "-0.13576051")
    assert len(rep.nearest_pairs) == 2
    x, y = rep.nearest_pairs[0].x, rep.nearest_pairs[0].y
    s = -1 if x[0] > 0 else 1
    assert_printed(s * x[0], "-0.3838312")
    assert_printed(s * x[1], "-0.4418639")
    assert_printed(s * y[0], "-0.5449964")
    assert_printed(s * y[1], "-0.6091105")
    # the symmetric pair is the negation
    assert tuple(rep.nearest_pairs[1].x) == tuple(-c for c in x)
    _pass(4, "two ellipses: polynomial, zeros, multiplier and nearest points",
          t0, 10.0)


# -- criterion 5: two ellipsoids ------------------------------------------------


def test_criterion_5_two_ellipsoids():
    t0 = time.perf_counter()
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
    rep = solve_general(q1, q2)
    assert rep.certificate["root_sign_summary"] == "all-positive"
    assert rep.fz.degree == 24
    assert len(rep.positive_zeros) == 8
    assert_printed(rep.positive_zeros[0].value, "1.3537785")
    assert_printed(rep.positive_zeros[1].value, "3.5509348")
    assert_printed(rep.positive_zeros[7].value, "111.7480312")
    assert_printed(rep.d, "1.1635198")
    assert_printed(rep.multipliers["lam1"], "5.75593612")
    assert_printed(rep.multipliers["lam2"], "-0.45858332")
    x, y = rep.nearest_pairs[0].x, rep.nearest_pairs[0].y
    for value, printed in zip(x, ("1.5203947", "1.5098600", "0.1262343")):
        assert_printed(value, printed)
    for value, printed in zip(y, ("0.3610045", "1.4849072", "0.0315226")):
        assert_printed(value, printed)
    _pass(5, "two ellipsoids: degree-24 polynomial, eight zeros, nearest points",
          t0, 600.0)


# -- criterion 6: moving ellipse family ----------------------------------------


def test_criterion_6_moving_ellipse_family():
    t0 = time.perf_counter()
    tvar = UniPoly.x("t")
    s = tvar**2 - 4 * tvar
    fam = QuadricFamily(
        a=[[4, 0], [0, 1]],
        b=[-4 * tvar, -s],
        c=4 * tvar**2 + s * s - 16,
        interval=None,
    )
    x0 = VectorQ([-10, 10])
    big_f, fa, fb = family_distance_poly(fam, x0)
    core = UniPoly(
        [3648597980765724103824, -202905147887926860744, 4100511694812810849,
         -42785419475837458, 266900597798217, -1058624029488, 2645308000,
         -3774720, 2304],
        "z",
    )
    _, r = divrem(big_f, core.normalized())
    assert not r, "reference degree-8 factor divides the iterated discriminant"
    rep = family_solve(fam, x0)
    assert_printed(rep.z_star.value, "37.70933565")
    assert_printed(rep.d, "6.140792755")
    assert_printed(rep.t_star, "-1.9680233599")
    _pass(6, "moving ellipse family: iterated discriminant, z*, d and t*",
          t0, 120.0)


# -- criterion 7: property suites (each at least 100 random cases) -------------


def test_criterion_7a_discriminant_vs_resultant():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(120):
        p = rand_poly(rng, rng.randint(2, 8))
        n = p.degree
        assert discriminant_uni(p.coeffs) == QQ(n) ** n * p.lead**n * bezout_matrix(p).det
        assert resultant(p, p.derivative()) == sylvester_resultant(p, p.derivative())
    _pass("7a", "discriminant equals the subresultant-sequence resultant (120 cases)",
          t0, 120.0)


def test_criterion_7b_linear_representation():
    t0 = time.perf_counter()
    from qdist.discrim import linear_representation

    rng = random.Random(102)
    for _ in range(120):
        g = rand_poly(rng, rng.randint(2, 8))
        u, v = linear_representation(g)
        assert v * g + u * g.derivative() == UniPoly.const(bezout_matrix(g).det, "x")
    _pass("7b", "linear representation identity exact (120 cases)", t0, 120.0)


def test_criterion_7c_adjugate_identity():
    t0 = time.perf_counter()
    rng = random.Random(103)
    from helpers import rand_matrix

    for case in range(110):
        n = rng.randint(1, 8)
        m = rand_matrix(rng, n, n, -4, 4, 2)
        if n > 1 and case % 3 == 0:
            rows = [list(r) for r in m.entries]
            i, j = rng.sample(range(n), 2)
            rows[i] = [rand_rat(rng, -3, 3, 2) * c for c in rows[j]]
            m = MatrixQ(rows)
        adj = adjugate(m)
        d = determinant(m)
        prod = m * adj
        for i in range(n):
            for j in range(n):
                assert prod.entry(i, j) == (d if i == j else 0)
    _pass("7c", "M * adj(M) = det(M) * I including singular M (110 cases)",
          t0, 120.0)


def test_criterion_7d_schur_identity():
    t0 = time.perf_counter()
    from helpers import rand_matrix

    rng = random.Random(104)
    done = 0
    while done < 110:
        nu, nt = rng.randint(1, 3), rng.randint(1, 3)
        u = rand_matrix(rng, nu, nu)
        if not determinant(u):
            continue
        v = rand_matrix(rng, nu, nt)
        s = rand_matrix(rng, nt, nu)
        t = rand_matrix(rng, nt, nt)
        whole = block_matrix([[u, v], [s, t]])
        assert determinant(whole) == determinant(u) * determinant(
            t - s * inverse(u) * v
        )
        done += 1
    _pass("7d", "Schur block determinant identity (110 cases)", t0, 120.0)


def test_criterion_7e_sturm_count_consistency():
    t0 = time.perf_counter()
    rng = random.Random(105)
    for _ in range(110):
        p = rand_poly(rng, rng.randint(1, 10))
        if p.degree < 1:
            continue
        s = squarefree_part(p)
        chain = sturm_chain(s)
        b = root_bound(s)
        assert _var_at(chain, -b) - _var_at(chain, b) == len(isolate_real_roots(p))
    _pass("7e", "isolated root count equals the Sturm count (110 cases)", t0, 120.0)


def _random_variety(rng, n):
    while True:
        k = rng.randint(1, n)
        cols = [[rand_rat(rng, -3, 3, 2) for _ in range(n)] for _ in range(k)]
        h = None
        if rng.random() < 0.5:
            h = VectorQ([rand_rat(rng, -3, 3, 2) for _ in range(k)])
        try:
            return LinearVariety(MatrixQ.from_columns(cols), h)
        except ValueError:
            continue


def _random_point(rng, n, spread):
    return VectorQ([QQ(rng.randint(-spread, spread), rng.randint(1, 2)) for _ in range(n)])


def test_criterion_7f_distance_oracle_all_pairings():
    t0 = time.perf_counter()
    rng = random.Random(106)
    stats = {"point": 0, "variety": 0, "centered": 0, "general": 0}

    def check(exact_rep, oracle_gap, label):
        if exact_rep.intersecting:
            assert oracle_gap < 1e-4, f"{label}: oracle contradicts intersection"
        else:
            assert exact_rep.d is not None
            assert abs(float(exact_rep.d) - oracle_gap) < 1e-6, (
                f"{label}: exact {float(exact_rep.d)} vs oracle {oracle_gap}"
            )

    # point-to-quadric
    for n, count in ((2, 20), (3, 14)):
        done = 0
        while done < count:
            q = _rand_real_ellipsoid(rng, n)
            x0 = _random_point(rng, n, 6)
            if not q.residual_at(x0):
                continue
            rep = solve_point(q, x0)
            check(rep, brute_point_distance(q, x0), f"point n={n}")
            stats["point"] += 1
            done += 1

    # variety-to-quadric
    for n, count in ((2, 15), (3, 10)):
        done = 0
        while done < count:
            q = _rand_real_ellipsoid(rng, n)
            v = _random_variety(rng, n)
            rep = solve_variety(q, v)
            check(rep, brute_variety_distance(q, v), f"variety n={n}")
            stats["variety"] += 1
            done += 1

    # centered pairs
    for n, count in ((2, 15), (3, 10)):
        done = 0
        while done < count:
            a1 = rand_pd_matrix(rng, n).scale(QQ(rng.randint(2, 6)))
            a2 = rand_pd_matrix(rng, n).scale(QQ(1, rng.randint(4, 9)))
            q1 = Quadric(a1, VectorQ.zero(n))
            q2 = Quadric(a2, VectorQ.zero(n))
            try:
                rep = solve_centered(q1, q2)
            except DegeneracyError:
                continue
            if not rep.intersecting and not rep.nearest_pairs:
                continue  # ambiguous multi-pair configuration; resample
            check(rep, brute_pair_distance(q1, q2), f"centered n={n}")
            stats["centered"] += 1
            done += 1

    # general pairs
    for n, count in ((2, 14), (3, 2)):
        done = 0
        while done < count:
            q1 = _rand_real_ellipsoid(rng, n, spread=2)
            q2 = _rand_real_ellipsoid(rng, n, spread=7)
            if q1 == q2:
                continue
            try:
                rep = solve_general(q1, q2)
            except DegeneracyError:
                continue
            check(rep, brute_pair_distance(q1, q2), f"general n={n}")
            stats["general"] += 1
            done += 1

    total = sum(stats.values())
    assert total >= 100
    _pass("7f", f"brute-force oracle agreement across pairings ({stats})", t0, 900.0)


def _rand_real_ellipsoid(rng, n, spread=5):
    while True:
        m = rand_pd_matrix(rng, n)
        c = _random_point(rng, n, spread)
        if c.dot(m * c) == 1:
            continue
        return ellipsoid_at(m, c)


def test_criterion_7g_variety_degree_growth():
    t0 = time.perf_counter()
    rng = random.Random(107)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        q = _rand_real_ellipsoid(rng, n)
        v = _random_variety(rng, n)
        f = variety_distance_poly(q, v)
        assert f.degree - trailing_z_power(f) == 2 * v.codim
        done += 1
    _pass("7g", "generic distance polynomial degree is twice the codimension "
          "(100 cases)", t0, 300.0)


# -- criterion 8: degree growth reports (non-blocking) --------------------------


def test_criterion_8_degree_growth_reports():
    t0 = time.perf_counter()
    rng = random.Random(108)
    lines = []
    # centered pairs: conjectured n(n+1) after removing z^(n(n-1))
    for n, count in ((2, 3), (3, 1)):
        for _ in range(count):
            while True:
                q1 = Quadric(rand_pd_matrix(rng, n).scale(QQ(rng.randint(2, 5))),
                             VectorQ.zero(n))
                q2 = Quadric(rand_pd_matrix(rng, n).scale(QQ(1, rng.randint(5, 9))),
                             VectorQ.zero(n))
                inter, _ = centered_intersects(q1, q2)
                if inter:
                    continue
                f = centered_distance_poly(q1, q2)
                break
            observed = f.degree - trailing_z_power(f)
            lines.append(
                f"centered n={n}: deg(F)-z-power={observed}, conjectured {n*(n+1)}, "
                f"z-power={trailing_z_power(f)} vs n(n-1)={n*(n-1)}"
            )
            assert observed > 0
    # general pairs: conjectured 2n(n+1) after extraneous factors
    for n, count in ((2, 2), (3, 1)):
        done = 0
        while done < count:
            q1 = _rand_real_ellipsoid(rng, n, spread=2)
            q2 = _rand_real_ellipsoid(rng, n, spread=7)
            try:
                f = general_distance_poly(q1, q2)
            except DegeneracyError:
                continue
            observed = f.degree - trailing_z_power(f)
            lines.append(
                f"general n={n}: deg(F)-z-power={observed}, conjectured {2*n*(n+1)}"
            )
            assert observed > 0
            done += 1
    for line in lines:
        print("DEGREE CHECK:", line)
    _pass(8, "degree growth reports emitted (non-blocking)", t0, 600.0)
