"""Seeded problem generators for the benchmark workloads.

Every generator returns problem dicts in the CLI's JSON problem format
(rationals as ints or "p/q" strings), built only from ``random.Random`` and
``fractions.Fraction`` so that the inputs do not depend on the code under
test. Inputs are made non-intersecting and well posed by construction; a
draw is rejected only for a property that is checked exactly without
solving: a centre on the unit shell, a point on the surface or in a
principal subspace of its ellipsoid, dependent variety columns, pair shapes
with a common eigenvector, or a repeated problem.
"""

from __future__ import annotations

import random
from fractions import Fraction as F


def fmt(q: F):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rat(rng, lo, hi, den):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _matmul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _pd_matrix(rng, n, lo=-3, hi=3, den=2):
    """R^T R + I/k: positive definite, every eigenvalue at least 1/k.

    So the ellipsoid (X-c)^T M (X-c) = 1 lies inside the ball of radius
    sqrt(k) around c, which the generators use to keep surfaces apart.
    """
    k = rng.randint(1, 3)
    r = [[_rat(rng, lo, hi, den) for _ in range(n)] for _ in range(n)]
    m = _matmul(_transpose(r), r)
    for i in range(n):
        m[i][i] += F(1, k)
    return m, k


def _quad_value(m, c):
    return sum(c[i] * m[i][j] * c[j] for i in range(len(c)) for j in range(len(c)))


def _ellipsoid(m, c):
    """(X-c)^T M (X-c) = 1 as {"a", "b", "c"}; None if c is on the unit shell."""
    const = _quad_value(m, c) - 1
    if not const:
        return None
    n = len(c)
    b = [-sum(m[i][j] * c[j] for j in range(n)) for i in range(n)]
    return {
        "a": [[fmt(x) for x in row] for row in m],
        "b": [fmt(x) for x in b],
        "c": fmt(const),
    }


def _random_ellipsoid(rng, n, spread):
    while True:
        m, k = _pd_matrix(rng, n)
        c = [_rat(rng, -spread, spread, 2) for _ in range(n)]
        q = _ellipsoid(m, c)
        if q is not None:
            return q, m, c, k


def _residual(q, x):
    a = [[F(v) for v in row] for row in q["a"]]
    b = [F(v) for v in q["b"]]
    n = len(x)
    return _quad_value(a, x) + 2 * sum(b[i] * x[i] for i in range(n)) + F(q["c"])


def _rank(cols):
    rows = [list(col) for col in cols]
    rank = 0
    width = len(rows[0])
    for j in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _distinct_eigenvalues(m):
    """True if symmetric m has n distinct eigenvalues: I, m, ..., m^(n-1) independent."""
    n = len(m)
    powers = [[[F(int(i == j)) for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        powers.append(_matmul(powers[-1], m))
    return _rank([[x for row in p for x in row] for p in powers]) == n


def _in_principal_subspace(m, v):
    """True if v = 0 or v misses an eigenvector of symmetric m (exact).

    The Krylov vectors v, Mv, ..., M^(n-1) v span fewer than n dimensions
    exactly then. Every point with several nearest points on an ellipsoid
    lies in such a subspace through the centre (a principal plane or axis).
    """
    vecs = [v]
    for _ in range(len(v) - 1):
        vecs.append(_matvec(m, vecs[-1]))
    return not any(v) or _rank(vecs) < len(v)


def _share_eigenvector(a, b):
    """True if a and b have a common eigenvector (Shemesh's criterion).

    That holds exactly when the commutators [a^k, b^l], k, l < n, have a
    common kernel; a shared eigenvector makes a pair mirror-symmetric, with
    several nearest pairs.
    """
    n = len(a)
    powers_a, powers_b = [a], [b]
    for _ in range(n - 2):
        powers_a.append(_matmul(powers_a[-1], a))
        powers_b.append(_matmul(powers_b[-1], b))
    rows = []
    for pa in powers_a:
        for pb in powers_b:
            ab, ba = _matmul(pa, pb), _matmul(pb, pa)
            rows += [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
    # the common kernel is trivial iff the stacked rows span all n columns
    return _rank(rows) < n


# ---------------------------------------------------------------------------
# small-mix
# ---------------------------------------------------------------------------

SMALL_MIX_POINTS_PER_QUADRIC = 3
SMALL_MIX_VARIETIES_PER_QUADRIC = 2


def _point_problems(rng, n):
    # with a repeated eigenvalue every point lies in a principal subspace
    q, m, c, _ = _random_ellipsoid(rng, n, spread=5)
    while not _distinct_eigenvalues(m):
        q, m, c, _ = _random_ellipsoid(rng, n, spread=5)
    out = []
    while len(out) < SMALL_MIX_POINTS_PER_QUADRIC:
        x = [_rat(rng, -6, 6, 2) for _ in range(n)]
        if not _residual(q, x) or _in_principal_subspace(m, [a - b for a, b in zip(x, c)]):
            continue
        out.append({"kind": "point-quadric", "quadric": q, "point": [fmt(v) for v in x]})
    return out


def _variety_problems(rng, n):
    q, _, c, k = _random_ellipsoid(rng, n, spread=5)
    out = []
    while len(out) < SMALL_MIX_VARIETIES_PER_QUADRIC:
        codim = rng.randint(1, n - 1)
        cols = [[_rat(rng, -3, 3, 2) for _ in range(n)] for _ in range(codim)]
        if _rank(cols) != codim:
            continue
        # h = C^T c + C^T C s puts the variety at distance |C s| from the
        # centre; |C s|^2 > k keeps it clear of the ellipsoid's ball
        s = [F(rng.randint(-2, 2)) for _ in range(codim)]
        if not any(s):
            s[0] = F(1)
        cs = [sum(cols[j][i] * s[j] for j in range(codim)) for i in range(n)]
        while sum(v * v for v in cs) <= k:
            s = [2 * v for v in s]
            cs = [2 * v for v in cs]
        h = [sum(col[i] * (c[i] + cs[i]) for i in range(n)) for col in cols]
        out.append({
            "kind": "variety-quadric",
            "quadric": q,
            "variety": {
                "columns": [[fmt(v) for v in col] for col in cols],
                "offset": [fmt(v) for v in h],
            },
        })
    return out


def _centered_problem(rng, n):
    # A1 = A2 + P with P positive definite: the first ellipsoid sits strictly
    # inside the second.
    while True:
        a2, _ = _pd_matrix(rng, n)
        scale = F(1, rng.randint(4, 9))
        a2 = [[x * scale for x in row] for row in a2]
        p, _ = _pd_matrix(rng, n)
        if _share_eigenvector(a2, p):
            continue
        a1 = [[x + y for x, y in zip(r2, rp)] for r2, rp in zip(a2, p)]
        zero = [0] * n
        return {
            "kind": "centered-quadric-quadric",
            "quadric": {"a": [[fmt(x) for x in row] for row in a1], "b": zero, "c": -1},
            "quadric2": {"a": [[fmt(x) for x in row] for row in a2], "b": zero, "c": -1},
        }


def small_mix_round(rng):
    """One round: every pairing and dimension of the mix, in a fixed order."""
    out = []
    for n in (2, 3, 4):
        out += _point_problems(rng, n)
        out += _variety_problems(rng, n)
    for n in (2, 3):
        out.append(_centered_problem(rng, n))
    return out


# ---------------------------------------------------------------------------
# general pair
# ---------------------------------------------------------------------------


def _ellipse_shape(rng):
    """[[a, b], [b, c]] with small entries; (matrix, trace/det >= 1/lambda_min)."""
    while True:
        a, c = F(rng.randint(1, 4)), F(rng.randint(1, 4))
        b = F(rng.choice((-2, -1, 1, 2)), 2)
        if a * c - b * b > 0:
            return [[a, b], [b, c]], (a + c) / (a * c - b * b)


def general_pair(rng):
    """Two separated ellipses in general position in the plane."""
    while True:
        m1, r1 = _ellipse_shape(rng)
        m2, r2 = _ellipse_shape(rng)
        if _share_eigenvector(m1, m2):
            continue
        c1 = [_rat(rng, -2, 2, 2) for _ in range(2)]
        step = [F(rng.randint(-2, 2)), F(rng.randint(1, 2))]
        if rng.random() < 0.5:
            step = step[::-1]
        # each ellipse lies in the ball of squared radius r_i around its
        # centre; |gap|^2 > 2 (r1 + r2) >= (sqrt(r1) + sqrt(r2))^2 separates them
        gap = list(step)
        while gap[0] ** 2 + gap[1] ** 2 <= 2 * (r1 + r2):
            gap = [g + s for g, s in zip(gap, step)]
        c2 = [a + g for a, g in zip(c1, gap)]
        q1, q2 = _ellipsoid(m1, c1), _ellipsoid(m2, c2)
        if q1 is not None and q2 is not None:
            return {"kind": "quadric-quadric", "quadric": q1, "quadric2": q2}


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(*ps):
    out = [F(0)] * max(len(p) for p in ps)
    for p in ps:
        for i, a in enumerate(p):
            out[i] += a
    return out


def family_problem(rng):
    """The criterion-6 moving ellipse with a seeded shape, path, point and interval.

    Member t: alpha (x - X(t))^2 + (y - Y(t))^2 = r2 with X(t) = t + x0 and
    Y(t) = t^2 + y1 t + y0. On the interval every member lies right of
    x = -8 (X(t) >= -5, x half-axis sqrt(r2/alpha) < 2.6) and the base point
    has x <= -9, so it lies outside every member.
    """
    alpha = F(rng.randint(3, 5))
    r2 = F(rng.choice((12, 16, 20)))
    xpath = [F(rng.randint(-1, 1)), F(1)]
    ypath = [F(rng.randint(-1, 2)), F(rng.randint(-5, -3)), F(1)]
    point = [F(rng.randint(-11, -9)), F(rng.randint(9, 11))]
    interval = [F(rng.randint(-4, -3)), F(rng.randint(0, 2))]
    const = _poly_add(
        [alpha * v for v in _poly_mul(xpath, xpath)], _poly_mul(ypath, ypath), [-r2]
    )
    return {
        "kind": "family-point",
        "family": {
            "a": [[[fmt(alpha)], [0]], [[0], [1]]],
            "b": [[fmt(-alpha * v) for v in xpath], [fmt(-v) for v in ypath]],
            "c": [fmt(v) for v in const],
            "interval": [fmt(v) for v in interval],
        },
        "point": [fmt(v) for v in point],
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def pair_family_round(rng):
    """One general pair, then one family problem: solves alternate between them."""
    return [general_pair(rng), family_problem(rng)]


# pool sizes leave room for runs several times faster than today before a
# pool is cycled; ``trace_pass`` is the fixed prefix a traced run solves, and
# a timed run ends on a multiple of ``round_size`` solves, so that it holds
# each kind of problem in the same proportion
WORKLOADS = {
    "small-mix": {"round": small_mix_round, "round_size": 17, "rounds": 40, "trace_pass": 68},
    "pair-family": {"round": pair_family_round, "round_size": 2, "rounds": 64, "trace_pass": 4},
}


def generate(name: str, seed: int):
    """The workload's problem pool for this seed, in solve order.

    A round that repeats a problem is left out whole, so that every round in
    the pool keeps its mix of kinds.
    """
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    pool, seen = [], set()
    for _ in range(spec["rounds"]):
        problems = spec["round"](rng)
        keys = [repr(problem) for problem in problems]
        if len(set(keys)) == len(keys) and seen.isdisjoint(keys):
            seen.update(keys)
            pool += problems
    return pool
