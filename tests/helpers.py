"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

from qdist.linalg import MatrixQ, VectorQ, definiteness, determinant
from qdist.metrics import Quadric, normalize
from qdist.poly import UniPoly, divrem
from qdist.scalar import QQ, rational


def rand_rat(rng, lo=-6, hi=6, den=4):
    return QQ(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonzero_rat(rng, lo=1, hi=6, den=4):
    q = QQ(rng.randint(lo, hi), rng.randint(1, den))
    return q if rng.random() < 0.5 else -q


def rand_poly(rng, deg, var="x", lo=-8, hi=8, den=3):
    cs = [rand_rat(rng, lo, hi, den) for _ in range(deg)]
    cs.append(QQ(rng.randint(1, hi), rng.randint(1, den)))
    return UniPoly(cs, var)


def rand_matrix(rng, rows, cols, lo=-5, hi=5, den=3):
    return MatrixQ([[rand_rat(rng, lo, hi, den) for _ in range(cols)] for _ in range(rows)])


def rand_symmetric(rng, n, lo=-5, hi=5, den=3):
    rows = [[QQ(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = rand_rat(rng, lo, hi, den)
            rows[i][j] = v
            rows[j][i] = v
    return MatrixQ(rows)


def rand_pd_matrix(rng, n):
    while True:
        r = rand_matrix(rng, n, n, -3, 3, 2)
        a = r.transpose() * r + MatrixQ.identity(n).scale(QQ(1, rng.randint(1, 3)))
        if definiteness(a) == "positive-definite":
            return a


def ellipsoid_at(shape: MatrixQ, center: VectorQ) -> Quadric:
    """(X-c)^T M (X-c) = 1 in normalized form; shape must be positive definite."""
    const = center.dot(shape * center) - 1
    if not const:
        raise ValueError("center lies on the unit shell; shift it")
    return normalize(shape, (shape * center).scale(QQ(-1)), const)


def rand_ellipsoid(rng, n, spread):
    """Random real ellipsoid with rational data, roughly unit size."""
    while True:
        m = rand_pd_matrix(rng, n)
        c = VectorQ([QQ(rng.randint(-spread, spread), rng.randint(1, 2)) for _ in range(n)])
        if c.dot(m * c) != 1:
            return ellipsoid_at(m, c)


def sylvester_matrix(p: UniPoly, q: UniPoly) -> MatrixQ:
    m, n = p.degree, q.degree
    size = m + n
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = []
    for i in range(n):
        rows.append([QQ(0)] * i + pc + [QQ(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([QQ(0)] * i + qc + [QQ(0)] * (size - n - 1 - i))
    return MatrixQ(rows)


def sylvester_resultant(p: UniPoly, q: UniPoly):
    """Independent determinantal resultant oracle."""
    return determinant(sylvester_matrix(p, q))


def cofactor_expansion_det(m: MatrixQ):
    """Naive cofactor-expansion determinant, as an independent oracle."""
    n = m.rows
    if n == 1:
        return m.entry(0, 0)
    acc = QQ(0)
    for j in range(n):
        if not m.entry(0, j):
            continue
        sub = m.submatrix(0, j)
        term = m.entry(0, j) * cofactor_expansion_det(sub)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def digits_tolerance(text: str):
    """(value, tolerance) from a printed decimal: 2 units in the last place."""
    v = rational_from_decimal(text)
    frac = text.split(".")[1] if "." in text else ""
    place = -len(frac)
    return v, 2 * QQ(10) ** place


def rational_from_decimal(text: str):
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    text = text.lstrip("+-")
    if "." in text:
        whole, frac = text.split(".")
        den = 10 ** len(frac)
        return sign * QQ(int(whole or 0) * den + int(frac), den)
    return sign * QQ(int(text))


def assert_printed(value, printed: str, label=""):
    expected, tol = digits_tolerance(printed)
    assert abs(value - expected) <= tol, (
        f"{label}: {float(value)} differs from printed {printed}"
    )


def sturm_chain(p: UniPoly):
    """Sturm sequence of p (usually the square-free part): a root-count oracle."""
    chain = [p, p.derivative()]
    while chain[-1]:
        _, r = divrem(chain[-2], chain[-1])
        if not r:
            break
        # scale to a primitive polynomial; positive factors keep signs valid
        _, r = (-r).primitive()
        chain.append(r)
    return chain


def _var_at(chain, x):
    """Sign variations of the Sturm chain at x, zeros skipped."""
    signs = [v > 0 for v in (p.eval(x) for p in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
