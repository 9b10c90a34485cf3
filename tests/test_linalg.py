import random

import pytest

from helpers import (
    cofactor_expansion_det,
    fraction_det_at,
    rand_matrix,
    rand_pd_matrix,
    rand_rat,
    rand_symmetric,
)
from qdist.errors import SingularMatrixError
from qdist.linalg import (
    INDEFINITE,
    MatrixQ,
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    SEMIDEFINITE_DEGENERATE,
    VectorQ,
    _inertia,
    adjugate,
    block_matrix,
    char_poly,
    definiteness,
    det_bipoly_matrix,
    det_unipoly_matrix,
    determinant,
    eigenvalue_sign_counts,
    inverse,
    rank,
    solve_linear,
)
from qdist.poly import BiPoly, UniPoly
from qdist.scalar import QQ


def test_determinant_identity():
    assert determinant(MatrixQ.identity(5)) == 1


def test_determinant_2x2():
    assert determinant(MatrixQ([[1, 2], [3, 4]])) == -2


def test_determinant_hilbert_vs_cofactor_oracle():
    h = MatrixQ([[QQ(1, 1 + i + j) for j in range(3)] for i in range(3)])
    assert determinant(h) == QQ(1, 2160)
    assert cofactor_expansion_det(h) == QQ(1, 2160)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(MatrixQ([[1, 2, 3], [4, 5, 6]]))


def test_determinant_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        assert determinant(a * b) == determinant(a) * determinant(b)


def test_adjugate_small_examples():
    m = MatrixQ([[1, 2], [3, 4]])
    assert adjugate(m) == MatrixQ([[4, -2], [-3, 1]])
    assert adjugate(MatrixQ.identity(4)) == MatrixQ.identity(4)
    assert adjugate(MatrixQ.diag([QQ(2), QQ(3)])) == MatrixQ.diag([QQ(3), QQ(2)])


def test_adjugate_identity_including_singular():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rand_matrix(rng, n, n, -4, 4, 2)
        if n > 1 and rng.random() < 0.4:
            # force rank deficiency: duplicate a scaled row
            rows = [list(r) for r in m.entries]
            i, j = rng.sample(range(n), 2)
            f = rand_rat(rng, -3, 3, 2)
            rows[i] = [f * c for c in rows[j]]
            m = MatrixQ(rows)
        adj = adjugate(m)
        d = determinant(m)
        prod = m * adj
        for i in range(n):
            for j in range(n):
                assert prod.entry(i, j) == (d if i == j else 0)


def test_schur_block_determinant():
    rng = random.Random(23)
    done = 0
    while done < 40:
        nu = rng.randint(1, 3)
        nt = rng.randint(1, 3)
        u = rand_matrix(rng, nu, nu)
        if not determinant(u):
            continue
        v = rand_matrix(rng, nu, nt)
        s = rand_matrix(rng, nt, nu)
        t = rand_matrix(rng, nt, nt)
        whole = block_matrix([[u, v], [s, t]])
        schur = t - s * inverse(u) * v
        assert determinant(whole) == determinant(u) * determinant(schur)
        done += 1


def test_definiteness_examples():
    assert definiteness(MatrixQ.identity(3)) == POSITIVE_DEFINITE
    assert definiteness(MatrixQ.diag([QQ(1), QQ(-1)])) == INDEFINITE
    assert definiteness(MatrixQ([[9, QQ(-13, 2)], [QQ(-13, 2), 7]])) == POSITIVE_DEFINITE
    assert definiteness(MatrixQ.diag([QQ(-1), QQ(-2)])) == NEGATIVE_DEFINITE
    assert definiteness(MatrixQ.diag([QQ(1), QQ(0)])) == SEMIDEFINITE_DEGENERATE
    assert definiteness(MatrixQ([[0, 1], [1, 0]])) == INDEFINITE
    with pytest.raises(ValueError):
        definiteness(MatrixQ([[1, 2], [3, 4]]))


def _symmetric_cases(rng):
    for _ in range(60):
        yield rand_symmetric(rng, rng.randint(1, 6), -4, 4, 2)
    # singular and zero-leading-minor inputs: B^T B of rank < n (or its
    # negative), zeros first on the diagonal, and [[0, b], [b, 0]] blocks
    # among 1 x 1 blocks, some moved off the diagonal by a congruence
    for _ in range(30):
        n = rng.randint(2, 6)
        b = rand_matrix(rng, rng.randint(1, n - 1), n, -3, 3, 2)
        yield (b.transpose() * b).scale(rng.choice([1, -1]))
    for _ in range(30):
        m = rand_symmetric(rng, rng.randint(2, 6), -4, 4, 2)
        k = rng.randint(1, m.rows)
        yield MatrixQ([[0 if i == j < k else c for j, c in enumerate(row)]
                       for i, row in enumerate(m.entries)])
    for _ in range(30):
        yield _block_case(rng)[0]


def _block_case(rng):
    """(m, inertia): a block diagonal of [[0, b], [b, 0]] blocks, inertia
    (1, 0, 1) or (0, 2, 0) for b = 0, and 1 x 1 blocks. Half the cases are
    moved off the diagonal by a congruence L m L^T, L unit lower triangular."""
    entries, counts = [], [0, 0, 0]
    while len(entries) < 4:
        if rng.random() < 0.5:
            b = rng.randint(-3, 3)
            entries += [(b, 1), (b, -1)]
            counts = [c + d for c, d in zip(counts, (1, 0, 1) if b else (0, 2, 0))]
        else:
            c = rng.randint(-2, 2)
            entries.append((c, 0))
            counts[(c > 0) - (c < 0) + 1] += 1
    n = len(entries)
    m = MatrixQ([[entries[i][0] if j - i == entries[i][1] else 0 for j in range(n)]
                 for i in range(n)])
    if rng.random() < 0.5:
        lower = MatrixQ([[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)]
                         for i in range(n)])
        m = lower * m * lower.transpose()
    return m, tuple(counts)


def test_definiteness_agrees_with_eigen_sign_counts():
    rng = random.Random(31)
    zero_minor = 0
    for m in _symmetric_cases(rng):
        zero_minor += not all(determinant(m.leading_principal(k)) for k in range(1, m.rows + 1))
        neg, zero, pos = eigenvalue_sign_counts(m)
        cls = definiteness(m)
        if pos and neg:
            assert cls == INDEFINITE
        elif zero:
            assert cls == SEMIDEFINITE_DEGENERATE
        elif pos:
            assert cls == POSITIVE_DEFINITE
        else:
            assert cls == NEGATIVE_DEFINITE
    assert zero_minor == 98  # of the 150 inputs; 9 of the first 60


def test_inertia_counts_eigenvalue_signs_with_multiplicity():
    rng = random.Random(43)
    for _ in range(60):
        m, counts = _block_case(rng)
        assert _inertia([[int(c) for c in row] for row in m.entries]) == counts


def test_solve_linear_examples():
    rhs = VectorQ([QQ(1), QQ(1)])
    assert solve_linear(MatrixQ.identity(2), rhs) == rhs
    assert solve_linear(MatrixQ.diag([QQ(2), QQ(4)]), rhs) == VectorQ([QQ(1, 2), QQ(1, 4)])


def test_solve_linear_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 25:
        m = rand_matrix(rng, 4, 4)
        if not determinant(m):
            continue
        x = VectorQ([rand_rat(rng) for _ in range(4)])
        assert solve_linear(m, m * x) == x
        done += 1


def test_solve_and_inverse_roundtrip_rows_with_different_denominators():
    rng = random.Random(41)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        m = MatrixQ([[QQ(rng.randint(-9, 9), d) for _ in range(n)]
                     for d in rng.sample(range(1, 30), n)])
        if not determinant(m):
            continue
        x = VectorQ([rand_rat(rng) for _ in range(n)])
        assert solve_linear(m, m * x) == x
        assert m * inverse(m) == inverse(m) * m == MatrixQ.identity(n)
        done += 1


def test_solve_linear_singular_raises():
    m = MatrixQ([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve_linear(m, VectorQ([1, 1]))


def test_rank():
    assert rank(MatrixQ([[1, 2], [2, 4]])) == 1
    assert rank(MatrixQ.identity(3)) == 3
    assert rank(MatrixQ([[0, 0], [0, 0]])) == 0
    # rectangular and rank-deficient: row 3 is 2 * row 1 + row 2
    m = MatrixQ([[1, QQ(1, 2), 3, 0], [2, 1, QQ(-1, 3), 5], [4, 2, QQ(17, 3), 5]])
    assert rank(m) == rank(m.transpose()) == 2
    assert rank(MatrixQ([[0, 1, 2], [0, 2, 4]])) == 1


def test_char_poly_matches_eigen_structure():
    m = MatrixQ.diag([QQ(2), QQ(-1), QQ(2)])
    p = char_poly(m)
    x = UniPoly.x("x")
    assert p == (x - 2) ** 2 * (x + 1)


def test_det_unipoly_matrix():
    x = UniPoly.x("m")
    rows = [[x + 1, UniPoly.const(2, "m")], [UniPoly.const(3, "m"), x - 1]]
    assert det_unipoly_matrix(rows, "m") == x * x - 7


def test_det_bipoly_matrix():
    a = BiPoly.variable(0, ("s", "t"))
    b = BiPoly.variable(1, ("s", "t"))
    rows = [[a, b], [b, a]]
    assert det_bipoly_matrix(rows, ("s", "t")) == a * a - b * b


def _rand_entry(rng, make):
    # mostly polynomials with rational coefficients, some scalars and zeros
    pick = rng.random()
    if pick < 0.1:
        return QQ(0)
    if pick < 0.25:
        return rand_rat(rng, -9, 9, 7)
    return make()


def test_det_unipoly_matrix_matches_fraction_determinants():
    # the integer nodes of every row cleared once against Fraction
    # determinants taken at rational points that are not nodes
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(1, 4)

        def make():  # degree at most 2
            return UniPoly([rand_rat(rng, -9, 9, 7) for _ in range(rng.randint(1, 3))], "s")

        rows = [[_rand_entry(rng, make) for _ in range(n)] for _ in range(n)]
        det = det_unipoly_matrix(rows, "s")
        lifted = [[e if isinstance(e, UniPoly) else UniPoly.const(e, "s") for e in r] for r in rows]
        assert det.degree <= 2 * n
        for _ in range(2 * n + 2):
            t = rand_rat(rng, -20, 20, 9)
            assert det.eval(t) == fraction_det_at(lifted, t)


def test_det_bipoly_matrix_matches_fraction_determinants():
    rng = random.Random(3141)
    for _ in range(20):
        n = rng.randint(1, 3)

        def make():  # degree at most 1 in each variable
            return BiPoly(
                [[rand_rat(rng, -9, 9, 7) for _ in range(rng.randint(1, 2))]
                 for _ in range(rng.randint(1, 2))],
                ("u", "v"),
            )

        rows = [[_rand_entry(rng, make) for _ in range(n)] for _ in range(n)]
        det = det_bipoly_matrix(rows, ("u", "v"))
        lifted = [[e if isinstance(e, BiPoly) else BiPoly.const(e, ("u", "v")) for e in r]
                  for r in rows]
        for _ in range(12):
            point = (rand_rat(rng, -20, 20, 9), rand_rat(rng, -20, 20, 9))
            assert det.eval(*point) == fraction_det_at(lifted, *point)
