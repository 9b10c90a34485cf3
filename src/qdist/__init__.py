"""Exact distances, intersection certificates and nearest points for quadrics.

Everything computes over arbitrary-precision rationals: the squared distance
between two surfaces is located as the minimal positive simple zero of a
univariate polynomial obtained by discriminant-based elimination, and the
nearest points are recovered rationally from the same data.
"""

from .errors import (
    DegeneracyError,
    InputError,
    NoPositiveRootError,
    QdistError,
    SingularMatrixError,
)
from .linalg import (
    MatrixQ,
    VectorQ,
    adjugate,
    char_poly,
    definiteness,
    determinant,
    inverse,
    solve_linear,
)
from .metrics import (
    DistanceReport,
    LinearVariety,
    Quadric,
    centered_distance_poly,
    centered_intersects,
    general_distance_poly,
    general_intersects,
    normalize,
    point_distance_poly,
    solve_centered,
    solve_general,
    solve_point,
    solve_variety,
    variety_distance_poly,
    variety_intersects,
)
from .parametric import QuadricFamily, family_distance_poly, family_solve
from .poly import BiPoly, RatFunc, UniPoly, divrem, gcd_squarefree, resultant
from .discrim import (
    BezoutData,
    bezout_matrix,
    bezout_matrix_biv,
    discriminant_biv,
    discriminant_param,
    discriminant_uni,
    linear_representation,
    multiple_zero_biv,
    multiple_zero_uni,
)
from .realroots import (
    IsolatingInterval,
    isolate_real_roots,
    min_positive_zero,
    real_root_signs,
    refine,
)
from .scalar import QQ, decimal_str, format_rational, rational, sqrt_approx

__version__ = "0.1.0"
