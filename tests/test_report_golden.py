"""Characterization test: the full ``report_json`` output of one fast input
per solve branch, pinned byte for byte (warnings text and order,
certificate keys, F, multipliers, nearest pairs).

Regenerate the expected file only when a change to the output is intended:

    PYTHONPATH=src python tests/test_report_golden.py --write
"""

import json
import os
import sys

import pytest

from helpers import ellipsoid_at
from qdist.cli import report_json
from qdist.linalg import MatrixQ, VectorQ
from qdist.metrics import (
    LinearVariety,
    Quadric,
    normalize,
    solve_centered,
    solve_general,
    solve_point,
    solve_variety,
)
from qdist.parametric import QuadricFamily, family_solve
from qdist.poly import UniPoly
from qdist.scalar import QQ

GOLDEN = os.path.join(os.path.dirname(__file__), "report_golden.json")
T = UniPoly.x("t")


def _ellipse_2_1():
    return Quadric(MatrixQ.diag([QQ(1, 4), QQ(1)]), VectorQ.zero(2))


def _unit_circle():
    return Quadric(MatrixQ.identity(2), VectorQ.zero(2))


def _circle_at(cx, cy):
    return ellipsoid_at(MatrixQ.identity(2), VectorQ([cx, cy]))


def _readme_variety():
    e = normalize(
        MatrixQ([[7, -2, 0], [-2, 6, -2], [0, -2, 5]]),
        VectorQ([QQ(-37, 2), -6, QQ(3, 2)]),
        54,
    )
    return e, LinearVariety(MatrixQ.from_columns([[0, 1, 0], [0, 0, 1]]))


def _two_ellipses():
    q1 = Quadric(MatrixQ([[10, -6], [-6, 8]]), VectorQ.zero(2))
    q2 = Quadric(MatrixQ([[1, QQ(1, 2)], [QQ(1, 2), 1]]), VectorQ.zero(2))
    return q1, q2


def _general_pair():
    e1 = ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([0, 0]))
    e2 = ellipsoid_at(MatrixQ([[5, -1], [-1, 4]]), VectorQ([10, 8]))
    return e1, e2


CASES = {
    "point-simple": lambda: solve_point(_ellipse_2_1(), VectorQ([3, 0])),
    "point-multiple-minimum": lambda: solve_point(_ellipse_2_1(), VectorQ([1, 0])),
    "point-on-surface": lambda: solve_point(_ellipse_2_1(), VectorQ([2, 0])),
    "variety-readme": lambda: solve_variety(*_readme_variety()),
    "variety-offset": lambda: solve_variety(
        _ellipse_2_1(), LinearVariety(MatrixQ.from_columns([[1, 1]]), VectorQ([5]))
    ),
    "variety-intersecting": lambda: solve_variety(
        _unit_circle(), LinearVariety(MatrixQ.from_columns([[1, 0]]))
    ),
    "centered-two-ellipses": lambda: solve_centered(*_two_ellipses()),
    "centered-intersecting": lambda: solve_centered(_unit_circle(), _ellipse_2_1()),
    "sphere-two-circles": lambda: solve_general(_unit_circle(), _circle_at(4, 0)),
    "sphere-intersecting": lambda: solve_general(_unit_circle(), _circle_at(QQ(3, 2), 0)),
    "general-extraneous-square": lambda: solve_general(*_general_pair()),
    "general-intersecting": lambda: solve_general(
        ellipsoid_at(MatrixQ([[3, 1], [1, 2]]), VectorQ([2, 0])), _ellipse_2_1()
    ),
    "general-identical": lambda: solve_general(_ellipse_2_1(), _ellipse_2_1()),
    "family-endpoint": lambda: family_solve(
        QuadricFamily(a=[[1, 0], [0, 1]], b=[-T, -2], c=T**2 + 3, interval=(0, 1)),
        VectorQ([3, 2]),
    ),
    "family-interior": lambda: family_solve(
        QuadricFamily(
            a=[[4, 0], [0, 1]],
            b=[-4 * T, -(T**2 - 4 * T)],
            c=4 * T**2 + (T**2 - 4 * T) ** 2 - 16,
        ),
        VectorQ([-10, 10]),
    ),
    "family-constant": lambda: family_solve(
        QuadricFamily(a=[[1, 0], [0, 1]], b=[0, 0], interval=(0, 1)), VectorQ([3, 0])
    ),
    "family-member-through-origin": lambda: family_solve(
        QuadricFamily(a=[[1, 0], [0, 1]], b=[-T, 0], c=T**2 - 1, interval=(0, 1)),
        VectorQ([3, 0]),
    ),
}


def _render(name):
    return json.dumps(report_json(CASES[name]()), indent=1)


def _expected():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert _render(name) == json.dumps(_expected()[name], indent=1)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as fh:
        json.dump({name: json.loads(_render(name)) for name in CASES}, fh, indent=1)
        fh.write("\n")
