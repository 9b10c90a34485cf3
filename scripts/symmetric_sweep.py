#!/usr/bin/env python3
"""Solve seeded symmetric inputs and count how each one ends.

    python3 scripts/symmetric_sweep.py --seed 1 --count 50
    python3 scripts/symmetric_sweep.py --seed 1 --count 10 --check

The benchmark workloads draw generic surfaces; this sweep draws the
symmetric shapes they never hold, with small integer data:

- ``circle-ellipse``: a circle against an axis-aligned ellipse;
- ``point-sphere``: a point against a sphere in R^3;
- ``point-spheroid-axis``: a point on the axis of a spheroid;
- ``point-ellipse-centre``: a point at the centre of a non-circular ellipse;
- ``concentric-circles``: two circles about one centre;
- ``congruent-pair``: an ellipse against a translated copy of itself;
- ``moving-circle``: a point against a circle whose centre moves linearly
  in t, over an interval or over the whole line;
- ``moving-sphere``: the same with a sphere in R^3.

Each problem runs through ``qdist distance`` (``cli.main``) and ends as
``ok`` (exit 0), ``intersecting`` (exit 0, d = 0) or ``exit-<code>
<reason>``. With ``--check``, every non-intersecting exit-0 report is also
passed to ``perfbench/check.py`` (exact residuals and a brute-force d), and
its verdict is appended. The script prints one line per problem and a count
of the outcomes per shape.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _text(q):
    return str(Fraction(q))


def _quadric(a, centre, radius2):
    """(X - centre)^T A (X - centre) = radius2 as {"a", "b", "c"}."""
    n = len(a)
    ac = [sum(Fraction(a[i][j]) * centre[j] for j in range(n)) for i in range(n)]
    c = sum(centre[i] * ac[i] for i in range(n)) - radius2
    return {"a": [[_text(e) for e in row] for row in a], "b": [_text(-v) for v in ac],
            "c": _text(c)}


def _diag(values):
    return [[values[i] if i == j else 0 for j in range(len(values))] for i in range(len(values))]


def _point(rng, n, lo=-6, hi=6):
    return [rng.randint(lo, hi) for _ in range(n)]


def _circle_ellipse(rng):
    k = rng.randint(1, 4)
    circle = _quadric(_diag([k, k]), _point(rng, 2, -3, 3), k * rng.randint(1, 9))
    ellipse = _quadric(_diag([rng.randint(1, 6), rng.randint(1, 6)]), _point(rng, 2), rng.randint(1, 30))
    return {"kind": "quadric-quadric", "quadric": circle, "quadric2": ellipse}


def _point_sphere(rng):
    k = rng.randint(1, 4)
    sphere = _quadric(_diag([k] * 3), _point(rng, 3, -2, 2), k * rng.randint(1, 9))
    return {"kind": "point-quadric", "quadric": sphere, "point": _point(rng, 3)}


def _point_spheroid_axis(rng):
    p, q = rng.sample(range(1, 6), 2)
    centre = _point(rng, 3, -2, 2)
    point = centre[:2] + [centre[2] + rng.choice([-1, 1]) * rng.randint(1, 7)]
    spheroid = _quadric(_diag([p, p, q]), centre, rng.randint(1, 9))
    return {"kind": "point-quadric", "quadric": spheroid, "point": point}


def _point_ellipse_centre(rng):
    while True:
        p, q, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(-3, 3)
        if p * q > r * r and (p != q or r):
            break
    centre = _point(rng, 2, -3, 3)
    ellipse = _quadric([[p, r], [r, q]], centre, rng.randint(1, 9))
    return {"kind": "point-quadric", "quadric": ellipse, "point": centre}


def _concentric_circles(rng):
    centre = _point(rng, 2, -3, 3)
    r1, r2 = rng.sample(range(1, 10), 2)
    return {"kind": "quadric-quadric", "quadric": _quadric(_diag([1, 1]), centre, r1),
            "quadric2": _quadric(_diag([1, 1]), centre, r2)}


def _congruent_pair(rng):
    a = _diag(rng.sample(range(1, 7), 2))
    centre, radius2 = _point(rng, 2, -2, 2), rng.randint(1, 9)
    moved = [c + s for c, s in zip(centre, _point(rng, 2))]
    return {"kind": "quadric-quadric", "quadric": _quadric(a, centre, radius2),
            "quadric2": _quadric(a, moved, radius2)}


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _moving_ball(rng, n):
    """(X - c0 - t v)^T k I (X - c0 - t v) = k r^2 as a family against a point."""
    k, r2 = rng.randint(1, 4), rng.randint(1, 9)
    c0, v = _point(rng, n, -3, 3), _point(rng, n, -2, 2)
    while not any(v):
        v = _point(rng, n, -2, 2)
    family = {"a": _diag([k] * n), "b": [[-k * x, -k * y] for x, y in zip(c0, v)],
              "c": [k * (_dot(c0, c0) - r2), 2 * k * _dot(c0, v), k * _dot(v, v)]}
    if rng.randint(0, 1):
        lo = rng.randint(-3, 2)
        family["interval"] = [lo, lo + rng.randint(1, 3)]
    return {"kind": "family-point", "family": family, "point": _point(rng, n)}


def _moving_circle(rng):
    return _moving_ball(rng, 2)


def _moving_sphere(rng):
    return _moving_ball(rng, 3)


SHAPES = {
    "circle-ellipse": _circle_ellipse,
    "point-sphere": _point_sphere,
    "point-spheroid-axis": _point_spheroid_axis,
    "point-ellipse-centre": _point_ellipse_centre,
    "concentric-circles": _concentric_circles,
    "congruent-pair": _congruent_pair,
    # appended last, so that every shape above draws the same inputs
    "moving-circle": _moving_circle,
    "moving-sphere": _moving_sphere,
}


def problems(seed: int, count: int):
    """(shape, problem) for ``count`` seeded problems of every shape.

    Draws whose surface passes through the origin are redrawn: the problem
    format normalizes the constant term to -1, so it cannot hold them.
    """
    rng = random.Random(seed)
    for shape, make in SHAPES.items():
        for _ in range(count):
            problem = make(rng)
            while any(problem.get(key, {}).get("c") == "0" for key in ("quadric", "quadric2")):
                problem = make(rng)
            yield shape, problem


def outcome(problem, check=None) -> str:
    """How ``qdist distance`` ends on the problem; ``check`` is check_report."""
    from qdist import cli

    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "problem.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(problem))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["distance", "--input", str(path), "--out", str(out)])
        report = json.loads(out.read_text() if out.exists() else err.getvalue())
    if code != 0:
        return f"exit-{code} {report.get('reason', report.get('message'))}"
    if report["intersecting"]:
        return "intersecting"
    verdict = "ok" if report.get("nearest_pairs") else "ok no-nearest-points"
    if check is not None:
        verdict += f" check={check(problem, report) or 'pass'}"
    return verdict


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=20, help="problems per shape")
    ap.add_argument("--check", action="store_true", help="check exit-0 reports with perfbench")
    args = ap.parse_args(argv)
    check = None
    if args.check:
        sys.path.insert(0, str(PERFBENCH))
        from check import check_report as check
    tally = collections.Counter()
    for i, (shape, problem) in enumerate(problems(args.seed, args.count)):
        result = outcome(problem, check)
        tally[shape, result] += 1
        print(f"{i} {shape} {result} {json.dumps(problem)}", flush=True)
    for (shape, result), n in sorted(tally.items()):
        print(f"{shape:22s} {n:4d}  {result}")


if __name__ == "__main__":
    main()
