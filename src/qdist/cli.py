"""Command-line front end: JSON problems in, JSON/CSV reports out.

Commands: distance, intersect, poly, family, sweep. Rational numbers are
serialized as "p/q" strings everywhere; approximations additionally carry a
decimal rendering and an exact error bound. Exit status: 0 success, 2 parse
or validation errors, 3 mathematical degeneracies (machine-readable reason).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DegeneracyError, QdistError
from .linalg import MatrixQ, VectorQ
from .metrics import (
    DistanceReport,
    LinearVariety,
    Quadric,
    centered_intersects,
    general_intersects,
    normalize,
    point_pencil,
    solve_centered,
    solve_general,
    solve_point,
    solve_variety,
    trailing_z_power,
    variety_intersects,
)
from .discrim import discriminant_param, discriminant_uni
from .parametric import QuadricFamily, family_distance_poly, family_solve
from .poly import UniPoly
from .scalar import QQ, decimal_str, format_rational, rational

KINDS = (
    "point-quadric",
    "variety-quadric",
    "quadric-quadric",
    "centered-quadric-quadric",
    "family-point",
)


def _valid_bits(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("bits must be an integer")
    if value < 8:
        raise ValueError("bits must be at least 8")
    return value


class ProblemFile:
    """Parsed and validated problem description."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ValueError("problem file must be a JSON object")
        self.kind = data.get("kind")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        options = data.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("options must be a JSON object")
        self.bits = _valid_bits(options.get("bits", 128))
        self.exact = options.get("exact", False)
        if not isinstance(self.exact, bool):
            raise ValueError("exact must be true or false")
        self.quadric = None
        self.quadric2 = None
        self.point = None
        self.variety = None
        self.family = None
        if self.kind in ("point-quadric", "variety-quadric", "quadric-quadric",
                        "centered-quadric-quadric"):
            self.quadric = _parse_quadric(_require(data, "quadric"))
        if self.kind in ("quadric-quadric", "centered-quadric-quadric"):
            self.quadric2 = _parse_quadric(_require(data, "quadric2"))
        if self.kind == "point-quadric":
            self.point = _parse_vector(_require(data, "point"))
        if self.kind == "variety-quadric":
            self.variety = _parse_variety(_require(data, "variety"))
        if self.kind == "family-point":
            self.family = _parse_family(_require(data, "family"))
            self.point = _parse_vector(_require(data, "point"))
        _check_dimensions(self)


def _require(data, key):
    if key not in data:
        raise ValueError(f"missing required field {key!r}")
    return data[key]


def _rat(x):
    if isinstance(x, float):
        raise ValueError("floating-point values are not exact; use \"p/q\" strings")
    return rational(x)


def _parse_vector(data):
    if not isinstance(data, list) or not data:
        raise ValueError("vector must be a nonempty list")
    return VectorQ([_rat(x) for x in data])


def _parse_matrix(data):
    if not isinstance(data, list) or not data:
        raise ValueError("matrix must be a nonempty list of rows")
    return MatrixQ([[_rat(x) for x in row] for row in data])


def _parse_quadric(data) -> Quadric:
    a = _parse_matrix(_require(data, "a"))
    b = _parse_vector(_require(data, "b"))
    c = _rat(data.get("c", -1))
    return normalize(a, b, c)


def _parse_variety(data) -> LinearVariety:
    columns = _require(data, "columns")
    if not isinstance(columns, list) or not columns:
        raise ValueError("variety columns must be a nonempty list")
    cols = [[_rat(x) for x in col] for col in columns]
    c = MatrixQ.from_columns(cols)
    offset = data.get("offset")
    h = _parse_vector(offset) if offset is not None else None
    return LinearVariety(c, h)


def _parse_tpoly(x):
    if isinstance(x, list):
        return UniPoly([_rat(c) for c in x], "t")
    return UniPoly.const(_rat(x), "t")


def _parse_family(data) -> QuadricFamily:
    a = [[_parse_tpoly(e) for e in row] for row in _require(data, "a")]
    b = [_parse_tpoly(e) for e in _require(data, "b")]
    c = _parse_tpoly(data["c"]) if "c" in data else None
    interval = data.get("interval")
    if interval is not None:
        if not isinstance(interval, list) or len(interval) != 2:
            raise ValueError("family interval must be a list [lo, hi]")
        interval = (_rat(interval[0]), _rat(interval[1]))
    return QuadricFamily(a, b, c, interval)


def _check_dimensions(p: ProblemFile):
    if p.kind == "point-quadric" and p.quadric.dim != p.point.dim:
        raise ValueError("point and quadric dimensions differ")
    if p.kind == "variety-quadric" and p.quadric.dim != p.variety.dim:
        raise ValueError("variety and quadric dimensions differ")
    if p.kind in ("quadric-quadric", "centered-quadric-quadric"):
        if p.quadric.dim != p.quadric2.dim:
            raise ValueError("quadric dimensions differ")
    if p.kind == "family-point" and p.family.dim != p.point.dim:
        raise ValueError("family and point dimensions differ")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _approx_json(value, error, exact_mode=False):
    out = {
        "value": format_rational(value),
        "decimal": decimal_str(value, 30),
        "error_bound": format_rational(error),
    }
    if exact_mode:
        out["interval"] = [
            format_rational(value - error),
            format_rational(value + error),
        ]
    return out


def _poly_json(p: UniPoly):
    return {
        "variable": p.var,
        "degree": p.degree,
        "coefficients": [format_rational(c) for c in p.coeffs],
    }


def _certificate_json(cert: dict):
    out = {}
    for k, v in cert.items():
        if isinstance(v, UniPoly):
            out[k] = _poly_json(v)
        elif isinstance(v, bool) or isinstance(v, str):
            out[k] = v
        else:
            out[k] = format_rational(v)
    return out


def report_json(rep: DistanceReport, exact_mode=False):
    out = {
        "status": "ok",
        "kind": rep.kind,
        "intersecting": rep.intersecting,
        "certificate": _certificate_json(rep.certificate),
        "warnings": list(rep.warnings),
    }
    if rep.fz is not None:
        out["F"] = _poly_json(rep.fz)
        out["extraneous_z_power"] = rep.extraneous_z_power
    if rep.positive_zeros:
        out["positive_zeros"] = [
            {
                **_approx_json(r.value, r.error, exact_mode),
                "multiplicity": r.multiplicity,
            }
            for r in rep.positive_zeros
        ]
    if rep.z_star is not None:
        out["z_star"] = {
            **_approx_json(rep.z_star.value, rep.z_star.error, exact_mode),
            "multiplicity": rep.z_star.multiplicity,
        }
        out["simple"] = rep.simple
    if rep.d is not None:
        out["d"] = _approx_json(rep.d, rep.d_error or QQ(0), exact_mode)
    if rep.multipliers:
        out["multipliers"] = {
            k: (format_rational(v) if not isinstance(v, tuple)
                else [format_rational(c) for c in v])
            for k, v in rep.multipliers.items()
        }
    if rep.nearest_pairs:
        out["nearest_pairs"] = [
            {
                "x": [format_rational(c) for c in p.x],
                "x_decimal": [decimal_str(c, 20) for c in p.x],
                "y": [format_rational(c) for c in p.y],
                "y_decimal": [decimal_str(c, 20) for c in p.y],
                "residuals": {k: format_rational(v) for k, v in p.residuals.items()},
            }
            for p in rep.nearest_pairs
        ]
    if rep.alternate_z is not None:
        out["alternate_z"] = _approx_json(
            rep.alternate_z.value, rep.alternate_z.error, exact_mode
        )
    if rep.t_star is not None:
        out["t_star"] = {
            "value": format_rational(rep.t_star),
            "decimal": decimal_str(rep.t_star, 30),
        }
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _solve_problem(p: ProblemFile) -> DistanceReport:
    if p.kind == "point-quadric":
        return solve_point(p.quadric, p.point, p.bits)
    if p.kind == "variety-quadric":
        return solve_variety(p.quadric, p.variety, p.bits)
    if p.kind == "quadric-quadric":
        return solve_general(p.quadric, p.quadric2, p.bits)
    if p.kind == "centered-quadric-quadric":
        return solve_centered(p.quadric, p.quadric2, p.bits)
    return family_solve(p.family, p.point, p.bits)


def cmd_distance(p: ProblemFile):
    return report_json(_solve_problem(p), p.exact)


def cmd_family(p: ProblemFile):
    if p.kind != "family-point":
        raise ValueError("family command requires kind family-point")
    return report_json(family_solve(p.family, p.point, p.bits), p.exact)


def cmd_intersect(p: ProblemFile):
    if p.kind == "point-quadric":
        side = p.quadric.residual_at(p.point)
        inter, cert = not side, {"point_residual": side}
    elif p.kind == "variety-quadric":
        inter, det = variety_intersects(p.quadric, p.variety)
        cert = {"bordered_determinant": det}
    elif p.kind == "centered-quadric-quadric":
        inter, cls = centered_intersects(p.quadric, p.quadric2)
        cert = {"difference_definiteness": cls}
    elif p.kind == "quadric-quadric" and p.quadric == p.quadric2:
        inter, cert = True, {"identical": True}
    elif p.kind == "quadric-quadric":
        inter, summary, phi = general_intersects(p.quadric, p.quadric2)
        cert = {"root_sign_summary": summary, "phi": phi}
    else:
        raise ValueError("intersect does not apply to family problems")
    return {
        "status": "ok",
        "intersecting": inter,
        "certificate": _certificate_json(cert),
    }


def cmd_poly(p: ProblemFile):
    from .metrics import (
        centered_distance_poly,
        general_distance_poly,
        point_distance_poly,
        variety_distance_poly,
    )

    if p.kind == "point-quadric":
        f = point_distance_poly(p.quadric, p.point)
    elif p.kind == "variety-quadric":
        f = variety_distance_poly(p.quadric, p.variety)
    elif p.kind == "centered-quadric-quadric":
        f = centered_distance_poly(p.quadric, p.quadric2)
    elif p.kind == "quadric-quadric":
        f = general_distance_poly(p.quadric, p.quadric2)
    else:
        big_f, fa, fb = family_distance_poly(p.family, p.point)
        out = {"status": "ok"}
        if big_f is not None:
            out["F_iterated"] = _poly_json(big_f)
        if fa is not None:
            out["F_at_a"] = _poly_json(fa)
        if fb is not None:
            out["F_at_b"] = _poly_json(fb)
        return out
    return {
        "status": "ok",
        "F": _poly_json(f),
        "extraneous_z_power": trailing_z_power(f),
    }


def _sweep_value(quadric: Quadric, x0, y0):
    """Sign data of the z-discriminant of the point-distance polynomial."""
    pencil = point_pencil(quadric, VectorQ([x0, y0]))
    n = quadric.dim
    raw = discriminant_param(pencil, degree_bound=2 * (n + 1))
    if not raw:
        return QQ(0)
    m = trailing_z_power(raw)
    body = UniPoly(raw.coeffs[m:], raw.var)
    if body.degree < 2:
        return QQ(0)
    return discriminant_uni(body)


def cmd_sweep(p: ProblemFile, grid_spec: str, out_stream, exact_stream=None):
    if p.kind != "point-quadric":
        raise ValueError("sweep requires kind point-quadric")
    if p.quadric.dim != 2:
        raise ValueError("sweep is two-dimensional")
    parts = grid_spec.split(",")
    if len(parts) != 5:
        raise ValueError("grid must be x0min,x0max,y0min,y0max,steps")
    x0min, x0max, y0min, y0max = (rational(s) for s in parts[:4])
    steps = int(parts[4])
    if steps < 2:
        raise ValueError("steps must be at least 2")
    out_stream.write("x0,y0,value_sign,value_decimal\n")
    if exact_stream is not None:
        exact_stream.write("x0,y0,value\n")
    for i in range(steps):
        x0 = x0min + (x0max - x0min) * QQ(i, steps - 1)
        for j in range(steps):
            y0 = y0min + (y0max - y0min) * QQ(j, steps - 1)
            v = _sweep_value(p.quadric, x0, y0)
            s = 1 if v > 0 else (-1 if v < 0 else 0)
            out_stream.write(
                f"{format_rational(x0)},{format_rational(y0)},{s},{decimal_str(v, 17)}\n"
            )
            if exact_stream is not None:
                exact_stream.write(
                    f"{format_rational(x0)},{format_rational(y0)},{format_rational(v)}\n"
                )
    return None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdist",
        description="Exact distances and intersection certificates for quadrics",
    )
    parser.add_argument(
        "command",
        choices=["distance", "intersect", "poly", "family", "sweep"],
    )
    parser.add_argument("--input", required=True, help="JSON problem file")
    parser.add_argument("--bits", type=int, default=None,
                        help="refinement precision in bits (default 128)")
    parser.add_argument("--exact", action="store_true",
                        help="include exact intervals / exact sweep sidecar")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--grid", default=None,
                        help="sweep grid: x0min,x0max,y0min,y0max,steps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        problem = ProblemFile(data)
        if args.bits is not None:
            problem.bits = _valid_bits(args.bits)
        if args.exact:
            problem.exact = True
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        json.dump({"status": "error", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    try:
        if args.command == "sweep":
            if not args.grid:
                raise ValueError("sweep requires --grid")
            out = open(args.out, "w") if args.out else sys.stdout
            exact_stream = None
            if problem.exact:
                if not args.out:
                    raise ValueError("exact sweep sidecar requires --out")
                exact_stream = open(args.out + ".exact.csv", "w")
            try:
                cmd_sweep(problem, args.grid, out, exact_stream)
            finally:
                if args.out:
                    out.close()
                if exact_stream is not None:
                    exact_stream.close()
            return 0
        if args.command == "distance":
            result = cmd_distance(problem)
        elif args.command == "intersect":
            result = cmd_intersect(problem)
        elif args.command == "poly":
            result = cmd_poly(problem)
        else:
            result = cmd_family(problem)
    except ValueError as exc:
        json.dump({"status": "error", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except QdistError as exc:
        reason = exc.code if isinstance(exc, DegeneracyError) else "error"
        payload = {"status": "degenerate", "reason": reason, "detail": str(exc)}
        stream = open(args.out, "w") if args.out else sys.stdout
        json.dump(payload, stream, indent=2)
        stream.write("\n")
        if args.out:
            stream.close()
        return 3
    stream = open(args.out, "w") if args.out else sys.stdout
    json.dump(result, stream, indent=2)
    stream.write("\n")
    if args.out:
        stream.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
