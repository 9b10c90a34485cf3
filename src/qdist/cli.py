"""Command-line front end: JSON problems in, JSON/CSV reports out.

Commands: distance, intersect, poly, family, sweep. Rational numbers are
serialized as "p/q" strings everywhere; approximations additionally carry a
decimal rendering and an exact error bound. Exit status: 0 success, 2 parse
or validation errors, 3 mathematical degeneracies (machine-readable reason).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import DegeneracyError, InputError, QdistError
from .linalg import MatrixQ, VectorQ
from .metrics import (
    DistanceReport,
    LinearVariety,
    Quadric,
    centered_pairing,
    general_pairing,
    normalize,
    point_pairing,
    point_pencil,
    solve_centered,
    solve_general,
    solve_point,
    solve_variety,
    trailing_z_power,
    variety_pairing,
)
from .discrim import discriminant_param, discriminant_uni
from .parametric import QuadricFamily, family_pairing, family_solve
from .poly import UniPoly
from .scalar import QQ, decimal_str, format_rational, rational

# kind -> (the fields it reads, its certificate step, its solver). Both take
# the fields in this order, the solver then the precision. The step validates
# the input and returns the metrics.Pairing whose certificate and F(z) the
# solver uses. Solvers are looked up by name when called, so a patched one
# takes effect.
PAIRINGS = {
    "point-quadric": (
        ("quadric", "point"), point_pairing, lambda *a: solve_point(*a)
    ),
    "variety-quadric": (
        ("quadric", "variety"), variety_pairing, lambda *a: solve_variety(*a)
    ),
    "quadric-quadric": (
        ("quadric", "quadric2"), general_pairing, lambda *a: solve_general(*a)
    ),
    "centered-quadric-quadric": (
        ("quadric", "quadric2"), centered_pairing, lambda *a: solve_centered(*a)
    ),
    "family-point": (("family", "point"), family_pairing, lambda *a: family_solve(*a)),
}
KINDS = tuple(PAIRINGS)


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
        fields = PAIRINGS[self.kind][0]
        _check_keys(data, ("kind", "options") + fields, "the problem")
        options = data.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("options must be a JSON object")
        _check_keys(options, ("bits", "exact"), "options")
        self.bits = _valid_bits(options.get("bits", 128))
        self.exact = options.get("exact", False)
        if not isinstance(self.exact, bool):
            raise ValueError("exact must be true or false")
        for name, parse in PARSERS.items():
            setattr(self, name, parse(_require(data, name)) if name in fields else None)


def _check_keys(data, known, where):
    """Reject a key no parser reads: a typo must not silently change the problem."""
    if isinstance(data, dict):
        for key in data:
            if key not in known:
                raise ValueError(f"unknown key {key!r} in {where}")


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
    _check_keys(data, ("a", "b", "c"), "quadric")
    a = _parse_matrix(_require(data, "a"))
    b = _parse_vector(_require(data, "b"))
    c = _rat(data.get("c", -1))
    return normalize(a, b, c)


def _parse_variety(data) -> LinearVariety:
    _check_keys(data, ("columns", "offset"), "variety")
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
    _check_keys(data, ("a", "b", "c", "interval"), "family")
    a = [[_parse_tpoly(e) for e in row] for row in _require(data, "a")]
    b = [_parse_tpoly(e) for e in _require(data, "b")]
    c = _parse_tpoly(data["c"]) if "c" in data else None
    interval = data.get("interval")
    if interval is not None:
        if not isinstance(interval, list) or len(interval) != 2:
            raise ValueError("family interval must be a list [lo, hi]")
        interval = (_rat(interval[0]), _rat(interval[1]))
    return QuadricFamily(a, b, c, interval)


# every field a kind can read, in the order they are parsed
PARSERS = {
    "quadric": _parse_quadric,
    "quadric2": _parse_quadric,
    "family": _parse_family,
    "point": _parse_vector,
    "variety": _parse_variety,
}


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
    if rep.extraneous_square is not None:
        out["extraneous_square"] = _poly_json(rep.extraneous_square)
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
    if rep.branch is not None:
        out["branch"] = rep.branch
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _operands(p: ProblemFile):
    return [getattr(p, name) for name in PAIRINGS[p.kind][0]]


def cmd_distance(p: ProblemFile):
    return report_json(PAIRINGS[p.kind][2](*_operands(p), p.bits), p.exact)


def cmd_family(p: ProblemFile):
    if p.kind != "family-point":
        raise InputError("family command requires kind family-point")
    return cmd_distance(p)


def cmd_intersect(p: ProblemFile):
    report = PAIRINGS[p.kind][1](*_operands(p)).report
    return {
        "status": "ok",
        "intersecting": report.intersecting,
        "certificate": _certificate_json(report.certificate),
    }


def cmd_poly(p: ProblemFile):
    f = PAIRINGS[p.kind][1](*_operands(p)).distance_poly()
    return {
        "status": "ok",
        "F": _poly_json(f),
        "extraneous_z_power": trailing_z_power(f),
    }


def _sweep_value(quadric: Quadric, x0, y0):
    """Sign data of the z-discriminant of the point-distance polynomial."""
    raw = discriminant_param(point_pencil(quadric, VectorQ([x0, y0])))
    if not raw:
        return QQ(0)
    m = trailing_z_power(raw)
    body = UniPoly(raw.coeffs[m:], raw.var)
    if body.degree < 2:
        return QQ(0)
    return discriminant_uni(body.coeffs)


def cmd_sweep(p: ProblemFile, grid_spec: str, out_stream, exact_stream=None):
    if p.kind != "point-quadric":
        raise InputError("sweep requires kind point-quadric")
    if p.quadric.dim != 2:
        raise InputError("sweep is two-dimensional")
    parts = grid_spec.split(",")
    if len(parts) != 5:
        raise InputError("grid must be x0min,x0max,y0min,y0max,steps")
    try:
        x0min, x0max, y0min, y0max = (rational(s) for s in parts[:4])
        steps = int(parts[4])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if steps < 2:
        raise InputError("steps must be at least 2")
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


def _dump(payload, stream, indent=None):
    json.dump(payload, stream, indent=indent)
    stream.write("\n")


def _usage_error(exc) -> int:
    _dump({"status": "error", "detail": str(exc)}, sys.stderr)
    return 2


def _emit(payload, path, code) -> int:
    """Write the payload to ``path`` (stdout when None) and return ``code``.

    An output file that cannot be opened is a usage error, exit 2.
    """
    try:
        stream = open(path, "w") if path else sys.stdout
    except OSError as exc:
        return _usage_error(exc)
    _dump(payload, stream, indent=2)
    if path:
        stream.close()
    return code


def _run_sweep(problem: ProblemFile, args) -> int:
    if not args.grid:
        raise InputError("sweep requires --grid")
    if problem.exact and not args.out:
        raise InputError("exact sweep sidecar requires --out")
    with contextlib.ExitStack() as stack:
        try:
            out = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
            exact_stream = (stack.enter_context(open(args.out + ".exact.csv", "w"))
                            if problem.exact else None)
        except OSError as exc:
            return _usage_error(exc)
        cmd_sweep(problem, args.grid, out, exact_stream)
    return 0


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
        return _usage_error(exc)
    try:
        if args.command == "sweep":
            return _run_sweep(problem, args)
        if args.command == "distance":
            result = cmd_distance(problem)
        elif args.command == "intersect":
            result = cmd_intersect(problem)
        elif args.command == "poly":
            result = cmd_poly(problem)
        else:
            result = cmd_family(problem)
    except InputError as exc:
        return _usage_error(exc)
    except Exception as exc:  # a QdistError, or a fault no solver classified
        if isinstance(exc, QdistError):
            reason = exc.code if isinstance(exc, DegeneracyError) else "error"
            detail = str(exc)
        else:
            reason, detail = "internal-error", f"{type(exc).__name__}: {exc}"
        payload = {"status": "degenerate", "reason": reason, "detail": detail}
        return _emit(payload, args.out, 3)
    return _emit(result, args.out, 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
