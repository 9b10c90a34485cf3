import collections
import importlib.util
import json
from pathlib import Path

import pytest

from qdist import cli
from qdist.cli import main
from qdist.poly import UniPoly
from qdist.realroots import min_positive_zero
from qdist.scalar import QQ, decimal_str, rational

AXIS_PROBLEM = {
    "kind": "variety-quadric",
    "quadric": {
        "a": [[7, -2, 0], [-2, 6, -2], [0, -2, 5]],
        "b": ["-37/2", -6, "3/2"],
        "c": 54,
    },
    "variety": {"columns": [[0, 1, 0], [0, 0, 1]]},
}

ELLIPSE_POINT = {
    "kind": "point-quadric",
    "quadric": {"a": [["1/4", 0], [0, 1]], "b": [0, 0], "c": -1},
    "point": [3, 0],
}


def run(tmp_path, command, problem, *extra):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "out.json"
    code = main([command, "--input", str(path), "--out", str(out), *extra])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_distance_worked_example(tmp_path):
    code, text = run(tmp_path, "distance", AXIS_PROBLEM)
    assert code == 0
    rep = json.loads(text)
    assert rep["status"] == "ok"
    assert rep["intersecting"] is False
    assert rep["d"]["decimal"].startswith("0.23901475")
    assert rep["simple"] is True
    assert len(rep["nearest_pairs"]) == 1
    # rationals serialize as strings, never floats
    assert isinstance(rep["z_star"]["value"], str)


def test_intersect_command(tmp_path):
    code, text = run(tmp_path, "intersect", AXIS_PROBLEM)
    assert code == 0
    rep = json.loads(text)
    assert rep["intersecting"] is False
    assert rational(rep["certificate"]["bordered_determinant"]) == QQ(143, 11664)


def test_poly_roundtrip_reproduces_distance(tmp_path):
    code, poly_text = run(tmp_path, "poly", ELLIPSE_POINT)
    assert code == 0
    f = UniPoly(
        [rational(c) for c in json.loads(poly_text)["F"]["coefficients"]], "z"
    )
    value, simple, mult = min_positive_zero(f, 128)
    code, dist_text = run(tmp_path, "distance", ELLIPSE_POINT)
    rep = json.loads(dist_text)
    assert rep["z_star"]["value"] == (
        f"{int(value.numerator)}/{int(value.denominator)}"
        if int(value.denominator) != 1
        else str(int(value.numerator))
    )
    assert rep["d"]["decimal"] == "1"


def test_family_command(tmp_path):
    problem = {
        "kind": "family-point",
        "family": {
            "a": [[[1], 0], [0, [1]]],
            "b": [[0, -1], [-2]],
            "c": [3, 0, 1],
            "interval": [0, 1],
        },
        "point": [3, 2],
    }
    code, text = run(tmp_path, "family", problem)
    assert code == 0
    rep = json.loads(text)
    assert rep["d"]["decimal"] == "1"
    assert rep["t_star"]["value"] == "1"


def test_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["distance", "--input", str(path)]) == 2
    path.write_text(json.dumps({"kind": "nope"}))
    assert main(["distance", "--input", str(path)]) == 2
    # dimension mismatch
    bad = dict(ELLIPSE_POINT)
    bad["point"] = [1, 2, 3]
    path.write_text(json.dumps(bad))
    assert main(["distance", "--input", str(path)]) == 2
    # floats are rejected
    bad = {
        "kind": "point-quadric",
        "quadric": {"a": [[0.25, 0], [0, 1]], "b": [0, 0], "c": -1},
        "point": [3, 0],
    }
    path.write_text(json.dumps(bad))
    assert main(["distance", "--input", str(path)]) == 2


def test_bits_flag_is_validated(tmp_path, capsys):
    code, _ = run(tmp_path, "distance", ELLIPSE_POINT, "--bits", "4")
    assert code == 2
    assert "bits must be at least 8" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["8", "15"])
def test_low_bits_exit_0_without_nearest_points(tmp_path, bits):
    # below 16 bits the recovery snap is capped at width 1 instead of
    # shifting by a negative count; every candidate then fails its gate
    code, text = run(tmp_path, "distance", AXIS_PROBLEM, "--bits", bits)
    assert code == 0
    rep = json.loads(text)
    assert "nearest_pairs" not in rep
    assert rep["warnings"][-1] == "no positive zero supported nearest-point recovery"


@pytest.mark.parametrize(
    "problem, detail",
    [
        (dict(ELLIPSE_POINT, options=[128]), "options must be a JSON object"),
        (
            {
                "kind": "family-point",
                "family": {"a": [[1, 0], [0, 1]], "b": [[0, -1], 0], "interval": [0]},
                "point": [3, 0],
            },
            "family interval must be a list [lo, hi]",
        ),
        (
            dict(AXIS_PROBLEM, variety={"columns": [[0, 1, 0], [0, 0]]}),
            "ragged columns",
        ),
        (dict(ELLIPSE_POINT, point=["1/0", 0]), "zero denominator in '1/0'"),
        (dict(ELLIPSE_POINT, options={"bits": 100.5}), "bits must be an integer"),
        (dict(ELLIPSE_POINT, options={"bits": "64"}), "bits must be an integer"),
        (dict(ELLIPSE_POINT, options={"bits": True}), "bits must be an integer"),
        (dict(ELLIPSE_POINT, options={"exact": "no"}), "exact must be true or false"),
        (dict(ELLIPSE_POINT, options={"exact": 1}), "exact must be true or false"),
        # a key no parser reads would otherwise change the problem silently:
        # "point" is not how a variety's offset is spelled
        (
            dict(AXIS_PROBLEM, variety={"columns": [[1, 0, 0]], "point": [0, 5, 0]}),
            "unknown key 'point' in variety",
        ),
        (
            {
                "kind": "family-point",
                "family": {"a": [[1, 0], [0, 1]], "b": [[0, -1], 0]},
                "interval": [0, 1],
                "point": [3, 0],
            },
            "unknown key 'interval' in the problem",
        ),
        (
            {
                "kind": "quadric-quadric",
                "quadric": ELLIPSE_POINT["quadric"],
                "quadric2": {"a": [[1, 0], [0, 1]], "b": [-8, 0], "c": 15},
                "point": [3, 0],
            },
            "unknown key 'point' in the problem",
        ),
        (dict(ELLIPSE_POINT, quadric={"a": [[1, 0], [0, 1]], "b": [0, 0], "d": 1}),
         "unknown key 'd' in quadric"),
        (dict(ELLIPSE_POINT, options={"bit": 64}), "unknown key 'bit' in options"),
    ],
    ids=[
        "options-list", "interval-one-endpoint", "ragged-columns", "zero-denominator",
        "bits-float", "bits-string", "bits-bool", "exact-string", "exact-int",
        "variety-point", "family-top-level-interval", "quadric-quadric-point",
        "quadric-d", "options-bit",
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, problem, detail):
    code, _ = run(tmp_path, "distance", problem)
    assert code == 2
    assert detail in capsys.readouterr().err


def test_constant_family_without_interval(tmp_path):
    # no parameter dependence and no interval: the one member, at t = 0,
    # carries the answer d = 5*sqrt(2) - 1
    problem = {
        "kind": "family-point",
        "family": {"a": [[1, 0], [0, 1]], "b": [0, 0]},
        "point": [5, 5],
    }
    code, text = run(tmp_path, "distance", problem)
    assert code == 0
    rep = json.loads(text)
    assert rep["t_star"]["value"] == "0"
    assert rep["branch"] == "endpoint-a"
    assert rep["d"]["decimal"].startswith("6.0710678118654752440")
    (pair,) = rep["nearest_pairs"]
    assert pair["y"] == ["5", "5"]
    assert [x[:10] for x in pair["x_decimal"]] == ["0.70710678"] * 2


def _circle_family(interval=None, c=None):
    # x^2 + y^2 + 2 t x + c(t) = 0, with c = -1 by default
    family = {"a": [[1, 0], [0, 1]], "b": [[0, 1], 0]}
    if c is not None:
        family["c"] = c
    if interval is not None:
        family["interval"] = interval
    return {"kind": "family-point", "family": family, "point": [5, 5]}


@pytest.mark.parametrize(
    "interval", [[-5, -4], ["-49/10", -4], None], ids=["inside", "at-end", "unbounded"]
)
def test_family_member_through_point(tmp_path, interval):
    # r(t) = 49 + 10 t: the member at t = -49/10 passes through (5, 5)
    code, text = run(tmp_path, "distance", _circle_family(interval))
    assert code == 0
    rep = json.loads(text)
    assert rep["intersecting"] is True
    assert rep["d"]["value"] == "0"
    assert rep["t_star"]["value"] == "-49/10"
    assert rep["certificate"]["point_residual"]["coefficients"] == ["49", "10"]


def test_family_crossing_outside_interval(tmp_path):
    code, text = run(tmp_path, "distance", _circle_family([-4, -3]))
    assert code == 0
    rep = json.loads(text)
    assert rep["intersecting"] is False
    assert rep["t_star"]["value"] == "-4"
    assert rep["d"]["decimal"].startswith("0.97591388797")


@pytest.mark.parametrize("interval, t_star", [([2, 3], "2"), (None, "0")])
def test_family_every_member_through_point(tmp_path, interval, t_star):
    # with c = -10 t - 50 every member holds (5, 5): r vanishes identically
    code, text = run(tmp_path, "distance", _circle_family(interval, c=[-50, -10]))
    assert code == 0
    rep = json.loads(text)
    assert rep["intersecting"] is True
    assert rep["d"]["value"] == "0"
    assert rep["t_star"]["value"] == t_star


def test_family_irrational_crossing(tmp_path):
    # circles x^2 + y^2 = t^2 on [1, 2]: the one through (1, 1) has t = sqrt(2)
    problem = {
        "kind": "family-point",
        "family": {"a": [[1, 0], [0, 1]], "b": [0, 0], "c": [0, 0, -1], "interval": [1, 2]},
        "point": [1, 1],
        "options": {"bits": 64},
    }
    code, text = run(tmp_path, "distance", problem)
    assert code == 0
    rep = json.loads(text)
    assert rep["intersecting"] is True
    assert rep["d"]["value"] == "0"
    t = rational(rep["t_star"]["value"])
    assert 1 < t < 2 and abs(t * t - 2) <= QQ(3, 1 << 64)


def test_degeneracy_exit_3(tmp_path):
    # empty real surface: -x^2 - y^2 = 1
    problem = {
        "kind": "point-quadric",
        "quadric": {"a": [[-1, 0], [0, -1]], "b": [0, 0], "c": -1},
        "point": [3, 0],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "o.json"
    code = main(["distance", "--input", str(path), "--out", str(out)])
    assert code == 3
    rep = json.loads(out.read_text())
    assert rep["status"] == "degenerate"
    assert rep["reason"] == "empty-surface"


@pytest.mark.parametrize("fault", [
    ZeroDivisionError("division by zero"),
    AssertionError(),
    # a ValueError raised while solving is a fault, not bad input
    ValueError("inexact polynomial division"),
])
def test_unclassified_solver_fault_exit_3(tmp_path, monkeypatch, fault):
    def broken(*args):
        raise fault

    monkeypatch.setattr(cli, "solve_point", broken)
    code, text = run(tmp_path, "distance", ELLIPSE_POINT)
    assert code == 3
    assert json.loads(text) == {
        "status": "degenerate",
        "reason": "internal-error",
        "detail": f"{type(fault).__name__}: {fault}",
    }


def test_exact_flag_adds_intervals(tmp_path):
    code, text = run(tmp_path, "distance", ELLIPSE_POINT, "--exact")
    rep = json.loads(text)
    assert "interval" in rep["z_star"]


def test_bits_flag_controls_error_bound(tmp_path):
    code, text = run(tmp_path, "distance", AXIS_PROBLEM, "--bits", "64")
    rep = json.loads(text)
    assert rational(rep["z_star"]["error_bound"]) <= QQ(1, 1 << 63)


def test_sweep_csv(tmp_path):
    problem = dict(ELLIPSE_POINT)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--input", str(path), "--out", str(out),
         "--grid=-3,3,-3,3,13", "--exact"]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x0,y0,value_sign,value_decimal"
    assert len(lines) == 1 + 169
    rows = {}
    for line in lines[1:]:
        x0, y0, s, dec = line.split(",")
        rows[(x0, y0)] = int(s)
    # the coordinate axes belong to the zero set
    assert rows[("0", "0")] == 0
    assert rows[("0", "3")] == 0
    assert rows[("-3", "0")] == 0
    # the sign flips across the astroid branch: (1/2, 1/2) is inside it,
    # (3, 3) far outside
    assert rows[("1/2", "1/2")] != 0
    assert rows[("3", "3")] != 0
    assert rows[("1/2", "1/2")] != rows[("3", "3")]
    sidecar = (tmp_path / "sweep.csv.exact.csv").read_text().strip().splitlines()
    assert sidecar[0] == "x0,y0,value"
    assert len(sidecar) == 1 + 169


def test_sweep_requires_grid(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(ELLIPSE_POINT))
    assert main(["sweep", "--input", str(path)]) == 2


@pytest.mark.parametrize("command, problem, extra, detail", [
    # the family's step, not the parser, checks the point's dimension
    ("intersect", dict(_circle_family(), point=[5, 5, 5]), (), "point dimension mismatch"),
    ("family", ELLIPSE_POINT, (), "family command requires kind family-point"),
    ("sweep", ELLIPSE_POINT, ("--grid=-3,3,-3,3,x",), "invalid literal for int()"),
    ("sweep", ELLIPSE_POINT, ("--grid=-3,3,-3,1/0,3",), "zero denominator"),
    ("sweep", ELLIPSE_POINT, ("--grid=-3,3,-3,3,1",), "steps must be at least 2"),
], ids=["family-intersect", "family-kind", "grid-steps", "grid-bound", "grid-one-step"])
def test_input_rejected_while_solving_exit_2(tmp_path, capsys, command, problem, extra, detail):
    code, text = run(tmp_path, command, problem, *extra)
    assert code == 2 and not text
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error" and detail in err["detail"]


@pytest.mark.parametrize("command, extra", [
    ("distance", ()),
    ("poly", ()),
    ("sweep", ("--grid=-3,3,-3,3,3",)),
    ("sweep", ("--grid=-3,3,-3,3,3", "--exact")),
])
def test_unopenable_out_exit_2(tmp_path, capsys, command, extra):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(ELLIPSE_POINT))
    out = tmp_path / "missing" / "out.json"
    code = main([command, "--input", str(path), "--out", str(out), *extra])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["status"] == "error"
    assert str(out) in err["detail"]


def test_unopenable_out_on_degeneracy_exit_2(tmp_path, capsys):
    problem = dict(ELLIPSE_POINT, quadric={"a": [[-1, 0], [0, -1]], "b": [0, 0], "c": -1})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "missing" / "out.json"
    assert main(["distance", "--input", str(path), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["status"] == "error"


def test_poly_rejects_uncentered_quadric(tmp_path, capsys):
    problem = {
        "kind": "centered-quadric-quadric",
        "quadric": {"a": [[1, 0], [0, 1]], "b": [1, 0]},
        "quadric2": {"a": [[4, 0], [0, 4]], "b": [0, 0]},
    }
    for command in ("poly", "distance", "intersect"):
        code, _ = run(tmp_path, command, problem)
        assert code == 2
        assert "both quadrics must be centered" in capsys.readouterr().err


def test_poly_of_point_on_the_quadric_is_classified(tmp_path):
    # (2, 0) lies on x^2/4 + y^2 = 1: d = 0, and F(z) has no meaning
    problem = dict(ELLIPSE_POINT, point=[2, 0])
    code, text = run(tmp_path, "poly", problem)
    assert code == 3
    assert json.loads(text)["reason"] == "point-on-surface"
    code, text = run(tmp_path, "distance", problem)
    assert code == 0 and json.loads(text)["d"]["value"] == "0"


@pytest.mark.parametrize("a", [[[1, 0], [0, 2]], [[1, 0], [0, 1]]], ids=["ellipse", "circle"])
def test_poly_of_identical_surfaces_is_classified(tmp_path, a):
    problem = _pair(a, [0, 0], a, [0, 0])
    code, text = run(tmp_path, "poly", problem)
    assert code == 3
    assert json.loads(text)["reason"] == "identical-surfaces"
    code, text = run(tmp_path, "distance", problem)
    assert code == 0 and json.loads(text)["certificate"] == {"identical": True}


def test_poly_of_a_parameter_free_family_is_classified(tmp_path):
    # the golden family-constant data: every member is the unit circle, so
    # there is no iterated F; distance answers from the member at t = 0
    problem = {
        "kind": "family-point",
        "family": {"a": [[1, 0], [0, 1]], "b": [0, 0], "interval": [0, 1]},
        "point": [3, 0],
    }
    code, text = run(tmp_path, "poly", problem)
    assert code == 3
    assert json.loads(text)["reason"] == "no-iterated-discriminant"
    code, text = run(tmp_path, "distance", problem)
    assert code == 0 and json.loads(text)["d"]["value"] == "2"


def test_sphere_family_exit_3(tmp_path):
    # a radius-2 sphere moving along the x-axis, against (0, 5, 0): the
    # distance surface vanishes identically, and no member holds the point
    problem = {
        "kind": "family-point",
        "family": {"a": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [[0, -1], 0, 0],
                   "c": [-4, 0, 1]},
        "point": [0, 5, 0],
    }
    for command in ("distance", "poly"):
        code, text = run(tmp_path, command, problem)
        assert code == 3
        assert json.loads(text)["reason"] == "identically-zero-discriminant"
    code, text = run(tmp_path, "intersect", problem)
    assert code == 0 and json.loads(text)["intersecting"] is False


def test_poly_of_sphere_pair_is_the_distance_f(tmp_path):
    problem = {
        "kind": "quadric-quadric",
        "quadric": {"a": [[1, 0], [0, 1]], "b": [0, 0]},
        "quadric2": {"a": [[1, 0], [0, 1]], "b": [-4, 0], "c": 15},
    }
    code, poly_text = run(tmp_path, "poly", problem)
    assert code == 0
    f = json.loads(poly_text)["F"]
    code, dist_text = run(tmp_path, "distance", problem)
    assert code == 0
    rep = json.loads(dist_text)
    assert f == rep["F"]
    assert f["degree"] == 4
    assert [z["value"] for z in rep["positive_zeros"]] == ["4", "16", "36"]


def _pair(a1, b1, a2, b2, c2=-1, kind="quadric-quadric"):
    return {
        "kind": kind,
        "quadric": {"a": a1, "b": b1},
        "quadric2": {"a": a2, "b": b2, "c": c2},
    }


@pytest.mark.parametrize("problem", [
    AXIS_PROBLEM,
    ELLIPSE_POINT,
    _pair([[10, -6], [-6, 8]], [0, 0], [[1, "1/2"], ["1/2", 1]], [0, 0],
          kind="centered-quadric-quadric"),
    _pair([[1, 0], [0, 1]], [0, 0], [["1/9", 0], [0, "1/9"]], [0, 0]),
    _pair([[1, 0], [0, 1]], [0, 0], [[1, 0], [0, 1]], [-4, 0], 15),
    dict(ELLIPSE_POINT, quadric={"a": [[1, 0], [0, -1]], "b": [0, 0]}),
    {
        "kind": "variety-quadric",
        "quadric": {"a": [[-1, 0], [0, -1]], "b": [0, 0]},
        "variety": {"columns": [[1, 0]], "offset": [3]},
    },
    _pair([[1, 0], [0, 2]], [0, 0], [["1/9", 0], [0, "1/16"]], [0, 0]),
    # the golden general-extraneous-square pair: F drops a square factor
    _pair([[3, 1], [1, 2]], [0, 0], [[5, -1], [-1, 4]], [-42, -22], 595),
    _circle_family([-4, -3]),
    _circle_family(),
], ids=["axis", "ellipse-point", "centred", "concentric-spheres", "sphere-pair",
        "hyperbola-point", "empty-variety", "concentric-ellipses", "extraneous-square",
        "circle-family", "circle-family-through-point"])
def test_commands_agree(tmp_path, problem):
    # distance, intersect and poly validate, certify and build F alike
    results = {}
    for command in ("distance", "intersect", "poly"):
        code, text = run(tmp_path, command, problem)
        results[command] = code, json.loads(text)
    codes = {code for code, _ in results.values()}
    reasons = {out.get("reason") for _, out in results.values()}
    assert len(codes) == 1 and len(reasons) == 1
    distance, intersect, poly = (out for _, out in results.values())
    if "reason" in distance:
        return
    assert intersect["intersecting"] == distance["intersecting"]
    assert intersect["certificate"] == distance["certificate"]
    if "F" in distance:
        assert poly["F"] == distance["F"]


CIRCLE_ELLIPSE = {
    "kind": "quadric-quadric",
    "quadric": {"a": [[4, 0], [0, 4]], "b": [1, 2], "c": -14},
    "quadric2": {"a": [[5, 0], [0, 4]], "b": [4, 7], "c": -38},
}


def test_zero_multiplier_fails_its_candidate_only(tmp_path):
    # at every positive zero of this pair's F the recovered multiplier mu1
    # is 0; each candidate fails with a reason code, and the solve goes on
    code, text = run(tmp_path, "distance", CIRCLE_ELLIPSE)
    assert code == 0
    rep = json.loads(text)
    assert rep["d"]["decimal"].startswith("0.237515077")
    assert rep["warnings"][:4] == [
        f"recovery at zero ~{z} failed: singular-multiplier-system"
        for z in ("0.0564134121", "9.17025057", "17.1614655", "48.0715779")
    ]


def _symmetric_sweep():
    path = Path(__file__).resolve().parent.parent / "scripts" / "symmetric_sweep.py"
    spec = importlib.util.spec_from_file_location("symmetric_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_symmetric_inputs_end_in_a_report_or_a_named_degeneracy():
    # circles, spheres, axes of revolution, centres, congruent pairs and
    # moving circles and spheres, which no benchmark workload draws: none may
    # end in an internal error
    sweep = _symmetric_sweep()
    outcomes = collections.Counter(
        (shape, sweep.outcome(problem)) for shape, problem in sweep.problems(seed=1, count=10)
    )
    assert sum(outcomes.values()) == 80
    assert not [key for key in outcomes if "internal-error" in key[1]]
    # a moving sphere's distance surface vanishes identically
    assert {result for shape, result in outcomes if shape == "moving-sphere"} <= {
        "intersecting", "exit-3 identically-zero-discriminant"
    }
    assert {result for shape, result in outcomes if shape == "moving-circle"} <= {
        "intersecting", "ok"
    }
    # the shapes that now solve with validated nearest points
    assert outcomes["point-sphere", "ok"] == 10
    assert outcomes["point-spheroid-axis", "ok"] >= 9
