import json

import pytest

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
    ],
    ids=[
        "options-list", "interval-one-endpoint", "ragged-columns", "zero-denominator",
        "bits-float", "bits-string", "bits-bool", "exact-string", "exact-int",
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
    assert rep["certificate"]["branch"] == "endpoint-a"
    assert rep["d"]["decimal"].startswith("6.0710678118654752440")
    (pair,) = rep["nearest_pairs"]
    assert pair["y"] == ["5", "5"]
    assert [x[:10] for x in pair["x_decimal"]] == ["0.70710678"] * 2


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
