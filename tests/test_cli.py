import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from lightcone import frames, transforms
from lightcone.cli import INVARIANT_COLUMNS, MESH_COLUMNS, main

SCHEMA = json.loads(resources.files("lightcone")
                    .joinpath("report_schema.json").read_text("utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

T = 2.0
TAU = np.sqrt(T * T - 1.0)

CYLINDER_SRC = "r3 [cos(v), sin(v), u]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    bundle = json.loads(out)
    VALIDATOR.validate(bundle)
    return code, bundle


def run_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    VALIDATOR.validate(payload)
    return payload


def parse_csv(text):
    # reports are CRLF-terminated throughout, including the last row
    assert text.endswith("\r\n")
    assert "\n" not in text.replace("\r\n", "")
    lines = text.split("\r\n")[:-1]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


def test_catalog_list(capsys):
    code, bundle = run_json(capsys, "catalog-list")
    assert code == 0
    names = [entry["name"] for entry in bundle["catalog"]]
    assert names == ["catenoid", "enneper", "laguerre_lift",
                     "maximal_catenoid", "torus"]
    assert names == sorted(names)


def test_invariants_csv_torus(capsys):
    code, out, err = run(capsys, "invariants", "--surface", "torus",
                         "--param", "t=2", "--grid", "4x4")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == INVARIANT_COLUMNS
    assert len(rows) == 16
    for cell in column(header, rows, "re_s"):
        assert abs(float(cell) - 1.0 / 6.0) < 1e-12
    for cell in column(header, rows, "im_s"):
        assert abs(float(cell)) < 1e-12
    assert set(column(header, rows, "classification")) == {"generic"}


def test_invariants_umbilic_plane(capsys, tmp_path):
    path = tmp_path / "plane.lc"
    path.write_text("r3 [u, v, 0]")
    code, out, err = run(capsys, "invariants", "--dsl", str(path),
                         "--grid", "4x4")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert set(column(header, rows, "classification")) == {"umbilic"}


def test_verify_torus_passes(capsys):
    code, bundle = run_json(capsys, "verify", "--surface", "torus",
                            "--param", "t=2", "--grid", "8x8")
    assert code == 0
    assert bundle["passed"]
    assert set(bundle["gates"]) == {"structure", "integrability", "willmore",
                                    "gauss_metric", "theta"}
    assert all(g["passed"] for g in bundle["gates"].values())
    # the S-Willmore deviation is informational: reported, never gated
    assert "s_willmore" not in bundle["gates"]
    dev = bundle["reports"]["s_willmore"]["max_abs"]
    assert dev == pytest.approx(T * T / (8.0 * TAU**3), abs=1e-10)
    assert bundle["reports"]["theta"] is not None
    assert bundle["skipped"] == {}
    assert bundle["surface"]["params"] == {"t": 2.0}
    assert all(r["grid"]["nu"] == 8 for r in bundle["reports"].values())


def test_verify_cylinder_fails_willmore_gate(capsys, tmp_path):
    path = tmp_path / "cylinder.lc"
    path.write_text(CYLINDER_SRC)
    code, bundle = run_json(capsys, "verify", "--dsl", str(path),
                            "--grid", "8x8")
    assert code == 1
    assert not bundle["passed"]
    failed = [k for k, g in bundle["gates"].items() if not g["passed"]]
    assert failed == ["willmore"]
    assert 1e-6 < bundle["gates"]["willmore"]["value"] < 1.0
    assert bundle["reports"]["theta"] is None
    assert "theta" not in bundle["gates"]
    assert bundle["skipped"]["theta"]


def test_verify_tol_overrides_open_gates(capsys, tmp_path):
    path = tmp_path / "cylinder.lc"
    path.write_text(CYLINDER_SRC)
    code, bundle = run_json(capsys, "verify", "--dsl", str(path),
                            "--grid", "8x8", "--tol", "willmore=1.0",
                            "--tol", "theta=1e6")
    assert code == 0
    assert bundle["passed"]
    assert bundle["skipped"] == {}
    assert bundle["reports"]["theta"] is not None
    assert bundle["gates"]["willmore"]["tol"] == 1.0


def test_transform_round_trip_torus(capsys):
    code, bundle = run_json(capsys, "transform", "--surface", "torus",
                            "--param", "t=2", "--chain", "L,R",
                            "--grid", "8x8")
    assert code == 0
    assert bundle["chain"] == ["polar_left", "polar_right"]
    assert bundle["final"]["name"] == "torus+L+R"
    assert bundle["final"]["order_cost"] == 6
    assert bundle["base_distance"] < 1e-8
    assert bundle["gates"]["willmore_final"]["passed"]
    dev = bundle["duality"]["swillmore_dev"]
    assert dev == pytest.approx(T * T / (8.0 * TAU**3), abs=1e-10)


def test_transform_off_willmore_skips_duality(capsys, tmp_path):
    path = tmp_path / "cylinder.lc"
    path.write_text(CYLINDER_SRC)
    code, bundle = run_json(capsys, "transform", "--dsl", str(path),
                            "--chain", "L", "--grid", "8x8")
    # no Willmore base, so nothing is gated; the residuals still report
    assert code == 0
    assert bundle["duality"] is None
    assert bundle["gates"] == {}
    assert bundle["skipped"]["duality"]
    assert bundle["chain"] == ["polar_left"]
    assert bundle["willmore_final"]["max_abs"] > 1e-6


def test_energy_torus_reference(capsys):
    code, bundle = run_json(capsys, "energy", "--surface", "torus",
                            "--param", "t=2")
    assert code == 0
    ref = bundle["reference"]
    assert (ref["p"], ref["q"]) == (2, 1)
    assert ref["value"] == pytest.approx(4.0 * np.pi**2 / np.sqrt(3.0))
    assert ref["rel_err"] < 1e-10
    assert bundle["gates"]["energy"]["passed"]
    assert bundle["energy"]["value"] == pytest.approx(ref["value"])


def test_energy_abs_integrand_folds_sign(capsys):
    code, plain = run_json(capsys, "energy", "--surface", "maximal_catenoid",
                           "--order", "3")
    assert code == 0
    assert plain["reference"] is None and plain["gates"] == {}
    code, folded = run_json(capsys, "energy", "--surface",
                            "maximal_catenoid", "--order", "3",
                            "--abs-integrand")
    assert code == 0
    assert plain["energy"]["value"] < 0 < folded["energy"]["value"]
    assert folded["energy"]["value"] == pytest.approx(
        -plain["energy"]["value"], rel=1e-12)
    assert folded["abs_integrand"] and not plain["abs_integrand"]


def test_mesh_catenoid(capsys):
    code, out, err = run(capsys, "mesh", "--surface", "catenoid",
                         "--grid", "4x4")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == MESH_COLUMNS
    assert len(rows) == 16
    assert set(column(header, rows, "inf")) == {"0"}
    for cell in column(header, rows, "x4"):
        assert float(cell) == pytest.approx(1.0)


def test_mesh_flags_points_at_infinity(capsys, tmp_path):
    # a lift with equal first and last components leaves the affine
    # chart everywhere, so every row is flagged and carries no x cells
    path = tmp_path / "horizon.lc"
    path.write_text("raw6 [1, cos(u), sin(u), 0, 1, 1]")
    out_path = tmp_path / "mesh.csv"
    code, out, err = run(capsys, "mesh", "--dsl", str(path), "--grid", "4x4",
                         "--out", str(out_path))
    assert code == 0 and out == "" and err == ""
    header, rows = parse_csv(out_path.read_bytes().decode("utf-8"))
    assert set(column(header, rows, "inf")) == {"1"}
    assert set(column(header, rows, "x1")) == {""}
    meta = json.loads((tmp_path / "mesh.csv.meta.json").read_text())
    assert meta["flagged_points"] == 16
    assert meta["command"] == "mesh"


def test_out_reports_are_byte_identical(capsys, tmp_path):
    argv = ("verify", "--surface", "torus", "--param", "t=2",
            "--grid", "4x4")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, *argv, "--out", str(first))[0] == 0
    assert run(capsys, *argv, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert "written_at" not in text
    VALIDATOR.validate(json.loads(text))
    sidecar = json.loads((tmp_path / "a.json.meta.json").read_text())
    assert sidecar["command"] == "verify"
    assert "written_at" in sidecar


def test_config_file_merges_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "torus", "param": {"t": 2.0},
                               "grid": "4x4"}))
    code, out, _ = run(capsys, "invariants", "--config", str(cfg))
    assert code == 0
    assert len(parse_csv(out)[1]) == 16
    code, out, _ = run(capsys, "invariants", "--config", str(cfg),
                       "--grid", "8x8")
    assert code == 0
    assert len(parse_csv(out)[1]) == 64


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "torus", "gird": "4x4"}))
    payload = run_error(capsys, "invariants", "--config", str(cfg))
    assert payload["error"] == "UnknownIdentifier"
    assert payload["context"]["keys"] == ["gird"]


def test_point_tolerances_thread_and_restore(capsys):
    saved = (frames.UMBILIC_TOL, frames.GAUGE_TOL)
    code, out, _ = run(capsys, "invariants", "--surface", "torus",
                       "--param", "t=2", "--grid", "4x4",
                       "--tol", "umbilic=10.0")
    assert code == 0
    header, rows = parse_csv(out)
    assert set(column(header, rows, "classification")) == {"umbilic"}
    assert (frames.UMBILIC_TOL, frames.GAUGE_TOL) == saved


def test_unknown_surface_is_machine_readable(capsys):
    payload = run_error(capsys, "invariants", "--surface", "moebius")
    assert payload["error"] == "UnknownIdentifier"


def test_dsl_parse_error_carries_position(capsys, tmp_path):
    path = tmp_path / "bad.lc"
    path.write_text("r3 [cos(u), @, u]")
    payload = run_error(capsys, "invariants", "--dsl", str(path))
    assert payload["error"] == "ParseError"
    assert payload["context"] == {"line": 1, "col": 13}


def test_usage_gates(capsys):
    assert run_error(capsys, "invariants",
                     "--grid", "4x4")["error"] == "ParameterOutOfRange"
    assert run_error(capsys, "invariants", "--surface", "torus",
                     "--grid", "3x3")["error"] == "ParameterOutOfRange"
    assert run_error(capsys, "verify", "--surface", "torus",
                     "--order", "4")["error"] == "ParameterOutOfRange"
    assert run_error(capsys, "invariants", "--surface", "torus",
                     "--tol", "bogus=1")["error"] == "UnknownIdentifier"
    assert run_error(capsys, "frobnicate")["error"] == "UsageError"
    for tol in ("willmore=-1", "umbilic=nan", "structure=inf"):
        assert run_error(capsys, "verify", "--surface", "torus",
                         "--tol", tol)["error"] == "ParameterOutOfRange"


def _reject_constant(name):
    raise ValueError("non-strict JSON constant " + name)


def test_overflowing_chart_errors_as_strict_json(capsys, tmp_path):
    path = tmp_path / "overflow.lc"
    path.write_text("r3 [exp(800*u)*cos(v), exp(800*u)*sin(v), u]")
    code, out, err = run(capsys, "verify", "--dsl", str(path),
                         "--grid", "4x4")
    assert code == 2 and out == ""
    # exactly one document: no numpy warnings ahead of it, no NaN in it
    payload = json.loads(err, parse_constant=_reject_constant)
    VALIDATOR.validate(payload)
    assert payload["error"] == "NonFinite"


@pytest.mark.parametrize("argv,builds", [
    (("verify", "--surface", "torus"), 1),
    (("transform", "--surface", "catenoid", "--chain", "L,R"), 7),
    (("transform", "--surface", "torus", "--grid", "4x4",
      "--chain", "L,R,L"), 11),
])
def test_each_chart_sample_builds_one_frame(capsys, monkeypatch, argv,
                                            builds):
    # verify frames its chart once; transform frames each probe, each
    # step of the final chart, the final chart and the duality sample
    calls = []
    original = frames.frame_field

    def counted(Y):
        calls.append(Y.order)
        return original(Y)

    for module in (frames, transforms):
        monkeypatch.setattr(module, "frame_field", counted)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert len(calls) == builds
