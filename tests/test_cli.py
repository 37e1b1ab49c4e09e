import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from lightcone import analysis as an
from lightcone import charts, errors, frames, transforms
from lightcone.ambient import projective_distance
from lightcone.charts import CATALOG, catalog_chart, sample_grid
from lightcone.cli import (INVARIANT_COLUMNS, MESH_COLUMNS, ORDER_CAP,
                           ORDER_FLOOR, main)
from lightcone.dsl import chart_from_source
from lightcone.frames import classify_point, frame_and_invariants

SCHEMA = json.loads(resources.files("lightcone")
                    .joinpath("report_schema.json").read_text("utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

T = 2.0
TAU = np.sqrt(T * T - 1.0)

CYLINDER_SRC = "r3 [cos(v), sin(v), u]"
CATENOID_SRC = "r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]"


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


def test_transform_probe_reads_willmore_tol(capsys, tmp_path):
    # the adjoint probe gates its base with the --tol value, as verify
    # does, not with the default
    path = tmp_path / "cyl.lc"
    path.write_text(CYLINDER_SRC)
    argv = ("transform", "--dsl", str(path), "--grid", "4x4",
            "--chain", "adjL")
    payload = run_error(capsys, *argv, "--tol", "willmore=0.01")
    assert payload["error"] == "NotWillmore"
    assert payload["context"]["gate"] == 0.01
    code, bundle = run_json(capsys, *argv, "--tol", "willmore=1e9")
    assert code == 0
    assert bundle["chain"] == ["adjoint_left"]


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


def test_transform_chain_on_torus_five_halves(capsys):
    # the benchmark's 4x4 grid, then the default 16x16 grid, whose
    # points come within 0.02 of where e_3 pairs to zero
    for grid, gate in ((("--grid", "4x4"), 1e-12), ((), 1e-9)):
        code, bundle = run_json(capsys, "transform", "--surface", "torus",
                                "--param", "t=2.5", *grid,
                                "--chain", "L,R,L")
        assert code == 0
        assert bundle["passed"]
        assert bundle["gates"]["willmore_final"]["value"] < gate


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


def test_transform_off_an_umbilic_side_skips_only_duality(capsys):
    # laguerre_lift is Willmore, but its left side is umbilic everywhere:
    # the chain builds, its duality sample cannot, and the final gate holds
    code, bundle = run_json(capsys, "transform", "--surface",
                            "laguerre_lift", "--chain", "R", "--grid", "4x4")
    assert code == 0
    assert bundle["duality"] is None
    assert "degenerates" in bundle["skipped"]["duality"]
    assert bundle["chain"] == ["polar_right"]
    assert bundle["gates"]["willmore_final"]["passed"]
    assert bundle["passed"] is True


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
            "--grid", "4x4", "--order", "8")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, *argv, "--out", str(first))[0] == 0
    assert run(capsys, *argv, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert "written_at" not in text
    VALIDATOR.validate(json.loads(text))
    # --order is echoed; the sidecar names the order actually evaluated
    assert json.loads(text)["surface"]["order"] == 8
    sidecar = json.loads((tmp_path / "a.json.meta.json").read_text())
    assert sidecar["command"] == "verify"
    assert sidecar["evaluated_order"] == an.WILLMORE_ORDER == 5
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
    argv = ("invariants", "--surface", "torus", "--param", "t=2",
            "--grid", "4x4")
    code, out, _ = run(capsys, *argv, "--tol", "umbilic=10.0")
    assert code == 0
    header, rows = parse_csv(out)
    assert set(column(header, rows, "classification")) == {"umbilic"}
    # nothing of the first run leaks into the next one
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, rows = parse_csv(out)
    assert set(column(header, rows, "classification")) == {"generic"}


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


@pytest.mark.parametrize("argv,error", [
    (("transform", "--surface", "torus", "--chain", ","),
     "ParameterOutOfRange"),
    (("transform", "--surface", "torus", "--chain", " "),
     "ParameterOutOfRange"),
    (("verify", "--surface", "torus", "--param", "s=2"), "UnknownIdentifier"),
    (("verify", "--surface", "catenoid", "--param", "t=2"),
     "UnknownIdentifier"),
    (("verify", "--surface", "torus", "--param", "t=inf"),
     "ParameterOutOfRange"),
    (("verify", "--surface", "moebius"), "UnknownIdentifier"),
    (("verify", "--surface", "torus", "--grid", "4by4"),
     "ParameterOutOfRange"),
    (("verify", "--surface", "torus", "--tol", "willmore=abc"),
     "ParameterOutOfRange"),
    (("verify", "--surface", "torus", "--grid"), "UsageError"),
])
def test_every_cli_error_names_a_package_error(capsys, argv, error):
    payload = run_error(capsys, *argv)
    assert payload["error"] == error
    if error != "UsageError":
        cls = getattr(errors, error)
        assert isinstance(cls, type) and issubclass(cls,
                                                    errors.LightconeError)


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


def test_imaginary_chart_is_not_spacelike(capsys, tmp_path):
    # sqrt(u - 2) is imaginary on the whole domain: the lift turns
    # complex rather than NaN, and its metric is negative
    path = tmp_path / "imaginary.lc"
    path.write_text("r3 [sqrt(u-2)*cos(v), sqrt(u-2)*sin(v), u]")
    payload = run_error(capsys, "verify", "--dsl", str(path),
                        "--grid", "4x4")
    assert payload["error"] == "NotSpacelike"
    assert payload["context"]["worst"] == pytest.approx(
        -0.9128544814738153, abs=1e-12)


@pytest.mark.parametrize("argv,builds", [
    (("verify", "--surface", "torus"), 1),
    (("transform", "--surface", "catenoid", "--chain", "L,R"), 5),
    (("transform", "--surface", "torus", "--grid", "4x4",
      "--chain", "L,R,L"), 7),
])
def test_each_chart_sample_builds_one_frame(capsys, monkeypatch, argv,
                                            builds):
    # verify frames its chart once; transform frames each prefix chart
    # once in its probe walk, each step once in its walk on the grid,
    # whose base frame also feeds the duality report, and the final
    # chart once
    calls = []
    original = frames.frame_field

    def counted(Y, **kw):
        calls.append(Y.order)
        return original(Y, **kw)

    for module in (frames, transforms):
        monkeypatch.setattr(module, "frame_field", counted)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert len(calls) == builds


def test_verify_lifts_at_the_order_its_reports_read(capsys, monkeypatch):
    orders = []
    original = charts.SurfaceChart.lift_at

    def spy(self, u, v, order=charts.DEFAULT_ORDER):
        orders.append(order)
        return original(self, u, v, order=order)

    monkeypatch.setattr(charts.SurfaceChart, "lift_at", spy)
    code, bundle = run_json(capsys, "verify", "--surface", "torus",
                            "--grid", "4x4", "--order", "8")
    assert code == 0
    assert bundle["surface"]["order"] == 8
    assert orders == [an.WILLMORE_ORDER]


# the CLI form of test_gate_orders_are_the_least_that_work: every
# command evaluates at its ORDER_FLOOR whatever --order asks, and a
# truncated jet's low coefficients do not depend on its order, so each
# report equals, float for float, the library pipeline at ORDER_CAP

CAP_CHARTS = sorted(CATALOG) + ["dsl_catenoid"]


def chart_and_flags(name, tmp_path):
    if name == "dsl_catenoid":
        path = tmp_path / "catenoid.lc"
        path.write_text(CATENOID_SRC)
        return chart_from_source(CATENOID_SRC), ("--dsl", str(path))
    return catalog_chart(name), ("--surface", name)


def run_at_cap(capsys, tmp_path, *argv):
    """Report text of a command asked for ORDER_CAP, after checking that
    it echoes that order and records its floor as evaluated."""
    path = tmp_path / "report.out"
    code, out, err = run(capsys, *argv, "--order", str(ORDER_CAP),
                         "--out", str(path))
    assert code in (0, 1) and out == "" and err == ""
    sidecar = json.loads((tmp_path / "report.out.meta.json").read_text())
    assert sidecar["evaluated_order"] == ORDER_FLOOR[argv[0]]
    text = path.read_bytes().decode("utf-8")
    if argv[0] != "invariants":
        assert json.loads(text)["surface"]["order"] == ORDER_CAP
    return text


def without_grid(report):
    return {k: v for k, v in report.items() if k != "grid"}


@pytest.mark.parametrize("name", CAP_CHARTS)
def test_reports_at_the_floor_equal_the_library_at_the_cap(capsys, tmp_path,
                                                           name):
    chart, flags = chart_and_flags(name, tmp_path)
    U, V = sample_grid(chart, 6, 6)
    frame, inv = frame_and_invariants(chart.lift_at(U, V, order=ORDER_CAP))

    reports = json.loads(run_at_cap(capsys, tmp_path, "verify", *flags,
                                    "--grid", "6x6"))["reports"]
    expected = {"structure": an.structure_residual(frame, inv),
                "integrability": an.integrability_residual(frame, inv),
                "willmore": an.willmore_report(inv),
                "s_willmore": an.swillmore_report(inv),
                "gauss_metric": an.gauss_metric_report(frame),
                "theta": an.theta_report(inv)}
    assert set(reports) == set(expected)
    for key, report in expected.items():
        assert without_grid(reports[key]) == without_grid(report.as_dict())

    header, rows = parse_csv(run_at_cap(capsys, tmp_path, "invariants",
                                        *flags, "--grid", "6x6"))
    cells = {"u": U, "v": V,
             "beta": np.real(inv.beta.value),
             "kappa_pair": np.real(inv.kappa_pair.value),
             "re_theta": inv.theta.value.real,
             "im_theta": inv.theta.value.imag}
    for field in ("lambda1", "lambda2", "s", "alpha", "gamma1", "gamma2"):
        value = getattr(inv, field).value
        cells["re_" + field] = value.real
        cells["im_" + field] = value.imag
    assert set(header) == set(cells) | {"classification"}
    for key, value in cells.items():
        assert column(header, rows, key) == [repr(float(x))
                                             for x in value.ravel()], key
    assert column(header, rows, "classification") == list(
        classify_point(inv).ravel())

    energy = json.loads(run_at_cap(capsys, tmp_path, "energy", *flags,
                                   "--grid", "8x8"))["energy"]
    assert energy == an.willmore_energy(chart, nu=8, nv=8,
                                        order=ORDER_CAP).as_dict()


# laguerre_lift's left side is umbilic everywhere: its duality sample is
# refused whatever the order, so no transform report reaches an order
@pytest.mark.parametrize("chain", ["L,R", "L,R,L"])
@pytest.mark.parametrize("name", [n for n in CAP_CHARTS
                                  if n != "laguerre_lift"])
def test_transform_at_the_floor_equals_the_library_at_the_cap(
        capsys, monkeypatch, tmp_path, name, chain):
    chart, flags = chart_and_flags(name, tmp_path)
    bundle = json.loads(run_at_cap(capsys, tmp_path, "transform", *flags,
                                   "--grid", "4x4", "--chain", chain))

    U, V = sample_grid(chart, 4, 4)
    raw = transforms.apply_chain(chart, chain).lift_at(U, V, order=ORDER_CAP)
    _, inv = frame_and_invariants(raw)
    base = np.real(chart.lift_at(U, V, order=0).value)
    # duality_report lifts at WILLMORE_ORDER; raise that to the cap
    monkeypatch.setattr(transforms, "WILLMORE_ORDER", ORDER_CAP)
    duality = transforms.duality_report(chart, grid=(4, 4))

    assert without_grid(bundle["willmore_final"]) == without_grid(
        an.willmore_report(inv).as_dict())
    assert bundle["base_distance"] == float(np.max(projective_distance(
        np.real(raw.value), base)))
    assert bundle["duality"] == duality.as_dict()
