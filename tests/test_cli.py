import itertools
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from lightcone import analysis as an
from lightcone import charts, errors, frames, transforms
from lightcone.ambient import projective_distance
from lightcone.charts import CATALOG, catalog_chart, sample_grid
from lightcone.cli import (_COMMANDS, INVARIANT_COLUMNS, MESH_COLUMNS,
                           ORDER_CAP, ORDER_FLOOR, main)
from lightcone.dsl import chart_from_source
from lightcone.frames import classify_point, frame_and_invariants

from helpers import sample_frame

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


def test_transform_chain_on_enneper_passes_the_default_gate(capsys):
    # the lift's values reach about 3e3 on this chart, so the chain
    # passes only where the frame loses nothing to large coordinates
    code, bundle = run_json(capsys, "transform", "--surface", "enneper",
                            "--grid", "8x8", "--chain", "L,R,L")
    assert code == 0
    gate = bundle["gates"]["willmore_final"]
    assert gate["tol"] == frames.Tolerances().willmore
    assert gate["value"] <= gate["tol"]
    assert gate["passed"]


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


@pytest.mark.parametrize("key,value", [
    ("abs_integrand", "false"),
    ("abs_integrand", 1),
    ("order", 8.9),
    ("order", "x"),
    ("order", "8"),
    ("order", True),
    ("grid", [4.7, 5.2]),
    ("grid", [4, "a"]),
    ("grid", [True, 4]),
    ("grid", [4, 4, 4]),
    ("grid", 16),
    ("param", ["t", 2]),
    ("tol", "willmore=1"),
    ("dsl", 5),
    ("surface", ["torus"]),
    ("chain", 1),
    ("out", False),
    ("tol", {"willmore": True}),
    ("tol", {"energy": "1e-3"}),
    ("param", {"t": "2"}),
    ("param", {"t": None}),
    ("param", {"t": [2]}),
    ("param", {"t": 10 ** 400}),
])
def test_config_values_are_typed(capsys, tmp_path, key, value):
    # the type is checked before any value is used: none of these runs,
    # and none leaves as anything but a package error naming the key
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "torus", key: value}))
    payload = run_error(capsys, "energy", "--config", str(cfg))
    assert payload["error"] == "ParameterOutOfRange"
    if isinstance(value, dict):
        # a value inside the param or tol object is named by its path
        (name, value), = value.items()
        key = "%s.%s" % (key, name)
    assert payload["context"] == {"key": key, "value": value}


@pytest.mark.parametrize("argv, text, message", [
    (("energy", "--config"), None, "config file cannot be read"),
    (("verify", "--dsl"), None, "DSL file cannot be read"),
    (("energy", "--config"), '{"surface": "torus", "grid": [8',
     "config file is not valid JSON"),
])
def test_unreadable_files_are_package_errors(capsys, tmp_path, argv, text,
                                             message):
    # a missing file, and a config file cut short, leave as one strict
    # JSON error naming the file
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    payload = json.loads(err, parse_constant=_reject_constant)
    VALIDATOR.validate(payload)
    assert payload["error"] == "ParameterOutOfRange"
    assert payload["message"] == message
    assert set(payload["context"]) == {"path", "reason"}
    assert payload["context"]["path"] == str(path)


def test_config_takes_typed_values(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "maximal_catenoid",
                               "grid": [8, 8], "order": 3,
                               "abs_integrand": True, "param": {},
                               "tol": {"energy": 1e-3}, "chain": None}))
    code, bundle = run_json(capsys, "energy", "--config", str(cfg))
    assert code == 0
    assert bundle["surface"]["grid"] == {"nu": 8, "nv": 8}
    assert bundle["surface"]["order"] == 3
    assert bundle["abs_integrand"] is True
    assert bundle["energy"]["value"] > 0


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


@pytest.mark.parametrize("source,binding,error,context", [
    # a binding the program never reads is refused before any work,
    # finite or not, as a catalog chart refuses one
    (CATENOID_SRC, "a=2", "UnknownIdentifier",
     {"names": ["a"], "available": []}),
    (CATENOID_SRC, "a=nan", "UnknownIdentifier",
     {"names": ["a"], "available": []}),
    ("r3 [cosh(u)*cos(v), cosh(u)*sin(v), a*u]", "a=nan",
     "ParameterOutOfRange", {"names": ["a"]}),
    ("r3 [cosh(u)*cos(v), cosh(u)*sin(v), a*u]", "a=-inf",
     "ParameterOutOfRange", {"names": ["a"]}),
])
def test_dsl_params_are_checked(capsys, tmp_path, source, binding, error,
                                context):
    path = tmp_path / "chart.lc"
    path.write_text(source)
    payload = run_error(capsys, "verify", "--dsl", str(path),
                        "--param", binding, "--grid", "4x4")
    assert payload["error"] == error
    assert payload["context"] == context


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


@pytest.mark.parametrize("argv", [
    ("verify", "--surface", "torus", "--param", "t=2", "--grid", "4x4"),
    ("invariants", "--surface", "torus", "--grid", "4x4",
     "--tol", "umbilic=10.0"),
    ("transform", "--surface", "catenoid", "--grid", "4x4", "--chain", "L"),
    ("energy", "--surface", "maximal_catenoid", "--grid", "8x8",
     "--order", "3", "--abs-integrand"),
    ("verify", "--surface", "torus", "--grid", "3x3"),
])
def test_options_may_come_before_the_command(capsys, argv):
    # one parser: the command is a positional among the options
    after = run(capsys, *argv)
    before = run(capsys, *argv[1:], argv[0])
    assert before == after
    assert before[0] in (0, 2)


CHOICES = ", ".join(repr(name) for name in _COMMANDS)


# each message is what the parser wrote when every command was a
# subparser of its own, as long as the command comes first
@pytest.mark.parametrize("argv,message", [
    (("frobnicate",),
     "argument command: invalid choice: 'frobnicate' (choose from %s)"
     % CHOICES),
    ((), "the following arguments are required: command"),
    (("verify", "--grid"), "argument --grid: expected one argument"),
    (("--bogus", "1"),
     "argument command: invalid choice: '1' (choose from %s)" % CHOICES),
    (("verify", "--order", "x"), "argument --order: invalid int value: 'x'"),
    (("verify", "--surface", "torus", "--bogus", "1"),
     "unrecognized arguments: --bogus 1"),
    # an option before the command takes its value now, where the
    # subparsers read the value as the command
    (("--order", "x"), "argument --order: invalid int value: 'x'"),
])
def test_usage_errors_are_pinned(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ('{\n  "context": {},\n  "error": "UsageError",\n'
                   '  "message": "%s"\n}\n' % message)


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    lines = out.split("commands:\n", 1)[1].splitlines()
    assert [line.split(None, 1) for line in lines] == [
        [name, text] for name, (_, text) in _COMMANDS.items()]


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
    (("transform", "--surface", "catenoid", "--chain", "L,R"), 3),
    (("transform", "--surface", "torus", "--grid", "4x4",
      "--chain", "L,R,L"), 4),
])
def test_each_chart_sample_builds_one_frame(capsys, monkeypatch, argv,
                                            builds):
    # verify frames its chart once; transform frames each step once in
    # its one walk on the grid, whose frames also feed the step gates
    # and, for the base, the duality report, and the final chart once
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


def test_transform_walk_carries_every_gate_order():
    # the CLI walks a chain at ORDER_FLOOR + order_cost, and the gates
    # need the root lift at _gates' order: so no step's input is ever
    # below the order its gate reads
    tags = ("L", "R", "adjL", "adjR", "env")
    torus = catalog_chart("torus")
    for n in (1, 2, 3):
        for chain in itertools.product(tags, repeat=n):
            out = transforms.TransformedSurface(torus, chain)
            order, _, _ = transforms._gates(out, 0, frames.Tolerances())
            assert order <= ORDER_FLOOR["transform"] + out.order_cost


def test_transform_lifts_nothing_on_the_probe_axes(capsys, monkeypatch):
    # the CLI gates its chain in the walk on its own grid; the library
    # still gates apply_chain in a walk on the probe grid
    shapes = []
    original = charts.SurfaceChart.evaluate

    def spy(self, U, V):
        shapes.append((U.batch_shape, V.batch_shape))
        return original(self, U, V)

    monkeypatch.setattr(charts.SurfaceChart, "evaluate", spy)
    code, _ = run_json(capsys, "transform", "--surface", "torus",
                       "--grid", "4x4", "--chain", "L,R,L")
    assert code == 0
    assert shapes == [((4, 1), (1, 4))]
    shapes.clear()
    transforms.apply_chain(catalog_chart("torus"), "L,R,L")
    grid = transforms.PROBE_GRID
    assert shapes == [((grid, 1), (1, grid))]


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
        capsys, tmp_path, name, chain):
    chart, flags = chart_and_flags(name, tmp_path)
    bundle = json.loads(run_at_cap(capsys, tmp_path, "transform", *flags,
                                   "--grid", "4x4", "--chain", chain))

    U, V = sample_grid(chart, 4, 4)
    raw = transforms.apply_chain(chart, chain).lift_at(U, V, order=ORDER_CAP)
    _, inv = frame_and_invariants(raw)
    base = np.real(chart.lift_at(U, V, order=0).value)
    duality = transforms.duality_report(
        sample_frame(chart, 4, 4, order=ORDER_CAP), frames.Tolerances(),
        chart.name)

    assert without_grid(bundle["willmore_final"]) == without_grid(
        an.willmore_report(inv).as_dict())
    assert bundle["base_distance"] == float(np.max(projective_distance(
        np.real(raw.value), base)))
    assert bundle["duality"] == duality.as_dict()


def run_python(*args):
    """Exit status, stdout and stderr of ``python *args`` with the
    package's sources on the path."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src)] + [p for p in [
        os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_module(*argv):
    """Exit status, stdout and stderr of ``python -m lightcone``."""
    return run_python("-m", "lightcone", *argv)


# the command line on a process whose affinity set holds the given
# number of cores
ON_CORES = """
import os, sys
cores = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(cores))
from lightcone.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("source, error", [
    ("r3 [u, v, exp(exp(exp(exp(4*u))))]", "NonFinite"),
    ("r31 [u, v, (u+1)^3/4]", "NotSpacelike")])
def test_energy_split_errors_as_one_strict_json(tmp_path, source, error):
    # the chart fails in its upper rows only, which worker threads lift;
    # no warning of theirs may reach stderr ahead of the document.  The
    # coarse pass, 128x128, runs first and is large enough to make a
    # block per core of 3
    path = tmp_path / "upper_rows.lc"
    path.write_text(source)
    argv = ("energy", "--dsl", str(path), "--grid", "256x256")
    payloads = []
    for cores in (1, 3):
        code, out, err = run_python("-c", ON_CORES, str(cores), *argv)
        assert (code, out) == (2, "")
        payloads.append(json.loads(err, parse_constant=_reject_constant))
    VALIDATOR.validate(payloads[0])
    assert payloads[0]["error"] == error
    assert payloads[1] == payloads[0]


def test_module_entry_point():
    code, out, err = run_module("catalog-list")
    assert (code, err) == (0, "")
    VALIDATOR.validate(json.loads(out))
    # a usage error is one JSON document on stderr and nothing else
    code, out, err = run_module("frobnicate")
    assert (code, out) == (2, "")
    payload = json.loads(err, parse_constant=_reject_constant)
    VALIDATOR.validate(payload)
    assert payload["error"] == "UsageError"
