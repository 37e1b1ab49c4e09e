"""Command line front end.

Subcommands map one-to-one onto the library layers: invariant dumps
and affine-chart meshes as CSV, verification, transform and energy
bundles as JSON.  Identical configurations produce byte-identical
reports: grids evaluate vectorized in one pass, reductions run in a
fixed order, and timestamps only ever go into the sidecar file written
next to --out, never into a report.  Errors leave as machine-readable
JSON on standard error with exit status 2; a report whose gates fail
is still written, with exit status 1.
"""

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (WILLMORE_ORDER, gauss_metric_report,
                       homogeneous_torus_energy, integrability_residual,
                       structure_residual, swillmore_report, theta_report,
                       willmore_energy, willmore_report)
from .ambient import projective_distance
from .charts import CATALOG, catalog_chart, sample_grid
from .dsl import chart_from_source
from .errors import (LightconeError, NotWillmore, ParameterOutOfRange,
                     UnknownIdentifier)
from .frames import (INVARIANTS_ORDER, Tolerances, classify_point,
                     frame_and_invariants)
from .transforms import apply_chain, duality_report

DEFAULT_GRID = (16, 16)
DEFAULT_ORDER = 6
MESH_INFINITY = 1e-12

# jet order each command actually consumes
ORDER_FLOOR = {"invariants": INVARIANTS_ORDER, "verify": WILLMORE_ORDER,
               "transform": WILLMORE_ORDER, "energy": 3, "mesh": 0,
               "catalog-list": 0}
ORDER_CAP = 12

CONFIG_KEYS = ("surface", "dsl", "param", "grid", "order", "tol", "chain",
               "abs_integrand", "out")

INVARIANT_COLUMNS = (
    ["u", "v"]
    + ["%s_%s" % (pre, name)
       for name in ("lambda1", "lambda2", "s", "alpha", "gamma1", "gamma2")
       for pre in ("re", "im")]
    + ["beta", "kappa_pair", "re_theta", "im_theta", "classification"])

MESH_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "inf"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints usage text on error; the CLI contract wants JSON
    def error(self, message):
        raise _UsageError(message)


class RunConfig:
    """Resolved options of one command; flags win over the config file."""

    __slots__ = ("command", "surface", "dsl", "params", "nu", "nv", "order",
                 "tols", "chain", "abs_integrand", "out")

    def __init__(self, command, surface, dsl, params, nu, nv, order, tols,
                 chain, abs_integrand, out):
        if nu < 4 or nv < 4:
            raise ParameterOutOfRange("grid must be at least 4x4",
                                      nu=int(nu), nv=int(nv))
        floor = ORDER_FLOOR[command]
        if not floor <= order <= ORDER_CAP:
            raise ParameterOutOfRange(
                "jet order outside the ledger for this command",
                order=int(order), floor=floor, cap=ORDER_CAP)
        self.command = command
        self.surface = surface
        self.dsl = dsl
        self.params = params
        self.nu = int(nu)
        self.nv = int(nv)
        self.order = int(order)
        self.tols = tols
        self.chain = chain
        self.abs_integrand = bool(abs_integrand)
        self.out = out

    @classmethod
    def from_args(cls, args):
        file_cfg = {}
        if args.config is not None:
            file_cfg = json.loads(Path(args.config).read_text("utf-8"))
            if not isinstance(file_cfg, dict):
                raise ParameterOutOfRange(
                    "config file must hold a JSON object", path=args.config)
            unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
            if unknown:
                raise UnknownIdentifier("unknown config keys", keys=unknown,
                                        available=sorted(CONFIG_KEYS))

        def pick(flag, key, default=None):
            if flag is not None:
                return flag
            value = file_cfg.get(key)
            return default if value is None else value

        params = {str(k): _number(v, "param")
                  for k, v in (file_cfg.get("param") or {}).items()}
        params.update(_parse_bindings(args.param, "param"))
        tols = {str(k): _number(v, "tol")
                for k, v in (file_cfg.get("tol") or {}).items()}
        tols.update(_parse_bindings(args.tol, "tol"))
        bad = sorted(set(tols) - set(Tolerances._fields))
        if bad:
            raise UnknownIdentifier("unknown tolerance names", names=bad,
                                    available=sorted(Tolerances._fields))
        for name, value in sorted(tols.items()):
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterOutOfRange(
                    "tolerance must be finite and not negative",
                    tol="%s=%r" % (name, value))

        nu, nv = _parse_grid(pick(args.grid, "grid", "%dx%d" % DEFAULT_GRID))
        return cls(
            command=args.command,
            surface=pick(args.surface, "surface"),
            dsl=pick(args.dsl, "dsl"),
            params=params,
            nu=nu, nv=nv,
            order=int(pick(args.order, "order", DEFAULT_ORDER)),
            tols=Tolerances(**tols),
            chain=pick(args.chain, "chain"),
            abs_integrand=pick(args.abs_integrand, "abs_integrand", False),
            out=pick(args.out, "out"),
        )


def _number(value, label):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterOutOfRange("value is not a number",
                                  **{label: str(value)})


def _parse_bindings(pairs, label):
    out = {}
    for item in pairs or []:
        name, sep, val = str(item).partition("=")
        if not sep or not name.strip():
            raise ParameterOutOfRange("binding must look like NAME=VALUE",
                                      **{label: str(item)})
        out[name.strip()] = _number(val, label)
    return out


def _parse_grid(text):
    if isinstance(text, (list, tuple)) and len(text) == 2:
        return int(text[0]), int(text[1])
    parts = str(text).lower().split("x")
    try:
        nu, nv = (int(p) for p in parts)
    except ValueError:
        raise ParameterOutOfRange("grid must look like NUxNV",
                                  grid=str(text))
    return nu, nv


def _build_chart(cfg):
    if (cfg.surface is None) == (cfg.dsl is None):
        raise ParameterOutOfRange(
            "exactly one of --surface and --dsl selects the chart",
            surface=cfg.surface, dsl=cfg.dsl)
    if cfg.dsl is not None:
        path = Path(cfg.dsl)
        return chart_from_source(path.read_text("utf-8"), params=cfg.params,
                                 name=path.stem)
    return catalog_chart(cfg.surface, **cfg.params)


def _surface_block(chart, cfg):
    block = {
        "name": chart.name,
        "params": {k: float(v) for k, v in sorted(chart.params.items())},
        "domain": [[float(a), float(b)] for a, b in chart.domain],
        "periodic": [bool(p) for p in chart.periodic],
        "grid": {"nu": cfg.nu, "nv": cfg.nv},
        "order": cfg.order,
    }
    if chart.meta.get("steps"):
        block["steps"] = list(chart.meta["steps"])
    return block


def _grid_spec(chart, U):
    nu, nv = (U.shape + (1, 1))[:2]
    return {"nu": int(nu), "nv": int(nv),
            "domain": [list(map(float, chart.domain[0])),
                       list(map(float, chart.domain[1]))]}


def _stamped(report, grid):
    report.grid = grid
    return report.as_dict()


def _gate(value, tol):
    return {"value": float(value), "tol": float(tol),
            "passed": bool(value <= tol)}


def _emit(cfg, text, meta_extra=None):
    if cfg.out is None:
        sys.stdout.write(text)
        return
    path = Path(cfg.out)
    path.write_text(text, encoding="utf-8", newline="")
    meta = {"written_at": datetime.now(timezone.utc).isoformat(),
            "command": cfg.command}
    meta.update(meta_extra or {})
    Path(str(path) + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _emit_json(cfg, bundle, meta_extra=None):
    _emit(cfg, json.dumps(bundle, sort_keys=True, indent=2,
                          allow_nan=False) + "\n", meta_extra)


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _num(x):
    return repr(float(x))


# commands


def cmd_invariants(cfg):
    chart = _build_chart(cfg)
    U, V = sample_grid(chart, cfg.nu, cfg.nv)
    _, inv = frame_and_invariants(chart.lift_at(U, V, order=cfg.order),
                                  cfg.tols)
    labels = classify_point(inv)
    fields = [inv.lambda1.value, inv.lambda2.value, inv.s.value,
              inv.alpha.value, inv.gamma1.value, inv.gamma2.value]
    beta = np.real(inv.beta.value)
    kappa = np.real(inv.kappa_pair.value)
    theta = inv.theta.value
    rows = []
    for idx in np.ndindex(U.shape):
        row = [_num(U[idx]), _num(V[idx])]
        for f in fields:
            row += [_num(f[idx].real), _num(f[idx].imag)]
        row += [_num(beta[idx]), _num(kappa[idx]),
                _num(theta[idx].real), _num(theta[idx].imag),
                str(labels[idx])]
        rows.append(row)
    _emit(cfg, _csv_text(INVARIANT_COLUMNS, rows))
    return 0


def cmd_verify(cfg):
    chart = _build_chart(cfg)
    U, V = sample_grid(chart, cfg.nu, cfg.nv)
    frame, inv = frame_and_invariants(chart.lift_at(U, V, order=cfg.order),
                                      cfg.tols)
    grid = _grid_spec(chart, U)
    reports = {
        "structure": _stamped(structure_residual(frame, inv), grid),
        "integrability": _stamped(integrability_residual(frame, inv), grid),
        "willmore": _stamped(willmore_report(inv), grid),
        "s_willmore": _stamped(swillmore_report(inv), grid),
        "gauss_metric": _stamped(gauss_metric_report(frame), grid),
    }
    skipped = {}
    try:
        reports["theta"] = _stamped(theta_report(inv, cfg.tols), grid)
    except NotWillmore as exc:
        reports["theta"] = None
        skipped["theta"] = exc.message

    # the S-Willmore deviation is a classification, not an identity, so
    # it is reported but never gated
    gates = {name: _gate(reports[name]["max_abs"], getattr(cfg.tols, name))
             for name in ("structure", "integrability", "willmore",
                          "gauss_metric", "theta")
             if reports[name] is not None}
    passed = all(g["passed"] for g in gates.values())
    _emit_json(cfg, {"surface": _surface_block(chart, cfg),
                     "reports": reports, "skipped": skipped,
                     "gates": gates, "passed": passed})
    return 0 if passed else 1


def cmd_transform(cfg):
    if not cfg.chain:
        raise ParameterOutOfRange("transform needs --chain",
                                  chain=cfg.chain)
    chart = _build_chart(cfg)
    final = apply_chain(chart, cfg.chain, cfg.tols)
    U, V = sample_grid(chart, cfg.nu, cfg.nv)
    raw = final.lift_at(U, V, order=cfg.order)
    _, inv = frame_and_invariants(raw, cfg.tols)
    final_willmore = _stamped(willmore_report(inv), _grid_spec(final, U))
    base_vals = np.real(chart.lift_at(U, V, order=0).value)
    # a lift's values do not depend on its order, so the one sample
    # above also gives the projective points
    final_vals = np.real(raw.value)
    base_distance = float(np.max(projective_distance(final_vals, base_vals)))

    skipped = {}
    gates = {}
    duality = None
    try:
        duality = duality_report(chart, grid=(cfg.nu, cfg.nv),
                                 order=cfg.order, tol=cfg.tols).as_dict()
        # a chain off a Willmore chart must land on a Willmore chart
        gates["willmore_final"] = _gate(final_willmore["max_abs"],
                                        cfg.tols.willmore)
    except NotWillmore as exc:
        skipped["duality"] = exc.message

    passed = all(g["passed"] for g in gates.values())
    _emit_json(cfg, {
        "surface": _surface_block(chart, cfg),
        "chain": list(final.steps),
        "final": {"name": final.name, "order_cost": final.order_cost},
        "willmore_final": final_willmore,
        "base_distance": base_distance,
        "duality": duality, "skipped": skipped,
        "gates": gates, "passed": passed})
    return 0 if passed else 1


def cmd_energy(cfg):
    chart = _build_chart(cfg)
    result = willmore_energy(chart, nu=cfg.nu, nv=cfg.nv, order=cfg.order,
                             abs_integrand=cfg.abs_integrand)
    reference = None
    gates = {}
    if "torus_pq" in chart.meta:
        p, q = chart.meta["torus_pq"]
        ref = homogeneous_torus_energy(p, q)
        rel = abs(result.value - ref) / abs(ref)
        reference = {"p": int(p), "q": int(q), "value": float(ref),
                     "rel_err": float(rel)}
        gates["energy"] = _gate(rel, cfg.tols.energy)
    passed = all(g["passed"] for g in gates.values())
    _emit_json(cfg, {"surface": _surface_block(chart, cfg),
                     "energy": result.as_dict(),
                     "abs_integrand": cfg.abs_integrand,
                     "reference": reference,
                     "gates": gates, "passed": passed})
    return 0 if passed else 1


def cmd_mesh(cfg):
    chart = _build_chart(cfg)
    U, V = sample_grid(chart, cfg.nu, cfg.nv)
    vals = np.real(chart.lift_at(U, V, order=0).value)
    den = vals[..., 5] - vals[..., 0]
    flagged = np.abs(den) <= MESH_INFINITY
    rows = []
    for idx in np.ndindex(U.shape):
        row = [_num(U[idx]), _num(V[idx])]
        if flagged[idx]:
            row += ["", "", "", "", "1"]
        else:
            x = vals[idx][1:5] / den[idx]
            row += [_num(c) for c in x] + ["0"]
        rows.append(row)
    _emit(cfg, _csv_text(MESH_COLUMNS, rows),
          meta_extra={"flagged_points": int(np.sum(flagged))})
    return 0


def cmd_catalog_list(cfg):
    entries = []
    for name in sorted(CATALOG):
        chart = CATALOG[name]()
        entries.append({
            "name": name,
            "params": {k: float(v) for k, v in sorted(chart.params.items())},
            "domain": [[float(a), float(b)] for a, b in chart.domain],
            "periodic": [bool(p) for p in chart.periodic],
        })
    _emit_json(cfg, {"catalog": entries})
    return 0


_COMMANDS = {
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "transform": cmd_transform,
    "energy": cmd_energy,
    "mesh": cmd_mesh,
    "catalog-list": cmd_catalog_list,
}


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--surface", metavar="NAME")
    common.add_argument("--param", action="append", metavar="K=V")
    common.add_argument("--dsl", metavar="FILE")
    common.add_argument("--grid", metavar="NUxNV")
    common.add_argument("--order", type=int, metavar="K")
    common.add_argument("--tol", action="append", metavar="NAME=VAL")
    common.add_argument("--chain", metavar="TAGS")
    common.add_argument("--abs-integrand", dest="abs_integrand",
                        action="store_true", default=None)
    common.add_argument("--out", metavar="PATH")
    common.add_argument("--config", metavar="FILE")

    parser = _Parser(prog="lightcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("invariants", "per-point invariant scalars as CSV"),
            ("verify", "residual verification bundle as JSON"),
            ("transform", "apply a transform chain, report as JSON"),
            ("energy", "Willmore energy quadrature as JSON"),
            ("mesh", "affine-chart mesh as CSV"),
            ("catalog-list", "built-in charts as JSON")):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _finite_or_null(obj):
    """Copy of an error payload with NaN and infinities as None, so the
    error object stays strict JSON."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _error_json(payload):
    def fallback(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return float(obj)
        return str(obj)
    sys.stderr.write(json.dumps(_finite_or_null(payload), sort_keys=True,
                                indent=2, allow_nan=False,
                                default=fallback) + "\n")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.from_args(args)
        # non-finite values surface through the gates as errors, not
        # as warnings ahead of the one JSON document on stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[cfg.command](cfg)
    except _UsageError as exc:
        _error_json({"error": "UsageError", "message": str(exc),
                     "context": {}})
        return 2
    except LightconeError as exc:
        _error_json(exc.payload())
        return 2
    except Exception as exc:
        _error_json({"error": type(exc).__name__, "message": str(exc),
                     "context": {}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
