"""Command line front end.

Commands map one-to-one onto the library layers: invariant dumps
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
import ctypes
import functools
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (WILLMORE_ORDER, gauss_metric_report,
                       homogeneous_torus_energy, integrability_residual,
                       structure_residual, swillmore_report, theta_report,
                       willmore_energy, willmore_report)
from .ambient import projective_distance
from .charts import CATALOG, catalog_chart, sample_axes
from .dsl import chart_from_source
from .errors import (DegenerateTransform, LightconeError, NotWillmore,
                     ParameterOutOfRange, UnknownIdentifier)
from .frames import (INVARIANTS_ORDER, Tolerances, classify_point,
                     frame_and_invariants)
from .transforms import apply_chain, duality_report

DEFAULT_GRID = (16, 16)
DEFAULT_ORDER = 6
MESH_INFINITY = 1e-12

# jet order each command's reports read.  A truncated jet's low
# coefficients do not depend on where it is truncated, so every command
# evaluates at its floor: --order is only checked against
# [floor, ORDER_CAP] and echoed in the report's surface block, and the
# order evaluated goes into the sidecar as "evaluated_order".
ORDER_FLOOR = {"invariants": INVARIANTS_ORDER, "verify": WILLMORE_ORDER,
               "transform": WILLMORE_ORDER, "energy": 3, "mesh": 0,
               "catalog-list": 0}
ORDER_CAP = 12

# the JSON type each config-file key takes; null stands for an absent key
CONFIG_TYPES = {"surface": "string", "dsl": "string", "chain": "string",
                "out": "string", "param": "object", "tol": "object",
                "abs_integrand": "boolean", "order": "integer",
                "grid": "string or two integers"}

# the value an option takes when neither the flag nor the file sets it
_DEFAULTS = {"surface": None, "dsl": None, "grid": DEFAULT_GRID,
             "order": DEFAULT_ORDER, "chain": None, "abs_integrand": False,
             "out": None}

INVARIANT_COLUMNS = (
    ["u", "v"]
    + ["%s_%s" % (pre, name)
       for name in ("lambda1", "lambda2", "s", "alpha", "gamma1", "gamma2")
       for pre in ("re", "im")]
    + ["beta", "kappa_pair", "re_theta", "im_theta", "classification"])

MESH_COLUMNS = ["u", "v", "x1", "x2", "x3", "x4", "inf"]

# glibc's mallopt parameters (malloc.h) and the values the CLI sets.
# 32 MiB is the largest mmap threshold 64-bit glibc takes: arrays above
# it still come from mmap and go back to the kernel when freed.  The
# heap keeps up to 128 MiB free at its top: repeated energy commands
# still faulted their arrays in afresh with 16 MiB on 128x128 and with
# 64 MiB on 256x256, and not with 32 and 96 MiB.  128 KiB is glibc's
# starting mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20
_GLIBC_MMAP_THRESHOLD = 128 << 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints usage text on error; the CLI contract wants JSON
    def error(self, message):
        raise _UsageError(message)


def _json_type(value):
    """Name of the JSON type of a config value, a pair of integers being
    a type of its own."""
    if isinstance(value, list) and len(value) == 2 and all(
            _json_type(x) == "integer" for x in value):
        return "two integers"
    return {bool: "boolean", int: "integer", str: "string",
            dict: "object"}.get(type(value))


def _configure(args):
    """Fill the parsed namespace ``args`` in from its --config file and
    check it.  A flag wins over the file, and the --param and --tol
    bindings extend the file's.  Adds ``params``, ``tols``, ``nu`` and
    ``nv``, which the commands read with the other options."""
    file_cfg = {}
    if args.config is not None:
        text = _read_file(args.config, "config")
        try:
            file_cfg = json.loads(text)
        except ValueError as exc:
            raise ParameterOutOfRange("config file is not valid JSON",
                                      path=args.config, reason=str(exc))
        if not isinstance(file_cfg, dict):
            raise ParameterOutOfRange(
                "config file must hold a JSON object", path=args.config)
        unknown = sorted(set(file_cfg) - set(CONFIG_TYPES))
        if unknown:
            raise UnknownIdentifier("unknown config keys", keys=unknown,
                                    available=sorted(CONFIG_TYPES))
        for key, value in file_cfg.items():
            expected = CONFIG_TYPES[key]
            if value is not None and (
                    _json_type(value) not in expected.split(" or ")):
                raise ParameterOutOfRange(
                    "config value must be a JSON " + expected,
                    key=key, value=value)

    for key, default in _DEFAULTS.items():
        if getattr(args, key) is None:
            value = file_cfg.get(key)
            setattr(args, key, default if value is None else value)
    bindings = {}
    for label in ("param", "tol"):
        bindings[label] = {
            k: _json_number(v, "%s.%s" % (label, k))
            for k, v in (file_cfg.get(label) or {}).items()}
        bindings[label].update(_parse_bindings(getattr(args, label), label))
    bad = sorted(set(bindings["tol"]) - set(Tolerances._fields))
    if bad:
        raise UnknownIdentifier("unknown tolerance names", names=bad,
                                available=sorted(Tolerances._fields))
    args.params = bindings["param"]
    args.tols = Tolerances(**bindings["tol"])

    args.nu, args.nv = _parse_grid(args.grid)
    if args.nu < 4 or args.nv < 4:
        raise ParameterOutOfRange("grid must be at least 4x4",
                                  nu=args.nu, nv=args.nv)
    floor = ORDER_FLOOR[args.command]
    if not floor <= args.order <= ORDER_CAP:
        raise ParameterOutOfRange(
            "jet order outside the ledger for this command",
            order=args.order, floor=floor, cap=ORDER_CAP)
    return args


def _read_file(path, what):
    """Text of the ``what`` file at ``path``; one that cannot be read is
    a ParameterOutOfRange naming it and the reason."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        reason = str(exc)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    raise ParameterOutOfRange(what + " file cannot be read", path=path,
                              reason=reason)


def _json_number(value, key):
    """A value of the config file's param or tol object as a float: it
    must be a JSON number, not a boolean, a string or null."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParameterOutOfRange("config value must be a JSON number",
                              key=key, value=value)


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
    if isinstance(text, (list, tuple)):
        return tuple(text)
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
        return chart_from_source(_read_file(cfg.dsl, "DSL"),
                                 params=cfg.params, name=Path(cfg.dsl).stem)
    return catalog_chart(cfg.surface, **cfg.params)


def _chart_block(name, chart):
    return {
        "name": name,
        "params": {k: float(v) for k, v in sorted(chart.params.items())},
        "domain": [[float(a), float(b)] for a, b in chart.domain],
        "periodic": [bool(p) for p in chart.periodic],
    }


def _grid_spec(chart, cfg):
    return {"nu": cfg.nu, "nv": cfg.nv,
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


def _gated_report(cfg, chart, body, gates):
    """Write the JSON report of a gated command: ``body``, the chart's
    surface block, the gates and whether all of them passed, with the
    order evaluated in the sidecar.  Returns the exit status, 1 when a
    gate fails."""
    passed = all(g["passed"] for g in gates.values())
    surface = dict(_chart_block(chart.name, chart),
                   grid={"nu": cfg.nu, "nv": cfg.nv}, order=cfg.order)
    _emit_json(cfg, dict(body, surface=surface, gates=gates, passed=passed),
               meta_extra={"evaluated_order": ORDER_FLOOR[cfg.command]})
    return 0 if passed else 1


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
    order = ORDER_FLOOR[cfg.command]
    chart = _build_chart(cfg)
    u, v = sample_axes(chart, cfg.nu, cfg.nv)
    _, inv = frame_and_invariants(chart.lift_at(u, v, order=order), cfg.tols)
    labels = classify_point(inv)
    fields = [inv.lambda1.value, inv.lambda2.value, inv.s.value,
              inv.alpha.value, inv.gamma1.value, inv.gamma2.value]
    beta = np.real(inv.beta.value)
    kappa = np.real(inv.kappa_pair.value)
    theta = inv.theta.value
    U, V = np.broadcast_arrays(u, v)
    rows = []
    for idx in np.ndindex(U.shape):
        row = [_num(U[idx]), _num(V[idx])]
        for f in fields:
            row += [_num(f[idx].real), _num(f[idx].imag)]
        row += [_num(beta[idx]), _num(kappa[idx]),
                _num(theta[idx].real), _num(theta[idx].imag),
                str(labels[idx])]
        rows.append(row)
    _emit(cfg, _csv_text(INVARIANT_COLUMNS, rows),
          meta_extra={"evaluated_order": order})
    return 0


def cmd_verify(cfg):
    order = ORDER_FLOOR[cfg.command]
    chart = _build_chart(cfg)
    u, v = sample_axes(chart, cfg.nu, cfg.nv)
    frame, inv = frame_and_invariants(chart.lift_at(u, v, order=order),
                                      cfg.tols)
    grid = _grid_spec(chart, cfg)
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
    return _gated_report(cfg, chart, {"reports": reports,
                                      "skipped": skipped}, gates)


def cmd_transform(cfg):
    if not cfg.chain:
        raise ParameterOutOfRange("transform needs --chain",
                                  chain=cfg.chain)
    order = ORDER_FLOOR[cfg.command]
    chart = _build_chart(cfg)
    u, v = sample_axes(chart, cfg.nu, cfg.nv)
    # one walk of the chain on the grid gates each step and gives the
    # final lift, the base chart's values and its frame.  At this order
    # no step's input is below the order its gates read, so the gates
    # read the command's grid and no probe walk runs; they run first on
    # each step.  The duality diagnostics are taken from the base frame
    # at once: a truncated copy of it kept to the end of the walk raised
    # the peak resident memory of the benchmark's worker by about 3 MB.
    base = {}

    def walk(chain, tol, gate_order, gate_raw, gate_frame):
        def on_raw(k, raw):
            gate_raw(k, raw)
            if k == 0:
                base["values"] = np.array(np.real(raw.value))

        def on_frame(k, frame):
            gate_frame(k, frame)
            if k == 0:
                try:
                    base["duality"] = duality_report(
                        frame.truncated(WILLMORE_ORDER - 1), tol,
                        chart.name).as_dict()
                except (NotWillmore, DegenerateTransform) as exc:
                    base["duality"] = exc

        base["raw"] = chain.walk(u, v, order + chain.order_cost, on_raw,
                                 on_frame)

    final = apply_chain(chart, cfg.chain, cfg.tols, walk=walk)
    raw = base.pop("raw")
    # raises NonFinite where a coefficient of the final lift is not finite
    _, inv = frame_and_invariants(raw, cfg.tols)
    final_willmore = _stamped(willmore_report(inv), _grid_spec(final, cfg))
    # a lift's values do not depend on its order, so the walk's first
    # and last lifts give the projective points
    final_vals = np.real(raw.value)
    base_distance = float(np.max(projective_distance(final_vals,
                                                     base["values"])))

    skipped = {}
    gates = {}
    duality = base["duality"]
    # NotWillmore skips the final gate too; DegenerateTransform is raised
    # only after the base has passed its Willmore gate
    willmore_base = not isinstance(duality, NotWillmore)
    if isinstance(duality, LightconeError):
        skipped["duality"] = duality.message
        duality = None
    if willmore_base:
        # a chain off a Willmore chart must land on a Willmore chart
        gates["willmore_final"] = _gate(final_willmore["max_abs"],
                                        cfg.tols.willmore)
    return _gated_report(cfg, chart, {
        "chain": list(final.steps),
        "final": {"name": final.name, "order_cost": final.order_cost},
        "willmore_final": final_willmore,
        "base_distance": base_distance,
        "duality": duality, "skipped": skipped}, gates)


def cmd_energy(cfg):
    order = ORDER_FLOOR[cfg.command]
    chart = _build_chart(cfg)
    result = willmore_energy(chart, nu=cfg.nu, nv=cfg.nv, order=order,
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
    return _gated_report(cfg, chart, {"energy": result.as_dict(),
                                      "abs_integrand": cfg.abs_integrand,
                                      "reference": reference}, gates)


def cmd_mesh(cfg):
    chart = _build_chart(cfg)
    u, v = sample_axes(chart, cfg.nu, cfg.nv)
    vals = np.real(chart.lift_at(u, v, order=0).value)
    den = vals[..., 5] - vals[..., 0]
    flagged = np.abs(den) <= MESH_INFINITY
    U, V = np.broadcast_arrays(u, v)
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
    entries = [_chart_block(name, CATALOG[name]()) for name in sorted(CATALOG)]
    _emit_json(cfg, {"catalog": entries})
    return 0


# name: (function, the line ``lightcone --help`` gives it)
_COMMANDS = {
    "invariants": (cmd_invariants, "per-point invariant scalars as CSV"),
    "verify": (cmd_verify, "residual verification bundle as JSON"),
    "transform": (cmd_transform, "apply a transform chain, report as JSON"),
    "energy": (cmd_energy, "Willmore energy quadrature as JSON"),
    "mesh": (cmd_mesh, "affine-chart mesh as CSV"),
    "catalog-list": (cmd_catalog_list, "built-in charts as JSON"),
}


@functools.cache
def _build_parser():
    """One parser: the command and ten options, which may come before
    or after it.  Built once per process (0.37 ms a build): parsing
    leaves the parser as it was, each call fills a namespace of its own,
    and help text takes the terminal width when it is printed."""
    parser = _Parser(
        prog="lightcone", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands:\n" + "".join(
            "  %-14s%s\n" % (name, text)
            for name, (_, text) in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--surface", metavar="NAME")
    parser.add_argument("--param", action="append", metavar="K=V")
    parser.add_argument("--dsl", metavar="FILE")
    parser.add_argument("--grid", metavar="NUxNV")
    parser.add_argument("--order", type=int, metavar="K")
    parser.add_argument("--tol", action="append", metavar="NAME=VAL")
    parser.add_argument("--chain", metavar="TAGS")
    parser.add_argument("--abs-integrand", dest="abs_integrand",
                        action="store_true", default=None)
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--config", metavar="FILE")
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


@functools.cache
def _keep_freed_heap():
    """Make glibc's malloc keep the memory a command frees mapped for
    the next one; True where the policy was set.

    By default glibc trims the heap's free top and unmaps blocks above
    its mmap threshold, so a process that runs commands one after
    another faults each command's multi-MB jet arrays in afresh: energy
    on a 128x128 torus grid, run again in one process, took 7,300 minor
    faults (about 30 MB of zeroed pages) and 19-29 ms of system time in
    37-51 ms (2-core Xeon, glibc 2.36).  Runs once per process, from
    ``main`` and never at import, so a library caller's process keeps
    its own policy.  Off glibc, or where a call fails, the defaults
    stay and nothing is raised.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: a 32-bit glibc refuses 32 MiB
    if not mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        return False
    if not mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD):
        mallopt(_M_MMAP_THRESHOLD, _GLIBC_MMAP_THRESHOLD)
        return False
    return True


def main(argv=None):
    _keep_freed_heap()
    parser = _build_parser()
    try:
        cfg = _configure(parser.parse_args(argv))
        # non-finite values surface through the gates as errors, not
        # as warnings ahead of the one JSON document on stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[cfg.command][0](cfg)
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
