"""Workload definitions and output checks of the lightcone benchmark.

A workload is a fixed list of ``lightcone`` CLI commands; one operation
runs every command of the list once, in order.  The seed only picks the
torus parameter ``t`` from ``T_VALUES``, a list of rationals on which
every check below passes; seed 0 gives ``t = 2``.  ``t = 5/2`` is left
out: there ``transform --surface torus --param t=2.5 --chain L,R,L``
exits 1, its final Willmore residual (2.6e-6) being above the 1e-6 gate.

Why these two:

* ``verify-transform`` builds adapted frames 28 times: five times the
  same frame in ``verify`` (jets at K = 8 on 64 points), then 23 times
  in nested transform charts, which re-evaluate their base chart at
  escalating order (up to K = 16) on tiny batches, so per-call overhead
  of the jets dominates.  Frame reuse shows here, and it is the only
  workload that runs ``dsl``, ``transforms`` and the residuals of
  ``analysis``.
* ``energy-torus`` runs a large batch (16,384 + 4,096 points) at low
  order and builds no frame: a jets layout change shows here, a
  frame-reuse change must not.

The sizes keep each command to one or two seconds on a 2-vCPU Xeon, so
a run holds a dozen or more of each.  On a shared host the speed of the
same command drifts by up to half over minutes; only long runs, and so
few workloads, keep the run-to-run spread of the medians within the
bounds.

This module imports only the standard library, so the set-up probe can
load it before it starts its clock.
"""

import json
import math

T_VALUES = ((2, 1), (3, 1), (4, 1), (3, 2))

# r3 catenoid, a minimal and so Willmore chart written in the DSL
CATENOID_DSL = "r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]\n"

# gates every report of a subcommand must carry
REQUIRED_GATES = {
    "verify": ("structure", "integrability", "willmore", "gauss_metric",
               "theta"),
    "transform": ("willmore_final",),
    "energy": ("energy",),
}
MAX_ROUND_TRIP_DISTANCE = 1e-12
MAX_ENERGY_REL_ERR = 1e-8

DEFAULT_GRID = 16  # the CLI's default grid, used where a command sets none


class Command:
    """One CLI invocation: the chart it builds and the options it passes.

    ``dsl`` holds program text; the worker writes it to a file and
    passes the path, as a CLI user would.
    """

    def __init__(self, subcommand, surface=None, params=None, dsl=None,
                 grid=None, order=None, chain=None):
        self.subcommand = subcommand
        self.surface = surface
        self.params = dict(params or {})
        self.dsl = dsl
        self.grid = grid
        self.order = order
        self.chain = chain

    def argv(self, dsl_path=None):
        args = [self.subcommand]
        if self.surface is not None:
            args += ["--surface", self.surface]
        for name, value in sorted(self.params.items()):
            args += ["--param", "%s=%r" % (name, value)]
        if self.dsl is not None:
            args += ["--dsl", str(dsl_path)]
        if self.grid is not None:
            args += ["--grid", "%dx%d" % self.grid]
        if self.order is not None:
            args += ["--order", str(self.order)]
        if self.chain is not None:
            args += ["--chain", self.chain]
        return args

    @property
    def points(self):
        """Sampled grid points per run of this command."""
        nu, nv = self.grid or (DEFAULT_GRID, DEFAULT_GRID)
        if self.subcommand == "energy":
            # willmore_energy adds one half-resolution pass
            return nu * nv + math.ceil(nu / 2) * math.ceil(nv / 2)
        return nu * nv

    @property
    def round_trip(self):
        """True when the chain should land back on the base surface."""
        return self.chain in ("L,R", "R,L")


def torus_t(seed):
    p, q = T_VALUES[seed % len(T_VALUES)]
    return p / q


def build(name, seed, small=False):
    """Commands of one workload operation.  ``small`` shrinks the sizes
    for the smoke check; the benchmark itself always runs full size."""
    torus = {"t": torus_t(seed)}
    if name == "verify-transform":
        return [Command("verify", "torus", torus, grid=(8, 8),
                        order=6 if small else 8),
                Command("transform", "torus", torus, grid=(4, 4),
                        chain="L,R" if small else "L,R,L"),
                Command("transform", dsl=CATENOID_DSL, grid=(8, 8),
                        chain="L,R")]
    if name == "energy-torus":
        grid = (32, 32) if small else (128, 128)
        return [Command("energy", "torus", torus, grid=grid, order=3)]
    raise KeyError(name)


WORKLOADS = ("verify-transform", "energy-torus")


def check_report(command, status, text):
    """Problems with one command's result, as a list of messages."""
    if status != 0:
        return ["exit status %r" % (status,)]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc]
    problems = []
    if report.get("passed") is not True:
        problems.append("report does not say passed")
    gates = report.get("gates") or {}
    for gate in REQUIRED_GATES[command.subcommand]:
        if gate not in gates:
            problems.append("gate %s is missing" % gate)
    for gate, entry in sorted(gates.items()):
        value, tol = entry.get("value"), entry.get("tol")
        if not (entry.get("passed") is True and isinstance(value, float)
                and isinstance(tol, float) and value <= tol):
            problems.append("gate %s: %r above %r" % (gate, value, tol))
    if command.subcommand == "transform" and command.round_trip:
        dist = report.get("base_distance")
        if not (isinstance(dist, float)
                and dist <= MAX_ROUND_TRIP_DISTANCE):
            problems.append("round trip base_distance %r" % (dist,))
    if command.subcommand == "energy":
        rel = (report.get("reference") or {}).get("rel_err")
        if not (isinstance(rel, float) and rel <= MAX_ENERGY_REL_ERR):
            problems.append("energy reference rel_err %r" % (rel,))
    return problems
