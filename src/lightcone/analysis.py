"""Residual checks, energies and verification bundles.

The structure and integrability checks are exact identities of the jet
construction, so their residuals sit at rounding level for any honest
chart; they guard the pipeline, not the surface.  The Willmore residual
and the holomorphy of the invariant forms measure actual geometry.

Every check is a pointwise worker on one adapted frame and its
invariants, the pair that ``frames.frame_and_invariants`` builds from a
chart's raw lift.  A caller samples a chart once and runs as many
workers as it likes on that pair; none of them samples again.  Reports
leave here without a grid spec; the CLI stamps its own.
"""

import contextvars
import os
import threading

import numpy as np

from .ambient import SIGNS, gram_matrix
from .charts import grid_axis
from .errors import (DegenerateTransform, DomainError, IntegrandSingular,
                     LightconeError, NotSWillmore, NotWillmore)
from .frames import (INVARIANTS_ORDER, Tolerances, adjoint_vector,
                     conformal_gauss_data, pair_density, side_field,
                     willmore_operators)

SINGULAR_INTEGRAND = 1e6
SWILLMORE_GATE = 1e-6


class ResidualReport:
    """Max/mean absolute residuals of a named identity over a grid."""

    __slots__ = ("identity", "grid", "max_abs", "mean_abs",
                 "degenerate_fraction", "lines")

    def __init__(self, identity, max_abs, mean_abs,
                 degenerate_fraction=0.0, grid=None, lines=None):
        self.identity = identity
        self.max_abs = float(max_abs)
        self.mean_abs = float(mean_abs)
        self.degenerate_fraction = float(degenerate_fraction)
        self.grid = grid
        self.lines = dict(lines or {})

    def as_dict(self):
        return {"identity": self.identity, "grid": self.grid,
                "max_abs": self.max_abs, "mean_abs": self.mean_abs,
                "degenerate_fraction": self.degenerate_fraction}

    def __repr__(self):
        return "ResidualReport({!r}, max_abs={:.3e})".format(
            self.identity, self.max_abs)


def _stats(stack, exclude=None):
    """Pooled (max, mean) of absolute residuals; `exclude` masks points."""
    pooled = []
    for a in stack:
        a = np.abs(np.asarray(a))
        if exclude is not None:
            a = a[~exclude]
        pooled.append(a.ravel())
    alls = np.concatenate(pooled)
    if alls.size == 0:
        raise DegenerateTransform("every grid point is degenerate")
    return float(np.max(alls)), float(np.mean(alls))


# structure and integrability identities


def structure_residual(frame, inv):
    """Residual values of the five frame derivative equations."""
    Y, Yz, Yzb = frame.Y, frame.Yz, frame.Yzb
    N, L, R = frame.N, frame.L, frame.R

    r1 = Yz.z() + Y * (inv.s * 0.5) - L * inv.lambda1 - R * inv.lambda2
    r2 = Yz.zbar() - Y * inv.beta - N * 0.5
    r3 = (N.z() - Yz * (inv.beta * 2.0) + Yzb * inv.s
          - L * (inv.gamma1 * 2.0) - R * (inv.gamma2 * 2.0))
    r4 = (L.z() - L * inv.alpha + Y * (inv.gamma2 * 2.0)
          - Yzb * (inv.lambda2 * 2.0))
    r5 = (R.z() + R * inv.alpha + Y * (inv.gamma1 * 2.0)
          - Yzb * (inv.lambda1 * 2.0))

    parts = {"second_derivative": r1, "mixed_derivative": r2,
             "gauss_direction": r3, "left_null": r4, "right_null": r5}
    mx, mn = _stats([p.value for p in parts.values()])
    lines = {k: float(np.max(np.abs(p.value))) for k, p in parts.items()}
    return ResidualReport("structure", mx, mn, lines=lines)


def integrability_residual(frame, inv):
    """Residual values of the compatibility equations."""
    w1, w2 = willmore_operators(inv)
    gauss = (inv.s.zbar() + inv.beta.z() * 2.0
             + inv.lambda1 * inv.gamma2.conj() * 4.0
             + inv.lambda2 * inv.gamma1.conj() * 4.0)
    ricci = (inv.alpha.zbar() - inv.alpha.conj().z()
             + inv.lambda2 * inv.lambda1.conj() * 2.0
             - inv.lambda2.conj() * inv.lambda1 * 2.0)
    pair = inv.kappa_pair + inv.beta
    parts = {"gauss": gauss, "codazzi_left": w1.imag,
             "codazzi_right": w2.imag, "ricci": ricci,
             "pair_consistency": pair}
    mx, mn = _stats([p.value for p in parts.values()])
    lines = {k: float(np.max(np.abs(p.value))) for k, p in parts.items()}
    return ResidualReport("integrability", mx, mn, lines=lines)


# Willmore condition and the S-condition


def residual_scale(inv):
    """Pointwise scale (|lambda| + |gamma| + |s| + 1) that makes the
    Willmore and sigma residual tolerances parameter-free."""
    return (np.abs(inv.lambda1.value) + np.abs(inv.lambda2.value)
            + np.abs(inv.gamma1.value) + np.abs(inv.gamma2.value)
            + np.abs(inv.s.value) + 1.0)


#: raw lift order ``willmore_report`` needs: it reads gamma.zbar(), one
#: derivative beyond ``frames.INVARIANTS_ORDER``
WILLMORE_ORDER = INVARIANTS_ORDER + 1


def willmore_report(inv):
    """Scale-normalized residual of the Willmore condition, both null
    directions pooled."""
    w1, w2 = willmore_operators(inv)
    scale = residual_scale(inv)
    a1 = np.abs(w1.value) / scale
    a2 = np.abs(w2.value) / scale
    mx, mn = _stats([a1, a2])
    return ResidualReport("willmore", mx, mn, lines={
        "left": float(np.max(a1)), "right": float(np.max(a2))})


def swillmore_report(inv):
    """Sup of |lambda1 gamma2 - lambda2 gamma1|, the S-Willmore gap."""
    both = inv.umbilic_left & inv.umbilic_right
    mx, mn = _stats([inv.swillmore_disc.value])
    return ResidualReport("swillmore", mx, mn,
                          degenerate_fraction=np.mean(both),
                          lines={"deviation": mx})


def require_willmore(inv, gate, message, **context):
    """Raise NotWillmore, carrying ``context``, the residual and the
    gate, when the Willmore residual of ``inv`` is above ``gate``."""
    worst = willmore_report(inv).max_abs
    if worst > gate:
        raise NotWillmore(message, **context, residual=worst, gate=gate)


def theta_report(inv, tol=Tolerances()):
    """Relative antiholomorphy of the quartic form; only meaningful on
    Willmore charts, hence gated by ``tol.willmore``."""
    require_willmore(inv, tol.willmore, "Willmore residual exceeds the gate")
    absolute = np.abs(inv.theta.zbar().value)
    relative = absolute / (np.abs(inv.theta.value) + 1e-12)
    both = inv.umbilic_left & inv.umbilic_right
    mx, mn = _stats([relative])
    return ResidualReport("theta_holomorphy", mx, mn,
                          degenerate_fraction=np.mean(both),
                          lines={"relative": mx,
                                 "absolute": float(np.max(absolute))})


def adjoint_side(inv):
    """Which mu direction is usable: the side with fewer umbilic points
    over the batch, and left when the counts are equal.  Counts, not the
    sizes of the lambdas, decide: those scale as 1/c and c under a gauge
    change, so comparing them would settle ties by rounding."""
    left = np.count_nonzero(inv.umbilic_left)
    right = np.count_nonzero(inv.umbilic_right)
    return "left" if left <= right else "right"


# conformal Gauss map metric data


def gauss_metric_report(frame):
    data = conformal_gauss_data(frame)
    unit = np.abs(data["gram_GG"] - 1.0)
    metric = np.abs(data["quarter_dG2"] - data["kappa_pair"])
    mx, mn = _stats([unit, metric])
    return ResidualReport("conformal_gauss", mx, mn, lines={
        "gram_GG": float(np.max(unit)),
        "quarter_dG2": float(np.max(metric))})


# quadrature


class EnergyResult:
    """Quadrature value plus one coarse refinement for error control."""

    __slots__ = ("value", "estimate", "refinements", "meta")

    def __init__(self, value, estimate, refinements, meta=None):
        self.value = float(value)
        self.estimate = float(estimate)
        self.refinements = list(refinements)
        self.meta = dict(meta or {})

    def as_dict(self):
        return {"value": self.value, "estimate": self.estimate,
                "refinements": self.refinements}


def _axis_quadrature(lo, hi, n, periodic):
    """Nodes and weights on one domain direction; periodic nodes are the
    ``grid_axis`` sample points, as the coarse pass's reuse needs."""
    if periodic:
        return grid_axis(lo, hi, n, True), np.full(n, (hi - lo) / n)
    t, w = np.polynomial.legendre.leggauss(n)
    x = lo + (hi - lo) * (t + 1.0) / 2.0
    return x, w * (hi - lo) / 2.0


# Least grid points a block of rows holds.  A block pays about 0.8 ms
# of interpreter work that holds the GIL, whatever its size (a 2-row,
# 256-point block of the 128-wide torus pass: 0.77-0.88 ms on one core
# of a 2-core Xeon, against 8-10 ms for 64 rows; BENCH_27.json), so
# small blocks lose to one thread: two blocks lost up to 64x64 grids,
# tied near 80x80 and won from 96x96 on (4,608 points a block;
# BENCH_23.json)
MIN_BLOCK_POINTS = 4096


def _cores():
    """Cores the process can run on at once, read at each call: its
    affinity set, capped by its cgroup's CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return cores if limit is None else max(1, min(cores, limit))


def _cgroup_cpu_limit(proc="/proc/self"):
    """ceil(quota / period) of the tightest CPU quota on the process's
    cgroup and its ancestors, from cgroup v2 ``cpu.max`` or v1
    ``cpu.cfs_quota_us`` and ``cpu.cfs_period_us``; None where no quota
    is set ("max", or -1) or none can be read.  ``proc`` is the process's
    /proc directory, whose ``cgroup`` and ``mountinfo`` locate the files.
    """
    try:
        groups = [line.split(":", 2) for line in
                  _read_text(os.path.join(proc, "cgroup")).splitlines()]
        mounts = [line.split() for line in
                  _read_text(os.path.join(proc, "mountinfo")).splitlines()]
    except OSError:
        return None
    limits = []
    for fields in mounts:
        # mount root and mount point, then after "-" the type and the
        # superblock options, which name a v1 hierarchy's controllers
        tail = fields[fields.index("-") + 1:]
        v2 = tail[0] == "cgroup2"
        if not v2 and (tail[0] != "cgroup" or
                       "cpu" not in tail[2].split(",")):
            continue
        for hierarchy, controllers, path in groups:
            if (hierarchy == "0") != v2 or (
                    not v2 and "cpu" not in controllers.split(",")):
                continue
            rel = os.path.relpath(path, fields[3])
            if rel.startswith(".."):
                continue
            parts = [] if rel == "." else rel.split("/")
            for depth in range(len(parts) + 1):
                limit = _quota_cores(os.path.join(fields[4], *parts[:depth]),
                                     v2)
                if limit is not None:
                    limits.append(limit)
    return min(limits, default=None)


def _quota_cores(directory, v2):
    """ceil(quota / period) of the cgroup in ``directory``, or None."""
    try:
        if v2:
            quota, period = _read_text(
                os.path.join(directory, "cpu.max")).split()
        else:
            quota, period = (_read_text(os.path.join(directory, name))
                             for name in ("cpu.cfs_quota_us",
                                          "cpu.cfs_period_us"))
        quota, period = int(quota), int(period)
    except (OSError, ValueError):
        # "max" (v2) is no quota, as is a file that is missing or cannot
        # be parsed
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def _read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _split_rows(rows, x, width):
    """rows(x)[0], formed in one block of the nodes x per core and the
    blocks' results concatenated.

    ``rows`` maps nodes to (values, dtype), the values one row of
    ``width`` points per node.  No block holds fewer than
    ``MIN_BLOCK_POINTS`` points, so a grid of fewer than twice that
    many runs whole on this thread.
    The first block runs on this thread and the others on threads of
    their own, each block in a copy of this thread's context, so numpy's
    error state (a context variable) holds in all of them.  A block's
    rows must have the bits they have in the whole, which the jet
    kernels promise of every lane.  Whatever a block raises reaches the
    caller.  Where a block raises a ``LightconeError``, or its dtype
    differs from another's (a fractional power turns complex only in a
    block with a negative base), the whole of x runs again on this
    thread: the error's context then describes all of x, and every lane
    takes the dtype it takes there.  With one core nothing is split and
    no thread starts.
    """
    most = min(len(x), len(x) * width // MIN_BLOCK_POINTS)
    # the cores are counted only where more than one block may run, as
    # reading the CPU quota takes about 0.1 ms
    blocks = np.array_split(x, min(_cores(), most) if most > 1 else 1)
    if len(blocks) == 1:
        return rows(x)[0]
    results = [None] * len(blocks)
    errors = [None] * len(blocks)

    def run(i):
        try:
            results[i] = rows(blocks[i])
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, i))
               for i in range(1, len(blocks))]
    try:
        for thread in threads:
            thread.start()
        contextvars.copy_context().run(run, 0)
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    for exc in errors:
        if exc is not None and not isinstance(exc, LightconeError):
            raise exc
    if (any(exc is not None for exc in errors)
            or len({dtype for _, dtype in results}) > 1):
        return rows(x)[0]
    return np.concatenate([values for values, _ in results])


def _check_real_lift(coef):
    """Raise DomainError where the lift (coefficient-first, components
    last) takes a complex value at a grid point: its density would be
    complex there, and the energy is the integral of a real one."""
    if not np.iscomplexobj(coef):
        return
    points = np.any(coef.imag != 0, axis=(0, 1, -1))
    count = int(np.count_nonzero(points))
    if count:
        raise DomainError("the lift is complex at grid points",
                          count=count, points=int(points.size))


def willmore_energy(chart, nu=64, nv=64, order=3, abs_integrand=False):
    """Willmore energy of a chart over its domain.

    Periodic directions use the uniform trapezoid rule (spectral for
    closed charts), open ones Gauss-Legendre.  The chart is lifted on
    the quadrature axes, a column of u nodes against a row of v nodes,
    so a function of one coordinate is composed once per node of its
    axis.  One half-resolution pass supplies the convergence estimate.
    On a periodic axis of even size its nodes are the even nodes of the
    fine rule, so on periodic-by-periodic charts with even ``nu`` and
    ``nv`` it reuses the fine pass's density and lifts nothing more;
    Gauss-Legendre axes and odd grids lift it on its own nodes.

    Each pass splits its u nodes into one block of rows per core of the
    process's affinity set and lifts the blocks on threads at once
    (``_split_rows``), each block of at least ``MIN_BLOCK_POINTS`` grid
    points, so grids of fewer than 8,192 points run on one thread.  A
    lane's bits do not depend on the batch around it, so the result is
    bit-identical to that of one thread; a process held to one core
    (``taskset -c 0``) splits nothing.

    A lift that is complex at some grid point, such as a fractional
    power of a negative number, raises DomainError with the count of
    those points and of all points of the pass, before any quadrature.
    """
    (u0, u1), (v0, v1) = chart.domain
    coarse_nu = max(2, int(np.ceil(nu / 2)))
    coarse_nv = max(2, int(np.ceil(nv / 2)))

    xu, wu = _axis_quadrature(u0, u1, nu, chart.periodic[0])
    xv, wv = _axis_quadrature(v0, v1, nv, chart.periodic[1])
    cxu, cwu = _axis_quadrature(u0, u1, coarse_nu, chart.periodic[0])
    cxv, cwv = _axis_quadrature(v0, v1, coarse_nv, chart.periodic[1])

    def density(x, y):
        def rows(xb):
            raw = chart.lift_at(xb[:, None], y[None, :], order=order)
            f = pair_density(raw)
            _check_real_lift(raw.coef)
            return f, raw.coef.dtype

        f = _split_rows(rows, x, len(y))
        worst = float(np.max(np.abs(f)))
        if worst > SINGULAR_INTEGRAND:
            raise IntegrandSingular("energy density blows up on the grid",
                                    worst=worst)
        return np.abs(f) if abs_integrand else f

    # an even size halves to every other node; a size of 2 keeps all
    # of them, as the coarse rule is then the fine one
    if all(chart.periodic) and nu % coarse_nu == 0 and nv % coarse_nv == 0:
        f = density(xu, xv)
        # laid out as a pass of its own would be, so einsum sums it in
        # the same order
        f_coarse = np.ascontiguousarray(
            f[::nu // coarse_nu, ::nv // coarse_nv])
    else:
        f_coarse = density(cxu, cxv)
        f = density(xu, xv)
    coarse = float(np.einsum("i,j,ij->", cwu, cwv, f_coarse))
    fine = float(np.einsum("i,j,ij->", wu, wv, f))
    refinements = [
        {"nu": coarse_nu, "nv": coarse_nv, "value": coarse},
        {"nu": nu, "nv": nv, "value": fine},
    ]
    meta = {}
    if "torus_pq" in chart.meta:
        meta["torus_pq"] = list(chart.meta["torus_pq"])
    return EnergyResult(fine, abs(fine - coarse), refinements, meta)


def homogeneous_torus_energy(p, q):
    """Closed-form Willmore energy of the rational member p/q of the
    homogeneous torus family."""
    return p * p * np.pi ** 2 / np.sqrt(float(p * p - q * q))


# harmonicity of the adjoint pair map


def _wedge(x, y):
    return x[..., :, None] * y[..., None, :] \
        - x[..., None, :] * y[..., :, None]


def _lam_inner(a, b):
    return 0.5 * np.einsum("...pq,...pq,p,q->...", a, b, SIGNS, SIGNS)


def harmonicity_report(frame, inv, side=None):
    """Tension of the map sending a point to the plane spanned by the
    lift and its adjoint.

    The tension is the tangential part of W_zzbar after removing the
    conformal-factor multiple of W; it vanishes exactly when the chart
    is Willmore.  Diagnostic lines record the radial component and the
    conformal factor consistency |<W_z,W_zbar> - (rho+rho bar)/2|, both
    construction identities.
    """
    if side is None:
        side = adjoint_side(inv)
    rho = side_field(inv, "rho", side)
    degenerate = side_field(inv, "umbilic", side)
    if np.all(degenerate):
        raise DegenerateTransform(
            "adjoint direction degenerates on the whole grid", side=side)
    yhat = adjoint_vector(frame, inv, side)

    Yv = frame.Y.value.real
    Yz = frame.Yz.value
    Yzb = frame.Yzb.value
    Yzzb = frame.Yz.zbar().value
    Hv = yhat.value.real
    Hz = yhat.z().value
    Hzb = yhat.zbar().value
    Hzzb = yhat.z().zbar().value

    W = _wedge(Yv, Hv)
    Wz = _wedge(Yz, Hv) + _wedge(Yv, Hz)
    Wzb = _wedge(Yzb, Hv) + _wedge(Yv, Hzb)
    Wzzb = (_wedge(Yzzb, Hv) + _wedge(Yz, Hzb)
            + _wedge(Yzb, Hz) + _wedge(Yv, Hzzb))

    factor = (rho.value + np.conj(rho.value)).real / 2.0
    metric = np.abs(_lam_inner(Wz, Wzb) - factor)

    Rw = Wzzb - factor[..., None, None] * W
    radial = _lam_inner(Rw, W)

    # basis of the common orthogonal complement of the moving plane
    rows = np.stack([Yv * SIGNS, Hv * SIGNS], axis=-2)
    _, _, vh = np.linalg.svd(rows)
    h = vh[..., 2:, :].real

    g = gram_matrix(h, h)
    basis_up = _wedge(h, np.broadcast_to(Hv[..., None, :], h.shape))
    basis_dn = _wedge(np.broadcast_to(Yv[..., None, :], h.shape), h)
    rhs_up = 0.5 * np.einsum("...pq,...ipq,p,q->...i", Rw, basis_up,
                             SIGNS, SIGNS)
    rhs_dn = 0.5 * np.einsum("...pq,...ipq,p,q->...i", Rw, basis_dn,
                             SIGNS, SIGNS)
    b = np.linalg.solve(g, rhs_up[..., None])[..., 0]
    a = np.linalg.solve(g, rhs_dn[..., None])[..., 0]
    c_w = -radial

    tangential = (c_w[..., None, None] * W
                  + np.einsum("...i,...ipq->...pq", a, basis_up)
                  + np.einsum("...i,...ipq->...pq", b, basis_dn))
    norm = np.sqrt(0.5 * np.sum(np.abs(tangential) ** 2, axis=(-2, -1)))

    exclude = degenerate if np.any(degenerate) else None
    mx, mn = _stats([norm], exclude=exclude)
    return ResidualReport(
        "harmonicity", mx, mn,
        degenerate_fraction=np.mean(degenerate),
        lines={"tension": mx,
               "radial": float(np.max(np.abs(radial))),
               "metric": float(np.max(metric))})


# the quartic differential of coincident adjoint directions


def omega_report(frame, inv, side=None, swillmore_gate=SWILLMORE_GATE):
    """The form 4 (rho lambda1 lambda2)^2, its antiholomorphy defect and
    the adjoint second-derivative cross-check.  Requires coincident
    adjoint directions and both lambdas bounded away from zero."""
    dev = swillmore_report(inv).max_abs
    if dev > swillmore_gate:
        raise NotSWillmore("adjoint directions do not coincide",
                           deviation=dev, gate=swillmore_gate)
    degenerate = inv.umbilic_left | inv.umbilic_right
    if np.all(degenerate):
        raise DegenerateTransform(
            "a polar direction degenerates on the whole grid",
            points=int(np.sum(degenerate)))
    if side is None:
        side = adjoint_side(inv)
    rho = side_field(inv, "rho", side)
    core = rho * inv.lambda1 * inv.lambda2
    omega = core * core * 4.0

    yhat = adjoint_vector(frame, inv, side)
    yhzz = yhat.z().z()
    cross = yhzz.inner(yhzz) + core * rho * 2.0

    exclude = degenerate if np.any(degenerate) else None
    mx, mn = _stats([core.zbar().value], exclude=exclude)
    report = ResidualReport(
        "omega_holomorphy", mx, mn,
        degenerate_fraction=np.mean(degenerate),
        lines={"holomorphy": mx,
               "cross_check": float(np.max(np.abs(cross.value)))})
    return report, omega.value, side

