"""Polar and adjoint transforms, transform chains and duality checks.

A transform output is again a chart: evaluating it at (u, v) re-seeds
the coordinates a few orders higher, rebuilds the base frame there and
hands back the tagged frame vector.  Chains therefore nest charts and
the per-step order costs add up.  The costs are raw-to-raw: each step
receives a raw light cone lift and pays one extra order to
re-canonicalize it before the frame construction.
"""

import numpy as np

from .ambient import projective_distance
from .analysis import WILLMORE_ORDER, require_willmore, residual_scale
from .charts import SurfaceChart, sample_axes
from .errors import DegenerateTransform, DomainError, UnknownIdentifier
from .frames import (INVARIANTS_ORDER, Tolerances, adjoint_vector,
                     canonical_lift, envelope_vector, frame_and_invariants,
                     frame_field, invariants, side_field)
from .jets import seed_point

POLAR_ORDER_COST = 3
ADJOINT_ORDER_COST = 4
ENVELOPE_ORDER_COST = 5
PROBE_GRID = 8

# step name: (short tag, order cost, needs a Willmore base, side whose
# umbilic mask gates it)
_STEPS = {
    "polar_left": ("L", POLAR_ORDER_COST, False, "left"),
    "polar_right": ("R", POLAR_ORDER_COST, False, "right"),
    "adjoint_left": ("adjL", ADJOINT_ORDER_COST, True, "left"),
    "adjoint_right": ("adjR", ADJOINT_ORDER_COST, True, "right"),
    "second_envelope": ("env", ENVELOPE_ORDER_COST, False, "left"),
}

_TAGS = {entry[0]: step for step, entry in _STEPS.items()}


def _affine_data(J, axis):
    """Value and linear coefficients of an affine coordinate jet.

    Transform lifts receive either plain coordinate seeds or seeds
    shifted and linearly scaled by a wrapping chart; both re-expand
    exactly at a higher order.  A curved reparametrization cannot, so
    it is refused.  Order-zero jets carry no axis information and are
    taken to be the plain coordinate of their slot.
    """
    c = J.coef
    value = c[0, 0]
    if J.order >= 1:
        cu = c[1, 0]
        cv = c[0, 1]
    else:
        cu = np.full_like(value, 1.0 if axis == 0 else 0.0)
        cv = np.full_like(value, 0.0 if axis == 0 else 1.0)
    rest = c.copy()
    rest[0, 0] = 0.0
    if J.order >= 1:
        rest[1, 0] = 0.0
        rest[0, 1] = 0.0
    scale = 1.0 + float(np.max(np.abs(c)))
    if float(np.max(np.abs(rest))) > 1e-12 * scale:
        raise DomainError(
            "transform charts compose only with affine reparametrizations",
            worst=float(np.max(np.abs(rest))))
    if float(np.max(np.abs(value.imag))) > 1e-12 * scale:
        raise DomainError("coordinate jets must be real valued",
                          worst=float(np.max(np.abs(value.imag))))
    return value.real, cu, cv


def _reseed(U, V, extra):
    """Rebuild the coordinate jets of a lift call at a higher order."""
    uval, ucu, ucv = _affine_data(U, 0)
    vval, vcu, vcv = _affine_data(V, 1)
    A, B = seed_point(uval, vval, U.order + extra)
    dA = A - uval
    dB = B - vval
    return dA * ucu + dB * ucv + uval, dA * vcu + dB * vcv + vval


def _step_lift(base, step, tol):
    _, cost, _, side = _STEPS[step]

    def lift(U, V):
        U2, V2 = _reseed(U, V, cost)
        frame = frame_field(canonical_lift(base.evaluate(U2, V2)), tol=tol)
        if step.startswith("polar"):
            out = frame.L if side == "left" else frame.R
        elif step == "second_envelope":
            out = envelope_vector(frame, invariants(frame, tol))
        else:
            out = adjoint_vector(frame, invariants(frame, tol), side)
        return out.truncated(U.order)

    return lift


class TransformedSurface(SurfaceChart):
    """Chart obtained from a base chart by a sequence of frame
    transforms.

    ``steps`` records the applied step names outermost-last;
    ``order_cost`` is the total extra jet order one evaluation spends
    internally, so a chain evaluated at order k runs the innermost
    chart at k + order_cost.  Each step builds its frames with the
    tolerances ``tol``.
    """

    def __init__(self, base, step, tol=Tolerances()):
        self.steps = tuple(getattr(base, "steps", ())) + (step,)
        self.order_cost = sum(_STEPS[s][1] for s in self.steps)
        meta = dict(base.meta)
        meta.pop("torus_pq", None)
        super().__init__(base.name + "+" + _STEPS[step][0],
                         _step_lift(base, step, tol), base.domain,
                         base.periodic, params=base.params, meta=meta)


def _transformed(chart, step, tol=Tolerances()):
    """Gate ``step`` on a probe sample of ``chart``, then apply it.

    Adjoint steps need a Willmore base; every step needs its side's
    direction to be non-degenerate somewhere on the probe grid.  The
    probe lifts at the order its gates read: the umbilic masks need
    ``INVARIANTS_ORDER``, the Willmore residual ``WILLMORE_ORDER``.
    The probe, and the step's own frames, use the tolerances ``tol``.
    """
    _, _, willmore, side = _STEPS[step]
    order = WILLMORE_ORDER if willmore else INVARIANTS_ORDER
    u, v = sample_axes(chart, PROBE_GRID, PROBE_GRID)
    _, inv = frame_and_invariants(chart.lift_at(u, v, order=order), tol)
    if willmore:
        require_willmore(inv, tol.willmore,
                         "adjoint transforms need a Willmore base chart",
                         chart=chart.name)
    if np.all(side_field(inv, "umbilic", side)):
        raise DegenerateTransform(
            "the %s %s direction degenerates everywhere"
            % (side, "adjoint" if willmore else "polar"),
            chart=chart.name, side=side)
    return TransformedSurface(chart, step, tol)


def apply_chain(chart, tags, tol=Tolerances()):
    """Fold transform steps over a chart.

    ``tags`` is a sequence or comma-separated string of short tags
    (L, R, adjL, adjR, env) or full step names.  Every probe and step
    frame of the chain uses the tolerances ``tol``.
    """
    if isinstance(tags, str):
        tags = [t.strip() for t in tags.split(",") if t.strip()]
    out = chart
    for tag in tags:
        step = _TAGS.get(tag, tag)
        if step not in _STEPS:
            raise UnknownIdentifier("unknown transform tag", tag=str(tag),
                                    available=sorted(_TAGS))
        out = _transformed(out, step, tol)
    return out


def inverse_check(chart, grid=(PROBE_GRID, PROBE_GRID)):
    """Worst projective distance from the base surface after the two
    polar round trips (left then right, and right then left)."""
    u, v = sample_axes(chart, *grid)
    base_vals = np.real(chart.lift_at(u, v, order=0).value)
    worst = 0.0
    for tags in (("L", "R"), ("R", "L")):
        back = apply_chain(chart, tags)
        vals = np.real(back.lift_at(u, v, order=0).value)
        worst = max(worst, float(np.max(
            projective_distance(vals, base_vals))))
    return worst


class DualityReport:
    """Sup diagnostics of the two adjoint directions over a grid.

    All four fields are nonnegative; they vanish together exactly when
    the chart has coincident adjoint directions.
    """

    __slots__ = ("swillmore_dev", "adjoint_coincidence", "sigma_residual",
                 "central_sphere_residual")

    def __init__(self, swillmore_dev, adjoint_coincidence, sigma_residual,
                 central_sphere_residual):
        self.swillmore_dev = float(swillmore_dev)
        self.adjoint_coincidence = float(adjoint_coincidence)
        self.sigma_residual = float(sigma_residual)
        self.central_sphere_residual = float(central_sphere_residual)

    def as_dict(self):
        return {"swillmore_dev": self.swillmore_dev,
                "adjoint_coincidence": self.adjoint_coincidence,
                "sigma_residual": self.sigma_residual,
                "central_sphere_residual": self.central_sphere_residual}

    def __repr__(self):
        return ("DualityReport(swillmore_dev={:.3e}, "
                "adjoint_coincidence={:.3e})").format(
                    self.swillmore_dev, self.adjoint_coincidence)


def _central_sphere_residual(frame, w):
    """Relative least squares defect of w against the central sphere
    basis {Y, Re Y_z, Im Y_z, N}, Euclidean per point."""
    basis = np.stack([np.real(frame.Y.value), np.real(frame.Yz.value),
                      np.imag(frame.Yz.value), np.real(frame.N.value)],
                     axis=-2)
    g = np.einsum("...ic,...jc->...ij", basis, basis)
    rhs = np.einsum("...ic,...c->...i", basis, w)
    coef = np.linalg.solve(g, rhs[..., None])[..., 0]
    proj = np.einsum("...i,...ic->...c", coef, basis)
    return (np.linalg.norm(w - proj, axis=-1)
            / np.linalg.norm(w, axis=-1))


def duality_report(chart, grid=(PROBE_GRID, PROBE_GRID), tol=Tolerances()):
    """Duality diagnostics of a Willmore chart over a grid.

    The S-condition deviation is the raw sup of the adjoint direction
    discriminant; the other three measure how far the two adjoints are
    from one coinciding dual surface on the central sphere.  The chart
    must pass ``tol.willmore``, so it lifts at ``WILLMORE_ORDER``, the
    order that gate reads; the diagnostics read less.
    """
    u, v = sample_axes(chart, *grid)
    frame, inv = frame_and_invariants(
        chart.lift_at(u, v, order=WILLMORE_ORDER), tol)
    require_willmore(inv, tol.willmore,
                     "duality diagnostics need a Willmore chart",
                     chart=chart.name)
    mask = inv.umbilic_left | inv.umbilic_right
    if np.all(mask):
        raise DegenerateTransform(
            "a polar direction degenerates on the whole grid",
            chart=chart.name)
    keep = ~mask

    dev = float(np.max(np.abs(inv.swillmore_disc.value)[keep]))

    yhat = np.real(adjoint_vector(frame, inv, "left").value)
    ytil = np.real(adjoint_vector(frame, inv, "right").value)
    coincidence = float(np.max(projective_distance(yhat, ytil)[keep]))

    scale = residual_scale(inv)
    sigma = np.maximum(np.abs(inv.sigma_left.value),
                       np.abs(inv.sigma_right.value)) / scale
    sigma_sup = float(np.max(sigma[keep]))

    sphere = np.maximum(_central_sphere_residual(frame, yhat),
                        _central_sphere_residual(frame, ytil))
    sphere_sup = float(np.max(sphere[keep]))

    return DualityReport(dev, coincidence, sigma_sup, sphere_sup)
