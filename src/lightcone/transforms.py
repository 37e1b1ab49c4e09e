"""Polar and adjoint transforms, transform chains and duality checks.

A transform output is again a chart.  A chain keeps its root chart, the
innermost one, and one closure per step, and evaluates in one walk: the
root is lifted once, at jets ``order_cost`` orders above the order asked
for, and each step frames the raw lift it receives and hands on its
tagged frame vector.  The costs are raw-to-raw: each step receives a raw
light cone lift and pays one extra order to re-canonicalize it before
the frame construction.  No step depends on which conformal coordinate
frames the surface, so the chain rule carries whatever conformal
coordinate jets a chain is given through its steps.  The probe gates of
a chain, its final lift and the duality diagnostics of its root all read
their frames from such walks, so no frame of a chain's prefix is built
twice.
"""

import functools

import numpy as np

from .ambient import projective_distance
from .analysis import WILLMORE_ORDER, require_willmore, residual_scale
from .charts import SurfaceChart, require_finite, sample_axes
from .errors import (DegenerateTransform, DomainError, OrderExhausted,
                     ParameterOutOfRange, UnknownIdentifier)
from .frames import (INVARIANTS_ORDER, Tolerances, adjoint_vector,
                     canonical_lift, envelope_vector, frame_field,
                     invariants, side_field)
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


def _require_conformal(U, V):
    """Raise DomainError unless (U, V) are the real jets of a conformal
    reparametrization, U + iV holomorphic to within 1e-12 of their
    scale: the frame of a step is built in conformal coordinates, and
    only then does the chain rule carry a chain's lift through them."""
    if np.iscomplexobj(U.coef) or np.iscomplexobj(V.coef):
        raise DomainError("coordinate jets must be real valued")
    scale = 1.0 + max(float(np.max(np.abs(U.coef))),
                      float(np.max(np.abs(V.coef))))
    worst = float(np.max(np.abs((U + V * 1j).zbar().coef)))
    if worst > 1e-12 * scale:
        raise DomainError(
            "transform charts compose only with conformal reparametrizations",
            worst=worst)


def _step_lift(step, tol):
    """The closure of one chain step: a raw lift at order k in, the
    step's raw lift at order k - cost out.

    It canonicalizes the raw lift, frames it with the tolerances ``tol``
    and hands the frame to ``look``, if given, before the step's vector
    is formed.  The raw lift is dropped before its frame is built and
    the frame once its vector is taken.
    """
    _, cost, _, side = _STEPS[step]

    def lift(raw, look=None):
        order = raw.order - cost
        Y = canonical_lift(raw)
        del raw
        frame = frame_field(Y, tol=tol)
        del Y
        if look is not None:
            look(frame)
        if step.startswith("polar"):
            out = frame.L if side == "left" else frame.R
        elif step == "second_envelope":
            out = envelope_vector(frame, invariants(frame, tol))
        else:
            out = adjoint_vector(frame, invariants(frame, tol), side)
        return out.truncated(order)

    return lift


class TransformedSurface(SurfaceChart):
    """Chart obtained from a root chart by a sequence of frame
    transforms.

    ``root`` is the innermost chart and ``steps`` records the applied
    step names outermost-last, each with its closure from
    ``_step_lift``.  ``steps`` may be given as a sequence or a
    comma-separated string of short tags or step names; an unknown tag
    raises UnknownIdentifier and an empty chain ParameterOutOfRange.
    ``order_cost`` is the root's plus the steps' costs, so a chain
    lifted at order k lifts its root once, at jets of order
    k + order_cost, and walks the steps from there.  A transformed ``base`` passes on its
    root and steps.  The new steps build their frames with the
    tolerances ``tol``.
    """

    def __init__(self, base, steps, tol=Tolerances()):
        text = steps
        if isinstance(steps, str):
            steps = [t.strip() for t in steps.split(",") if t.strip()]
        names = []
        for tag in steps:
            step = _TAGS.get(tag, tag)
            if step not in _STEPS:
                raise UnknownIdentifier("unknown transform tag", tag=str(tag),
                                        available=sorted(_TAGS))
            names.append(step)
        if not names:
            raise ParameterOutOfRange(
                "a transform chain needs at least one step", chain=str(text))
        if isinstance(base, TransformedSurface):
            self.root, done, lifts = base.root, base.steps, base._lifts
        else:
            self.root, done, lifts = base, (), ()
        self.steps = done + tuple(names)
        self._lifts = lifts + tuple(_step_lift(s, tol) for s in names)
        self.order_cost = self.root.order_cost + sum(
            _STEPS[s][1] for s in self.steps)
        meta = dict(base.meta)
        meta.pop("torus_pq", None)
        super().__init__(base.name + "".join("+" + _STEPS[s][0]
                                             for s in names),
                         None, base.domain, base.periodic,
                         params=base.params, meta=meta)

    def evaluate(self, U, V):
        """The raw lift at the coordinate jets (U, V) of a conformal
        reparametrization, ``order_cost`` orders below them: the root is
        lifted at these jets and the steps walk from there, as in
        ``walk``.  Raises OrderExhausted for jets below ``order_cost``,
        DomainError for complex jets or jets that are not conformal."""
        order = min(U.order, V.order)
        if order < self.order_cost:
            raise OrderExhausted(
                "coordinate jets of lower order than the chain uses up",
                chart=self.name, order=order, order_cost=self.order_cost)
        _require_conformal(U, V)
        return self._run(U, V)

    def walk(self, u, v, order, on_raw=None, on_frame=None, stop=None):
        """Lift the root once at ``order`` on the points (u, v), which
        may be grid axes, and run the first ``stop`` steps (all of them
        by default) on that lift, spread to the points' broadcast shape.
        The coordinates are seeded ``root.order_cost`` orders higher.

        ``on_raw(k, raw)`` sees the raw lift that step k receives, and
        ``on_frame(k, frame)`` the frame step k builds from it, before
        the step's vector is formed.  Returns the last raw lift, at
        ``order`` less the cost of the steps run, unchecked.
        """
        U, V = seed_point(u, v, order + self.root.order_cost)
        return self._run(U, V, on_raw, on_frame, stop)

    def _run(self, U, V, on_raw=None, on_frame=None, stop=None):
        """Lift the root at the jets (U, V) and hand the lift through
        the first ``stop`` step closures."""
        shape = np.broadcast_shapes(U.batch_shape, V.batch_shape)
        raws = [self.root.evaluate(U, V).broadcast_to(shape)]
        for k, lift in enumerate(self._lifts[:stop]):
            if on_raw is not None:
                on_raw(k, raws[-1])
            look = None if on_frame is None else functools.partial(
                on_frame, k)
            # popped, not named: nothing here holds a raw lift while its
            # step frames it
            raws.append(lift(raws.pop(), look))
        return raws.pop()


def _probe(chain, first, tol):
    """Gate the steps of ``chain`` from index ``first`` on, in one walk
    of it on the probe grid.

    Step k is gated on the frame of its input, the chart of the first k
    steps, truncated to the order its gates read: adjoint steps need a
    Willmore input, and every step needs its side's direction to be
    non-degenerate somewhere on the grid.  The umbilic masks read a raw
    lift at ``INVARIANTS_ORDER``, the Willmore residual one at
    ``WILLMORE_ORDER``.  The walk lifts the root at the least order that
    gives every gate its order, and it stops before the last step's
    vector.  Frames and gates use ``tol``.
    """
    steps = chain.steps
    gates = {k: WILLMORE_ORDER if _STEPS[steps[k]][2] else INVARIANTS_ORDER
             for k in range(first, len(steps))}
    costs = [_STEPS[s][1] for s in steps]
    order = max(g + sum(costs[:k]) for k, g in gates.items())

    def on_raw(k, raw):
        if k in gates:
            require_finite(raw.truncated(gates[k]))

    def on_frame(k, frame):
        if k not in gates:
            return
        _, _, willmore, side = _STEPS[steps[k]]
        name = chain.root.name + "".join("+" + _STEPS[s][0]
                                         for s in steps[:k])
        inv = invariants(frame.truncated(gates[k] - 1), tol)
        if willmore:
            require_willmore(inv, tol.willmore,
                             "adjoint transforms need a Willmore base chart",
                             chart=name)
        if np.all(side_field(inv, "umbilic", side)):
            raise DegenerateTransform(
                "the %s %s direction degenerates everywhere"
                % (side, "adjoint" if willmore else "polar"),
                chart=name, side=side)

    last = len(steps) - 1
    u, v = sample_axes(chain, PROBE_GRID, PROBE_GRID)
    raw = chain.walk(u, v, order, on_raw, on_frame, stop=last)
    on_raw(last, raw)
    on_frame(last, frame_field(canonical_lift(raw), tol=tol))


def apply_chain(chart, tags, tol=Tolerances()):
    """Fold transform steps over a chart.

    ``tags`` is a sequence or comma-separated string of short tags
    (L, R, adjL, adjR, env) or full step names.  ``TransformedSurface``
    checks every tag, and refuses an empty chain, before any probe runs.
    The result is one ``TransformedSurface`` over the root chart, whose
    new steps are gated as ``_probe`` says, in one walk of the chain on
    the probe grid.  Every probe and step frame of the chain uses the
    tolerances ``tol``.
    """
    out = TransformedSurface(chart, tags, tol)
    done = chart.steps if isinstance(chart, TransformedSurface) else ()
    _probe(out, len(done), tol)
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

    The chart lifts at ``WILLMORE_ORDER``, the order the Willmore gate
    of ``frame_duality`` reads; the diagnostics read less.
    """
    u, v = sample_axes(chart, *grid)
    frame = frame_field(canonical_lift(
        chart.lift_at(u, v, order=WILLMORE_ORDER)), tol=tol)
    return frame_duality(frame, tol, chart.name)


def frame_duality(frame, tol, chart):
    """Duality diagnostics of the frame of a Willmore chart named
    ``chart``.

    The S-condition deviation is the raw sup of the adjoint direction
    discriminant; the other three measure how far the two adjoints are
    from one coinciding dual surface on the central sphere.  The frame
    must pass ``tol.willmore``, so it needs the order of the frame of a
    raw lift at ``WILLMORE_ORDER``, Y at ``WILLMORE_ORDER - 1``.
    """
    inv = invariants(frame, tol)
    require_willmore(inv, tol.willmore,
                     "duality diagnostics need a Willmore chart",
                     chart=chart)
    mask = inv.umbilic_left | inv.umbilic_right
    if np.all(mask):
        raise DegenerateTransform(
            "a polar direction degenerates on the whole grid",
            chart=chart)
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
