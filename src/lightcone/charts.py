"""Surface charts and light cone lifts.

A chart hands around the raw lift of a spacelike surface into the light
cone of the (4,2) ambient space, evaluated on two-variable jets.  The
catalog charts are closed-form; user-defined charts come from the small
expression language in :mod:`lightcone.dsl`.
"""

import inspect
from fractions import Fraction

import numpy as np

from .ambient import lightcone_deviation
from .errors import (NonFinite, NotOnQuadric, ParameterOutOfRange,
                     UnknownIdentifier)
from .jets import Jet2, JetVec6, seed_point

DEFAULT_ORDER = 8
QUADRIC_TOL = 1e-10


def _as_jets(components):
    """Promote plain numbers in a component list to constant jets."""
    template = None
    for c in components:
        if isinstance(c, Jet2):
            template = c
            break
    if template is None:
        raise ValueError("at least one component must be a jet")
    out = []
    for c in components:
        if isinstance(c, Jet2):
            out.append(c)
        else:
            out.append(Jet2.constant(
                np.broadcast_to(c, template.batch_shape), template.order))
    return out


def _quadric_deviation(q, target):
    dev = q.coef.copy()
    dev[0, 0] -= target
    return float(np.max(np.abs(dev)))


def embed_flat(components):
    """Lift a point of the flat space form into the light cone.

    Takes four components with the last one timelike.  The image spans
    slots 1..4; slots 0 and 5 carry the usual quadratic pair.
    """
    x1, x2, x3, x4 = _as_jets(components)
    q = x1 * x1 + x2 * x2 + x3 * x3 - x4 * x4
    half = 0.5
    return JetVec6.from_components(
        [(q - 1.0) * half, x1, x2, x3, x4, (q + 1.0) * half])


def embed_sphere(components):
    """Lift a point of the unit pseudosphere (inner product +1, one
    timelike direction among five) by appending a constant 1."""
    xs = _as_jets(components)
    if len(xs) != 5:
        raise ValueError("sphere embedding takes five components")
    q = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2] + xs[3] * xs[3] \
        - xs[4] * xs[4]
    dev = _quadric_deviation(q, 1.0)
    if dev > QUADRIC_TOL:
        raise NotOnQuadric("components do not satisfy <x,x> = 1",
                           deviation=dev)
    return JetVec6.from_components(xs + [xs[0] * 0.0 + 1.0])


def embed_hyperbolic(components):
    """Lift a point of the unit pseudohyperbolic space (inner product -1,
    two timelike directions among five) by prepending a constant 1."""
    xs = _as_jets(components)
    if len(xs) != 5:
        raise ValueError("hyperbolic embedding takes five components")
    q = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2] - xs[3] * xs[3] \
        - xs[4] * xs[4]
    dev = _quadric_deviation(q, -1.0)
    if dev > QUADRIC_TOL:
        raise NotOnQuadric("components do not satisfy <x,x> = -1",
                           deviation=dev)
    return JetVec6.from_components([1.0 + 0 * xs[0]] + xs)


class SurfaceChart:
    """A parametrized surface patch, presented as its raw lift.

    ``evaluate`` maps a pair of coordinate jets to the lift as a
    ``JetVec6``; ``lift_at`` is the convenience entry point that seeds
    the jets first.  ``domain`` is ``((u0, u1), (v0, v1))`` and
    ``periodic`` flags each direction.

    ``order_cost`` is the number of jet orders ``evaluate`` uses up: 0
    for a chart built from a lift function, the wrapped chart's for
    ``moved_chart`` and ``scaled_chart``, and for a transform chain its
    root's plus its steps'.  It follows from how the chart is built and
    is never set by a caller.
    """

    order_cost = 0

    def __init__(self, name, lift, domain, periodic=(False, False),
                 params=None, meta=None):
        self.name = name
        self._lift = lift
        self.domain = (tuple(float(x) for x in domain[0]),
                       tuple(float(x) for x in domain[1]))
        self.periodic = (bool(periodic[0]), bool(periodic[1]))
        self.params = dict(params or {})
        self.meta = dict(meta or {})

    def evaluate(self, U, V):
        return self._lift(U, V)

    def lift_at(self, u, v, order=DEFAULT_ORDER):
        """Raw lift at the points (u, v), on the batch shape
        ``np.broadcast_shapes(u.shape, v.shape)``.

        u and v may be scalars, full grids from ``sample_grid``, or the
        grid axes from ``sample_axes``: on the axes a function of one
        coordinate is composed once per grid line, and only products
        that mix u and v reach the full grid.  A lift that spans less
        than the broadcast shape (one that reads only u, say) is
        broadcast to it in one contiguous copy at the end.  The jets are
        seeded ``order_cost`` orders above ``order``.  Raises NonFinite
        where a coefficient of the lift is NaN or Inf.
        """
        U, V = seed_point(u, v, order + self.order_cost)
        raw = self.evaluate(U, V).broadcast_to(
            np.broadcast_shapes(U.batch_shape, V.batch_shape))
        require_finite(raw)
        return raw

    def __repr__(self):
        return "SurfaceChart({!r}, domain={}, periodic={})".format(
            self.name, self.domain, self.periodic)


def require_finite(raw):
    """Raise NonFinite where a coefficient of the raw lift ``raw`` is
    NaN or Inf, with the count of such points and of all points."""
    finite = np.isfinite(raw.coef)
    # one pass over the whole array first: a reduction per point, over
    # axes that are not contiguous, costs about eight times as much
    if finite.all():
        return
    bad = ~np.all(finite, axis=(0, 1, -1))
    raise NonFinite("chart lift is not finite",
                    count=int(np.count_nonzero(bad)), points=int(bad.size))


def grid_axis(lo, hi, n, periodic):
    """Sample points along one domain direction.

    Periodic directions get the uniform grid including the left endpoint
    (the right one is identified with it); open directions get strictly
    interior equispaced nodes.
    """
    if periodic:
        return lo + (hi - lo) * np.arange(n) / n
    k = np.arange(1, n + 1)
    return lo + (hi - lo) * k / (n + 1)


def sample_axes(chart, nu=32, nv=32):
    """Axes of the chart's sample grid: the u column, shape (nu, 1), and
    the v row, shape (1, nv).  They broadcast to the grid that
    ``sample_grid`` meshes, and ``lift_at`` takes them as they are."""
    (u0, u1), (v0, v1) = chart.domain
    us = grid_axis(u0, u1, nu, chart.periodic[0])
    vs = grid_axis(v0, v1, nv, chart.periodic[1])
    return us[:, None], vs[None, :]


def sample_grid(chart, nu=32, nv=32):
    """Meshed sample of the chart domain, shape (nu, nv) per axis: the
    axes of ``sample_axes``, each copied out to the full grid."""
    return tuple(np.array(x) for x in np.broadcast_arrays(*sample_axes(
        chart, nu, nv)))


def validate_chart(chart, nu=8, nv=8, order=2):
    """Probe the lift on a coarse grid.

    Returns the worst light cone deviation, the worst conformality
    defect of the parametrization, and the smallest (normalized)
    spacelike margin.  All three should be tiny for a usable chart.
    """
    u, v = sample_axes(chart, nu, nv)
    w = chart.lift_at(u, v, order=max(order, 2))
    wz = w.z()
    cone = np.max(lightcone_deviation(w.value))
    e = wz.inner(wz.conj()).value.real
    f = np.abs(wz.inner(wz).value)
    dz2 = np.sum(np.abs(wz.value) ** 2, axis=-1)
    return {
        "lightcone_deviation": float(cone),
        "conformal_deviation": float(np.max(f / np.maximum(dz2, 1e-300))),
        "spacelike_min": float(np.min(2.0 * e / np.maximum(dz2, 1e-300))),
    }


def rational_parameter(t, max_den=1000, tol=1e-9):
    """Lowest-terms (p, q) with t = p/q, or None if t is not close to
    a rational with denominator <= max_den."""
    frac = Fraction(float(t)).limit_denominator(max_den)
    if abs(float(frac) - float(t)) < tol:
        return frac.numerator, frac.denominator
    return None


def torus_chart(t=2.0):
    """Homogeneous flat torus family inside the conformal 4-space.

    The profile winds with slope ``t`` against the circle direction;
    ``t`` must exceed 1 for the lift to be spacelike, and be finite.
    For rational ``t = p/q`` the chart closes up over one fundamental
    domain in the first coordinate.
    """
    t = float(t)
    if not t > 1.0:
        raise ParameterOutOfRange("torus parameter must exceed 1", t=t)
    if not np.isfinite(t):
        raise ParameterOutOfRange("torus parameter must be finite", t=t)
    tau = np.sqrt(t * t - 1.0)

    def lift(U, V):
        a = U * (t / tau)
        c = U * (1.0 / tau)
        ca, sa = a.cos(), a.sin()
        cb, sb = V.cos(), V.sin()
        return JetVec6.from_components(
            [ca * cb, ca * sb, sa * cb, sa * sb, c.cos(), c.sin()])

    pq = rational_parameter(t)
    meta = {}
    if pq is not None:
        meta["torus_pq"] = pq
        q = pq[1]
        domain = ((0.0, 2.0 * np.pi * q * tau), (0.0, 2.0 * np.pi))
        periodic = (True, True)
    else:
        domain = ((0.0, 2.0 * np.pi * tau), (0.0, 2.0 * np.pi))
        periodic = (False, True)
    return SurfaceChart("torus", lift, domain, periodic,
                        params={"t": t}, meta=meta)


def catenoid_chart():
    """Minimal catenoid in Euclidean 3-space, conformal coordinates."""

    def lift(U, V):
        ch = U.cosh()
        return embed_flat([ch * V.cos(), ch * V.sin(), U, 1.0])

    return SurfaceChart("catenoid", lift,
                        ((-1.0, 1.0), (0.0, 2.0 * np.pi)), (False, True))


def enneper_chart():
    """Enneper's minimal surface, the standard cubic parametrization."""

    def lift(U, V):
        u2 = U * U
        v2 = V * V
        x1 = U - U * u2 * (1.0 / 3.0) + U * v2
        x2 = V * v2 * (1.0 / 3.0) - V - u2 * V
        x3 = u2 - v2
        return embed_flat([x1, x2, x3, 1.0])

    return SurfaceChart("enneper", lift,
                        ((-1.0, 1.0), (0.0, 2.0 * np.pi)), (False, False))


def maximal_catenoid_chart():
    """Maximal (zero mean curvature, spacelike) catenoid in Minkowski
    3-space, placed at unit spacelike height in the flat space form."""

    def lift(U, V):
        sh = U.sinh()
        return embed_flat([1.0, sh * V.cos(), sh * V.sin(), U])

    # keep the rectangle well away from the cone point at U = 0, where
    # the Taylor radius of the lift collapses and jet conditioning with it
    return SurfaceChart("maximal_catenoid", lift,
                        ((0.5, 1.5), (0.0, 2.0 * np.pi)), (False, True))


def laguerre_lift_chart():
    """Null congruence lift built from the catenoid's unit normal and
    support function.  Spacelike and conformal, with one family of
    curvature directions degenerate."""

    def lift(U, V):
        sech = U.cosh().reciprocal()
        n1 = V.cos() * sech * (-1.0)
        n2 = V.sin() * sech * (-1.0)
        n3 = U.sinh() * sech
        h = U * U.sinh() * sech - 1.0
        return JetVec6.from_components([n1, n2, n3, h, -h, 1.0 + 0 * h])

    return SurfaceChart("laguerre_lift", lift,
                        ((0.3, 1.3), (0.0, 2.0 * np.pi)), (False, True))


CATALOG = {
    "torus": torus_chart,
    "catenoid": catenoid_chart,
    "enneper": enneper_chart,
    "maximal_catenoid": maximal_catenoid_chart,
    "laguerre_lift": laguerre_lift_chart,
}


def catalog_chart(name, **params):
    """The catalog chart ``name`` built with ``params``; an unknown name
    or parameter raises UnknownIdentifier listing the accepted ones."""
    if name not in CATALOG:
        raise UnknownIdentifier("unknown catalog surface", name=name,
                                available=sorted(CATALOG))
    accepted = sorted(inspect.signature(CATALOG[name]).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UnknownIdentifier("unknown chart parameters", surface=name,
                                names=unknown, available=accepted)
    return CATALOG[name](**params)


def _wrapped(chart, suffix, lift, domain):
    """A chart whose ``lift`` evaluates ``chart``, so it uses up the
    same jet orders."""
    out = SurfaceChart(chart.name + suffix, lift, domain, chart.periodic,
                       params=chart.params, meta=chart.meta)
    out.order_cost = chart.order_cost
    return out


def moved_chart(chart, motion):
    """The same chart pushed through an ambient motion."""

    def lift(U, V):
        return chart.evaluate(U, V).transformed(motion.matrix)

    return _wrapped(chart, "+moved", lift, chart.domain)


def scaled_chart(chart, factor):
    """Reparametrize by z -> factor * z (domain stretches to match).
    ``factor`` must be finite and nonzero."""
    factor = float(factor)
    if factor == 0.0 or not np.isfinite(factor):
        raise ParameterOutOfRange("scale factor must be finite and nonzero",
                                  factor=factor)
    (u0, u1), (v0, v1) = chart.domain

    def lift(U, V):
        return chart.evaluate(U * (1.0 / factor), V * (1.0 / factor))

    return _wrapped(chart, "+scaled", lift,
                    ((u0 * factor, u1 * factor), (v0 * factor, v1 * factor)))
