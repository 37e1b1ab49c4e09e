"""Canonical lifts, adapted frames and conformal invariants.

Everything here is pointwise jet algebra.  A chart's raw lift is first
rescaled to the canonical lift Y with <Y_z, Y_zbar> = 1/2; the conformal
Gauss direction N and a gauged null basis L, R of the normal plane then
make the invariant scalars plain inner products.

Frame conventions, fixed once:

  * <N, N> = 0, <N, Y> = -1, <N, Y_z> = 0;
  * <L, L> = <R, R> = 0, <L, R> = -1, both orthogonal to Y, Y_u, Y_v, N;
  * det(Y, Y_u, Y_v, N, L, R) > 0;
  * the gauge balances |<L, W0>| = |<R, W0>| against a reference axis
    W0 chosen per point, with <L, W0> < 0.
"""

from typing import NamedTuple

import numpy as np

from .ambient import SIGNS, gram_wedge_inner
from .charts import require_finite
from .errors import (GaugeReferenceDegenerate, NormalPlaneDegenerate,
                     NotSpacelike, ParameterOutOfRange)
from .jets import Jet2, JetVec6, jet_where

SPACELIKE_TOL = 1e-10
PLANE_TOL = 1e-10


class _ToleranceFields(NamedTuple):
    structure: float = 1e-8
    integrability: float = 1e-8
    willmore: float = 1e-6
    gauss_metric: float = 1e-8
    theta: float = 1e-8
    energy: float = 1e-8
    umbilic: float = 1e-8
    gauge: float = 1e-8


class Tolerances(_ToleranceFields):
    """Every tolerance a caller can set; ``--tol NAME=VAL`` takes
    exactly these fields.

    The first six gate the reports of the same name (``energy`` the
    relative error against a closed form); ``willmore`` also gates the
    adjoint transform probes and the theta and duality reports.
    ``umbilic`` is the floor, relative to 1 + |s|, under which a lambda
    counts as zero, and ``gauge`` the least pairing a reference axis
    needs with both null normals.  Fields must be finite and not negative.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in sorted(self._asdict().items()):
            if not (np.isfinite(value) and value >= 0.0):
                raise ParameterOutOfRange(
                    "tolerance must be finite and not negative",
                    tol="%s=%r" % (name, value))
        return self

    @classmethod
    def _make(cls, iterable):
        """Route ``_replace`` through the checks of ``__new__``."""
        return cls(*iterable)


# the preferred gauge reference axis, e_4 (first timelike direction)
GAUGE_PRIMARY = 4


def _laplacian(Yu, Yv):
    """Y_zzbar = (Y_uu + Y_vv) / 4 from the first derivatives of Y.

    It is real when Y is.  For a real Y it equals the real part of
    Y_z.zbar() bit for bit, less the imaginary part of that form, which
    is rounding noise: du dv and dv du round differently.
    """
    return (Yu.du() + Yv.dv()) * 0.25


def _value_inner(a, b):
    """<a, b> at the base points: ``a.inner(b).value`` bit for bit,
    without the products of the higher coefficients."""
    return np.einsum("...i,i->...", a.value * b.value, SIGNS)


def canonical_lift(raw):
    """Scale a raw light cone lift to the canonical one.

    The returned jet has one order less than the input (one derivative
    is consumed by the normalization).  Raises NotSpacelike where the
    induced metric degenerates or flips sign.
    """
    ru = raw.du()
    rv = raw.dv()
    # g2 = 2 <Y_z, Y_zbar> = (<Y_u, Y_u> + <Y_v, Y_v>) / 2, formed from
    # real products when the lift is real
    g2 = ((ru.inner(ru) + rv.inner(rv)) * 0.5).real
    scale = np.sum(np.abs((ru.value - rv.value * 1j) * 0.5) ** 2, axis=-1)
    # the u, v derivatives are not needed below; freeing them keeps the
    # memory peak of a large, low-order lift where it is without them
    del ru, rv
    ratio = g2.value / np.maximum(scale, 1e-300)
    # written so that a NaN ratio fails the gate too
    if not np.min(ratio) > SPACELIKE_TOL:
        raise NotSpacelike("induced metric is not positive",
                           worst=float(np.min(ratio)))
    return raw.truncated(raw.order - 1) * g2.power(-0.5)


class FrameData:
    """Adapted frame along a chart, all entries jets of equal order
    except Y (one higher) and its first derivatives."""

    __slots__ = ("Y", "Yz", "Yzb", "Yzzb", "Yu", "Yv", "N", "L", "R",
                 "orientation_det", "gauge_axis", "gauge_fallback")

    def __init__(self, Y, Yz, Yzb, Yzzb, Yu, Yv, N, L, R, orientation_det,
                 gauge_axis):
        self.Y = Y
        self.Yz = Yz
        self.Yzb = Yzb
        self.Yzzb = Yzzb
        self.Yu = Yu
        self.Yv = Yv
        self.N = N
        self.L = L
        self.R = R
        self.orientation_det = orientation_det
        self.gauge_axis = gauge_axis
        self.gauge_fallback = gauge_axis != GAUGE_PRIMARY

    def truncated(self, order):
        """The frame ``frame_field`` builds from the canonical lift
        truncated to ``order``: Y at ``order``, its first derivatives one
        below and Y_zzbar, N, L, R two below.  Every choice the frame
        makes is made on values, so the truncated frame is that frame
        bit for bit."""
        if order == self.Y.order:
            return self
        first, second = order - 1, order - 2
        return FrameData(
            self.Y.truncated(order), self.Yz.truncated(first),
            self.Yzb.truncated(first), self.Yzzb.truncated(second),
            self.Yu.truncated(first), self.Yv.truncated(first),
            self.N.truncated(second), self.L.truncated(second),
            self.R.truncated(second), self.orientation_det, self.gauge_axis)


def frame_field(Y, *, tol=Tolerances()):
    """Build the adapted frame from a canonical lift.

    N, L, R come out two orders below Y.  The normal plane basis is
    found by projecting coordinate axes off the tangent 4-space,
    diagonalizing the best candidate pair at value level, then
    orthonormalizing as jets so the frame identities hold exactly.
    """
    Yu = Y.du()
    Yv = Y.dv()
    Yz = (Yu - Yv * 1j) * 0.5
    Yzb = (Yu + Yv * 1j) * 0.5
    Yzzb = _laplacian(Yu, Yv)
    N = Yzzb * 2.0 + Y * (Yzzb.inner(Yzzb) * 2.0)

    order = N.order
    Yt = Y.truncated(order)
    Yut = Yu.truncated(order)
    Yvt = Yv.truncated(order)

    # value-level candidate selection: project each coordinate axis off
    # span{Y, Yu, Yv, N} and look for the best Lorentzian pair
    Yval = Y.value.real
    Yuval = Yu.value.real
    Yvval = Yv.value.real
    Nval = N.value.real
    eye = np.eye(6)
    n_all = (eye
             + SIGNS[:, None] * (Nval[..., None, :] * Yval[..., :, None]
                                 + Yval[..., None, :] * Nval[..., :, None]
                                 - Yuval[..., None, :] * Yuval[..., :, None]
                                 - Yvval[..., None, :] * Yvval[..., :, None]))
    q = np.einsum("...ic,...ic,c->...i", n_all, n_all, SIGNS)
    C = np.einsum("...ic,...jc,c->...ij", n_all, n_all, SIGNS)
    E = np.einsum("...ic,...ic->...i", n_all, n_all)
    D = q[..., :, None] * q[..., None, :] - C ** 2
    Dn = D / np.maximum(E[..., :, None] * E[..., None, :], 1e-300)
    # an axis sitting inside the tangent 4-space projects to rounding
    # noise; drop it or its 0/0 ratio can masquerade as a good pair
    tiny = E < 1e-14 * np.max(E, axis=-1, keepdims=True)
    usable = ~(tiny[..., :, None] | tiny[..., None, :])
    upper = np.triu(np.ones((6, 6)), 1) > 0
    # select by the raw Gram discriminant: it rewards pairs that are
    # both Lorentzian and well-sized, so a thin near-tangent axis never
    # wins and the normalization below stays well conditioned.  The
    # scale-free ratio is kept for the degeneracy gate only.
    score = np.where(usable & upper, D, np.inf)
    flat = score.reshape(score.shape[:-2] + (36,))
    best = np.argmin(flat, axis=-1)
    flatn = np.where(usable & upper, Dn, np.inf).reshape(flat.shape)
    worst = np.max(np.take_along_axis(flatn, best[..., None], axis=-1))
    # written so that a NaN discriminant fails the gate too
    if not worst <= -PLANE_TOL:
        raise NormalPlaneDegenerate(
            "no Lorentzian plane in the projected axes",
            worst=float(worst))
    ia, ib = best // 6, best % 6

    def project_off_tangent(idx):
        sgn = SIGNS[idx]
        one_hot = JetVec6.constant(eye[idx], order)
        cn = N.component(idx) * sgn
        cu = Yut.component(idx) * sgn
        cv = Yvt.component(idx) * sgn
        cy = Yt.component(idx) * sgn
        return one_hot - (Yt * (-cn) + Yut * cu + Yvt * cv + N * (-cy))

    na = project_off_tangent(ia)
    nb = project_off_tangent(ib)

    # value-level diagonalization picks the rotation that makes the
    # first vector spacelike and the second timelike with the largest
    # margins; the jet-level Gram-Schmidt below then needs no branches
    qa = np.take_along_axis(q, ia[..., None], axis=-1)[..., 0]
    qb = np.take_along_axis(q, ib[..., None], axis=-1)[..., 0]
    cab = _value_inner(na, nb).real
    phi = 0.5 * np.arctan2(2.0 * cab, qa - qb)
    m1 = na * np.cos(phi) + nb * np.sin(phi)
    m2 = na * (-np.sin(phi)) + nb * np.cos(phi)

    q1 = m1.inner(m1).real
    f1 = m1 * q1.power(-0.5)
    m2 = m2 - f1 * m2.inner(f1)
    q2 = -m2.inner(m2).real
    f2 = m2 * q2.power(-0.5)

    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    L = (f2 - f1) * inv_sqrt2
    R = (f2 + f1) * inv_sqrt2
    # the gauge step below needs none of these; freeing them first
    # lowers the memory peak of a frame, and so of a transform chain,
    # whose innermost frames are built at the highest order
    del Yt, Yut, Yvt, na, nb, m1, m2, f1, f2

    rows = np.stack([Yval, Yuval, Yvval, Nval,
                     L.value.real, R.value.real], axis=-2)
    det = np.linalg.det(rows)
    swap = det < 0
    L, R = jet_where(swap, R, L), jet_where(swap, L, R)

    L, R, gauge_axis = _gauge(L, R, tol)

    return FrameData(Y, Yz, Yzb, Yzzb, Yu, Yv, N, L, R,
                     orientation_det=np.abs(det), gauge_axis=gauge_axis)


def _gauge(L, R, tol):
    """Balance L and R against a reference axis and fix their sign.

    A pairing clears when its size is at least ``tol.gauge`` (the
    pairing with e_i is SIGNS[i] times component i).  Per point the
    reference is e_4 where both of its pairings clear, which the
    closed-form torus frames assume, and elsewhere the axis whose weaker
    pairing with L and R is largest.  Some axis pairs with both away
    from zero: <L, R> = -1 is a sum of six componentwise products.  The
    scale makes the two pairings equal in magnitude, the joint sign
    makes <L, W0> negative.  Returns the gauged pair and the chosen axis
    per point.
    """
    weak = np.minimum(np.abs(L.value), np.abs(R.value))
    ok = weak >= tol.gauge
    lost = ~np.any(ok, axis=-1)
    if np.any(lost):
        raise GaugeReferenceDegenerate(
            "no reference axis pairs nondegenerately with the null "
            "normal directions", points=int(np.sum(lost)))
    chosen = np.where(ok[..., GAUGE_PRIMARY], GAUGE_PRIMARY,
                      np.argmax(weak, axis=-1))
    pL = L.component(chosen) * SIGNS[chosen]
    pR = R.component(chosen) * SIGNS[chosen]
    sL = np.where(pL.value.real >= 0, 1.0, -1.0)
    sR = np.where(pR.value.real >= 0, 1.0, -1.0)
    lam = ((pR * sR) * (pL * sL).reciprocal()).power(0.5)
    # the product by -sL is an exact negation where <L, W0> > 0
    return L * lam * -sL, R * lam.reciprocal() * -sL, chosen


class InvariantSet:
    """Pointwise conformal invariants of a framed chart.

    lambda1 and lambda2 weight the null normal directions in Y_zz, s is
    the Schwarzian-like coefficient, alpha the normal connection form,
    gamma1/gamma2 the derived coefficients of N_z, and swillmore_disc the
    S-Willmore discriminant lambda1 gamma2 - lambda2 gamma1, which
    vanishes where the adjoint directions coincide.  The division-based
    fields (mu, rho, sigma) are only meaningful off the umbilic masks,
    and rho is None when the frame order cannot support one more
    derivative of mu.
    """

    __slots__ = ("lambda1", "lambda2", "s", "alpha", "gamma1", "gamma2",
                 "swillmore_disc", "beta", "kappa_pair", "kappa_iso",
                 "mu_left", "mu_right", "theta", "rho_left", "rho_right",
                 "sigma_left", "sigma_right", "umbilic_left",
                 "umbilic_right")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


#: raw lift order from which ``invariants`` forms every field, down to
#: the order-0 alpha, gamma and mu and the umbilic masks
INVARIANTS_ORDER = 4


def invariants(frame, tol=Tolerances()):
    """Extract the invariant scalars from an adapted frame; the umbilic
    masks come from ``tol.umbilic``."""
    Yzz = frame.Yz.z()
    lambda1 = -Yzz.inner(frame.R)
    lambda2 = -Yzz.inner(frame.L)
    s = Yzz.inner(frame.N) * 2.0
    alpha = -frame.L.z().inner(frame.R)
    abar = alpha.conj()
    gamma1 = lambda1.zbar() + lambda1 * abar
    gamma2 = lambda2.zbar() - lambda2 * abar
    beta = (lambda1 * lambda2.conj() + lambda2 * lambda1.conj()).real
    kappa_pair = frame.Yzzb.inner(frame.Yzzb).real
    kappa_iso = lambda1 * lambda2 * (-2.0)

    floor = tol.umbilic * (1.0 + np.abs(s.value))
    umb_right = np.abs(lambda1.value) < floor
    umb_left = np.abs(lambda2.value) < floor
    one = Jet2.constant(np.ones(lambda1.batch_shape), lambda1.order)
    safe1 = jet_where(umb_right, one, lambda1)
    safe2 = jet_where(umb_left, one, lambda2)

    mubar_left = gamma2 * (-2.0) / safe2
    mubar_right = gamma1 * (-2.0) / safe1
    mu_left = mubar_left.conj()
    mu_right = mubar_right.conj()

    swillmore_disc = lambda1 * gamma2 - lambda2 * gamma1
    theta = swillmore_disc * swillmore_disc

    # rho sits one derivative below mu; leave it out when the frame
    # does not carry that order (transform steps run at the edge)
    if mubar_left.order > 0:
        rho_left = mubar_left.z() + beta * 2.0
        rho_right = mubar_right.z() + beta * 2.0
    else:
        rho_left = None
        rho_right = None
    sigma_left = gamma1 * 2.0 + lambda1 * mubar_left
    sigma_right = gamma2 * 2.0 + lambda2 * mubar_right

    return InvariantSet(
        lambda1=lambda1, lambda2=lambda2, s=s, alpha=alpha,
        gamma1=gamma1, gamma2=gamma2, swillmore_disc=swillmore_disc,
        beta=beta, kappa_pair=kappa_pair, kappa_iso=kappa_iso,
        mu_left=mu_left, mu_right=mu_right,
        theta=theta, rho_left=rho_left, rho_right=rho_right,
        sigma_left=sigma_left, sigma_right=sigma_right,
        umbilic_left=umb_left, umbilic_right=umb_right)


def frame_and_invariants(raw, tol=Tolerances()):
    """Adapted frame and invariant scalars of a raw light cone lift,
    such as ``chart.lift_at(u, v, order)``; the frame is built once
    and every check runs on this pair.  Raises NonFinite where a
    coefficient of the lift is NaN or Inf."""
    require_finite(raw)
    frame = frame_field(canonical_lift(raw), tol=tol)
    return frame, invariants(frame, tol)


def classify_point(inv):
    """Coarse per-point label: umbilic when both lambdas sit under the
    tolerance, null_umbilic when exactly one does, generic otherwise."""
    left = np.asarray(inv.umbilic_left)
    right = np.asarray(inv.umbilic_right)
    shape = np.broadcast_shapes(left.shape, right.shape)
    left = np.broadcast_to(left, shape)
    right = np.broadcast_to(right, shape)
    out = np.full(shape, "generic", dtype=object)
    out[left ^ right] = "null_umbilic"
    out[left & right] = "umbilic"
    return out


def pair_density(raw):
    """<Y_zzbar, Y_zzbar> of the canonical lift, the Willmore energy
    density against du dv.  Cheap: needs no frame, raw order 3."""
    Y = canonical_lift(raw)
    Yzzb = _laplacian(Y.du(), Y.dv())
    return Yzzb.inner(Yzzb).real


def willmore_operators(inv):
    """The two components of the Willmore condition in the gauged
    frame.  Both vanish identically on Willmore charts."""
    sbar_half = inv.s.conj() * 0.5
    abar = inv.alpha.conj()
    w1 = inv.gamma1.zbar() + inv.gamma1 * abar + sbar_half * inv.lambda1
    w2 = inv.gamma2.zbar() - inv.gamma2 * abar + sbar_half * inv.lambda2
    return w1, w2


def side_field(inv, name, side):
    """``inv.<name>_<side>``, where ``side`` is 'left' or 'right'."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return getattr(inv, name + "_" + side)


def adjoint_vector(frame, inv, side="left"):
    """The adjoint lift built from one of the mu directions.

    Null, with <Y, Yhat> = -1 and <Y_z, Yhat> = mu/2, for any chart;
    it only becomes a conformal chart of its own where the surface is
    Willmore (the transform layer checks that gate).

    With mu = a + ib it is Y (a^2 + b^2)/2 + Y_u a - Y_v b + N, since
    Y_z mubar + Y_zbar mu = Y_u a - Y_v b; every product is then real
    when the chart is."""
    mu = side_field(inv, "mu", side)
    a, b = mu.real, mu.imag
    order = mu.order
    return (frame.Y.truncated(order) * ((a * a + b * b) * 0.5)
            + frame.Yu.truncated(order) * a
            - frame.Yv.truncated(order) * b
            + frame.N.truncated(order))


def envelope_vector(frame, inv):
    """Second envelope of the left null congruence.

    Adds the L-direction correction that makes the result orthogonal to
    L, L_z and L_zzbar; the correction coefficient is real on Willmore
    charts, so its imaginary part is dropped (it is an integrability
    residual)."""
    _, w2 = willmore_operators(inv)
    one = Jet2.constant(np.ones(inv.lambda2.batch_shape), inv.lambda2.order)
    safe2 = jet_where(inv.umbilic_left, one, inv.lambda2)
    corr = (w2 / (safe2 * safe2.conj())).real
    yhat = adjoint_vector(frame, inv, "left")
    return yhat + frame.L.truncated(corr.order) * corr


def conformal_gauss_data(frame):
    """Metric data of the central sphere congruence of a frame.

    Returns per-point arrays: gram_GG, a folded Gram determinant of
    (Y, Y_z, Y_zbar, N) that equals 1 identically, and quarter_dG2,
    the quarter conformal-metric trace of the congruence, which equals
    <Y_zzbar, Y_zzbar> wherever the congruence is regular.
    """
    Y, Yz, Yzb, N = frame.Y, frame.Yz, frame.Yzb, frame.N
    Yzz = Yz.z()
    Yzzb = Yz.zbar()
    Yzbzb = Yzb.zbar()
    Nz = N.z()
    Nzb = N.zbar()

    base = [Y, Yz, Yzb, N]
    dz = [Yz, Yzz, Yzzb, Nz]
    dzb = [Yzb, Yzzb, Yzbzb, Nzb]

    vals = np.stack([w.value for w in base], axis=-2)
    vals_z = np.stack([w.value for w in dz], axis=-2)
    vals_zb = np.stack([w.value for w in dzb], axis=-2)

    gram_gg = 4.0 * gram_wedge_inner(vals, vals)

    total = 0.0
    for i in range(4):
        ai = vals.copy()
        ai[..., i, :] = vals_z[..., i, :]
        for j in range(4):
            bj = vals.copy()
            bj[..., j, :] = vals_zb[..., j, :]
            total = total + gram_wedge_inner(ai, bj)
    quarter = 2.0 * np.real(total)
    kp = np.real(_value_inner(Yzzb, Yzzb))
    return {"gram_GG": np.real(gram_gg), "quarter_dG2": quarter,
            "kappa_pair": kp}
