"""Canonical lifts, adapted frames and conformal invariants.

Everything here is pointwise jet algebra.  A chart's raw lift is first
rescaled to the canonical lift Y with <Y_z, Y_zbar> = 1/2; the conformal
Gauss direction N and a gauged null basis L, R of the normal plane then
make the invariant scalars plain inner products.

The Willmore energy density <Y_zzbar, Y_zzbar> needs no frame and not
even the whole of Y: ``pair_density`` reads the two Taylor
coefficients Y[2,0] and Y[0,2] at each base point, summed from the raw
lift and g2^(-1/2) as the product kernel would sum them; that metric
factor is read only on the u and v grid lines through the point, the
only coefficients of it those two need.

Frame conventions, fixed once:

  * <N, N> = 0, <N, Y> = -1, <N, Y_z> = 0;
  * <L, L> = <R, R> = 0, <L, R> = -1, both orthogonal to Y, Y_u, Y_v, N;
  * det(Y, Y_u, Y_v, N, L, R) > 0;
  * the gauge balances |<L, W0>| = |<R, W0>| against a reference axis
    W0 chosen per point, with <L, W0> < 0.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ambient import SIGNS, gram_wedge_inner
from .charts import require_finite
from .errors import (GaugeReferenceDegenerate, NormalPlaneDegenerate,
                     NotSpacelike, OrderExhausted, ParameterOutOfRange)
from .jets import Jet2, JetVec6, _check_divisor, jet_where

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
    """<a, b> of two value arrays, component axis last: the value of
    the jets' ``inner`` bit for bit, without the products of the higher
    coefficients."""
    return np.einsum("...i,i->...", a * b, SIGNS)


def _inverse_sqrt_metric(raw):
    """g2^(-1/2) of a raw lift, where g2 = 2 <r_z, r_zbar> is its
    induced metric: the scalar jet, one order below the lift, that
    scales it to the canonical one.  Raises NotSpacelike where the
    metric degenerates or flips sign."""
    ru = raw.du()
    rv = raw.dv()
    # g2 = (<Y_u, Y_u> + <Y_v, Y_v>) / 2, formed from real products when
    # the lift is real
    g2 = ((ru.inner(ru) + rv.inner(rv)) * 0.5).real
    scale = np.sum(np.abs((ru.value - rv.value * 1j) * 0.5) ** 2, axis=-1)
    # the u, v derivatives are not needed below; freeing them lowers the
    # memory peak of the power that follows
    del ru, rv
    ratio = g2.value / np.maximum(scale, 1e-300)
    # written so that a NaN ratio fails the gate too
    if not np.min(ratio) > SPACELIKE_TOL:
        raise NotSpacelike("induced metric is not positive",
                           worst=float(np.min(ratio)))
    return g2.power(-0.5)


def canonical_lift(raw):
    """Scale a raw light cone lift to the canonical one.

    The returned jet has one order less than the input (one derivative
    is consumed by the normalization).  Raises NotSpacelike where the
    induced metric degenerates or flips sign.
    """
    return raw.truncated(raw.order - 1) * _inverse_sqrt_metric(raw)


def _gauged(null, ratio, sign, exponent):
    """A null normal scaled by ratio**exponent and the joint sign: the
    gauged L (exponent 1/2) or R (exponent -1/2) of ``_gauge``."""
    return null * ratio.power(exponent) * sign


class FrameData:
    """Adapted frame along a chart, all entries jets of equal order
    except Y (one higher) and its first derivatives.

    Y, Y_zzbar, Y_u, Y_v and N are formed with the frame.  The gauged
    null normals L and R and the Wirtinger derivatives Y_z and Y_zbar
    are formed on first read, at the order of the frame they are read
    from, and then kept: L and R from the ungauged pair, the gauge
    ratio and the sign ``_gauge`` returns, Y_z and Y_zbar from Y_u and
    Y_v.  A jet coefficient does not depend on the order it is formed at
    (``jets``), so a piece formed on a truncated frame has the
    coefficients of the whole frame's piece truncated, bit for bit, and
    a piece has the same bits whichever pieces were read before it.  Every check
    that can fail runs when the frame is built, so reading a piece
    raises nothing.  A piece is stored only once whole; two threads that
    read it first both form it, with the same bits.
    """

    __slots__ = ("Y", "Yzzb", "Yu", "Yv", "N", "orientation_det",
                 "gauge_axis", "gauge_fallback", "_null", "_ratio",
                 "_sign", "_L", "_R", "_Yz", "_Yzb")

    def __init__(self, Y, Yzzb, Yu, Yv, N, null, ratio, sign,
                 orientation_det, gauge_axis):
        self.Y = Y
        self.Yzzb = Yzzb
        self.Yu = Yu
        self.Yv = Yv
        self.N = N
        self._null = null
        self._ratio = ratio
        self._sign = sign
        self._L = self._R = self._Yz = self._Yzb = None
        self.orientation_det = orientation_det
        self.gauge_axis = gauge_axis
        self.gauge_fallback = gauge_axis != GAUGE_PRIMARY

    @property
    def L(self):
        L = self._L
        if L is None:
            L = self._L = _gauged(self._null[0], self._ratio, self._sign,
                                  0.5)
        return L

    @property
    def R(self):
        R = self._R
        if R is None:
            R = self._R = _gauged(self._null[1], self._ratio, self._sign,
                                  -0.5)
        return R

    @property
    def Yz(self):
        Yz = self._Yz
        if Yz is None:
            Yz = self._Yz = (self.Yu - self.Yv * 1j) * 0.5
        return Yz

    @property
    def Yzb(self):
        Yzb = self._Yzb
        if Yzb is None:
            Yzb = self._Yzb = (self.Yu + self.Yv * 1j) * 0.5
        return Yzb

    def truncated(self, order):
        """The frame ``frame_field`` builds from the canonical lift
        truncated to ``order``: Y at ``order``, its first derivatives one
        below and Y_zzbar, N, L, R two below.  Every choice the frame
        makes is made on values, so the truncated frame is that frame
        bit for bit.  A piece formed here already is truncated; the
        truncated frame forms the others from truncated inputs when they
        are read.  Raises OrderExhausted below order 2, where N, L and R
        would have no coefficient left."""
        if order < 2:
            raise OrderExhausted(
                "a frame needs Y of order 2 or more", order=order)
        if order == self.Y.order:
            return self
        first, second = order - 1, order - 2
        frame = FrameData(
            self.Y.truncated(order), self.Yzzb.truncated(second),
            self.Yu.truncated(first), self.Yv.truncated(first),
            self.N.truncated(second),
            tuple(x.truncated(second) for x in self._null),
            self._ratio.truncated(second), self._sign,
            self.orientation_det, self.gauge_axis)
        for name, at in (("_L", second), ("_R", second), ("_Yz", first),
                         ("_Yzb", first)):
            piece = getattr(self, name)
            if piece is not None:
                setattr(frame, name, piece.truncated(at))
        return frame


def frame_field(Y, *, tol=Tolerances()):
    """Build the adapted frame from a canonical lift.

    N, L, R come out two orders below Y.  The normal plane is the
    η-orthogonal complement of span{Y, Y_u, Y_v, N}.  At each point the
    last two right-singular vectors of the η-dual rows of those four
    values are a Euclidean-orthonormal basis of it (Golub & Van Loan,
    *Matrix Computations*, §2.5), in whatever ambient coordinates the
    lift comes.  The basis is rotated to diagonalize its η-Gram at value
    level, projected off the tangent jets and orthonormalized as jets,
    so the frame identities hold exactly.
    """
    Yu = Y.du()
    Yv = Y.dv()
    Yzzb = _laplacian(Yu, Yv)
    N = Yzzb * 2.0 + Y * (Yzzb.inner(Yzzb) * 2.0)

    order = N.order
    Yt = Y.truncated(order)
    Yut = Yu.truncated(order)
    Yvt = Yv.truncated(order)

    # x is η-orthogonal to a where (a * SIGNS) . x = 0, so the plane is
    # the null space of these rows.  LAPACK fails on NaN: a point that
    # is not finite gets zero rows and a NaN discriminant instead
    Yval = Y.value.real
    Yuval = Yu.value.real
    Yvval = Yv.value.real
    Nval = N.value.real
    dual = np.stack([Yval, Yuval, Yvval, Nval], axis=-2) * SIGNS
    finite = np.all(np.isfinite(dual), axis=(-2, -1))
    dual = np.where(finite[..., None, None], dual, 0.0)
    h = np.linalg.svd(dual)[2][..., 4:, :]
    gram = np.einsum("...ic,...jc,c->...ij", h, h, SIGNS)
    qa, qb, cab = gram[..., 0, 0], gram[..., 1, 1], gram[..., 0, 1]
    # the basis has unit size, so the η-Gram determinant is scale-free;
    # written so that a NaN discriminant fails the gate too
    worst = np.max(np.where(finite, qa * qb - cab ** 2, np.nan))
    if not worst <= -PLANE_TOL:
        raise NormalPlaneDegenerate(
            "the normal complement is not a Lorentzian plane",
            worst=float(worst))

    # the rotation that makes the first vector spacelike and the second
    # timelike with the largest margins; the jet-level Gram-Schmidt
    # below then needs no branches
    phi = (0.5 * np.arctan2(2.0 * cab, qa - qb))[..., None]
    a1 = h[..., 0, :] * np.cos(phi) + h[..., 1, :] * np.sin(phi)
    a2 = h[..., 0, :] * (-np.sin(phi)) + h[..., 1, :] * np.cos(phi)

    def project_off_tangent(a):
        # a less its parts along Y, Y_u, Y_v, N, where <Y, N> = -1; each
        # pairing <X, a> with the constant a contracts X's components
        cy, cu, cv, cn = (
            Jet2._wrap(np.einsum("...c,...c->...", X.coef, a * SIGNS))
            for X in (Yt, Yut, Yvt, N))
        return JetVec6.constant(a, order) - (
            Yt * (-cn) + Yut * cu + Yvt * cv + N * (-cy))

    m1 = project_off_tangent(a1)
    m2 = project_off_tangent(a2)

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
    del Yt, Yut, Yvt, m1, m2, f1, f2

    rows = np.stack([Yval, Yuval, Yvval, Nval,
                     L.value.real, R.value.real], axis=-2)
    det = np.linalg.det(rows)
    swap = det < 0
    L, R = jet_where(swap, R, L), jet_where(swap, L, R)

    ratio, sign, gauge_axis = _gauge(L, R, tol)

    return FrameData(Y, Yzzb, Yu, Yv, N, (L, R), ratio, sign,
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
    makes <L, W0> negative.

    Returns the ratio of the pairings, the joint sign and the chosen
    axis per point; the gauged pair is L ratio^(1/2) and R ratio^(-1/2),
    each times the sign (``_gauged``), formed when ``FrameData`` reads
    them.  The ratio's constant term is checked here, as those powers
    would check it, so that every error of the gauge surfaces with the
    frame.
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
    ratio = (pR * sR) / (pL * sL)
    _check_divisor(ratio.value, "power or division")
    # the product by -sL is an exact negation where <L, W0> > 0
    return ratio, -sL, chosen


class InvariantSet:
    """Pointwise conformal invariants of a framed chart, each formed
    from the frame on first read and then cached, so a caller pays only
    for the fields it reads: the polar-step gates form lambda1, lambda2
    and s, the Willmore residual adds alpha and gamma.  A field is the
    same jet, bit for bit, whichever fields were read before it.  An
    error of a field, such as the DomainError of a mu division at a
    lambda under a zero umbilic floor, surfaces when that field is read.
    Every field is products, derivatives and, for mu, the quotient
    recurrence of ``jets``, none of which depends on the order: so the
    fields of a truncated frame are the truncated fields, and the gates
    read the same values at their least order as at any higher one.

    lambda1 and lambda2 weight the null normal directions in Y_zz, s is
    the Schwarzian-like coefficient, alpha the normal connection form,
    gamma1/gamma2 the derived coefficients of N_z, and swillmore_disc the
    S-Willmore discriminant lambda1 gamma2 - lambda2 gamma1, which
    vanishes where the adjoint directions coincide.  The division-based
    fields (mu, rho, sigma) are only meaningful off the umbilic masks,
    and rho is None when the frame order cannot support one more
    derivative of mu.  The umbilic masks come from ``tol.umbilic``.
    """

    def __init__(self, frame, tol=Tolerances()):
        self.frame = frame
        self.tol = tol

    def _yzz(self):
        # formed again for each of its three fields, not kept: it is a
        # vector, and no other field reads it
        return self.frame.Yz.z()

    @cached_property
    def lambda1(self):
        return -self._yzz().inner(self.frame.R)

    @cached_property
    def lambda2(self):
        return -self._yzz().inner(self.frame.L)

    @cached_property
    def s(self):
        return self._yzz().inner(self.frame.N) * 2.0

    @cached_property
    def alpha(self):
        return -self.frame.L.z().inner(self.frame.R)

    @cached_property
    def gamma1(self):
        return self.lambda1.zbar() + self.lambda1 * self.alpha.conj()

    @cached_property
    def gamma2(self):
        return self.lambda2.zbar() - self.lambda2 * self.alpha.conj()

    @cached_property
    def beta(self):
        return (self.lambda1 * self.lambda2.conj()
                + self.lambda2 * self.lambda1.conj()).real

    @cached_property
    def kappa_pair(self):
        return self.frame.Yzzb.inner(self.frame.Yzzb).real

    @cached_property
    def kappa_iso(self):
        return self.lambda1 * self.lambda2 * (-2.0)

    def _umbilic(self, lam):
        floor = self.tol.umbilic * (1.0 + np.abs(self.s.value))
        return np.abs(lam.value) < floor

    @cached_property
    def umbilic_right(self):
        return self._umbilic(self.lambda1)

    @cached_property
    def umbilic_left(self):
        return self._umbilic(self.lambda2)

    def _mubar(self, gamma, lam, umbilic):
        # a constant 1 stands in for lambda on its umbilic mask
        one = Jet2.constant(np.ones(lam.batch_shape), lam.order)
        return gamma * (-2.0) / jet_where(umbilic, one, lam)

    @cached_property
    def _mubar_left(self):
        return self._mubar(self.gamma2, self.lambda2, self.umbilic_left)

    @cached_property
    def _mubar_right(self):
        return self._mubar(self.gamma1, self.lambda1, self.umbilic_right)

    @cached_property
    def mu_left(self):
        return self._mubar_left.conj()

    @cached_property
    def mu_right(self):
        return self._mubar_right.conj()

    @cached_property
    def swillmore_disc(self):
        return self.lambda1 * self.gamma2 - self.lambda2 * self.gamma1

    @cached_property
    def theta(self):
        return self.swillmore_disc * self.swillmore_disc

    # rho sits one derivative below mu; leave it out when the frame does
    # not carry that order (transform steps run at the edge)
    @cached_property
    def rho_left(self):
        if self._mubar_left.order == 0:
            return None
        return self._mubar_left.z() + self.beta * 2.0

    @cached_property
    def rho_right(self):
        if self._mubar_right.order == 0:
            return None
        return self._mubar_right.z() + self.beta * 2.0

    @cached_property
    def sigma_left(self):
        return self.gamma1 * 2.0 + self.lambda1 * self._mubar_left

    @cached_property
    def sigma_right(self):
        return self.gamma2 * 2.0 + self.lambda2 * self._mubar_right


#: raw lift order from which ``invariants`` forms every field, down to
#: the order-0 alpha, gamma and mu and the umbilic masks
INVARIANTS_ORDER = 4


def invariants(frame, tol=Tolerances()):
    """The invariant scalars of an adapted frame, formed as they are
    read (``InvariantSet``); the umbilic masks come from
    ``tol.umbilic``.  Raises OrderExhausted for the frame of a raw lift
    below ``INVARIANTS_ORDER``, which cannot form alpha and gamma."""
    order = frame.Y.order + 1
    if order < INVARIANTS_ORDER:
        raise OrderExhausted(
            "the invariants need the frame of a raw lift of order %d or "
            "more" % INVARIANTS_ORDER, order=order)
    return InvariantSet(frame, tol)


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


def _line_metric(raw):
    """h = g2^(-1/2) of a raw lift of order 3 or more on the u and v
    lines through each base point, (2, 3, *batch): [0, j] is h[j, 0] and
    [1, j] is h[0, j].  Raises as ``_inverse_sqrt_metric`` does.

    A coefficient (j, 0) of a product or a power reads only the (p, 0)
    coefficients of its factors, so g2 and h on a line need only r_u and
    r_v on it; the v line is the u line of the transposed coefficients,
    with r_u and r_v trading places.  Each output sums the terms of
    ``_mul`` and ``_recurrence`` in their order: the same bits.
    """
    r = raw.coef
    weights = np.arange(1.0, 4.0).reshape((3,) + (1,) * (r.ndim - 2))
    one = weights[0]
    real = np.isrealobj(r)

    def metric(s):
        # r_u[j, 0] = (j + 1) r[j + 1, 0] and r_v[j, 0] = 1.0 r[j, 1] of
        # the coefficients s, one after the other; a real r_v is read in
        # place, as 1.0 x is x
        sums = []
        for x in (s[1:4, 0] * weights, s[:3, 1] if real else s[:3, 1] * one):
            signed = np.empty(x.shape[:-1], x.dtype)
            for j in range(3):
                # the kernel's terms x[p] x[j - p] in increasing p, summed
                # from 0.0; a real product does not depend on the order
                # of its factors, so a real line forms each pair once
                terms = [x[p] * x[j - p]
                         for p in range(j // 2 + 1 if real else j + 1)]
                if real:
                    terms += terms[:j + 1 - len(terms)][::-1]
                square = terms[0] + 0.0
                for term in terms[1:]:
                    square += term
                signed[j] = np.einsum("...i,i->...", square, SIGNS)
            sums.append(signed)
        return ((sums[0] + sums[1]) * 0.5).real

    g2 = np.stack([metric(r), metric(r.swapaxes(0, 1))])
    # r_u and r_v at the base point, as raw.du() and raw.dv() hold them
    ru0, rv0 = r[1, 0] * one, r[0, 1] * one
    scale = np.sum(np.abs((ru0 - rv0 * 1j) * 0.5) ** 2, axis=-1)
    ratio = g2[0, 0] / np.maximum(scale, 1e-300)
    # written so that a NaN ratio fails the gate too
    if not np.min(ratio) > SPACELIKE_TOL:
        raise NotSpacelike("induced metric is not positive",
                           worst=float(np.min(ratio)))
    g0 = g2[:, 0]
    # the v line's g0 is the u line's, which alone counts
    _check_divisor(g2[0, 0], "power or division")
    # f_d = sum_p f_(d-p) (g_p w) / g_0, w = ((a + 1) p - d) / d, a = -1/2
    h = np.empty_like(g2)
    h[:, 0] = g0 ** -0.5
    for d in (1, 2):
        total = np.zeros_like(g0)
        for p in range(1, d + 1):
            total += h[:, d - p] * (g2[:, p] * ((0.5 * p - d) / d))
        np.divide(total, g0, out=h[:, d])
    return h


def pair_density(raw):
    """<Y_zzbar, Y_zzbar> of the canonical lift Y at the base points,
    the Willmore energy density against du dv, as a float array.  Needs
    no frame and a raw lift of order 3 or more.

    Y = raw h with h = g2^(-1/2), and at a base point
    Y_zzbar = (Y_uu + Y_vv) / 4 = (2 Y[2,0] + 2 Y[0,2]) / 4 reads two
    Taylor coefficients of Y.  A coefficient of a product reads only the
    factors' coefficients of equal or lower degree (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13), so those two are summed here from
    the raw lift and h, term by term in the product kernel's order, and
    h itself is formed only on the u and v lines through each point
    (``_line_metric``).  The density is then that of ``canonical_lift``,
    ``_laplacian`` and ``inner`` bit for bit, without forming Y, any
    derivative of it or the whole metric.
    """
    if raw.order < 3:
        # the whole metric first, for the errors it raises before this
        _inverse_sqrt_metric(raw)
        raise OrderExhausted(
            "the energy density needs a raw lift of order 3 or more",
            order=raw.order)
    h = _line_metric(raw)

    def second(r, g):
        # Y[2, 0] of Y = r g: the kernel's terms r[p, 0] g[2 - p, 0] for
        # p = 0, 1, 2, each formed and then added to a sum from 0.0
        total = 0.0
        for p in range(3):
            total = total + r[p, 0] * g[2 - p][..., None]
        return total

    # Y[0, 2] is Y[2, 0] of the transposed coefficients
    Yzzb = (second(raw.coef, h[0]) * 2.0
            + second(raw.coef.swapaxes(0, 1), h[1]) * 2.0) * 0.25
    return np.real(_value_inner(Yzzb, Yzzb))


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
    kp = np.real(_value_inner(Yzzb.value, Yzzb.value))
    return {"gram_GG": np.real(gram_gg), "quarter_dG2": quarter,
            "kappa_pair": kp}
