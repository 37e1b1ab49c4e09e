"""Truncated bivariate Taylor arithmetic (2-jets) over numpy batches.

A ``Jet2`` holds the Taylor coefficients a[j, k] of a scalar function

    f(u0 + du, v0 + dv) = sum_{j+k <= K} a[j, k] du^j dv^k

as a complex array of shape (..., K+1, K+1); leading axes are batch
dimensions (one jet per grid point). Entries with j + k > K are kept
identically zero. All operations are exact truncations of the series
operations, so derivatives read off a jet carry no discretization error,
only rounding.

Analytic functions (exp, sin, sqrt, powers, ...) are composed through
their Taylor series evaluated on the nilpotent part of the argument.
Division and non-integer powers require the constant term to be bounded
away from zero and raise DomainError otherwise.

Wirtinger derivatives follow z = u + iv:

    d_z = (d_u - i d_v) / 2        d_zbar = (d_u + i d_v) / 2

``JetVec6`` bundles six jets into an R^{4,2} vector of functions, with
the bilinear signature-(4,2) inner product of the ambient module.
"""

import numpy as np

from .ambient import SIGNS
from .errors import DomainError, OrderExhausted

#: constant terms smaller than this reject division and fractional powers
DIVISION_TOL = 1e-10

_MASKS = {}


def _mask(order):
    """Boolean (K+1, K+1) array, True where j + k <= K. Cached."""
    m = _MASKS.get(order)
    if m is None:
        j = np.arange(order + 1)
        m = (j[:, None] + j[None, :]) <= order
        _MASKS[order] = m
    return m


def _mul(a, b):
    """Truncated product of coefficient arrays with equal trailing shape."""
    order = a.shape[-1] - 1
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(batch + a.shape[-2:], dtype=np.complex128)
    for p in range(order + 1):
        for q in range(order + 1 - p):
            out[..., p:, q:] += a[..., p:p + 1, q:q + 1] \
                * b[..., :order + 1 - p, :order + 1 - q]
    out *= _mask(order)
    return out


def _du(c):
    order = c.shape[-1] - 1
    if order == 0:
        raise OrderExhausted("derivative of an order-0 jet")
    w = np.arange(1, order + 1).reshape(-1, 1)
    out = c[..., 1:, :order] * w
    return out * _mask(order - 1)


def _dv(c):
    order = c.shape[-1] - 1
    if order == 0:
        raise OrderExhausted("derivative of an order-0 jet")
    w = np.arange(1, order + 1).reshape(1, -1)
    out = c[..., :order, 1:] * w
    return out * _mask(order - 1)


def _truncate(c, order):
    new = c[..., :order + 1, :order + 1]
    return new * _mask(order)


def _check_divisor(c0, what):
    # written so that a NaN constant term counts as small too
    small = ~(np.abs(c0) >= DIVISION_TOL)
    if np.any(small):
        raise DomainError(
            "%s at a near-zero constant term" % what,
            count=int(np.count_nonzero(small)),
            min_abs=float(np.min(np.abs(c0))), tolerance=DIVISION_TOL)


class Jet2:
    """One truncated Taylor expansion per batch point. Immutable by
    convention: every operation returns a new jet."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.complex128)

    # -- construction ---------------------------------------------------

    @classmethod
    def constant(cls, value, order):
        value = np.asarray(value, dtype=np.complex128)
        c = np.zeros(value.shape + (order + 1, order + 1), dtype=np.complex128)
        c[..., 0, 0] = value
        return cls(c)

    @classmethod
    def variable(cls, value, order, axis):
        """Seed jet of the coordinate itself: value + du (axis 0) or
        value + dv (axis 1)."""
        jet = cls.constant(value, order)
        if order >= 1:
            if axis == 0:
                jet.c[..., 1, 0] = 1.0
            else:
                jet.c[..., 0, 1] = 1.0
        return jet

    # -- basic queries ---------------------------------------------------

    @property
    def order(self):
        return self.c.shape[-1] - 1

    @property
    def value(self):
        return self.c[..., 0, 0]

    @property
    def batch_shape(self):
        return self.c.shape[:-2]

    def truncated(self, order):
        if order > self.order:
            raise OrderExhausted(
                "cannot extend a jet of order %d to order %d"
                % (self.order, order))
        if order == self.order:
            return self
        return Jet2(_truncate(self.c, order))

    def nilpotent_norm(self):
        """Max absolute size of the non-constant coefficients."""
        c = self.c.copy()
        c[..., 0, 0] = 0
        if c.size == 0:
            return 0.0
        return float(np.max(np.abs(c)))

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        """Return (self_c, other_c) at a common order."""
        if isinstance(other, JetVec6):
            return NotImplemented
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.order)
        order = min(self.order, other.order)
        return _truncate(self.c, order) if order < self.order else self.c, \
            _truncate(other.c, order) if order < other.order else other.c

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return Jet2(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return Jet2(a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet2(-self.c)

    def __mul__(self, other):
        if isinstance(other, JetVec6):
            return other.__mul__(self)
        if isinstance(other, Jet2):
            a, b = self._coerce(other)
            return Jet2(_mul(a, b))
        other = np.asarray(other, dtype=np.complex128)
        if other.ndim:
            other = other[..., None, None]
        return Jet2(self.c * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / np.asarray(other, dtype=np.complex128))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        return self.power(exponent)

    # -- calculus ----------------------------------------------------------

    def du(self):
        return Jet2(_du(self.c))

    def dv(self):
        return Jet2(_dv(self.c))

    def z(self):
        return Jet2(0.5 * (_du(self.c) - 1j * _dv(self.c)))

    def zbar(self):
        return Jet2(0.5 * (_du(self.c) + 1j * _dv(self.c)))

    def conj(self):
        """Jet of the conjugated function (coefficients conjugate)."""
        return Jet2(np.conj(self.c))

    @property
    def real(self):
        return Jet2(0.5 * (self.c + np.conj(self.c)))

    @property
    def imag(self):
        return Jet2((self.c - np.conj(self.c)) / 2j)

    # -- analytic composition ----------------------------------------------

    def _compose(self, derivs):
        """Horner evaluation of sum_m derivs[m] n^m, n = self minus its
        constant term. derivs[m] already includes the 1/m! factor."""
        n = self.c.copy()
        n[..., 0, 0] = 0
        out = Jet2.constant(np.broadcast_to(derivs[-1], self.batch_shape),
                            self.order).c.copy()
        for m in range(self.order - 1, -1, -1):
            out = _mul(out, n)
            out[..., 0, 0] += derivs[m]
        return Jet2(out)

    def _series(self, cycle):
        """Compose with the analytic function whose m-th derivative at
        the constant term is cycle[m % len(cycle)]."""
        fact = 1.0
        derivs = []
        for m in range(self.order + 1):
            if m > 0:
                fact *= m
            derivs.append(cycle[m % len(cycle)] / fact)
        return self._compose(derivs)

    def exp(self):
        return self._series([np.exp(self.value)])

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series([s, c, -s, -c])

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series([c, -s, -c, s])

    def sinh(self):
        return self._series([np.sinh(self.value), np.cosh(self.value)])

    def cosh(self):
        return self._series([np.cosh(self.value), np.sinh(self.value)])

    def sqrt(self):
        return self.power(0.5)

    def reciprocal(self):
        return self.power(-1)

    def power(self, exponent):
        """self**exponent for a constant scalar exponent.

        Non-negative integers multiply out exactly (no constant-term
        restriction); negative integers and non-integers go through the
        binomial series, which needs |constant term| > DIVISION_TOL.
        """
        exponent = complex(exponent)
        if exponent.imag == 0 and float(exponent.real).is_integer():
            n = int(exponent.real)
            if n >= 0:
                return self._int_power(n)
            base = self._binomial(-1.0)
            return base._int_power(-n)
        if exponent.imag != 0:
            raise DomainError("complex exponents are not supported",
                              exponent=repr(exponent))
        return self._binomial(exponent.real)

    def _int_power(self, n):
        result = Jet2.constant(np.ones(self.batch_shape), self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _binomial(self, a):
        c0 = self.value
        _check_divisor(c0, "power or division")
        derivs = []
        coef = np.ones_like(c0)
        for m in range(self.order + 1):
            if m > 0:
                coef = coef * ((a - (m - 1)) / m)
            derivs.append(coef * c0 ** (a - m))
        return self._compose(derivs)

    def __repr__(self):
        return "Jet2(order=%d, batch=%s, value=%s)" % (
            self.order, self.batch_shape, np.array2string(
                np.atleast_1d(self.value)[..., :4], precision=6))


def seed_point(u, v, order):
    """Coordinate seed jets (U, V) at a point or batch of points."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (Jet2.variable(u, order, axis=0),
            Jet2.variable(v, order, axis=1))


def jet_where(mask, a, b):
    """Pointwise branch merge over the batch axes.

    mask broadcasts against the batch shape; entries pick a (True) or b
    (False). Works for Jet2 and JetVec6 alike.
    """
    mask = np.asarray(mask, dtype=bool)
    if isinstance(a, JetVec6):
        order = min(a.order, b.order)
        return JetVec6(np.where(mask[..., None, None, None],
                                _vec_truncate(a.c, order),
                                _vec_truncate(b.c, order)))
    order = min(a.order, b.order)
    return Jet2(np.where(mask[..., None, None],
                         _truncate(a.c, order) if order < a.order else a.c,
                         _truncate(b.c, order) if order < b.order else b.c))


def _vec_truncate(c, order):
    if c.shape[-1] - 1 == order:
        return c
    return _truncate(c, order)


class JetVec6:
    """Six jets forming one R^{4,2}-vector-valued map per batch point.

    Stored as one array of shape (..., 6, K+1, K+1); the component axis
    rides along as an extra batch axis for all coefficient kernels.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.complex128)

    @classmethod
    def from_components(cls, comps):
        if len(comps) != 6:
            raise ValueError("need exactly 6 components")
        order = min(j.order for j in comps)
        batch = np.broadcast_shapes(*[j.batch_shape for j in comps])
        parts = [np.broadcast_to(_truncate(j.c, order) if j.order > order
                                 else j.c, batch + (order + 1, order + 1))
                 for j in comps]
        return cls(np.stack(parts, axis=-3))

    @classmethod
    def constant(cls, vec, order):
        vec = np.asarray(vec, dtype=np.complex128)
        c = np.zeros(vec.shape + (order + 1, order + 1), dtype=np.complex128)
        c[..., 0, 0] = vec
        return cls(c)

    @property
    def order(self):
        return self.c.shape[-1] - 1

    @property
    def value(self):
        return self.c[..., :, 0, 0]

    @property
    def batch_shape(self):
        return self.c.shape[:-3]

    def component(self, i):
        return Jet2(self.c[..., i, :, :])

    def truncated(self, order):
        if order == self.order:
            return self
        return JetVec6(_truncate(self.c, order))

    def transformed(self, matrix):
        """Apply a 6x6 matrix on the right (row vector convention)."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        return JetVec6(np.einsum("...jkl,ji->...ikl", self.c, matrix))

    def __add__(self, other):
        order = min(self.order, other.order)
        return JetVec6(_vec_truncate(self.c, order)
                       + _vec_truncate(other.c, order))

    def __sub__(self, other):
        order = min(self.order, other.order)
        return JetVec6(_vec_truncate(self.c, order)
                       - _vec_truncate(other.c, order))

    def __neg__(self):
        return JetVec6(-self.c)

    def __mul__(self, other):
        """Scale by a scalar jet or a plain scalar."""
        if isinstance(other, Jet2):
            order = min(self.order, other.order)
            oc = _truncate(other.c, order) if other.order > order else other.c
            return JetVec6(_mul(_vec_truncate(self.c, order),
                                oc[..., None, :, :]))
        other = np.asarray(other, dtype=np.complex128)
        if other.ndim:
            other = other[..., None, None, None]
        return JetVec6(self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return JetVec6(self.c / other)

    def inner(self, other):
        """Bilinear signature-(4,2) inner product, returning a Jet2."""
        order = min(self.order, other.order)
        prod = _mul(_vec_truncate(self.c, order), _vec_truncate(other.c, order))
        return Jet2(np.einsum("...ijk,i->...jk", prod, SIGNS))

    def du(self):
        return JetVec6(_du(self.c))

    def dv(self):
        return JetVec6(_dv(self.c))

    def z(self):
        return JetVec6(0.5 * (_du(self.c) - 1j * _dv(self.c)))

    def zbar(self):
        return JetVec6(0.5 * (_du(self.c) + 1j * _dv(self.c)))

    def conj(self):
        return JetVec6(np.conj(self.c))

    @property
    def real(self):
        return JetVec6(0.5 * (self.c + np.conj(self.c)))

    def __repr__(self):
        return "JetVec6(order=%d, batch=%s)" % (self.order, self.batch_shape)


def inner(a, b):
    """Module-level alias: signed inner product of two JetVec6."""
    return a.inner(b)
