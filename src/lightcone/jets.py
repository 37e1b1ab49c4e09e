"""Truncated bivariate Taylor arithmetic (2-jets) over numpy batches.

A ``Jet2`` holds the Taylor coefficients a[j, k] of a scalar function

    f(u0 + du, v0 + dv) = sum_{j+k <= K} a[j, k] du^j dv^k

for a batch of base points (one jet per grid point).  Entries with
j + k > K are kept identically zero.  All operations are exact
truncations of the series operations, so derivatives read off a jet
carry no discretization error, only rounding.

Storage is coefficient-first: ``jet.coef`` is an array of shape
(K+1, K+1, *batch), so ``coef[j, k]`` is one contiguous batch vector.
The truncated product is then one loop over the C(K+2, 2) coefficients
a[p, q] of the left factor, each step adding a[p, q] times the leading
block of the right factor to the matching block of the result (the
Taylor-mode kernel of Griewank & Walther, *Evaluating Derivatives*,
ch. 13).  ``jet.c`` is the same coefficients seen batch-first, shape
(*batch, K+1, K+1): a writable view of the storage, not a copy, and the
constructors ``Jet2(c)`` and ``JetVec6(c)`` take that layout.

The storage dtype follows the data: float64 for a jet that is real by
construction, complex128 only where an operation makes it complex (the
Wirtinger derivatives, a complex scalar, a fractional power of a
negative number).  One product kernel serves both, and numpy's type
promotion picks its result type, so a product of two real jets does one
real multiply-add per term.  A real jet's ``.c`` takes real values
only; on a real jet ``conj()`` and ``.real`` return the jet itself.

Analytic functions (exp, sin, sqrt, powers, ...) are composed through
their Taylor series evaluated on the nilpotent part n of the argument,
by Horner's rule.  The partial sum that is multiplied by n^m only
matters up to order K - m, so each Horner step runs at the order the
result needs from it.  Division and non-integer powers require the
constant term to be bounded away from zero and raise DomainError
otherwise.

Wirtinger derivatives follow z = u + iv:

    d_z = (d_u - i d_v) / 2        d_zbar = (d_u + i d_v) / 2

``JetVec6`` bundles six jets into an R^{4,2} vector of functions, with
the bilinear signature-(4,2) inner product of the ambient module.

Both types derive from ``_Jet``, which holds everything they do alike:
construction, ``order`` and ``value``, truncation, addition and
subtraction at the lower of two orders, the u, v and Wirtinger
derivatives, conjugation and the real part.  Its class flag ``_vector``
says whether the storage carries the trailing component axis; it is
the only difference those operations see.  Each subclass keeps its own
products: ``Jet2`` multiplies, divides and composes scalar jets and
takes plain scalars in sums, ``JetVec6`` scales by scalar jets and
forms the inner product.
"""

import numpy as np

from .ambient import SIGNS
from .errors import DomainError, OrderExhausted

#: constant terms smaller than this reject division and fractional powers
DIVISION_TOL = 1e-10

_MASKS = {}


def _mask(order, trailing=0):
    """Boolean array, True where j + k <= K, shaped (K+1, K+1) plus
    ``trailing`` unit axes so it broadcasts over coefficient-first
    storage.  The (K+1, K+1) table is cached."""
    m = _MASKS.get(order)
    if m is None:
        j = np.arange(order + 1)
        m = (j[:, None] + j[None, :]) <= order
        _MASKS[order] = m
    return m.reshape(m.shape + (1,) * trailing)


def _widen(s, ndim):
    """Coefficient-first array s with unit batch axes inserted after the
    coefficient axes until it has ndim axes, so the batch axes of two
    operands line up from the right."""
    extra = ndim - s.ndim
    if extra <= 0:
        return s
    return s.reshape(s.shape[:2] + (1,) * extra + s.shape[2:])


def _batch_first(s, vector=False):
    """Writable batch-first view (*batch, [6,] K+1, K+1) of storage."""
    if vector:
        return np.moveaxis(s, (0, 1, -1), (-2, -1, -3))
    return np.moveaxis(s, (0, 1), (-2, -1))


def _dtype(x):
    """Storage dtype for data x: complex128 if x is complex, else
    float64."""
    return np.complex128 if np.iscomplexobj(x) else np.float64


def _coefficient_first(c, vector=False):
    """Contiguous coefficient-first copy of a batch-first array."""
    c = np.asarray(c)
    if vector:
        c = np.moveaxis(c, (-3, -2, -1), (-1, 0, 1))
    else:
        c = np.moveaxis(c, (-2, -1), (0, 1))
    return np.array(c, dtype=_dtype(c), order="C")


def _mul(a, b):
    """Truncated product of coefficient-first arrays at the order of b.

    a may have a lower order than b; its terms above that order count as
    zero.  Trailing axes broadcast.  Each output coefficient sums its
    terms in the order of increasing (p, q) of a, and only the triangle
    j + k <= K is kept.
    """
    order = b.shape[0] - 1
    top = a.shape[0] - 1
    ndim = max(a.ndim, b.ndim)
    a, b = _widen(a, ndim), _widen(b, ndim)
    batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    out = np.zeros((order + 1, order + 1) + batch,
                   dtype=np.result_type(a, b))
    blocks = [b[:m + 1, :m + 1] for m in range(order + 1)]
    for p in range(top + 1):
        row = a[p]
        for q in range(top + 1 - p):
            m = order - p - q
            out[p:p + m + 1, q:q + m + 1] += row[q] * blocks[m]
    out *= _mask(order, len(batch))
    return out


def _du(s):
    order = s.shape[0] - 1
    if order == 0:
        raise OrderExhausted("derivative of an order-0 jet")
    w = np.arange(1, order + 1).reshape((-1, 1) + (1,) * (s.ndim - 2))
    out = s[1:, :order] * w
    out *= _mask(order - 1, s.ndim - 2)
    return out


def _dv(s):
    order = s.shape[0] - 1
    if order == 0:
        raise OrderExhausted("derivative of an order-0 jet")
    w = np.arange(1, order + 1).reshape((1, -1) + (1,) * (s.ndim - 2))
    out = s[:order, 1:] * w
    out *= _mask(order - 1, s.ndim - 2)
    return out


def _truncate(s, order):
    """s at order ``order``, or s itself when that is its order."""
    if s.shape[0] - 1 == order:
        return s
    return s[:order + 1, :order + 1] * _mask(order, s.ndim - 2)


def _check_divisor(c0, what):
    # written so that a NaN constant term counts as small too
    small = ~(np.abs(c0) >= DIVISION_TOL)
    if np.any(small):
        raise DomainError(
            "%s at a near-zero constant term" % what,
            count=int(np.count_nonzero(small)),
            min_abs=float(np.min(np.abs(c0))), tolerance=DIVISION_TOL)


class _Jet:
    """What both jet types do alike.  Immutable by convention: every
    operation returns a new jet.

    ``coef`` holds the coefficients coefficient-first; ``_vector`` is
    True when a trailing component axis follows the batch axes.
    """

    __slots__ = ("coef",)
    _vector = False

    # -- construction ---------------------------------------------------

    def __init__(self, c):
        """Jet from batch-first coefficients, (*batch, K+1, K+1) for a
        Jet2 and (*batch, 6, K+1, K+1) for a JetVec6."""
        self.coef = _coefficient_first(c, self._vector)

    @classmethod
    def _wrap(cls, coef):
        jet = object.__new__(cls)
        jet.coef = coef
        return jet

    @property
    def c(self):
        return _batch_first(self.coef, self._vector)

    @classmethod
    def constant(cls, value, order):
        value = np.asarray(value)
        s = np.zeros((order + 1, order + 1) + value.shape,
                     dtype=_dtype(value))
        s[0, 0] = value
        return cls._wrap(s)

    # -- basic queries ---------------------------------------------------

    @property
    def order(self):
        return self.coef.shape[0] - 1

    @property
    def value(self):
        return self.coef[0, 0]

    def truncated(self, order):
        if order > self.order:
            raise OrderExhausted(
                "cannot extend a jet of order %d to order %d"
                % (self.order, order))
        if order == self.order:
            return self
        return self._wrap(_truncate(self.coef, order))

    # -- ring operations --------------------------------------------------

    def _pair(self, other):
        """Return (self.coef, other.coef) at a common order, with their
        batch axes lined up."""
        order = min(self.order, other.order)
        a, b = _truncate(self.coef, order), _truncate(other.coef, order)
        ndim = max(a.ndim, b.ndim)
        return _widen(a, ndim), _widen(b, ndim)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return self._wrap(a + b)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return self._wrap(a - b)

    def __neg__(self):
        return self._wrap(-self.coef)

    # -- calculus ----------------------------------------------------------

    def du(self):
        return self._wrap(_du(self.coef))

    def dv(self):
        return self._wrap(_dv(self.coef))

    def z(self):
        return self._wrap(0.5 * (_du(self.coef) - 1j * _dv(self.coef)))

    def zbar(self):
        return self._wrap(0.5 * (_du(self.coef) + 1j * _dv(self.coef)))

    def conj(self):
        """Jet of the conjugated function (coefficients conjugate); a
        real jet is its own conjugate."""
        if not np.iscomplexobj(self.coef):
            return self
        return self._wrap(np.conj(self.coef))

    @property
    def real(self):
        """Real part as a float64 jet; a real jet is its own."""
        if not np.iscomplexobj(self.coef):
            return self
        return self._wrap(np.ascontiguousarray(self.coef.real))


class Jet2(_Jet):
    """One truncated Taylor expansion per batch point.

    ``coef`` holds the coefficients coefficient-first, (K+1, K+1, *batch);
    ``c`` is the batch-first view (*batch, K+1, K+1) of the same memory.
    """

    __slots__ = ()

    # -- construction ---------------------------------------------------

    @classmethod
    def variable(cls, value, order, axis):
        """Seed jet of the coordinate itself: value + du (axis 0) or
        value + dv (axis 1)."""
        jet = cls.constant(value, order)
        if order >= 1:
            if axis == 0:
                jet.coef[1, 0] = 1.0
            else:
                jet.coef[0, 1] = 1.0
        return jet

    # -- basic queries ---------------------------------------------------

    @property
    def batch_shape(self):
        return self.coef.shape[2:]

    def nilpotent_norm(self):
        """Max absolute size of the non-constant coefficients."""
        s = self.coef.copy()
        s[0, 0] = 0
        if s.size == 0:
            return 0.0
        return float(np.max(np.abs(s)))

    @property
    def imag(self):
        """Imaginary part as a float64 jet."""
        return Jet2._wrap(np.ascontiguousarray(self.coef.imag))

    # -- ring operations --------------------------------------------------

    def _pair(self, other):
        """As ``_Jet._pair``, with plain scalars taken as constant jets;
        NotImplemented for a JetVec6, which handles mixed products."""
        if isinstance(other, JetVec6):
            return NotImplemented
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.order)
        return super()._pair(other)

    __radd__ = _Jet.__add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, JetVec6):
            return other.__mul__(self)
        if isinstance(other, Jet2):
            a, b = self._pair(other)
            return Jet2._wrap(_mul(a, b))
        other = np.asarray(other)
        return Jet2._wrap(_widen(self.coef, other.ndim + 2) * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / np.asarray(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        return self.power(exponent)

    # -- analytic composition ----------------------------------------------

    def _compose(self, derivs):
        """Horner evaluation of sum_m derivs[m] n^m, n = self minus its
        constant term. derivs[m] already includes the 1/m! factor.

        The partial sum P_m = derivs[m] + n P_{m+1} is multiplied by n^m
        on its way to the result, and n^m has no terms below order m, so
        P_m is formed at order K - m only.  Each coefficient kept sums
        the same terms in the same order as a full-order Horner step,
        less those that multiply the zero constant term of n.
        """
        order = self.order
        n = self.coef.copy()
        n[0, 0] = 0
        out = np.zeros((1, 1) + self.batch_shape,
                       dtype=np.result_type(self.coef, *derivs))
        out[0, 0] = derivs[order]
        for m in range(order - 1, -1, -1):
            out = _mul(out, n[:order - m + 1, :order - m + 1])
            out[0, 0] += derivs[m]
        return Jet2._wrap(out)

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
        if (np.isrealobj(c0) and not float(a).is_integer()
                and np.any(c0 < 0)):
            # a fractional power of a negative number is complex
            c0 = c0.astype(np.complex128)
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
    order = min(a.order, b.order)
    sa, sb = _truncate(a.coef, order), _truncate(b.coef, order)
    m = mask.reshape((1, 1) + mask.shape + ((1,) if a._vector else ()))
    ndim = max(m.ndim, sa.ndim, sb.ndim)
    out = np.where(_widen(m, ndim), _widen(sa, ndim), _widen(sb, ndim))
    return type(a)._wrap(out)


class JetVec6(_Jet):
    """Six jets forming one R^{4,2}-vector-valued map per batch point.

    ``coef`` holds the coefficients coefficient-first with the component
    axis last, (K+1, K+1, *batch, 6), so the product kernel treats the
    component axis as one more batch axis and ``inner`` and
    ``transformed`` contract it in place.  ``c`` is the batch-first view
    (*batch, 6, K+1, K+1) of the same memory.
    """

    __slots__ = ()
    _vector = True

    @classmethod
    def from_components(cls, comps):
        if len(comps) != 6:
            raise ValueError("need exactly 6 components")
        order = min(j.order for j in comps)
        batch = np.broadcast_shapes(*[j.batch_shape for j in comps])
        parts = [np.broadcast_to(_truncate(j.coef, order),
                                 (order + 1, order + 1) + batch)
                 for j in comps]
        return cls._wrap(np.stack(parts, axis=-1))

    @property
    def batch_shape(self):
        return self.coef.shape[2:-1]

    def component(self, index):
        """Component jet: one index for every point, or an index array
        broadcasting against the batch shape that picks one per point."""
        index = np.asarray(index)
        if index.ndim == 0:
            return Jet2._wrap(self.coef[..., int(index)])
        sel = np.broadcast_to(index, self.batch_shape)[None, None, ..., None]
        return Jet2._wrap(np.take_along_axis(self.coef, sel, axis=-1)[..., 0])

    def transformed(self, matrix):
        """Apply a 6x6 matrix on the right (row vector convention)."""
        matrix = np.asarray(matrix)
        return JetVec6._wrap(np.einsum("...j,ji->...i", self.coef, matrix))

    def _scalar(self, other):
        """Storage and a per-point scalar array, lined up to broadcast."""
        other = np.asarray(other)
        if other.ndim:
            other = other[..., None]
        return _widen(self.coef, other.ndim + 2), other

    def __mul__(self, other):
        """Scale by a scalar jet or a plain scalar."""
        if isinstance(other, Jet2):
            order = min(self.order, other.order)
            return JetVec6._wrap(_mul(_truncate(self.coef, order),
                                      _truncate(other.coef, order)[..., None]))
        s, other = self._scalar(other)
        return JetVec6._wrap(s * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        s, other = self._scalar(other)
        return JetVec6._wrap(s / other)

    def inner(self, other):
        """Bilinear signature-(4,2) inner product, returning a Jet2."""
        a, b = self._pair(other)
        return Jet2._wrap(np.einsum("...i,i->...", _mul(a, b), SIGNS))

    def __repr__(self):
        return "JetVec6(order=%d, batch=%s)" % (self.order, self.batch_shape)
