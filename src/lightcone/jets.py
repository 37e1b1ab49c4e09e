"""Truncated bivariate Taylor arithmetic (2-jets) over numpy batches.

A ``Jet2`` holds the Taylor coefficients a[j, k] of a scalar function

    f(u0 + du, v0 + dv) = sum_{j+k <= K} a[j, k] du^j dv^k

for a batch of base points (one jet per grid point).  Entries with
j + k > K are kept identically zero.  All operations are exact
truncations of the series operations, so derivatives read off a jet
carry no discretization error, only rounding.

Storage is coefficient-first: ``jet.coef`` is an array of shape
(K+1, K+1, *batch), so ``coef[j, k]`` is one contiguous batch vector.
The truncated product (the Taylor-mode kernel of Griewank & Walther,
*Evaluating Derivatives*, ch. 13) takes its terms a[p, q] b[j-p, k-q]
of the triangle j + k <= K from an index plan, built once per pair of
orders, and walks the batch in one of two ways.  A narrow batch, at
most _LANES entries, is flattened into lanes, and the plan runs over
it by rank, the r-th term of every output coefficient that has one: a
pass gathers and multiplies the factors of a run of terms, and one add
per rank accumulates them, so a product costs about one numpy call per
rank.  A wider batch goes term by term, one multiply and one add on
the broadcast batch each, straight from the operands: a factor on a
grid line (batch (nu, 1) or (1, nv)) is read on its line, not copied
out to the grid.  Either way each output sums the same terms in
increasing (p, q) from 0.0, so the bits of a batch entry do not depend
on the batch around it.  A function of u on its grid line times one
of v on its line, as in cos(a u) cos(v), skips the plan: it is the
outer product of the two lines, with the same bits, and it adds the
plan's + 0.0 only on the rows of the coefficient triangle it writes.
That product and a large ``JetVec6.from_components`` write into an
array that starts on a 64-byte cache line (``_aligned``), as do the
work arrays of the energy density: numpy's float64 loops run at about
half speed on an array that starts elsewhere, and glibc's malloc
promises only 16 bytes.  The plan kernel's and the recurrences' own
buffers are not: on the small batches they mostly serve, the extra
allocation costs more than alignment saves.  What a product does
that depends only on its operands' shapes and dtypes (the broadcast
batch, the result dtype, the plan, the output shape) is worked out
once per signature and kept; a narrow operand broadcast
along its trailing unit axis, the scalar of ``JetVec6 * Jet2`` over the
six components, is spread by ``np.repeat``.  ``jet.c`` is the
same coefficients seen batch-first, shape (*batch, K+1, K+1): a
writable view of the storage, not a copy, and the constructors
``Jet2(c)`` and ``JetVec6(c)`` take that layout.

The storage dtype follows the data: float64 for a jet that is real by
construction, complex128 only where an operation makes it complex (the
Wirtinger derivatives, a complex scalar, a fractional power of a
negative number).  One product kernel serves both, and numpy's type
promotion picks its result type, so a product of two real jets does one
real multiply-add per term.  A real jet's ``.c`` takes real values
only; on a real jet ``conj()`` and ``.real`` return the jet itself.

Analytic functions take one of two paths.  exp, sin, cos, sinh and
cosh are composed through their Taylor series evaluated on the
nilpotent part n of the argument, by Horner's rule.  The partial sum
that is multiplied by n^m only matters up to order K - m, so each
Horner step runs at the order the result needs from it.  When the
argument is affine in du and dv, as every coordinate seed is, a Horner
step needs no product: multiplying by n shifts the partial sum one
degree up in u and in v, so two multiply-adds take the place of the
convolution, with the same bits (Griewank & Walther, ch. 13).  Negative
and non-integer powers (sqrt, reciprocal, g^(-1/2)) and the quotient of
two jets take no product at all: they solve g E f = a f E g and g f = n
degree by degree, E the Euler operator, so each degree is one pass over
its terms (Griewank & Walther, ch. 13; Jorba & Zou, Experimental Math.
14, 2005).  On a batch of at most _REDUCE_LANES lanes, as the frames of
small grids are, a degree gathers all its terms at once, padded with
zeros to one term per output and rank, and sums them in one reduction
along the ranks, a few numpy calls per degree; a wider batch adds them
a rank at a time as the product does.  That path is the same at every
order and for every argument, affine or not: the frame is built at one
order and read at lower ones as ``FrameData.truncated``, and the command
line evaluates at its floor order what the library checks at a higher
one, so the bits of a coefficient must not depend on the order or on the
shape of the argument.  Non-negative integer powers multiply out.  Division and
non-integer powers require the constant term to be bounded away from
zero and raise DomainError otherwise.

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

import functools
import math
from typing import NamedTuple

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


class _Terms:
    """Terms x[ia] y[ib] summed into outputs by rank, the layout that
    ``_block`` walks.

    ``terms`` lists each output's terms as (ia, ib) index pairs, outputs
    longest first.  Rank r holds the r-th term of the first ``counts[r]``
    outputs, which are all those with more than r terms; ``ia`` and
    ``ib`` list the terms rank after rank.
    """

    __slots__ = ("counts", "ia", "ib", "_passes", "_by_factor")

    def __init__(self, terms):
        self.counts = []
        pairs = []
        for r in range(len(terms[0])):
            rank = [output[r] for output in terms if len(output) > r]
            self.counts.append(len(rank))
            pairs += rank
        self.ia, self.ib = np.array(pairs, dtype=np.intp).T.copy()
        self._passes = {}
        self._by_factor = None

    def passes(self, width):
        """The terms cut into passes of at most _PASS // width terms, for
        ``width`` lanes, cached per pass size: a list of (lo, hi, adds)
        for the terms lo:hi, where each (d0, d1, s0, s1) of adds adds the
        pass's products s0:s1 into acc[d0:d1].  A rank cut by a pass
        boundary is added in two pieces, so each output still adds its
        terms in rank order.  The list is built whole before it is
        cached, so a thread that reads the cache never finds it part
        filled."""
        size = max(1, _PASS // width)
        passes = self._passes.get(size)
        if passes is None:
            passes = []
            total = len(self.ia)
            for lo in range(0, total, size):
                hi = min(lo + size, total)
                adds, start = [], 0
                for count in self.counts:
                    x0, x1 = max(start, lo), min(start + count, hi)
                    if x0 < x1:
                        adds.append((x0 - start, x1 - start,
                                     x0 - lo, x1 - lo))
                    start += count
                passes.append((lo, hi, tuple(adds)))
            self._passes[size] = passes
        return passes


class _Plan(_Terms):
    """Index plan of the truncated product of an order-``top`` left
    factor by an order-``order`` right factor, top <= order.

    Output (j, k) of the triangle sums a[p, q] b[j-p, k-q] over p <= j,
    q <= k, p + q <= top, in increasing (p, q).  The outputs are sorted
    longest first into ``target`` (flat indices j (K+1) + k); ``ia`` and
    ``ib`` are the flat coefficient indices of the terms into a and b.
    """

    __slots__ = ("target", "_sides")

    def __init__(self, top, order):
        side = order + 1
        outputs = []
        for j in range(side):
            for k in range(side - j):
                terms = [(p * (top + 1) + q, (j - p) * side + k - q)
                         for p in range(min(j, top) + 1)
                         for q in range(min(k, top - p) + 1)]
                outputs.append((j * side + k, terms))
        outputs.sort(key=lambda output: -len(output[1]))
        self.target = np.array([t for t, _ in outputs], dtype=np.intp)
        super().__init__([terms for _, terms in outputs])
        self._sides = top + 1, side

    def by_factor(self):
        """The terms grouped by their right factor, built on first use:
        (jb, kb, group) in decreasing (jb, kb), where each (t, p, q) of
        the group adds a[p, q] b[jb, kb] into the flat output t.
        Increasing (p, q) is decreasing (j-p, k-q), so each output meets
        its terms in the plan's order here too."""
        if self._by_factor is None:
            width, side = self._sides
            # the output of each term: rank r covers the first counts[r]
            outputs = self.target[np.concatenate(
                [np.arange(count) for count in self.counts])]
            groups = {}
            for t, ia, ib in zip(outputs.tolist(), self.ia.tolist(),
                                 self.ib.tolist()):
                groups.setdefault(divmod(ib, side), []).append(
                    (t,) + divmod(ia, width))
            self._by_factor = tuple(
                (jb, kb, tuple(groups[jb, kb]))
                for jb, kb in sorted(groups, reverse=True))
        return self._by_factor


#: widest batch, in lanes (flattened batch entries), that the product
#: kernel and the recurrences run through their index plans; wider ones
#: go term by term.  The measured crossovers (BENCH_20.json for the
#: product, BENCH_21.json for the recurrences) lie between 384 and
#: 3,072 lanes at every K from 2 to 16
_LANES = 1024
#: widest batch, in lanes, whose power and quotient recurrences sum each
#: degree's padded terms in one reduction; wider ones, up to _LANES, add
#: one rank at a time.  The measured crossover (BENCH_28.json) falls with
#: K and with the item size: a real power's reduction wins at 128 lanes
#: at every K from 2 to 16 and at 256 up to K = 8; a complex quotient's
#: wins at 128 lanes up to K = 8 and at 64 up to K = 13
_REDUCE_LANES = 128
#: term x lane elements per pass, so that a pass's operands stay in cache
_PASS = 1 << 14
#: fewest elements (lanes x 6) that ``JetVec6.from_components`` writes
#: one coefficient at a time; the crossover (BENCH_25.json) lies between
#: 1,536 and 6,144 at every K from 3 to 12
_BLOCK_WRITES = 1 << 12

#: byte boundary on which ``_aligned`` starts an array: one cache line,
#: and the width of an AVX-512 vector
_ALIGN = 64

_PLANS = {}


def _aligned(shape, dtype=np.float64, fill=np.empty):
    """A C-contiguous array of ``shape`` and ``dtype`` whose data starts
    on an _ALIGN-byte boundary, carved from a byte array that ``fill``
    (``np.empty`` or ``np.zeros``) makes.  glibc's malloc guarantees only
    16 bytes, and numpy's float64 loops run at about half speed on
    operands that do not start on a cache line."""
    dtype = np.dtype(dtype)
    raw = fill(math.prod(shape) * dtype.itemsize + _ALIGN, np.uint8)
    # an offset into the buffer, not a slice: an empty slice keeps the
    # buffer's own start
    return np.ndarray(shape, dtype, buffer=raw,
                      offset=-raw.ctypes.data % _ALIGN)


def _plan(top, order):
    """The cached ``_Plan`` of (top, order), built on first use."""
    plan = _PLANS.get((top, order))
    if plan is None:
        plan = _PLANS[top, order] = _Plan(top, order)
    return plan


def _lanes(s, batch, lanes):
    """Coefficient-first s broadcast to ``batch`` and flattened to a
    contiguous (coefficients, lanes) array; a copy only where s is
    broadcast or not contiguous.  An operand broadcast along its trailing
    unit axis alone, as the scalar of ``JetVec6 * Jet2`` is over the six
    components, is spread by ``np.repeat``, which copies it out in about
    half the time ``np.broadcast_to`` and a contiguous copy take; both
    are plain copies, with the same bits."""
    shape = s.shape[2:]
    if shape != batch:
        if shape[-1:] == (1,) and shape[:-1] == batch[:-1]:
            return np.repeat(s, batch[-1], axis=-1).reshape(-1, lanes)
        s = np.broadcast_to(s, s.shape[:2] + batch)
    return np.ascontiguousarray(s.reshape(-1, lanes))


class _Signature(NamedTuple):
    """What a product does that depends only on its operands' shapes
    and dtypes: the operands widen to ``ndim`` axes, broadcast to
    ``batch`` of ``lanes`` lanes and give a ``dtype`` result of
    ``shape``; ``outer`` says whether the outer-product test applies."""

    ndim: int
    batch: tuple
    lanes: int
    dtype: np.dtype
    outer: bool
    plan: _Plan
    shape: tuple


#: operand signatures whose ``_Signature`` the product keeps; the
#: commands of the verify-transform benchmark meet 49 between them
_SIGNATURES = 512


@functools.lru_cache(maxsize=_SIGNATURES)
def _signature(a_shape, b_shape, a_dtype, b_dtype):
    """The ``_Signature`` of a product of operands of these shapes and
    dtypes.  Shapes that do not broadcast raise ValueError, which is not
    cached, so they raise it on every call."""
    order, top = b_shape[0] - 1, a_shape[0] - 1
    ndim = max(len(a_shape), len(b_shape))
    a_batch, b_batch = ((1,) * (ndim - len(s)) + s[2:]
                        for s in (a_shape, b_shape))
    batch = np.broadcast_shapes(a_batch, b_batch)
    lanes = math.prod(batch)
    outer = (a_batch != batch and b_batch != batch
             and math.prod(a_batch) * math.prod(b_batch) == lanes)
    return _Signature(ndim, batch, lanes, np.result_type(a_dtype, b_dtype),
                      outer, _plan(top, order),
                      (order + 1, order + 1) + batch)


def _mul(a, b):
    """Truncated product of coefficient-first arrays at the order of b.

    a may have a lower order than b; its terms above that order count as
    zero.  Trailing axes broadcast.  Every output coefficient sums its
    terms in the order of increasing (p, q) of a, starting from 0.0, and
    only the triangle j + k <= K is computed; the entries above it are
    zero whatever the operands hold.  A function of u alone by one of v
    alone, each on its grid line, is an outer product (``_outer``); any
    other product walks the batch in one of two regimes:

    - a batch of at most _LANES lanes is flattened into one block and
      runs the cached ``_Plan`` of the two orders (``_block``), a few
      numpy calls per rank of terms;
    - a wider batch runs term by term (``_wide``), two numpy calls per
      term on the broadcast batch, straight from the operands: a factor
      that spans fewer axes than the batch, such as a grid line, is read
      where it lies, and no operand is copied out to the batch whole.

    All three form each product out of place in a buffer of its own and
    give each output the bits of the same sum, so a lane's bits do not
    depend on the path or on the batch around it.

    What depends only on the operands' shapes and dtypes (the broadcast
    batch, the result dtype, whether the outer-product test applies, the
    plan and the output shape) is worked out once per signature
    (``_signature``); a narrow product costs its numpy calls on data and
    a cache lookup.  The outer-product test itself reads values, so it
    runs on every call.
    """
    sig = _signature(a.shape, b.shape, a.dtype, b.dtype)
    a, b = _widen(a, sig.ndim), _widen(b, sig.ndim)
    if sig.outer:
        out = _outer(a, b, sig.shape, sig.dtype)
        if out is not None:
            return out
    if sig.lanes > _LANES:
        return _wide(sig.plan, a, b, sig.shape, sig.dtype)
    plan, lanes = sig.plan, sig.lanes
    out = np.zeros((sig.shape[0] ** 2, lanes), sig.dtype)
    if lanes:
        out[plan.target] = _block(plan, _lanes(a, sig.batch, lanes),
                                  _lanes(b, sig.batch, lanes), sig.dtype)
    return out.reshape(sig.shape)


def _line(s, axis):
    """True where every coefficient of s off its line s[p, 0] (axis 0)
    or s[0, q] (axis 1) is zero and those on it are finite."""
    on, off = (s[:, 0], s[:, 1:]) if axis == 0 else (s[0], s[1:])
    return not np.any(off) and bool(np.isfinite(on).all())


def _outer(a, b, shape, dtype):
    """The product of shape ``shape`` when one factor is a function of u
    alone and the other of v alone, or None.  Every term of output
    (j, k) but one multiplies an exact zero, so the plan's sum from 0.0
    is a[j, 0] b[0, k] + 0.0, which turns -0.0 into +0.0; one multiply
    and one add per row, the add on that row of the triangle alone, as
    every other entry is a +0.0 of the zeroed output.  The output starts
    on a cache line (``_aligned``).  On a non-finite line the zero terms
    would be NaNs."""
    swap = not (_line(a, 0) and _line(b, 1))
    if swap and not (_line(a, 1) and _line(b, 0)):
        return None
    top, side = a.shape[0] - 1, shape[0]
    out = _aligned(shape, dtype, np.zeros)
    # a v-line a is a u-line with the coefficient axes swapped
    x, y, rows = (s.swapaxes(0, 1) if swap else s for s in (a, b, out))
    for r in range(top + 1):
        row = rows[r, :side - r]
        np.multiply(x[r, 0], y[0, :side - r], out=row)
        np.add(row, 0.0, out=row)
    return out


def _block(plan, a, b, dtype):
    """The plan's outputs, in plan order, over the lanes of the
    flattened operands a and b (``_accumulate``)."""
    width = a.shape[1]
    # the first pass, terms 0:hi, is the longest
    rows = plan.passes(width)[0][1]
    acc = np.zeros((len(plan.target), width), dtype)
    _accumulate(plan, a, b, np.empty((rows, width), a.dtype),
                np.empty((rows, width), b.dtype),
                np.empty((rows, width), dtype), acc)
    return acc


def _accumulate(plan, a, b, x, y, terms, acc):
    """Add the terms a[ia] b[ib] of ``plan`` (a ``_Terms``) over the
    lanes of the flattened a and b into acc, rank by rank.  Each pass
    gathers its terms' factors into the buffers x and y, multiplies them
    into ``terms``, and adds each rank's slice into a prefix of acc.  The
    buffers hold a pass and have the dtypes of a, b and acc."""
    for lo, hi, adds in plan.passes(a.shape[1]):
        n = hi - lo
        # the indices are in range; any mode but "raise" lets take write
        # straight into its out buffer
        a.take(plan.ia[lo:hi], 0, out=x[:n], mode="clip")
        b.take(plan.ib[lo:hi], 0, out=y[:n], mode="clip")
        # a separate product buffer: numpy multiplies one complex element
        # in place by another rule than out of place, which changes its
        # bits
        np.multiply(x[:n], y[:n], out=terms[:n])
        for d0, d1, s0, s1 in adds:
            acc[d0:d1] += terms[s0:s1]


def _wide(plan, a, b, shape, dtype):
    """The product of shape ``shape`` term by term on the broadcast
    batch, one right-factor coefficient after another (``by_factor``):
    each term is multiplied into one batch-sized buffer, out of place as
    in ``_block``, and added into its output.

    A right factor broadcast along the last batch axis, as the scalar of
    ``JetVec6 * Jet2`` is along the component axis, would have numpy
    multiply in runs of that axis's length, six elements; so each of its
    coefficients is first spread over the batch, once, into a second
    buffer."""
    out = np.zeros(shape, dtype)
    # one view per coefficient, taken once, not one per term
    acc = list(out.reshape((-1,) + shape[2:]))
    xa, xb = [list(map(list, s)) for s in (a, b)]
    term = np.empty(shape[2:], dtype)
    spread = np.empty(shape[2:], b.dtype) if b.shape[-1] < shape[-1] else None
    for jb, kb, group in plan.by_factor():
        y = xb[jb][kb]
        if spread is not None:
            np.copyto(spread, y)
            y = spread
        for t, p, q in group:
            np.multiply(xa[p][q], y, out=term)
            target = acc[t]
            np.add(target, term, out=target)
    return out


#: (degree, exponent) pairs whose power weights ``_Degree.weights``
#: keeps; the commands of the verify-transform benchmark meet 24
_EXPONENTS = 256


class _Degree(_Terms):
    """Index plan of total degree d >= 1 of the Taylor recurrences of a
    power f = g^a and a quotient f = n / g (Griewank & Walther, ch. 13).

    Both read g E f = a f E g and g f = n degree by degree, E the Euler
    operator (E h)[j, k] = (j + k) h[j, k]:

        f_d = sum_{i<d} (a (d - i) - i) f_i g_(d-i) / (d g_0),
        f_d = (n_d - sum_{i<d} f_i g_(d-i)) / g_0.

    Coefficients are held degree-major: degree d takes the positions
    d (d+1) / 2 up to ``stop``, its outputs (j, d - j) longest first
    (``outputs``), so a position does not depend on the order K.  Output
    (j, k) sums the terms f[j-p, k-q] g[p, q] over p <= j, q <= k and
    (p, q) != (0, 0), in increasing (p, q); ``ia`` and ``ib`` hold the
    positions of their two factors.  ``degrees`` holds the total degree
    of each position below ``stop``.
    """

    __slots__ = ("start", "stop", "outputs", "degrees", "_padded")

    def __init__(self, d):
        self.outputs = _degree_outputs(d)
        self.start, self.stop = d * (d + 1) // 2, (d + 1) * (d + 2) // 2
        self.degrees = np.repeat(np.arange(d + 1.0), np.arange(1, d + 2))
        super().__init__([[(_position(j - p, k - q), _position(p, q))
                           for p in range(j + 1) for q in range(k + 1)
                           if p or q] for j, k in self.outputs])
        self._padded = None

    def padded(self):
        """The terms as a (ranks, outputs) pair of position arrays, built
        on first use: entry [r, o] of each is the r-th term's position
        of f and of g in output o, and -1, the zero row the narrow path
        appends to f and to g, where output o has fewer terms.  The pair
        is built whole before it is cached."""
        if self._padded is None:
            shape = (len(self.counts), len(self.outputs))
            ia, ib = np.full(shape, -1, np.intp), np.full(shape, -1, np.intp)
            start = 0
            for r, count in enumerate(self.counts):
                ia[r, :count] = self.ia[start:start + count]
                ib[r, :count] = self.ib[start:start + count]
                start += count
            self._padded = ia, ib
        return self._padded

    @functools.lru_cache(maxsize=_EXPONENTS)
    def weights(self, a):
        """The power's term weights (a (d - i) - i) / d by the position
        of the factor g_(d-i), as a read-only (stop, 1) column, built
        once per exponent."""
        d = len(self.outputs) - 1
        column = (((a + 1.0) * self.degrees - d) / d)[:, None]
        column.flags.writeable = False
        return column

    def by_factor(self):
        """The terms grouped by their factor of g, built on first use:
        (p, q, position, group) in increasing (p, q), where each
        (slot, j, k) of the group adds f[j, k] g[p, q] into output
        ``slot``.  Each output meets its terms in plan order here too."""
        if self._by_factor is None:
            groups = {}
            for slot, (j, k) in enumerate(self.outputs):
                for p in range(j + 1):
                    for q in range(k + 1):
                        if p or q:
                            groups.setdefault((p, q), []).append(
                                (slot, j - p, k - q))
            self._by_factor = tuple(
                (p, q, _position(p, q), tuple(groups[p, q]))
                for p, q in sorted(groups))
        return self._by_factor


def _degree_outputs(d):
    """The coefficients (j, d - j) of total degree d, longest first:
    output (j, k) of a recurrence has (j + 1) (k + 1) - 1 terms."""
    return sorted(((j, d - j) for j in range(d + 1)),
                  key=lambda jk: -(jk[0] + 1) * (jk[1] + 1))


def _position(j, k):
    """The degree-major position of coefficient (j, k)."""
    d = j + k
    return d * (d + 1) // 2 + _degree_outputs(d).index((j, k))


_DEGREES = {}
_TARGETS = {}


def _degree(d):
    """The cached ``_Degree`` of d, built on first use."""
    plan = _DEGREES.get(d)
    if plan is None:
        plan = _DEGREES[d] = _Degree(d)
    return plan


def _targets(order):
    """Flat index j (K+1) + k of every degree-major position, cached."""
    target = _TARGETS.get(order)
    if target is None:
        target = _TARGETS[order] = np.array(
            [j * (order + 1) + k for d in range(order + 1)
             for j, k in _degree_outputs(d)], dtype=np.intp)
    return target


def _recurrence(g, dtype, exponent=None, num=None):
    """g**exponent, or num / g when num is given, of coefficient-first
    arrays at the order of g, in storage dtype ``dtype``; num has the
    order of g, and the batch axes broadcast.  The constant term of g
    must be checked first.

    f_0 is g_0**exponent or n_0 / g_0, and each degree d then sums its
    terms from 0.0 in plan order (``_Degree``); the power weights each
    factor g_(d-i) first.  A batch of at most _LANES lanes is flattened
    and runs in one of two ways:

    - at most _REDUCE_LANES lanes, each degree gathers all its terms at
      once, padded to (ranks, outputs, lanes) with zeros
      (``_Degree.padded``), multiplies them and sums them with one
      ``np.add.reduce`` along the ranks from 0.0, which adds each
      output's terms one after another in rank order, as a loop of
      ``+=`` does; a padded term is 0.0 x 0.0 = +0.0, and adding it to a
      sum that started at +0.0 changes no bit;
    - more lanes gather pass by pass (``_accumulate``), with buffers kept
      across the degrees, one add per rank.

    A wider batch goes term by term on views.  Each lane does the same
    arithmetic every way, so its bits depend neither on the batch nor on
    the order K.
    """
    order = g.shape[0] - 1
    if num is not None:
        ndim = max(g.ndim, num.ndim)
        g, num = _widen(g, ndim), _widen(num, ndim)
        batch = np.broadcast_shapes(g.shape[2:], num.shape[2:])
    else:
        batch = g.shape[2:]
    shape = (order + 1, order + 1) + batch
    lanes = math.prod(batch)
    if lanes > _LANES:
        return _recurrence_wide(g, shape, dtype, exponent, num)
    out = np.zeros(((order + 1) ** 2, lanes), dtype)
    if not lanes:
        return out.reshape(shape)
    target = _targets(order)
    size = len(target)
    # f and g degree-major, each with a zero row last for the padded
    # terms to read
    gs = np.zeros((size + 1, lanes), g.dtype)
    _lanes(g, batch, lanes).take(target, 0, out=gs[:size], mode="clip")
    g0 = gs[0]
    fs = np.empty((size + 1, lanes), dtype)
    fs[size] = 0.0
    if num is None:
        fs[0] = g0.astype(dtype, copy=False) ** exponent
    else:
        ns = _lanes(num, batch, lanes).take(target, 0)
        np.divide(ns[0], g0, out=fs[0])
    padded = lanes <= _REDUCE_LANES
    if order and not padded:
        rows = _degree(order).passes(lanes)[0][1]
        x = np.empty((rows, lanes), dtype)
        y = np.empty((rows, lanes), gs.dtype)
        terms = np.empty((rows, lanes), dtype)
        sums = np.empty((order + 1, lanes), dtype)
    factor = gs if num is not None else np.zeros_like(gs)
    for d in range(1, order + 1):
        plan = _degree(d)
        start, stop = plan.start, plan.stop
        if num is None:
            np.multiply(gs[:stop], plan.weights(exponent), out=factor[:stop])
        if padded:
            ia, ib = plan.padded()
            acc = np.add.reduce(fs.take(ia, 0) * factor.take(ib, 0),
                                axis=0, initial=0.0)
        else:
            acc = sums[:d + 1]
            acc[...] = 0.0
            _accumulate(plan, fs, factor, x, y, terms, acc)
        if num is not None:
            np.subtract(ns[start:stop], acc, out=acc)
        np.divide(acc, g0, out=fs[start:stop])
    out[target] = fs[:size]
    return out.reshape(shape)


def _recurrence_wide(g, shape, dtype, exponent, num):
    """``_recurrence`` term by term on views of the batch, one factor of
    g after another (``_Degree.by_factor``), into an accumulator per
    output of the degree."""
    order = shape[0] - 1
    out = np.zeros(shape, dtype)
    xf, xg = list(map(list, out)), list(map(list, g))
    g0 = xg[0][0]
    if num is None:
        xf[0][0][...] = g0.astype(dtype, copy=False) ** exponent
        weighted = np.empty(g.shape[2:], g.dtype)
    else:
        xn = list(map(list, num))
        np.divide(xn[0][0], g0, out=xf[0][0])
    sums = np.empty((order + 1,) + shape[2:], dtype)
    acc = list(sums)
    term = np.empty(shape[2:], dtype)
    for d in range(1, order + 1):
        plan = _degree(d)
        if num is None:
            weights = plan.weights(exponent)
        sums[:d + 1] = 0.0
        for p, q, position, group in plan.by_factor():
            y = xg[p][q]
            if num is None:
                np.multiply(y, weights[position], out=weighted)
                y = weighted
            for slot, j, k in group:
                np.multiply(xf[j][k], y, out=term)
                np.add(acc[slot], term, out=acc[slot])
        for slot, (j, k) in enumerate(plan.outputs):
            if num is not None:
                np.subtract(xn[j][k], acc[slot], out=acc[slot])
            np.divide(acc[slot], g0, out=xf[j][k])
    return out


_WEIGHTS = {}


def _weights(order, axis, trailing=0):
    """Float table that differentiates an order-``order`` jet along
    ``axis`` in one multiply: entry (j, k) of the order K - 1 result is
    j + 1 (axis 0) or k + 1 (axis 1) where j + k <= K - 1 and 0 above,
    shaped as in ``_mask``.  The (K, K) table is cached.  On real data
    s (w 0) and (s w) 0 are the same bits, the NaN of an Inf included."""
    w = _WEIGHTS.get((order, axis))
    if w is None:
        r = np.arange(1.0, order + 1)
        w = (r[:, None] if axis == 0 else r[None, :]) * _mask(order - 1)
        _WEIGHTS[order, axis] = w
    return w.reshape(w.shape + (1,) * trailing)


def _du(s):
    order = s.shape[0] - 1
    if order == 0:
        raise OrderExhausted("derivative of an order-0 jet")
    return s[1:, :order] * _weights(order, 0, s.ndim - 2)


def _dv(s):
    order = s.shape[0] - 1
    if order == 0:
        raise OrderExhausted("derivative of an order-0 jet")
    return s[:order, 1:] * _weights(order, 1, s.ndim - 2)


def _truncate(s, order):
    """s at order ``order``, or s itself when that is its order.  The
    entries above the new triangle are set to zero, not multiplied by
    it, so that an Inf or a NaN there leaves no NaN behind."""
    if s.shape[0] - 1 == order:
        return s
    return np.where(_mask(order, s.ndim - 2), s[:order + 1, :order + 1], 0)


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
        if order < 0:
            raise OrderExhausted("cannot truncate a jet to a negative order",
                                 order=order)
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
        """Quotient by a plain scalar, or by a scalar jet through the
        recurrence of ``_Degree``, at the lower of the two orders."""
        if not isinstance(other, Jet2):
            return self * (1.0 / np.asarray(other))
        a, b = self._pair(other)
        _check_divisor(b[0, 0], "power or division")
        return Jet2._wrap(_recurrence(b, np.result_type(a, b), num=a))

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

        When n is affine, a du + b dv with no coefficient of degree 2 or
        more (a NaN or an Inf counts as one), multiplying by n only
        shifts: each step adds P a one degree up in u, then P b one
        degree up in v.  Those are the nonzero terms of the product, in
        its order, so on finite data the result is the same bit for bit.
        """
        order = self.order
        n = self.coef
        out = np.zeros((1, 1) + self.batch_shape,
                       dtype=np.result_type(n, *derivs))
        out[0, 0] = derivs[order]
        # the affine test and the shifts read no constant term, so only
        # the product path needs a copy of n with a zero one
        affine = not (np.any(n[2:, 0]) or np.any(n[0, 2:])
                      or np.any(n[1:, 1:]))
        if not affine:
            n = n.copy()
            n[0, 0] = 0
        for m in range(order - 1, -1, -1):
            r = order - m
            if affine:
                new = np.zeros((r + 1, r + 1) + out.shape[2:], out.dtype)
                new[1:, :r] += out * n[1, 0]
                new[:r, 1:] += out * n[0, 1]
                out = new
            else:
                out = _mul(out, n[:r + 1, :r + 1])
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

        Non-negative integers multiply out exactly by repeated squaring
        (no constant-term restriction).  Non-integers go through the
        binomial series, summed by the Taylor recurrence of ``_Degree``
        with no product, and a negative integer -n is the reciprocal so
        formed, raised to n; both need |constant term| > DIVISION_TOL.
        The recurrence takes the same path at every order and for every
        argument, so a coefficient has the same bits whatever the order
        of the jet and whether the argument is affine.
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
        """self**n for an integer n >= 0 by repeated squaring; the
        product starts from the first factor, not from a constant one."""
        if n == 0:
            return Jet2.constant(np.ones(self.batch_shape), self.order)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _binomial(self, a):
        """self**a for a negative or non-integer a, the binomial series
        summed by the power recurrence of ``_Degree``."""
        c0 = self.value
        _check_divisor(c0, "power or division")
        dtype = self.coef.dtype
        if (np.isrealobj(c0) and not float(a).is_integer()
                and np.any(c0 < 0)):
            # a fractional power of a negative number is complex
            dtype = np.complex128
        return Jet2._wrap(_recurrence(self.coef, dtype, exponent=float(a)))

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
        parts = [_widen(_truncate(j.coef, order), len(batch) + 2)
                 for j in comps]
        # each part is written once into the result, a part that spans
        # fewer axes (a function of one coordinate) broadcast as it goes
        shape = (order + 1, order + 1) + batch + (6,)
        dtype = np.result_type(*parts)
        if math.prod(batch) * 6 < _BLOCK_WRITES:
            out = np.empty(shape, dtype)
            for i, part in enumerate(parts):
                out[..., i] = part
            return cls._wrap(out)
        # a large batch one coefficient at a time, so its slab stays in
        # cache, into an array that starts on a cache line; the entries
        # above the triangle are zero
        out = _aligned(shape, dtype)
        side = order + 1
        for j in range(side):
            out[j, side - j:] = 0.0
            for k in range(side - j):
                target = out[j, k]
                for i, part in enumerate(parts):
                    target[..., i] = part[j, k]
        return cls._wrap(out)

    @property
    def batch_shape(self):
        return self.coef.shape[2:-1]

    def broadcast_to(self, batch):
        """The same jet on the batch shape ``batch``, as one contiguous
        copy; the jet itself when it already has that shape."""
        batch = tuple(batch)
        if self.batch_shape == batch:
            return self
        s = _widen(self.coef, len(batch) + 3)
        return JetVec6._wrap(np.ascontiguousarray(
            np.broadcast_to(s, s.shape[:2] + batch + s.shape[-1:])))

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
            # the scalar gains a unit component axis; the kernel
            # broadcasts it over the six components
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
