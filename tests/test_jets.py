import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightcone import jets
from lightcone.ambient import SIGNS
from lightcone.errors import DomainError, OrderExhausted
from lightcone.jets import Jet2, JetVec6, jet_where, seed_point

import oracles
from helpers import count_products

RNG = np.random.default_rng(7)

coeff = st.complex_numbers(max_magnitude=3, allow_nan=False,
                           allow_infinity=False)


def random_jet(order, batch=(), rng=RNG):
    c = rng.standard_normal(batch + (order + 1, order + 1)) \
        + 1j * rng.standard_normal(batch + (order + 1, order + 1))
    tri = np.tril(np.ones((order + 1, order + 1)))[::-1]
    return Jet2(c * tri)


def small_jets(order=3):
    return st.builds(
        lambda vals: Jet2(np.array(vals).reshape(order + 1, order + 1)
                          * np.tril(np.ones((order + 1, order + 1)))[::-1]),
        st.lists(coeff, min_size=(order + 1) ** 2,
                 max_size=(order + 1) ** 2))


def test_seed_point_basics():
    U, V = seed_point(1.5, -0.25, 4)
    assert U.order == 4
    assert U.value == pytest.approx(1.5)
    assert V.value == pytest.approx(-0.25)
    assert U.du().value == pytest.approx(1.0)
    assert U.dv().value == pytest.approx(0.0)
    assert V.dv().value == pytest.approx(1.0)


def test_seed_point_batched():
    u = np.linspace(0, 1, 5)
    v = np.zeros(5)
    U, V = seed_point(u, v, 3)
    assert U.batch_shape == (5,)
    assert np.allclose(U.value, u)


def test_analytic_battery_exp_sin():
    # mixed partials of exp(u) sin(v) against closed-form coefficients
    order = 6
    pts = [(0.0, 0.0), (0.3, -0.7), (1.1, 2.0)]
    for u0, v0 in pts:
        U, V = seed_point(u0, v0, order)
        f = U.exp() * V.sin()
        g = f
        for j in range(order + 1):
            h = g
            for k in range(order + 1 - j):
                expect = oracles.battery_f_coeff(u0, v0, j, k) \
                    * math.factorial(j) * math.factorial(k)
                assert abs(h.value - expect) < 1e-13 * max(1, abs(expect)), \
                    (u0, v0, j, k)
                if k < order - j:
                    h = h.dv()
            if j < order:
                g = g.du()


def test_wirtinger_split():
    U, V = seed_point(0.4, 0.9, 5)
    f = (U * U * V).sin() + U.cosh()
    lhs = f.z() + f.zbar()
    assert abs(lhs.value - f.du().value) < 1e-13
    diff = f.z() - f.zbar()
    assert abs(1j * diff.value - f.dv().value) < 1e-13


def test_z_zbar_commute():
    f = random_jet(5)
    a = f.z().zbar()
    b = f.zbar().z()
    assert np.allclose(a.c, b.c, atol=1e-12)


@given(small_jets(), small_jets(), small_jets())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    lhs = (a * (b + c)).c
    rhs = (a * b + a * c).c
    assert np.allclose(lhs, rhs, atol=1e-8)
    assert np.allclose((a * b).c, (b * a).c, atol=1e-8)
    assert np.allclose(((a * b) * c).c, (a * (b * c)).c, atol=1e-7)


@given(small_jets(), small_jets())
@settings(max_examples=40, deadline=None)
def test_leibniz_rule(a, b):
    assert np.allclose((a * b).du().c, (a.du() * b + a * b.du()).c,
                       atol=1e-7)
    assert np.allclose((a * b).z().c, (a.z() * b + a * b.z()).c,
                       atol=1e-7)


def test_conjugation_swaps_z_zbar():
    f = random_jet(4)
    assert np.allclose(f.conj().z().c, f.zbar().conj().c, atol=1e-13)
    assert np.allclose(f.conj().zbar().c, f.z().conj().c, atol=1e-13)


def test_division_round_trip():
    a = random_jet(5)
    b = random_jet(5) + Jet2.constant(2.5, 5)
    assert np.allclose(((a / b) * b).c, a.c, atol=1e-10)


def test_division_by_small_constant_raises():
    b = random_jet(4)
    b = b - Jet2.constant(b.value, 4)  # zero out the constant term
    a = random_jet(4)
    with pytest.raises(DomainError):
        a / b


def test_division_by_nan_constant_raises():
    U, _ = seed_point(np.nan, 0.0, 4)
    b = U + 2.0
    with pytest.raises(DomainError):
        b.reciprocal()


def test_integer_power_at_zero_constant_term():
    # u^3 at the origin must work: nilpotent base, integer exponent
    U, _ = seed_point(0.0, 0.0, 6)
    f = U.power(3)
    assert f.value == pytest.approx(0.0)
    assert f.du().du().du().value == pytest.approx(6.0)


def test_integer_power_matches_repeated_mul():
    f = random_jet(4)
    assert np.allclose(f.power(5).c, (f * f * f * f * f).c, atol=1e-8)


def test_integer_power_starts_from_the_first_factor():
    # repeated squaring, with the products in the order the power takes
    f = random_jet(5, (4,))
    g = random_jet(5, (4,)) + Jet2.constant(3.0, 5)
    assert np.array_equal(f.power(0).coef,
                          Jet2.constant(np.ones(4), 5).coef)
    assert np.array_equal(f.power(1).coef, f.coef)
    assert np.array_equal(f.power(2).coef, (f * f).coef)
    f2 = f * f
    assert np.array_equal(f.power(5).coef, (f * (f2 * f2)).coef)
    r = g._binomial(-1.0)
    assert np.array_equal(g.power(-1).coef, r.coef)
    assert np.array_equal(g.reciprocal().coef, r.coef)
    assert np.array_equal(g.power(-3).coef, (r * (r * r)).coef)


def test_negative_power():
    f = random_jet(4) + Jet2.constant(3.0, 4)
    assert np.allclose((f.power(-2) * f * f).c,
                       Jet2.constant(1.0, 4).c, atol=1e-10)


def test_sqrt_squares_back():
    f = random_jet(5) + Jet2.constant(4.0, 5)
    r = f.sqrt()
    assert np.allclose((r * r).c, f.c, atol=1e-9)


def test_fractional_power_of_nilpotent_raises():
    U, _ = seed_point(0.0, 0.0, 3)
    with pytest.raises(DomainError):
        U.power(0.5)


def test_complex_exponent_rejected():
    f = random_jet(3) + Jet2.constant(2.0, 3)
    with pytest.raises(DomainError):
        f.power(1 + 1j)


def test_analytic_functions_chain_rule():
    U, V = seed_point(0.35, 1.2, 5)
    g = U * V + V
    for fn, dfn in [(Jet2.sin, Jet2.cos),
                    (Jet2.sinh, Jet2.cosh),
                    (Jet2.exp, Jet2.exp)]:
        f = fn(g)
        assert abs(f.du().value - (dfn(g) * g.du()).value) < 1e-12


def test_cos_sin_pythagoras():
    f = random_jet(4)
    one = f.sin() * f.sin() + f.cos() * f.cos()
    assert np.allclose(one.c, Jet2.constant(1.0, 4).c, atol=1e-8)


def test_order_exhausted():
    U, _ = seed_point(0.0, 0.0, 2)
    f = U.du().du()
    with pytest.raises(OrderExhausted):
        f.du()


def test_truncated():
    f = random_jet(5)
    g = f.truncated(2)
    assert g.order == 2
    assert np.allclose(g.c, f.c[:3, :3] * np.tril(np.ones((3, 3)))[::-1],
                       atol=0)


@pytest.mark.parametrize("vector", [False, True])
def test_truncated_above_order_raises(vector):
    rng = np.random.default_rng(3)
    shape = (2, 6, 4, 4) if vector else (2, 4, 4)
    f = (JetVec6 if vector else Jet2)(rng.standard_normal(shape))
    assert f.truncated(3).order == 3
    with pytest.raises(OrderExhausted):
        f.truncated(4)


def test_jet_where_scalar_jets():
    a = Jet2.constant(np.ones(4), 3)
    b = Jet2.constant(np.zeros(4), 3)
    mask = np.array([True, False, True, False])
    m = jet_where(mask, a, b)
    assert np.allclose(m.value, [1, 0, 1, 0])


def test_real_imag_split():
    f = random_jet(4)
    back = f.real + f.imag * 1j
    assert np.allclose(back.c, f.c, atol=0)


def test_storage_dtype_follows_data():
    U, V = seed_point(0.3, 0.7, 4)
    f = (U * V).sin() + U.exp() / (V + 2) - V.sqrt() * 3
    assert f.coef.dtype == np.float64
    assert Jet2.constant(2, 3).coef.dtype == np.float64
    assert Jet2(np.ones((4, 4), dtype=int)).coef.dtype == np.float64
    # a real jet is its own conjugate and its own real part
    assert f.conj() is f and f.real is f
    g = f.z()
    assert g.coef.dtype == np.complex128
    assert (f * 1j).coef.dtype == np.complex128
    assert g.real.coef.dtype == g.imag.coef.dtype == np.float64
    assert np.array_equal(g.real.c, g.c.real)
    assert np.array_equal(g.imag.c, g.c.imag)
    w = JetVec6.from_components([U, V, U * V, f, U - V, f * f])
    assert w.coef.dtype == np.float64
    for real in (w * f, f * w, w / f, w * 2.0, w.transformed(np.eye(6)),
                 w.inner(w), w.du(), jet_where(U.value > 0, w, w * 2.0)):
        assert real.coef.dtype == np.float64
    for cplx in (w * g, w * 1j, w.z(), w.transformed(np.eye(6) * 1j),
                 JetVec6.from_components([U, V, U, V, U, g])):
        assert cplx.coef.dtype == np.complex128


def test_fractional_power_of_negative_real_is_complex():
    # the principal branch, as for a complex jet: no NaN
    U, _ = seed_point(-4.0, 0.0, 4)
    r = U.power(0.5)
    assert r.coef.dtype == np.complex128
    assert r.value == pytest.approx(2j)
    assert np.max(np.abs((r * r - U).c)) < 1e-12
    assert np.array_equal(r.c, (U * (1 + 0j)).power(0.5).c)
    # integer powers of a negative real stay real
    assert U.power(-3).coef.dtype == np.float64
    assert (-U).power(0.5).coef.dtype == np.float64


def test_nilpotent_norm():
    U, _ = seed_point(2.0, 0.0, 3)
    assert U.nilpotent_norm() == pytest.approx(1.0)
    assert Jet2.constant(9.0, 3).nilpotent_norm() == pytest.approx(0.0)


# JetVec6

def test_vec_inner_signature():
    e = [JetVec6.constant(np.eye(6)[i], 2) for i in range(6)]
    for i in range(6):
        assert e[i].inner(e[i]).value == pytest.approx(SIGNS[i])
    assert e[0].inner(e[4]).value == pytest.approx(0.0)


def test_vec_from_components_and_back():
    U, V = seed_point(0.1, 0.2, 3)
    comps = [U, V, U * V, U + V, U - V, V * V]
    w = JetVec6.from_components(comps)
    for i, f in enumerate(comps):
        assert np.allclose(w.component(i).c, f.c, atol=0)


def test_vec_derivative_commutes_with_inner():
    U, V = seed_point(0.3, 0.4, 4)
    w = JetVec6.from_components([U, V, U * V, U.sin(), V.cos(), U.exp()])
    lhs = w.inner(w).du()
    rhs = w.du().inner(w) + w.inner(w.du())
    assert np.allclose(lhs.c, rhs.c, atol=1e-10)


def test_vec_scalar_multiplication():
    U, V = seed_point(0.3, 0.4, 3)
    w = JetVec6.from_components([U, V, U, V, U, V])
    s = U * V + Jet2.constant(1.0, 3)
    prod = w * s
    assert np.allclose(prod.component(2).c, (U * s).c, atol=1e-12)


def test_vec_conj_and_value():
    U, V = seed_point(0.5, -0.5, 2)
    w = JetVec6.from_components([U, V, U, V, U, V]) * (1 + 2j)
    assert np.allclose(w.conj().value, np.conj(w.value), atol=0)
    assert w.value.shape == (6,)


def test_vec_jet_where():
    a = JetVec6.constant(np.ones(6), 2)
    b = JetVec6.constant(np.zeros(6), 2)
    av = JetVec6(np.broadcast_to(a.c, (3,) + a.c.shape).copy())
    bv = JetVec6(np.broadcast_to(b.c, (3,) + b.c.shape).copy())
    mask = np.array([True, False, True])
    m = jet_where(mask, av, bv)
    assert np.allclose(m.value[:, 0], [1, 0, 1])


def test_vec_z_matches_component_z():
    U, V = seed_point(0.2, 0.7, 4)
    w = JetVec6.from_components([U * V, U, V, U + V, U * U, V * V])
    assert np.allclose(w.z().component(0).c, (U * V).z().c, atol=0)


# properties against an independent reference

orders = st.integers(0, 16)
seeds = st.integers(0, 2 ** 32 - 1)
batches = st.sampled_from([(), (3,), (2, 3)])
# batch shapes of two operands; the last three broadcast
batch_pairs = st.sampled_from([((), ()), ((3,), (3,)), ((2, 3), (2, 3)),
                               ((2, 3), (3,)), ((3,), (2, 3)),
                               ((), (2, 3)), ((2, 1), (3,))])


# whether each of two operands is real (float64 storage) or complex
kinds = st.sampled_from([(False, False), (True, True), (True, False),
                         (False, True)])


def coefficients(rng, order, batch, shape=(), real=False):
    """Random batch-first coefficients (*batch, *shape, K+1, K+1),
    zero above the triangle j + k <= K; complex unless real."""
    size = batch + shape + (order + 1, order + 1)
    c = rng.standard_normal(size)
    if not real:
        c = c + 1j * rng.standard_normal(size)
    j = np.arange(order + 1)
    return c * ((j[:, None] + j[None, :]) <= order)


def as_dict(c):
    """Coefficient dictionary {(j, k): batch array} of a batch-first
    coefficient array."""
    order = c.shape[-1] - 1
    return {(j, k): c[..., j, k]
            for j in range(order + 1) for k in range(order + 1 - j)}


def reference_product(a, b, order):
    """Truncated Cauchy product of two coefficient dictionaries."""
    out = {}
    for (j1, k1), x in a.items():
        for (j2, k2), y in b.items():
            if j1 + k1 + j2 + k2 <= order:
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + x * y
    return out


def assert_matches(c, ref, order):
    """Batch-first c equals the dictionary ref on the triangle and is
    zero above it.  The product sums the terms of each coefficient in
    the order of reference_product, left factor outermost, so the two
    agree exactly, not only to rounding."""
    assert c.shape[-2:] == (order + 1, order + 1)
    want = np.zeros(c.shape, dtype=complex)
    for (j, k), value in ref.items():
        want[..., j, k] = value
    assert np.array_equal(c, want)


def assert_dtype(got, real):
    """A product is float64 when both factors are real, else complex."""
    assert got.dtype == (np.float64 if all(real) else np.complex128)


@given(orders, orders, batch_pairs, kinds, seeds)
@settings(max_examples=60)
def test_product_matches_reference(ka, kb, shapes, real, seed):
    rng = np.random.default_rng(seed)
    ca = coefficients(rng, ka, shapes[0], real=real[0])
    cb = coefficients(rng, kb, shapes[1], real=real[1])
    order = min(ka, kb)
    got = (Jet2(ca) * Jet2(cb)).c
    assert got.shape[:-2] == np.broadcast_shapes(*shapes)
    assert_dtype(got, real)
    assert_matches(got, reference_product(as_dict(ca), as_dict(cb), order),
                   order)
    if all(real):
        # the same factors stored as complex take the complex path
        cplx = (Jet2(ca + 0j) * Jet2(cb + 0j)).c
        assert cplx.dtype == np.complex128
        assert np.array_equal(got, cplx.real)


@given(orders, batch_pairs, kinds, seeds)
@settings(max_examples=30)
def test_scalar_times_vector_matches_reference(order, shapes, real, seed):
    rng = np.random.default_rng(seed)
    cs = coefficients(rng, order, shapes[0], real=real[0])
    cw = coefficients(rng, order, shapes[1], (6,), real=real[1])
    s, w = Jet2(cs), JetVec6(cw)
    for got in ((s * w).c, (w * s).c):
        assert got.shape[:-3] == np.broadcast_shapes(*shapes)
        assert_dtype(got, real)
        for i in range(6):
            # the vector's coefficients are the left factor either way
            ref = reference_product(as_dict(cw[..., i, :, :]), as_dict(cs),
                                    order)
            assert_matches(got[..., i, :, :], ref, order)


@given(orders, batch_pairs, kinds, seeds)
@settings(max_examples=30)
def test_inner_matches_reference(order, shapes, real, seed):
    rng = np.random.default_rng(seed)
    ca = coefficients(rng, order, shapes[0], (6,), real=real[0])
    cb = coefficients(rng, order, shapes[1], (6,), real=real[1])
    ref = {}
    for i in range(6):
        part = reference_product(as_dict(ca[..., i, :, :]),
                                 as_dict(cb[..., i, :, :]), order)
        for key, value in part.items():
            ref[key] = ref.get(key, 0) + SIGNS[i] * value
    got = JetVec6(ca).inner(JetVec6(cb)).c
    assert got.shape[:-2] == np.broadcast_shapes(*shapes)
    assert_dtype(got, real)
    if not all(real):
        assert_matches(got, ref, order)
        return
    # numpy sums the six signed terms of a float contraction in an order
    # of its own (SIMD), so a real inner product matches to rounding
    cplx = JetVec6(ca + 0j).inner(JetVec6(cb + 0j)).c
    assert_matches(cplx, ref, order)
    size = max(1.0, float(np.max(np.abs(cplx))))
    assert np.max(np.abs(got - cplx.real)) <= 1e-14 * size


def decaying_jet(rng, batch, order=16, unit=False):
    """Jet whose degree-d coefficients shrink like 2**-d.  With unit,
    its constant term lies in the annulus 1 <= |c0| <= 2."""
    c = coefficients(rng, order, batch)
    j = np.arange(order + 1)
    c = c * 0.5 ** (j[:, None] + j[None, :])
    if unit:
        c[..., 0, 0] = rng.uniform(1, 2, batch) \
            * np.exp(2j * np.pi * rng.uniform(size=batch))
    return Jet2(c)


@given(seeds, batches)
@settings(max_examples=20)
def test_composition_identities_at_order_16(seed, batch):
    # each case: two factors, the identity's left and right side; the
    # rounding of a product grows with the size of its factors
    rng = np.random.default_rng(seed)
    f = decaying_jet(rng, batch)
    g = decaying_jet(rng, batch, unit=True)
    one = Jet2.constant(np.ones(batch), 16)
    e, ei = f.exp(), (-f).exp()
    s, c = f.sin(), f.cos()
    sh, ch = f.sinh(), f.cosh()
    r, h, rh = g.power(-1), g.power(0.5), g.power(-0.5)
    q = f / g
    cases = [(e, ei, e * ei, one),
             (s, c, s * s + c * c, one),
             (sh, ch, ch * ch - sh * sh, one),
             (r, g, r * g, one),
             (h, h, h ** 2, g),
             (rh, h, rh * h, one),
             (q, g, q * g, f)]
    for a, b, lhs, rhs in cases:
        assert lhs.order == 16
        size = max(1.0, np.max(np.abs(a.c)), np.max(np.abs(b.c)))
        assert np.max(np.abs(lhs.c - rhs.c)) < 1e-12 * size ** 2


@given(batches, st.integers(1, 6), seeds)
@settings(max_examples=20)
def test_writes_through_c_are_visible(batch, order, seed):
    rng = np.random.default_rng(seed)
    f = Jet2(coefficients(rng, order, batch))
    assert f.c.shape == batch + (order + 1, order + 1)
    f.c[..., 0, 0] = 7.0
    f.c[..., 1, 0] = -2.0
    assert np.all(f.value == 7.0)
    assert np.all(f.du().value == -2.0)
    w = JetVec6(coefficients(rng, order, batch, (6,)))
    assert w.c.shape == batch + (6, order + 1, order + 1)
    w.c[..., 2, 0, 0] = -3.0
    assert np.all(w.value[..., 2] == -3.0)
    assert np.all(w.component(2).value == -3.0)


# composition with an affine argument: shifted multiply-adds in place of
# the Horner products, with the same bits

AFFINE_FUNCTIONS = {
    "exp": Jet2.exp, "sin": Jet2.sin, "cos": Jet2.cos, "sinh": Jet2.sinh,
    "cosh": Jet2.cosh}
#: the seed of each function's random arguments
AFFINE_SEEDS = {"cos": 0, "cosh": 1, "exp": 2, "sin": 5, "sinh": 6}


def affine_jet(rng, order, batch, real):
    """c0 + a du + b dv with 1 <= |c0| <= 2; a or b is zero at about a
    third of the points each, as on coordinate seeds."""
    def draw(size=batch):
        x = rng.standard_normal(size)
        return x if real else x + 1j * rng.standard_normal(size)

    c = np.zeros(batch + (order + 1, order + 1),
                 dtype=np.float64 if real else np.complex128)
    c0 = rng.uniform(1, 2, batch)
    c[..., 0, 0] = c0 if real else c0 * np.exp(1j * draw())
    if order:
        c[..., 1, 0] = draw() * (rng.uniform(size=batch) > 0.3)
        c[..., 0, 1] = draw() * (rng.uniform(size=batch) > 0.3)
    return Jet2(c)


def horner_reference(jet, derivs):
    """sum_m derivs[m] n^m by Horner's rule with the product kernel,
    n = jet minus its constant term."""
    order = jet.order
    n = jet.coef.copy()
    n[0, 0] = 0
    out = np.zeros((1, 1) + jet.batch_shape,
                   dtype=np.result_type(jet.coef, *derivs))
    out[0, 0] = derivs[order]
    for m in range(order - 1, -1, -1):
        out = jets._mul(out, n[:order - m + 1, :order - m + 1])
        out[0, 0] += derivs[m]
    return out


def spy_compose(monkeypatch):
    """Record (argument, derivs, result, product calls) of every
    composition."""
    calls, products = [], []
    compose, mul = Jet2._compose, jets._mul

    def spy_mul(a, b):
        products.append(1)
        return mul(a, b)

    def spy(self, derivs):
        products.clear()
        out = compose(self, derivs)
        calls.append((self, derivs, out, len(products)))
        return out

    monkeypatch.setattr(jets, "_mul", spy_mul)
    monkeypatch.setattr(Jet2, "_compose", spy)
    return calls


@pytest.mark.parametrize("batch", [(), (3, 4)])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("name", sorted(AFFINE_FUNCTIONS))
def test_affine_composition_matches_horner_products(name, real, batch,
                                                   monkeypatch):
    rng = np.random.default_rng(AFFINE_SEEDS[name])
    calls = spy_compose(monkeypatch)
    for order in range(16):
        jet = affine_jet(rng, order, batch, real)
        before = jet.coef.copy()
        AFFINE_FUNCTIONS[name](jet)
        # the affine path reads the argument in place and writes nothing
        assert np.array_equal(jet.coef, before)
    assert len(calls) == 16
    for jet, derivs, got, products in calls:
        assert products == 0
        assert got.coef.shape == jet.coef.shape
        assert np.array_equal(got.coef, horner_reference(jet, derivs))


# powers and quotients by Taylor recurrence: no product, and the bits of
# a lane depend neither on the order, nor on the batch, nor on whether
# the argument is affine

RECURRENCES = {
    "sqrt": 0.5, "rsqrt": -0.5, "reciprocal": -1.0, "quotient": None}


def binomial_derivs(jet, a):
    """The Taylor coefficients C(a, m) c0^(a - m) of x^a at the constant
    term c0 of jet, for ``horner_reference``."""
    c0 = jet.value
    if np.isrealobj(c0) and np.any(c0 < 0):
        c0 = c0.astype(np.complex128)
    derivs, coef = [], np.ones_like(c0)
    for m in range(jet.order + 1):
        if m > 0:
            coef = coef * ((a - (m - 1)) / m)
        derivs.append(coef * c0 ** (a - m))
    return derivs


def recurrence(name, g, b):
    """g**a for the power ``name``, or g / b for the quotient."""
    a = RECURRENCES[name]
    return g / b if a is None else g.power(a)


@pytest.mark.parametrize("batch", [(), (3, 4), (1500,)])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("name", sorted(RECURRENCES))
def test_power_and_quotient_recurrences(name, real, batch, monkeypatch):
    rng = np.random.default_rng(sorted(RECURRENCES).index(name) + 4 * real)

    def draw():
        c = decaying_jet(rng, batch, unit=True).c
        if real:
            # a real jet with a positive constant term has real powers
            c = c.real.copy()
            c[..., 0, 0] = rng.uniform(1, 2, batch)
        return Jet2(c)

    g, b = draw(), draw()
    # about a third of the arguments affine, as coordinate seeds are
    j = np.arange(17)
    curved = (j[:, None] + j[None, :]) >= 2
    g.c[..., curved] *= (rng.uniform(size=batch) > 0.3)[..., None]
    lanes = math.prod(batch)
    assert batch == () or (lanes > jets._LANES) == (lanes == 1500)
    products = count_products(monkeypatch)
    previous = None
    for order in range(17):
        gk, bk = g.truncated(order), b.truncated(order)
        got = recurrence(name, gk, bk)
        assert got.coef.shape == gk.coef.shape
        assert got.coef.dtype == gk.coef.dtype
        # the jet at order K, truncated, is the jet at order K - 1
        if previous is not None:
            assert np.array_equal(got.truncated(order - 1).coef,
                                  previous.coef), order
        previous = got
        if batch and order in (0, 1, 7, 16):
            # each lane run alone has the bits it gets inside the batch,
            # in either regime
            flat = [x.coef.reshape(order + 1, order + 1, lanes)
                    for x in (gk, bk, got)]
            for lane in (0, lanes // 2, lanes - 1):
                one = recurrence(name, *[Jet2._wrap(x[..., lane:lane + 1])
                                         for x in flat[:2]])
                assert same_bits(one.coef[..., 0], flat[2][..., lane])
    assert products == []
    if lanes > jets._LANES:
        # the references below cost products on every lane of a wide
        # batch; each lane's bits are those of a narrow one, checked above
        g, b, got = [Jet2._wrap(x.coef[..., :64]) for x in (g, b, got)]
    a = RECURRENCES[name]
    if a is None:
        want = (g * b.reciprocal()).coef
    else:
        want = horner_reference(g, binomial_derivs(g, a))
    size = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got.coef - want)) <= 1e-14 * size


@pytest.mark.parametrize("name", sorted(RECURRENCES))
def test_recurrences_reject_a_near_zero_constant_term(name):
    rng = np.random.default_rng(2)
    g = decaying_jet(rng, (3, 4), order=5, unit=True)
    b = decaying_jet(rng, (3, 4), order=5, unit=True)
    divisor = b if RECURRENCES[name] is None else g
    divisor.c[1, 2, 0, 0] = 3e-11
    divisor.c[2, 0, 0, 0] = -5e-11
    with pytest.raises(DomainError) as err:
        recurrence(name, g, b)
    assert err.value.message == "power or division at a near-zero " \
        "constant term"
    assert err.value.context == {"count": 2, "min_abs": 3e-11,
                                 "tolerance": jets.DIVISION_TOL}


@pytest.mark.parametrize("batch", [(0,), (0, 3)])
def test_empty_batches_give_empty_jets(batch):
    f = Jet2(np.ones(batch + (4, 4)))
    g = Jet2(np.full((4, 4), 2.0))
    for got in (f * f, f * g, f.power(-0.5), f.sqrt(), f.reciprocal(),
                f / f, f / g, g / f):
        assert got.order == 3
        assert got.batch_shape == batch
        assert got.coef.dtype == np.float64


@pytest.mark.parametrize("entry", [0.5, np.nan, np.inf])
@pytest.mark.parametrize("where", [(2, 0), (1, 1), (0, 2), (3, 1), (0, 4)])
def test_curved_or_nonfinite_argument_takes_the_product_path(
        where, entry, monkeypatch):
    rng = np.random.default_rng(3)
    f = affine_jet(rng, 4, (3, 4), real=True)
    f.c[1, 2, where[0], where[1]] = entry
    calls = spy_compose(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):
        f.exp()
        want = horner_reference(f, calls[0][1])
    (_, _, got, products), = calls
    assert products == 4
    assert np.array_equal(got.coef, want, equal_nan=True)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("shapes", [((4, 4), (4, 1)), ((4, 1), (4, 4))])
def test_vector_times_scalar_equals_component_products(shapes, real):
    rng = np.random.default_rng(11)
    for order in range(9):
        w = JetVec6(coefficients(rng, order, shapes[0], (6,), real=real))
        s = Jet2(coefficients(rng, order, shapes[1], real=real))
        for got in (w * s, s * w):
            assert got.batch_shape == (4, 4)
            for i in range(6):
                want = w.component(i) * s
                assert np.array_equal(got.component(i).coef, want.coef)


# the plan-driven product kernel against the block loop it replaced

def block_loop_product(a, b):
    """The truncated product as one numpy step per coefficient a[p, q] of
    the left factor: a[p, q] times the leading block of b, added to the
    matching block of the result, then masked to the triangle."""
    order, top = b.shape[0] - 1, a.shape[0] - 1
    ndim = max(a.ndim, b.ndim)
    a, b = jets._widen(a, ndim), jets._widen(b, ndim)
    batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    out = np.zeros((order + 1, order + 1) + batch,
                   dtype=np.result_type(a, b))
    blocks = [b[:m + 1, :m + 1] for m in range(order + 1)]
    for p in range(top + 1):
        for q in range(top + 1 - p):
            m = order - p - q
            out[p:p + m + 1, q:q + m + 1] += a[p, q] * blocks[m]
    out *= jets._mask(order, len(batch))
    return out


def storage(rng, order, batch, real):
    """Random coefficient-first storage (K+1, K+1, *batch), zero above
    the triangle."""
    c = coefficients(rng, order, batch, real=real)
    return np.ascontiguousarray(np.moveaxis(c, (-2, -1), (0, 1)))


KERNEL_SHAPES = [((), ()), ((3, 4), (3, 4)), ((4, 4), (4, 1)),
                 ((4, 1), (4, 4)), ((5, 6), (5, 1))]


@pytest.mark.parametrize("real", [(True, True), (True, False),
                                  (False, True), (False, False)])
@pytest.mark.parametrize("shapes", KERNEL_SHAPES)
def test_kernel_matches_block_loop_bit_for_bit(shapes, real):
    rng = np.random.default_rng(len(shapes[0]) + 2 * sum(real))
    for order in range(17):
        for top in sorted({max(order - 1, 0), order}):
            a = storage(rng, top, shapes[0], real[0])
            b = storage(rng, order, shapes[1], real[1])
            got = jets._mul(a, b)
            assert got.dtype == np.result_type(a, b)
            assert np.array_equal(got, block_loop_product(a, b)), \
                (order, top)


@pytest.mark.parametrize("order, lanes", [(4, 1500), (11, 384)])
def test_kernel_across_lane_blocks_and_passes(order, lanes):
    # 1500 lanes are more than _LANES and go term by term; at K = 11 the
    # 1365 terms of 384 lanes take several passes
    assert lanes > jets._LANES or \
        math.comb(order + 4, 4) * lanes > 4 * jets._PASS
    rng = np.random.default_rng(order)
    for real in (True, False):
        a = storage(rng, order, (lanes,), real)
        b = storage(rng, order, (lanes,), not real)
        got = jets._mul(a, b)
        assert np.array_equal(got, block_loop_product(a, b))
        # each lane alone gives the bits it gets inside the batch
        for lane in (0, lanes // 2, lanes - 1):
            alone = jets._mul(a[..., lane:lane + 1], b[..., lane:lane + 1])
            assert np.array_equal(alone[..., 0], got[..., lane])


def same_bits(got, want):
    """got equals want bit for bit on the triangle, -0.0 and NaN
    payloads included, and is +0.0 above it (where the block loop's
    mask leaves the sign of a zero to the data)."""
    tri = jets._mask(got.shape[0] - 1)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got[tri].view(np.uint64),
                               want[tri].view(np.uint64))
            and not np.any(got[~tri].view(np.uint64)))


def lane_alone(s, index):
    """Coefficient-first s cut to one entry of the batch: index holds a
    position per batch axis, or None to keep that axis whole; an axis
    that s broadcasts is kept as it is."""
    cut = tuple(slice(None) if i is None or n == 1 else slice(i, i + 1)
                for i, n in zip(index, s.shape[2:]))
    return s[(slice(None), slice(None)) + cut]


# (left batch, right batch, lanes checked alone): a u line by a v line, a
# flat batch, and a JetVec6 on 24 x 24 by a scalar on its unit component
# axis; each is wider than _LANES
WIDE_SHAPES = [
    ((40, 1), (1, 40), [(0, 0), (17, 39), (39, 5)]),
    ((1500,), (1500,), [(0,), (777,), (1499,)]),
    ((24, 24, 6), (24, 24, 1), [(0, 0, None), (11, 23, None)]),
]


@pytest.mark.parametrize("real", [(True, True), (True, False),
                                  (False, True), (False, False)])
@pytest.mark.parametrize("left, right, alone", WIDE_SHAPES)
def test_wide_kernel_matches_block_loop_bit_for_bit(left, right, alone,
                                                    real):
    batch = np.broadcast_shapes(left, right)
    assert math.prod(batch) > jets._LANES
    rng = np.random.default_rng(len(left) + 2 * sum(real))
    for order in (0, 1, 3, 6):
        for top in sorted({max(order - 1, 0), order}):
            a = storage(rng, top, left, real[0])
            b = storage(rng, order, right, real[1])
            # a term -0.0 must still add to the output's 0.0
            a[0, 0, :3] = -0.0
            got = jets._mul(a, b)
            assert same_bits(got, block_loop_product(a, b)), (order, top)
            # each lane alone, a batch of the narrow regime, gives the
            # bits it gets inside the wide one
            for index in alone:
                one = jets._mul(lane_alone(a, index), lane_alone(b, index))
                assert same_bits(one, lane_alone(got, index)), \
                    (order, top, index)


def test_wide_product_allocates_its_output_and_one_buffer():
    # a u line by a v line reads its factors on the axes: no operand is
    # copied out to the grid
    rng = np.random.default_rng(3)
    a = storage(rng, 3, (128, 1), True)
    b = storage(rng, 3, (1, 128), True)
    jets._mul(a, b)
    tracemalloc.start()
    try:
        out = jets._mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = 128 * 128 * out.itemsize
    # numpy's ufunc iterator holds a buffer of getbufsize() elements for
    # each broadcast input, whatever the batch
    iterator = 2 * np.getbufsize() * out.itemsize
    assert peak <= out.nbytes + batch + iterator + 16 * 1024


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_entries_above_the_triangle_stay_zero(entry):
    # the entry sits inside the triangle of its operand; products and
    # truncations still leave everything above their own triangle zero
    check_entries_above_the_triangle(entry, (3,))


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_entries_above_the_triangle_stay_zero_on_a_wide_batch(entry):
    # the same in the wide regime of the product kernel
    check_entries_above_the_triangle(entry, (jets._LANES + 1,))


def check_entries_above_the_triangle(entry, batch):
    rng = np.random.default_rng(5)
    f = Jet2(coefficients(rng, 4, batch, real=True))
    g = Jet2(coefficients(rng, 4, batch, real=False))
    w = JetVec6(coefficients(rng, 4, batch, (6,)))
    f.c[2, 2, 1] = entry
    w.c[0, 4, 3, 1] = entry
    with np.errstate(invalid="ignore", over="ignore"):
        products = [f * g, g * f, f * f, w * f, f * w, w.inner(w)]
        truncations = [f.truncated(2), w.truncated(3)]
    for jet in products + truncations:
        order = jet.order
        j = np.arange(order + 1)
        above = (j[:, None] + j[None, :]) > order
        assert np.all(jet.c[..., above] == 0)
    for jet in products:
        assert not np.all(np.isfinite(jet.c))


@pytest.mark.parametrize("order", range(17))
def test_plan_structure(order):
    for top in range(order + 1):
        plan = jets._plan(top, order)
        assert jets._plan(top, order) is plan
        side = order + 1
        triangle = {(j, k) for j in range(side) for k in range(side - j)}
        outputs = [divmod(int(t), side) for t in plan.target]
        assert sorted(outputs) == sorted(triangle)
        counts = plan.counts
        # each rank's outputs are a prefix of the outputs, longest first
        assert all(x >= y for x, y in zip(counts, counts[1:]))
        assert counts[0] == len(outputs)
        assert len(plan.ia) == len(plan.ib) == sum(counts)
        if top == order:
            assert len(plan.ia) == math.comb(order + 4, 4)
        terms = {out: [] for out in outputs}
        start = 0
        for count in counts:
            for i in range(count):
                p, q = divmod(int(plan.ia[start + i]), top + 1)
                jb, kb = divmod(int(plan.ib[start + i]), side)
                terms[outputs[i]].append((p, q, jb, kb))
            start += count
        for (j, k), got in terms.items():
            want = [(p, q, j - p, k - q) for p in range(j + 1)
                    for q in range(k + 1) if p + q <= top]
            assert got == want, (top, order, j, k)
        # the wide regime's walk by right factor meets each output's
        # terms in the same order
        walked = {out: [] for out in outputs}
        factors = [(jb, kb) for jb, kb, _ in plan.by_factor()]
        assert factors == sorted(set(factors), reverse=True)
        for jb, kb, group in plan.by_factor():
            for t, p, q in group:
                walked[divmod(t, side)].append((p, q, jb, kb))
        assert walked == terms


@pytest.mark.parametrize("width", [1, 7, 384, 1024])
def test_plan_passes_add_every_term_once_in_rank_order(width):
    for top, order in [(0, 0), (3, 4), (8, 8), (15, 16)]:
        plan = jets._plan(top, order)
        passes = plan.passes(width)
        starts = np.cumsum([0] + plan.counts)
        seen = []
        for lo, hi, adds in passes:
            assert hi - lo <= max(1, jets._PASS // width)
            for d0, d1, s0, s1 in adds:
                assert d1 - d0 == s1 - s0 > 0
                rank = int(np.searchsorted(starts, lo + s0, "right")) - 1
                assert lo + s0 - starts[rank] == d0
                seen += [(rank, i) for i in range(d0, d1)]
        want = [(r, i) for r, count in enumerate(plan.counts)
                for i in range(count)]
        assert seen == want
        assert passes[-1][1] == len(plan.ia)


def test_plan_caches_are_thread_safe(monkeypatch):
    # threads that meet cold caches must each read whole plans: a pass
    # list read while another thread fills it would drop terms.  More
    # threads than cores, switching as often as the interpreter allows
    rng = np.random.default_rng(11)
    cases = [(random_jet(order, (width,), rng),
              random_jet(order, (width,), rng))
             for order in (3, 8, 12) for width in (16, 1000)]

    def work():
        out = []
        for a, b in cases:
            out += [(a * b).coef, (a / b).coef, a.power(0.5).coef,
                    a.du().coef]
        return out

    def cold():
        for name in ("_PLANS", "_DEGREES", "_TARGETS", "_MASKS", "_WEIGHTS"):
            monkeypatch.setattr(jets, name, {})

    cold()
    serial = work()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            cold()
            results = [None] * 8
            threads = [threading.Thread(target=lambda i=i: results.__setitem__(
                i, work())) for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for result in results:
                assert result is not None
                assert all(np.array_equal(x, y)
                           for x, y in zip(result, serial))
    finally:
        sys.setswitchinterval(interval)


def two_step_derivative(s, axis):
    """A derivative formed by an integer weight, then the triangle mask:
    two multiplies."""
    order = s.shape[0] - 1
    shape = (-1, 1) if axis == 0 else (1, -1)
    w = np.arange(1, order + 1).reshape(shape + (1,) * (s.ndim - 2))
    out = (s[1:, :order] if axis == 0 else s[:order, 1:]) * w
    out *= jets._mask(order - 1, s.ndim - 2)
    return out


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("real", [True, False])
def test_derivative_in_one_multiply_matches_two_steps(vector, real):
    rng = np.random.default_rng(11)
    for order in range(1, 17):
        c = coefficients(rng, order, (3, 2), (6,) if vector else (), real)
        jet = (JetVec6 if vector else Jet2)(c)
        # an Inf above the triangle turns to NaN under the mask either
        # way; a real Inf inside it stays Inf
        jet.c[(1, 0) + (2,) * vector + (order, 1)] = np.inf
        if real:
            jet.c[(2, 1) + (3,) * vector + (order - 1, 1)] = -np.inf
        with np.errstate(invalid="ignore"):
            pairs = [(jet.du().coef, two_step_derivative(jet.coef, 0)),
                     (jet.dv().coef, two_step_derivative(jet.coef, 1))]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True), order
            if real:
                # the same bits, NaN included
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), order
