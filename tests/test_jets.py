import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightcone.ambient import SIGNS
from lightcone.errors import DomainError, OrderExhausted
from lightcone.jets import Jet2, JetVec6, jet_where, seed_point

import oracles

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
    r, h = g.power(-1), g.power(0.5)
    cases = [(e, ei, e * ei, one),
             (s, c, s * s + c * c, one),
             (sh, ch, ch * ch - sh * sh, one),
             (r, g, r * g, one),
             (h, h, h ** 2, g)]
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
