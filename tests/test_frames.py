import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightcone import analysis, frames, jets, transforms
from lightcone.ambient import SIGNS
from lightcone.charts import (CATALOG, catalog_chart, moved_chart,
                              sample_axes, sample_grid, scaled_chart)
from lightcone.dsl import chart_from_source
from lightcone.errors import (DegenerateTransform, DomainError,
                              GaugeReferenceDegenerate, NonFinite,
                              NormalPlaneDegenerate, NotSpacelike,
                              OrderExhausted, ParameterOutOfRange)
from lightcone.frames import (INVARIANTS_ORDER, Tolerances, adjoint_vector,
                              canonical_lift, classify_point,
                              conformal_gauss_data, envelope_vector,
                              frame_and_invariants, frame_field,
                              pair_density, willmore_operators)
from lightcone.transforms import apply_chain

import oracles
from helpers import (compose, count_products, motion_from_generator,
                     plane_rotation)

T = 2.0
TAU = np.sqrt(T * T - 1.0)


def cylinder_chart():
    return chart_from_source("r3 [cos(v), sin(v), u]", name="cylinder",
                             domain=((-1.0, 1.0), (0.0, 2 * np.pi)),
                             periodic=(False, True))


def strip_points():
    # strip 0 < theta < pi*tau: primary gauge axis active there
    th = np.array([0.4, 1.0, 2.1, 3.3, 4.9])
    ph = np.array([0.3, 1.2, 2.6, 4.0, 5.7])
    return th, ph


def test_canonical_lift_identities():
    for chart in (catalog_chart("catenoid"), catalog_chart("enneper")):
        u, v = sample_grid(chart, 5, 5)
        Y = canonical_lift(chart.lift_at(u, v, order=5))
        Yz = Y.z()
        assert np.max(np.abs(Y.inner(Y).c)) < 1e-12
        assert np.max(np.abs(Yz.inner(Yz).c)) < 1e-12
        assert np.max(np.abs((Yz.inner(Y.zbar()) - 0.5).c)) < 1e-12


REAL_CHARTS = dict(
    {name: (lambda name=name: catalog_chart(name)) for name in CATALOG},
    dsl_catenoid=lambda: chart_from_source(
        "r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]",
        domain=((-1.0, 1.0), (0.0, 2 * np.pi)), periodic=(False, True)),
    torus_L=lambda: apply_chain(catalog_chart("torus"), "L"),
    torus_adjL=lambda: apply_chain(catalog_chart("torus"), "adjL"),
    torus_env=lambda: apply_chain(catalog_chart("torus"), "env"))


@pytest.mark.parametrize("name", sorted(REAL_CHARTS))
def test_real_charts_keep_real_storage(name):
    # Y, N, L and R are real vectors of R^{4,2}; only the Wirtinger
    # derivatives and the invariants are complex
    chart = REAL_CHARTS[name]()
    u, v = sample_grid(chart, 4, 4)
    raw = chart.lift_at(u, v, order=5)
    frame, inv = frame_and_invariants(raw)
    for jet in (raw, canonical_lift(raw), frame.Y, frame.Yzzb, frame.N,
                frame.L, frame.R, inv.kappa_pair):
        assert jet.coef.dtype == np.float64
    assert frame.Yz.coef.dtype == np.complex128
    assert inv.lambda1.coef.dtype == np.complex128
    # the frame's Y_zzbar is the real part of Y_z.zbar(), bit for bit
    assert np.array_equal(frame.Yzzb.coef, frame.Yz.zbar().real.coef)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_canonical_lift_of_real_chart_takes_real_products(name, monkeypatch):
    # the metric g2 = (<Y_u, Y_u> + <Y_v, Y_v>) / 2 of a real lift needs
    # no complex product, and the normaliser g2 ** -0.5 stays float64
    operands, bases = [], []
    mul, power = jets._mul, jets.Jet2.power

    def spy_mul(a, b):
        operands.extend((a.dtype, b.dtype))
        return mul(a, b)

    def spy_power(self, exponent):
        bases.append(self.coef.dtype)
        return power(self, exponent)

    chart = catalog_chart(name)
    u, v = sample_grid(chart, 4, 4)
    raw = chart.lift_at(u, v, order=5)
    monkeypatch.setattr(jets, "_mul", spy_mul)
    monkeypatch.setattr(jets.Jet2, "power", spy_power)
    Y = canonical_lift(raw)
    assert operands and set(operands) == {np.dtype(np.float64)}
    assert bases == [np.float64]
    assert Y.coef.dtype == np.float64


def test_canonical_lift_rejects_non_spacelike():
    bad = chart_from_source("r31 [0.1*u, 0.1*v, u]")
    with pytest.raises(NotSpacelike):
        canonical_lift(bad.lift_at(0.3, 0.4, order=3))


def test_nan_lift_fails_the_gates():
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 3, 3)
    raw = chart.lift_at(u, v, order=5)
    raw.c[1, 1, 2, 1, 0] = np.nan  # one first derivative
    lift = chart.lift_at(u, v, order=5)
    lift.c[1, 1, 2, 0, 0] = np.nan  # one value
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotSpacelike):
            canonical_lift(raw)
        with pytest.raises(NotSpacelike):
            frame_field(raw)
        with pytest.raises(NormalPlaneDegenerate):
            frame_field(lift)


@pytest.mark.parametrize("index", [(1, 1, 2, 1, 0), (1, 1, 2, 2, 1)])
def test_nonfinite_lift_raises_nonfinite(index):
    # an Inf in a first derivative used to surface as NotSpacelike, and
    # one in a second derivative as NormalPlaneDegenerate, both with a
    # NaN worst value
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 3, 3)
    raw = chart.lift_at(u, v, order=5)
    raw.c[index] = np.inf
    with pytest.raises(NonFinite) as info:
        frame_and_invariants(raw)
    assert info.value.context == {"count": 1, "points": 9}


def test_torus_frame_matches_oracle():
    chart = catalog_chart("torus", t=T)
    th, ph = strip_points()
    fr = frame_field(chart.lift_at(th, ph, order=5))
    Yo, Yzo, No, Lo, Ro = oracles.torus_frame_vectors(T, th, ph)
    assert not np.any(fr.gauge_fallback)
    assert np.all(fr.orientation_det > 0)
    assert np.max(np.abs(fr.Y.value - Yo)) < 1e-13
    assert np.max(np.abs(fr.Yz.value - Yzo)) < 1e-13
    assert np.max(np.abs(fr.N.value - No)) < 1e-13
    # the gauge sign convention lands on the negative of the reference
    # frame over this strip
    assert np.max(np.abs(fr.L.value + Lo)) < 1e-12
    assert np.max(np.abs(fr.R.value + Ro)) < 1e-12


def test_torus_invariants_match_oracle():
    chart = catalog_chart("torus", t=T)
    th, ph = strip_points()
    _, inv = frame_and_invariants(chart.lift_at(th, ph, order=6))
    oi = oracles.torus_invariants(T)
    assert np.max(np.abs(inv.s.value - oi["s"])) < 1e-13
    assert np.max(np.abs(inv.beta.value - oi["beta"])) < 1e-13
    assert np.max(np.abs(inv.kappa_pair.value - oi["kappa_pair"])) < 1e-13
    assert np.max(np.abs(inv.kappa_iso.value - oi["kappa_iso"])) < 1e-13
    assert np.max(np.abs(inv.mu_left.value - oi["mu_left"])) < 1e-12
    assert np.max(np.abs(inv.mu_right.value - oi["mu_right"])) < 1e-12
    assert np.max(np.abs(inv.theta.value - oi["theta"])) < 1e-13
    assert np.max(np.abs(inv.rho_left.value - oi["rho"])) < 1e-12
    assert np.max(np.abs(inv.alpha.value - oi["alpha"])) < 1e-13
    # frame-covariant scalars flip with the gauge sign
    assert np.max(np.abs(inv.lambda1.value + oi["lambda1"])) < 1e-13
    assert np.max(np.abs(inv.lambda2.value + oi["lambda2"])) < 1e-13
    assert np.max(np.abs(inv.gamma1.value + oi["gamma1"])) < 1e-13
    assert np.max(np.abs(inv.gamma2.value + oi["gamma2"])) < 1e-13
    assert np.max(np.abs(inv.sigma_left.value + oi["sigma"])) < 1e-12
    assert not np.any(inv.umbilic_left)
    assert not np.any(inv.umbilic_right)
    assert np.all(classify_point(inv) == "generic")


def test_torus_adjoint_anchors_at_origin():
    chart = catalog_chart("torus", t=T)
    fr, inv = frame_and_invariants(chart.lift_at(0.0, 0.0, order=6))
    assert fr.gauge_fallback  # primary axis degenerates on theta = 0
    yhat = adjoint_vector(fr, inv, "left")
    ytil = adjoint_vector(fr, inv, "right")
    assert np.max(np.abs(yhat.value - oracles.torus_adjoint_left_origin(T))) \
        < 1e-12
    assert np.max(np.abs(ytil.value - oracles.torus_adjoint_right_origin(T))) \
        < 1e-12


@pytest.mark.parametrize("real", [True, False])
def test_value_inner_is_the_value_of_the_jet_inner(real):
    rng = np.random.default_rng(5)
    for order, batch in [(0, ()), (3, (4,)), (8, (3, 4))]:
        a, b = (rng.standard_normal(batch + (6, order + 1, order + 1))
                * 10.0 ** rng.integers(-4, 5, batch + (6, 1, 1))
                for _ in range(2))
        if not real:
            a = a + 1j * rng.standard_normal(a.shape)
        a, b = jets.JetVec6(a), jets.JetVec6(b)
        assert np.array_equal(frames._value_inner(a.value, b.value),
                              a.inner(b).value)


def test_frame_identities_as_jets():
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 4, 4)
    fr = frame_field(chart.lift_at(u, v, order=6))
    k = fr.N.order
    Y = fr.Y.truncated(k)
    Yu = fr.Yu.truncated(k)
    Yv = fr.Yv.truncated(k)
    checks = [
        fr.N.inner(fr.N),
        fr.N.inner(Y) + 1.0,
        fr.N.inner(Yu),
        fr.N.inner(Yv),
        fr.L.inner(fr.L),
        fr.R.inner(fr.R),
        fr.L.inner(fr.R) + 1.0,
        fr.L.inner(Y),
        fr.L.inner(Yu),
        fr.L.inner(Yv),
        fr.L.inner(fr.N),
        fr.R.inner(Y),
        fr.R.inner(Yu),
        fr.R.inner(Yv),
        fr.R.inner(fr.N),
    ]
    for j, c in enumerate(checks):
        assert np.max(np.abs(c.c)) < 1e-11, j


def test_gauge_balance_and_sign():
    chart = catalog_chart("torus", t=T)
    th = np.array([0.0, 0.0, 0.7, 1.9])
    ph = np.array([0.4, 3.0, 1.0, 5.1])
    fr = frame_field(chart.lift_at(th, ph, order=5))
    idx = fr.gauge_axis
    sgn = SIGNS[idx]
    pL = sgn * np.take_along_axis(fr.L.value.real, idx[:, None], axis=-1)[:, 0]
    pR = sgn * np.take_along_axis(fr.R.value.real, idx[:, None], axis=-1)[:, 0]
    assert np.all(pL < 0)
    assert np.max(np.abs(np.abs(pL) - np.abs(pR))) < 1e-12


def test_gauge_reference_chain_walks_past_dead_axes():
    # on theta = 0 the primary axis is dead; at phi with tan(phi) =
    # -tau e_3 pairs to zero too, so another axis takes over
    chart = catalog_chart("torus", t=T)
    phi = np.pi - np.arctan(TAU)
    fr = frame_field(chart.lift_at(0.0, phi, order=5))
    assert fr.gauge_fallback
    assert int(fr.gauge_axis) not in (3, 4)
    assert abs(complex(fr.L.inner(fr.L).value)) < 1e-12
    assert abs(complex(fr.R.inner(fr.R).value)) < 1e-12
    assert abs(complex(fr.L.inner(fr.R).value) + 1.0) < 1e-12
    axis = int(fr.gauge_axis)
    pL = SIGNS[axis] * fr.L.value.real[axis]
    pR = SIGNS[axis] * fr.R.value.real[axis]
    assert pL < 0
    assert abs(abs(pL) - abs(pR)) < 1e-12


def five_halves_null_pair():
    chart = catalog_chart("torus", t=2.5)
    u, v = sample_axes(chart, 16, 16)
    fr = frame_field(chart.lift_at(u, v, order=5))
    return fr.L, fr.R


def test_gauge_prefers_e4_then_the_strongest_weaker_pairing():
    # on the t = 5/2 torus e_4 pairs to zero along u = 0, and e_3 pairs
    # to zero 0.02 away in v, close enough to branch the jets' scale
    L, R = five_halves_null_pair()
    tol = Tolerances()
    ratio, sign, chosen = frames._gauge(L, R, tol)
    gL = frames._gauged(L, ratio, sign, 0.5)
    gR = frames._gauged(R, ratio, sign, -0.5)
    Lv, Rv = L.value.real, R.value.real
    primary = ((np.abs(Lv[..., 4]) >= tol.gauge)
               & (np.abs(Rv[..., 4]) >= tol.gauge))
    weak = np.minimum(np.abs(Lv), np.abs(Rv))
    assert 0 < np.sum(~primary) < primary.size
    assert np.array_equal(chosen[primary], np.full(np.sum(primary), 4))
    assert np.array_equal(chosen[~primary],
                          np.argmax(weak[~primary], axis=-1))
    sgn = SIGNS[chosen]
    pL = sgn * np.take_along_axis(gL.value.real, chosen[..., None], -1)[..., 0]
    pR = sgn * np.take_along_axis(gR.value.real, chosen[..., None], -1)[..., 0]
    assert np.all(pL < 0)
    assert np.max(np.abs(np.abs(pL) - np.abs(pR))) < 1e-12
    assert np.max(np.abs((gL.inner(gR) + 1.0).c)) < 1e-12


def test_gauge_counts_every_point_without_a_reference_axis():
    L, R = five_halves_null_pair()
    with pytest.raises(GaugeReferenceDegenerate) as info:
        frames._gauge(L, R, Tolerances(gauge=1e9))
    assert info.value.context == {"points": 256}


def test_plane_chart_is_umbilic():
    plane = chart_from_source("r3 [u, v, 0]", name="plane")
    u, v = sample_grid(plane, 4, 4)
    _, inv = frame_and_invariants(plane.lift_at(u, v, order=5))
    assert np.all(inv.umbilic_left)
    assert np.all(inv.umbilic_right)
    assert np.all(classify_point(inv) == "umbilic")
    assert np.max(np.abs(inv.theta.value)) < 1e-20
    assert np.max(np.abs(inv.s.value)) < 1e-12


def test_laguerre_chart_left_umbilic_willmore():
    chart = catalog_chart("laguerre_lift")
    u, v = sample_grid(chart, 5, 5)
    _, inv = frame_and_invariants(chart.lift_at(u, v, order=6))
    assert np.all(inv.umbilic_left)
    assert not np.any(inv.umbilic_right)
    assert np.all(classify_point(inv) == "null_umbilic")
    w1, _ = willmore_operators(inv)
    assert np.max(np.abs(w1.value)) < 1e-12


def test_adjoint_identities_any_chart():
    # the left adjoint is null, pairs to -1 with Y, to mu/2 with Y_z,
    # and kills L_z, Willmore or not
    for chart in (catalog_chart("torus", t=T), cylinder_chart()):
        u, v = sample_grid(chart, 4, 4)
        fr, inv = frame_and_invariants(chart.lift_at(u, v, order=7))
        yhat = adjoint_vector(fr, inv, "left")
        k = yhat.order
        assert np.max(np.abs(yhat.inner(yhat).c)) < 1e-11
        assert np.max(np.abs((fr.Y.truncated(k).inner(yhat) + 1.0).c)) < 1e-11
        mu_half = inv.mu_left.truncated(k) * 0.5
        assert np.max(np.abs((fr.Yz.truncated(k).inner(yhat) - mu_half).c)) \
            < 1e-11
        assert np.max(np.abs(yhat.inner(fr.L.z().truncated(k)).c)) < 1e-11


def test_envelope_orthogonal_to_left_congruence():
    chart = cylinder_chart()
    u, v = sample_grid(chart, 5, 5)
    fr, inv = frame_and_invariants(chart.lift_at(u, v, order=8))
    env = envelope_vector(fr, inv)
    k = env.order
    assert np.max(np.abs(env.inner(fr.L.truncated(k)).value)) < 1e-9
    assert np.max(np.abs(env.inner(fr.L.z().truncated(k)).value)) < 1e-9
    zzb = fr.L.z().zbar().truncated(k)
    assert np.max(np.abs(env.inner(zzb).value)) < 1e-9
    assert np.max(np.abs(env.inner(env).value)) < 1e-9


def test_envelope_equals_adjoint_on_torus():
    chart = catalog_chart("torus", t=T)
    u, v = sample_grid(chart, 4, 4)
    fr, inv = frame_and_invariants(chart.lift_at(u, v, order=6))
    env = envelope_vector(fr, inv)
    yhat = adjoint_vector(fr, inv, "left").truncated(env.order)
    assert np.max(np.abs((env - yhat).c)) < 1e-9


def test_conformal_gauss_data_catalog():
    from lightcone.charts import CATALOG
    for name in CATALOG:
        chart = catalog_chart(name)
        u, v = sample_grid(chart, 5, 5)
        fr = frame_field(chart.lift_at(u, v, order=4))
        data = conformal_gauss_data(fr)
        kp = pair_density(chart.lift_at(u, v, order=3))
        assert np.max(np.abs(data["gram_GG"] - 1.0)) < 1e-10, name
        assert np.max(np.abs(data["quarter_dG2"] - kp)) < 1e-8, name


def test_pair_density_torus_constant():
    chart = catalog_chart("torus", t=T)
    u, v = sample_grid(chart, 6, 6)
    dens = pair_density(chart.lift_at(u, v, order=3))
    assert np.max(np.abs(dens - T * T / (4 * TAU * TAU))) < 1e-13


def _reference_density(raw):
    """The density through the whole canonical lift and its jet
    derivatives."""
    Y = canonical_lift(raw)
    Yzzb = frames._laplacian(Y.du(), Y.dv())
    return Yzzb.inner(Yzzb).real.value


_TORUS = catalog_chart("torus", t=T)


@pytest.mark.parametrize(
    "chart",
    [catalog_chart(name) for name in sorted(CATALOG)]
    + [chart_from_source("r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]"),
       moved_chart(_TORUS, compose(plane_rotation(0, 4, 0.4),
                                   plane_rotation(1, 2, 0.9))),
       scaled_chart(_TORUS, -1.7)],
    ids=lambda chart: chart.name)
def test_pair_density_is_the_jet_density_bit_for_bit(chart):
    # a 5x4 grid and one point with no batch axes run the products and
    # the recurrence on lanes; on 24x24 the vector products go term by
    # term, and on 40x40 the recurrence does too
    for nu, nv, orders in ((5, 4, range(3, 7)), (24, 24, range(3, 7)),
                           (40, 40, (3, 5))):
        u, v = sample_axes(chart, nu, nv)
        for order in orders:
            raws = [chart.lift_at(u, v, order=order)]
            if nu == 5:
                raws.append(chart.lift_at(u[2, 0], v[0, 1], order=order))
            for raw in raws:
                density = pair_density(raw)
                reference = _reference_density(raw)
                assert density.dtype == np.float64
                assert density.shape == reference.shape
                # array_equal takes -0.0 for +0.0; the bits do not
                assert np.array_equal(density.view(np.int64),
                                      reference.view(np.int64)), (
                    chart.name, nu, order)


def _complex_lift(rng, batch, order):
    c = (rng.standard_normal(batch + (6, order + 1, order + 1))
         + 0.3j * rng.standard_normal(batch + (6, order + 1, order + 1)))
    # Y_u and Y_v lean on e_1 and e_2, so the metric is positive
    c[..., 1, 1, 0] += 5.0
    c[..., 2, 0, 1] += 5.0
    return jets.JetVec6(c)


def test_pair_density_of_a_complex_lift_bit_for_bit():
    rng = np.random.default_rng(11)
    for batch in ((7,), (40, 40)):
        for order in range(3, 7):
            raw = _complex_lift(rng, batch, order)
            density = pair_density(raw)
            assert density.dtype == np.float64
            assert np.array_equal(density.view(np.int64),
                                  _reference_density(raw).view(np.int64))


def test_pair_density_of_a_lift_with_signed_zeros_bit_for_bit():
    # a third of the coefficients +0.0 and a fifth -0.0: the sums that
    # leave out a + 0.0 must still turn every -0.0 the kernel's would
    rng = np.random.default_rng(13)
    for order in (3, 4, 5, 3, 4, 5):
        c = rng.standard_normal((5, 4, 6, order + 1, order + 1)) * 0.3
        draw = rng.random(c.shape)
        c[draw < 0.3] = 0.0
        c[(draw >= 0.3) & (draw < 0.5)] = -0.0
        # Y_u and Y_v lean on e_1 and e_2, so the metric is positive
        c[..., 1, 1, 0] = 3.0
        c[..., 2, 0, 1] = 3.0
        raw = jets.JetVec6(c)
        assert np.array_equal(pair_density(raw).view(np.int64),
                              _reference_density(raw).view(np.int64))


def test_pair_density_result_is_not_a_work_array():
    # the work arrays of a call are not kept, and the result is none of
    # them: a second call leaves the first result's bits as they were
    u, v = sample_axes(_TORUS, 24, 24)
    raw = _TORUS.lift_at(u, v, order=3)
    density = pair_density(raw)
    kept = density.copy()
    other = scaled_chart(catalog_chart("enneper"), 0.7)
    second = pair_density(other.lift_at(u, v, order=3))
    assert not np.shares_memory(density, second)
    assert not np.shares_memory(density, raw.coef)
    assert np.array_equal(density.view(np.int64), kept.view(np.int64))


def _expression_ratio(g0, ru0, rv0):
    """The NotSpacelike gate's ratio as one numpy expression."""
    scale = np.sum(np.abs((ru0 - rv0 * 1j) * 0.5) ** 2, axis=-1)
    return g0 / np.maximum(scale, 1e-300)


@pytest.mark.parametrize("batch", [(), (7,), (5, 9)])
@pytest.mark.parametrize("real", [True, False])
def test_spacelike_gate_reads_the_expression_bit_for_bit(batch, real):
    rng = np.random.default_rng(len(batch) + real)
    ru0, rv0 = (rng.standard_normal(batch + (6,))
                * 10.0 ** rng.uniform(-150.0, 150.0, batch + (6,))
                for _ in range(2))
    if not real:
        ru0 = ru0 + 1j * rng.standard_normal(batch + (6,))
    ru0.flat[0] = -0.0
    g0 = -rng.random(batch)
    want = float(np.min(_expression_ratio(g0, ru0, rv0)))
    with pytest.raises(NotSpacelike) as gate:
        frames._check_spacelike(g0, ru0, rv0)
    assert np.float64(gate.value.context["worst"]).view(np.int64) \
        == np.float64(want).view(np.int64)
    # a metric that clears the gate raises nothing
    frames._check_spacelike(np.full(batch, 1e300), ru0, rv0)


def test_pair_density_runs_no_product_and_no_recurrence(monkeypatch):
    # the metric is read on the grid lines, and every sum is written out
    # in the kernel's order, so neither kernel is called
    u, v = sample_axes(_TORUS, 128, 128)
    raw = _TORUS.lift_at(u, v, order=3)
    reference = _reference_density(raw)

    def refuse(*args, **kwargs):
        raise AssertionError("pair_density reached a jet kernel")

    for name in ("_mul", "_wide", "_recurrence"):
        monkeypatch.setattr(jets, name, refuse)
    density = pair_density(raw)
    assert np.array_equal(density.view(np.int64), reference.view(np.int64))


def test_pair_density_gates_as_canonical_lift():
    timelike = chart_from_source("r31 [0.1*u, 0.1*v, u]")
    # a metric of 1e-14 clears the spacelike gate, which is relative,
    # and then fails the power's absolute floor
    tiny = chart_from_source("r3 [1e-7*u, 1e-7*v, 0]")
    for chart, order, error in ((timelike, 2, NotSpacelike),
                                (timelike, 3, NotSpacelike),
                                (tiny, 3, DomainError)):
        raw = chart.lift_at(np.array([0.3, 0.5]), np.array([0.4, 0.1]),
                            order=order)
        with pytest.raises(error) as lift:
            canonical_lift(raw)
        with pytest.raises(error) as density:
            pair_density(raw)
        assert density.value.payload() == lift.value.payload()


def test_pair_density_refuses_lifts_below_order_3():
    # a derivative of an order-0 lift fails first; orders 1 and 2 pass
    # the metric's gate and then meet the energy's own floor
    u, v = sample_axes(_TORUS, 4, 3)
    with pytest.raises(OrderExhausted) as order0:
        pair_density(_TORUS.lift_at(u, v, order=0))
    assert order0.value.payload() == {
        "error": "OrderExhausted", "message": "derivative of an order-0 jet",
        "context": {}}
    for order in (1, 2):
        with pytest.raises(OrderExhausted) as low:
            pair_density(_TORUS.lift_at(u, v, order=order))
        assert low.value.payload() == {
            "error": "OrderExhausted",
            "message": "the energy density needs a raw lift of order 3 or "
                       "more", "context": {"order": order}}


@pytest.mark.parametrize("shape", [(6,), (3, 6), (3, 16, 6), (3, 3, 64, 6),
                                   (3, 128, 128, 6)])
def test_signed_sum_pairs_even_and_odd_components(shape):
    # the metric's signed sums rely on this einsum summing the six
    # signed components in one order, whatever the shape of the array:
    # a sum on the grid lines then has the bits of the same sum on the
    # whole coefficient triangle.  A numpy that changes the order fails
    # here
    rng = np.random.default_rng(5)
    q = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    s = q * SIGNS
    paired = ((s[..., 0] + s[..., 2]) + s[..., 4]) \
        + ((s[..., 1] + s[..., 3]) + s[..., 5])
    summed = np.einsum("...i,i->...", q, SIGNS)
    assert np.array_equal(np.asarray(summed).view(np.int64),
                          np.asarray(paired).view(np.int64))
    # a real line sums its squares as ((q0 + q2) - q4) + ((q1 + q3) - q5):
    # SIGNS is (1, 1, 1, 1, -1, -1), a sign flip is exact, and x + (-y)
    # is x - y
    assert np.array_equal(SIGNS, [1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    flipped = ((q[..., 0] + q[..., 2]) - q[..., 4]) \
        + ((q[..., 1] + q[..., 3]) - q[..., 5])
    assert np.array_equal(np.asarray(flipped).view(np.int64),
                          np.asarray(paired).view(np.int64))
    # the complex line sums with out=, into a buffer that starts on a
    # cache line and into a strided slab of a larger one: the v line
    # writes its degrees 1 and 2 only
    aligned = jets._aligned(shape[:-1])
    np.einsum("...i,i->...", q, SIGNS, out=aligned)
    assert np.array_equal(aligned.view(np.int64),
                          np.asarray(paired).view(np.int64))
    if len(shape) > 1:
        signed = jets._aligned((2,) + shape[:-1])
        np.einsum("...i,i->...", q[1:], SIGNS, out=signed[1, 1:])
        assert np.array_equal(signed[1, 1:].view(np.int64),
                              np.asarray(paired)[1:].view(np.int64))


_CHART_NAMES = st.sampled_from(sorted(CATALOG))


@given(_CHART_NAMES, st.lists(st.floats(-1.0, 1.0), min_size=15,
                              max_size=15))
@settings(max_examples=25)
def test_pair_density_is_motion_invariant(name, entries):
    chart = catalog_chart(name)
    skew = np.zeros((6, 6))
    skew[np.triu_indices(6, 1)] = entries
    moved = moved_chart(chart, motion_from_generator(skew - skew.T))
    u, v = sample_axes(chart, 5, 4)
    density = pair_density(chart.lift_at(u, v, order=3))
    moved_density = pair_density(moved.lift_at(u, v, order=3))
    scale = 1.0 + np.max(np.abs(density))
    assert np.max(np.abs(moved_density - density)) <= 1e-9 * scale


@given(_CHART_NAMES, st.floats(0.25, 4.0), st.booleans())
@settings(max_examples=25)
def test_pair_density_scales_as_the_inverse_square(name, size, flip):
    # z -> f z: Y becomes f Y(z / f), and Y_zzbar takes a factor 1 / f
    factor = -size if flip else size
    chart = catalog_chart(name)
    scaled = scaled_chart(chart, factor)
    u, v = sample_axes(scaled, 5, 4)
    density = pair_density(scaled.lift_at(u, v, order=3))
    expected = pair_density(chart.lift_at(u * (1.0 / factor),
                                          v * (1.0 / factor), order=3))
    expected = expected / factor ** 2
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(density - expected)) <= 1e-11 * scale


def test_invariants_batch_independent():
    # the frame reads its normal plane off one LAPACK call per point, so
    # a point's frame must not depend on the batch it is built in
    for name in sorted(CATALOG):
        chart = catalog_chart(name)
        u, v = sample_grid(chart, 4, 4)
        frame_grid, inv_grid = frame_and_invariants(
            chart.lift_at(u, v, order=5))
        for point in ((0, 0), (2, 3), (3, 1)):
            frame_one, inv_one = frame_and_invariants(
                chart.lift_at(u[point], v[point], order=5))
            for field in ("N", "L", "R"):
                assert np.array_equal(getattr(frame_grid, field).c[point],
                                      getattr(frame_one, field).c), \
                    (name, point, field)
            for field in ("mu_left", "theta"):
                assert np.array_equal(getattr(inv_grid, field).c[point],
                                      getattr(inv_one, field).c), \
                    (name, point, field)


def test_scale_consistency():
    chart = catalog_chart("catenoid")
    doubled = scaled_chart(chart, 2.0)
    u, v = sample_grid(chart, 4, 4)
    _, inv = frame_and_invariants(chart.lift_at(u, v, order=5))
    _, inv2 = frame_and_invariants(doubled.lift_at(2 * u, 2 * v, order=5))
    # energy density against du dv scales like the inverse square
    assert np.max(np.abs(inv2.kappa_pair.value - inv.kappa_pair.value / 4)) \
        < 1e-12


def test_motion_invariance_of_invariant_scalars():
    chart = catalog_chart("torus", t=T)
    motion = compose(plane_rotation(0, 3, 0.7),
                     plane_rotation(2, 4, 0.35))
    moved = moved_chart(chart, motion)
    th, ph = strip_points()
    _, a = frame_and_invariants(chart.lift_at(th, ph, order=6))
    _, b = frame_and_invariants(moved.lift_at(th, ph, order=6))
    for field in ("s", "beta", "kappa_pair", "kappa_iso", "theta",
                  "mu_left", "mu_right", "rho_left"):
        x = getattr(a, field).value
        y = getattr(b, field).value
        assert np.max(np.abs(x - y)) < 1e-10, field


def test_willmore_operators_flag_cylinder():
    chart = cylinder_chart()
    u, v = sample_grid(chart, 5, 5)
    _, inv = frame_and_invariants(chart.lift_at(u, v, order=6))
    w1, w2 = willmore_operators(inv)
    assert np.max(np.abs(w1.value)) > 1e-2 or np.max(np.abs(w2.value)) > 1e-2


def test_corrupted_frame_breaks_structure():
    # scaling one null direction after the gauge must show up in the
    # frame identity <L, R> = -1
    chart = catalog_chart("torus", t=T)
    th, ph = strip_points()
    fr = frame_field(chart.lift_at(th, ph, order=5))
    bad = fr.L * 1.01
    assert np.max(np.abs((bad.inner(fr.R) + 1.0).value)) > 1e-3


def test_tolerances_hold_per_call():
    # two calls in one process, each with its own umbilic floor
    chart = catalog_chart("torus", t=T)
    u, v = sample_grid(chart, 4, 4)
    raw = chart.lift_at(u, v, order=INVARIANTS_ORDER)
    _, loose = frame_and_invariants(raw, Tolerances(umbilic=10.0))
    _, default = frame_and_invariants(raw)
    assert np.all(loose.umbilic_left & loose.umbilic_right)
    assert not np.any(default.umbilic_left | default.umbilic_right)
    assert set(classify_point(default).ravel()) == {"generic"}


@pytest.mark.parametrize("field, value, shown", [
    ("willmore", float("nan"), "willmore=nan"),
    ("gauge", -1.0, "gauge=-1.0"),
    ("umbilic", float("inf"), "umbilic=inf"),
])
def test_tolerances_refuse_bad_values_where_built(field, value, shown):
    with pytest.raises(ParameterOutOfRange) as built:
        Tolerances(**{field: value})
    assert built.value.context["tol"] == shown
    with pytest.raises(ParameterOutOfRange):
        Tolerances()._replace(**{field: value})


def test_tolerances_name_the_first_bad_field_by_name():
    with pytest.raises(ParameterOutOfRange) as built:
        Tolerances(willmore=-1.0, gauge=float("nan"))
    assert built.value.context["tol"] == "gauge=nan"
    assert Tolerances(gauge=0.0)._replace(willmore=2.0).willmore == 2.0


def test_adjoint_vector_checks_the_side_name():
    chart = catalog_chart("torus", t=T)
    frame, inv = frame_and_invariants(
        chart.lift_at(*sample_grid(chart, 4, 4), order=INVARIANTS_ORDER))
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        adjoint_vector(frame, inv, "lft")


FRAME_FIELDS = ("Y", "Yz", "Yzb", "Yzzb", "Yu", "Yv", "N", "L", "R")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_truncated_frame_is_the_frame_of_the_truncated_lift(name):
    chart = catalog_chart(name)
    u, v = sample_axes(chart, 4, 4)
    raw = chart.lift_at(u, v, order=10)
    # N, L and R at the order of Y_u, as a polar step builds them, and
    # one below, as the checks do; a truncation keeps them no higher
    for cap in (None, 7):
        frame = frame_field(raw, normal_order=cap)
        for order in range(3, 11):
            small = frame.truncated(order - 1)
            normal = order - 2 if cap is None else min(order - 2, cap)
            ref = frame_field(raw.truncated(order), normal_order=normal)
            for field in FRAME_FIELDS:
                assert np.array_equal(getattr(small, field).coef,
                                      getattr(ref, field).coef), (
                                          cap, order, field)
            for field in ("orientation_det", "gauge_axis",
                          "gauge_fallback"):
                assert np.array_equal(getattr(small, field),
                                      getattr(ref, field)), (
                                          cap, order, field)


# invariants formed as they are read

INVARIANT_FIELDS = (
    "lambda1", "lambda2", "s", "alpha", "gamma1", "gamma2",
    "swillmore_disc", "beta", "kappa_pair", "kappa_iso", "mu_left",
    "mu_right", "theta", "rho_left", "rho_right", "sigma_left",
    "sigma_right", "umbilic_left", "umbilic_right")


def torus_frame(order):
    chart = catalog_chart("torus", t=T)
    return frame_field(
        chart.lift_at(*sample_axes(chart, 4, 4), order=order))


@pytest.mark.parametrize("tag", ["L", "R"])
def test_polar_gate_forms_only_the_lambda_and_s_it_reads(tag, monkeypatch):
    chain = transforms.TransformedSurface(catalog_chart("torus", t=T), tag)
    order, _, on_frame = transforms._gates(chain, 0, Tolerances())
    frame = torus_frame(order)
    # a polar step forms the side it hands on before its gates read it
    getattr(frame, tag)
    formed = []
    original = transforms.invariants

    def spy(frame, tol):
        formed.append(original(frame, tol))
        return formed[-1]

    monkeypatch.setattr(transforms, "invariants", spy)
    products = count_products(monkeypatch)
    on_frame(0, frame)
    # its side's lambda and s, one inner product each
    assert len(products) <= 2
    monkeypatch.undo()
    eager = frames.invariants(frame.truncated(order - 1))
    for name in INVARIANT_FIELDS:
        getattr(eager, name)
    gate, = formed
    for name in ("umbilic_left", "umbilic_right"):
        assert np.array_equal(getattr(gate, name), getattr(eager, name))


def test_invariant_fields_are_formed_once_in_any_order():
    frame = torus_frame(INVARIANTS_ORDER + 2)
    forward = frames.invariants(frame)
    backward = frames.invariants(frame)
    for name in INVARIANT_FIELDS[::-1]:
        getattr(backward, name)
    for name in INVARIANT_FIELDS:
        got = getattr(forward, name)
        # a field read twice is the same object
        assert getattr(forward, name) is got
        want = getattr(backward, name)
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got.coef, want.coef), name


def test_frame_field_makes_a_pinned_number_of_products(monkeypatch):
    # the metric and Y = r h (3), M and <M, M> (4), the two projections
    # (5 each) and the Gram-Schmidt step (6); powers and quotients take
    # no product, and N, L and R are formed only when read.  A change
    # that adds products to the frame shows here
    chart = catalog_chart("torus", t=T)
    raw = chart.lift_at(*sample_axes(chart, 4, 4), order=8)
    products = count_products(monkeypatch)
    frame_field(raw)
    assert len(products) == 23


@pytest.mark.parametrize("tag", ["L", "R"])
def test_a_polar_step_makes_a_pinned_number_of_products(tag, monkeypatch):
    # the frame, the gates and the output of one step: the other side's
    # null normal is gauged only at the order its gate reads, and Y_z
    # and Y_zbar only where they are read
    chain = transforms.TransformedSurface(catalog_chart("torus", t=T), tag)
    order, _, on_frame = transforms._gates(chain, 0, Tolerances())
    cost = transforms.POLAR_ORDER_COST
    raw = chain.walk(*sample_axes(chain, 4, 4), order + cost, stop=0)
    products = count_products(monkeypatch)
    recurrences = []
    recurrence = jets._recurrence

    def spy(*args, **kwargs):
        recurrences.append(args[0].shape)
        return recurrence(*args, **kwargs)

    monkeypatch.setattr(jets, "_recurrence", spy)
    out = chain._lifts[0](raw, functools.partial(on_frame, 0))
    assert out.order == order
    assert (len(products), len(recurrences)) == (26, 7)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_polar_order_cost_is_the_orders_a_polar_step_uses_up(name):
    # the step hands on its null normal at the order the frame forms it,
    # with no order formed and then truncated away
    chart = catalog_chart(name)
    raw = chart.lift_at(*sample_axes(chart, 4, 4), order=7)
    frame = frame_field(raw)
    for step, normal in (("polar_left", frame.L), ("polar_right", frame.R)):
        out = transforms._step_lift(step, Tolerances())(raw)
        assert raw.order - out.order == transforms.POLAR_ORDER_COST
        assert normal.order == out.order
        assert same_jet_bits(out, normal)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_polar_step_normal_does_not_depend_on_the_raw_order(name):
    chart = catalog_chart(name)
    raw = chart.lift_at(*sample_axes(chart, 4, 4), order=9)
    for step in ("polar_left", "polar_right"):
        lift = transforms._step_lift(step, Tolerances())
        for n in (2, 4, 6):
            low = lift(raw.truncated(n))
            for k in (1, 2, 3):
                high = lift(raw.truncated(n + k)).truncated(low.order)
                assert same_jet_bits(low, high), (step, n, k)


# pieces of a frame formed on first read

LAZY_FIELDS = ("N", "L", "R", "Yz", "Yzb", "Yzzb")


def same_bits(a, b):
    """True when two arrays have the same dtype, shape and bits; +0.0
    and -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def same_jet_bits(a, b):
    """True when two jets of one order have the same bits on their
    coefficient triangle and zeros above it.  A piece truncated after it
    is formed and one formed from truncated inputs can hold zeros of
    either sign there, which no operation reads."""
    order = a.order
    j = np.arange(order + 1)
    keep = (j[:, None] + j[None, :]) <= order
    return (b.order == order and same_bits(a.coef[keep], b.coef[keep])
            and not np.any(a.coef[~keep]) and not np.any(b.coef[~keep]))


def unread(frame):
    """A frame on the same inputs as ``frame`` with no piece formed."""
    return frames.FrameData(frame.Y, frame.Yu, frame.Yv, frame.M,
                            frame._m, frame._null, frame._ratio,
                            frame._sign, frame.orientation_det,
                            frame.gauge_axis)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_frame_pieces_read_lazily_are_the_eager_ones(name):
    chart = catalog_chart(name)
    raw = chart.lift_at(*sample_axes(chart, 4, 4), order=10)
    whole = frame_field(raw)
    # each piece by its formula on the whole frame's inputs
    L0, R0 = whole._null
    ratio, sign = whole._ratio, whole._sign
    eager = {"N": whole.M * 2.0 + whole.Y * (whole._m * 2.0),
             "L": L0 * ratio.power(0.5) * sign,
             "R": R0 * ratio.power(-0.5) * sign,
             "Yz": (whole.Yu - whole.Yv * 1j) * 0.5,
             "Yzb": (whole.Yu + whole.Yv * 1j) * 0.5,
             "Yzzb": (whole.Yu.du() + whole.Yv.dv()) * 0.25}
    for order in range(4, 11):
        for reads in (LAZY_FIELDS, LAZY_FIELDS[::-1]):
            # the first ``before`` pieces read on the whole frame, the
            # rest only on its truncation
            for before in range(len(reads) + 1):
                frame = unread(whole)
                for field in reads[:before]:
                    assert same_bits(getattr(frame, field).coef,
                                     eager[field].coef)
                small = frame.truncated(order - 1)
                for field in reads:
                    got = getattr(small, field)
                    assert getattr(small, field) is got
                    want = eager[field].truncated(got.order)
                    assert same_jet_bits(got, want), (order, field)
                # a truncation forms nothing on the frame it came from
                for field in reads[before:] if small is not frame else ():
                    assert getattr(frame, "_" + field) is None


def test_a_near_zero_gauge_ratio_raises_from_frame_field(monkeypatch):
    # a null pair scaled by 1e6 and 1e-6 is still a null pair with
    # <L, R> = -1, and both still pair with some axis above tol.gauge;
    # its gauge ratio is about 1e-12, which the powers that gauge L and
    # R refuse
    chart = catalog_chart("torus", t=T)
    raw = chart.lift_at(*sample_axes(chart, 4, 4), order=6)
    gauge = frames._gauge
    monkeypatch.setattr(frames, "_gauge",
                        lambda L, R, tol: gauge(L * 1e6, R * 1e-6, tol))
    with pytest.raises(DomainError) as err:
        frame_field(raw)
    assert err.value.message == \
        "power or division at a near-zero constant term"
    assert err.value.context["count"] == 16
    assert err.value.context["tolerance"] == jets.DIVISION_TOL


@pytest.mark.parametrize("order", [1, 0, -1])
def test_a_frame_is_not_truncated_below_order_2(order):
    frame = torus_frame(INVARIANTS_ORDER)
    assert frame.truncated(2).N.order == 1
    with pytest.raises(OrderExhausted) as err:
        frame.truncated(order)
    assert err.value.payload() == {
        "error": "OrderExhausted",
        "message": "a frame needs Y of order 2 or more",
        "context": {"order": order}}


def test_frame_field_refuses_orders_it_cannot_form():
    chart = catalog_chart("torus", t=T)
    raw = chart.lift_at(*sample_axes(chart, 4, 4), order=INVARIANTS_ORDER)
    # the checks' frame carries N, L and R where the invariants read them
    assert frame_and_invariants(raw)[0].N.order == INVARIANTS_ORDER - 3
    assert frame_field(raw.truncated(2)).L.order == 0
    with pytest.raises(OrderExhausted) as err:
        frame_field(raw.truncated(1))
    assert err.value.context == {"order": 1}
    for normal_order in (-1, INVARIANTS_ORDER - 1):
        with pytest.raises(OrderExhausted) as err:
            frame_field(raw, normal_order=normal_order)
        assert err.value.context == {"order": INVARIANTS_ORDER,
                                     "normal_order": normal_order}


# a block of grid rows has the bits it has inside the whole grid

BLOCK_REPORTS = {
    "structure": lambda frame, inv: analysis.structure_residual(frame, inv),
    "integrability": lambda frame, inv: analysis.integrability_residual(
        frame, inv),
    "willmore": lambda frame, inv: analysis.willmore_report(inv),
    "swillmore": lambda frame, inv: analysis.swillmore_report(inv),
    "theta": lambda frame, inv: analysis.theta_report(inv),
    "gauss_metric": lambda frame, inv: analysis.gauss_metric_report(frame),
    "harmonicity_left": lambda frame, inv: harmonicity(frame, inv, "left"),
    "harmonicity_right": lambda frame, inv: harmonicity(frame, inv,
                                                        "right"),
}


def harmonicity(frame, inv, side):
    """The harmonicity residual of one side, or None where that side
    degenerates on every point (laguerre_lift's left side does)."""
    try:
        return analysis.harmonicity_report(frame, inv, side)
    except DegenerateTransform:
        return None


def per_point(frame, inv, monkeypatch):
    """Every per-point array of the frame, its invariants and the
    residuals of ``BLOCK_REPORTS``, each with the number of axes before
    its grid axes: 2 for the coefficients of a jet, 0 for an array of
    values.  A residual's arrays are those it hands to
    ``analysis._stats``."""
    out = {}
    for field in FRAME_FIELDS:
        out[field] = 2, getattr(frame, field).coef
    for field in ("orientation_det", "gauge_axis"):
        out[field] = 0, getattr(frame, field)
    for field in INVARIANT_FIELDS:
        value = getattr(inv, field)
        out[field] = ((0, value) if isinstance(value, np.ndarray)
                      else (2, value.coef))
    stats = analysis._stats
    for name, report in BLOCK_REPORTS.items():
        stacks = []

        def spy(stack, exclude=None):
            stacks.append([np.asarray(a) for a in stack])
            return stats(stack, exclude)

        monkeypatch.setattr(analysis, "_stats", spy)
        report(frame, inv)
        monkeypatch.undo()
        for i, stack in enumerate(stacks):
            for j, a in enumerate(stack):
                out[name, i, j] = 0, a
    return out


@pytest.mark.parametrize("nu", [12, 16])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_block_of_rows_has_the_bits_of_the_whole_grid(name, nu,
                                                        monkeypatch):
    # a 12 x 10 grid and its blocks run every scalar recurrence in one
    # padded reduction per degree; a 16 x 10 grid runs them a rank at a
    # time, and its blocks in the reduction
    assert 12 * 10 <= jets._REDUCE_LANES < 16 * 10
    chart = catalog_chart(name)
    u, v = sample_axes(chart, nu, 10)
    whole = per_point(*frame_and_invariants(chart.lift_at(u, v, order=6)),
                      monkeypatch)
    for lo, hi in ((0, 5), (5, nu), (3, 4)):
        block = per_point(*frame_and_invariants(
            chart.lift_at(u[lo:hi], v, order=6)), monkeypatch)
        assert block.keys() == whole.keys()
        for key, (lead, got) in block.items():
            want = whole[key][1]
            rows = (slice(None),) * lead + (slice(lo, hi),)
            assert same_bits(got, want[rows]), (key, lo, hi)
