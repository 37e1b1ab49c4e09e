import numpy as np
import pytest

from lightcone import frames, jets
from lightcone.ambient import SIGNS, Motion
from lightcone.charts import (CATALOG, catalog_chart, moved_chart,
                              sample_axes, sample_grid, scaled_chart)
from lightcone.dsl import chart_from_source
from lightcone.errors import (GaugeReferenceDegenerate, NonFinite,
                              NormalPlaneDegenerate, NotSpacelike,
                              ParameterOutOfRange)
from lightcone.frames import (INVARIANTS_ORDER, Tolerances, adjoint_vector,
                              canonical_lift, classify_point,
                              conformal_gauss_data, envelope_vector,
                              frame_and_invariants, frame_field,
                              pair_density, willmore_operators)
from lightcone.transforms import apply_chain

import oracles

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
    Y = canonical_lift(chart.lift_at(u, v, order=5))
    Y.c[1, 1, 2, 0, 0] = np.nan  # one value
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotSpacelike):
            canonical_lift(raw)
        with pytest.raises(NormalPlaneDegenerate):
            frame_field(Y)


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
    fr = frame_field(canonical_lift(chart.lift_at(th, ph, order=5)))
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
        assert np.array_equal(frames._value_inner(a, b), a.inner(b).value)


def test_frame_identities_as_jets():
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 4, 4)
    fr = frame_field(canonical_lift(chart.lift_at(u, v, order=6)))
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
    fr = frame_field(canonical_lift(chart.lift_at(th, ph, order=5)))
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
    fr = frame_field(canonical_lift(chart.lift_at(0.0, phi, order=5)))
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
    fr = frame_field(canonical_lift(chart.lift_at(u, v, order=5)))
    return fr.L, fr.R


def test_gauge_prefers_e4_then_the_strongest_weaker_pairing():
    # on the t = 5/2 torus e_4 pairs to zero along u = 0, and e_3 pairs
    # to zero 0.02 away in v, close enough to branch the jets' scale
    L, R = five_halves_null_pair()
    tol = Tolerances()
    gL, gR, chosen = frames._gauge(L, R, tol)
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
        fr = frame_field(canonical_lift(chart.lift_at(u, v, order=4)))
        data = conformal_gauss_data(fr)
        kp = pair_density(chart.lift_at(u, v, order=3)).value.real
        assert np.max(np.abs(data["gram_GG"] - 1.0)) < 1e-10, name
        assert np.max(np.abs(data["quarter_dG2"] - kp)) < 1e-8, name


def test_pair_density_torus_constant():
    chart = catalog_chart("torus", t=T)
    u, v = sample_grid(chart, 6, 6)
    dens = pair_density(chart.lift_at(u, v, order=3))
    assert np.max(np.abs(dens.value - T * T / (4 * TAU * TAU))) < 1e-13


def test_invariants_batch_independent():
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 4, 4)
    _, inv_grid = frame_and_invariants(chart.lift_at(u, v, order=5))
    _, inv_one = frame_and_invariants(chart.lift_at(u[2, 3], v[2, 3],
                                                    order=5))
    assert abs(inv_grid.mu_left.value[2, 3] - inv_one.mu_left.value) < 1e-13
    assert abs(inv_grid.theta.value[2, 3] - inv_one.theta.value) < 1e-13


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
    motion = Motion.plane_rotation(0, 3, 0.7).compose(
        Motion.plane_rotation(2, 4, 0.35))
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
    fr = frame_field(canonical_lift(chart.lift_at(th, ph, order=5)))
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
    frame = frame_field(canonical_lift(raw))
    for order in range(4, 11):
        small = frame.truncated(order - 1)
        ref = frame_field(canonical_lift(raw.truncated(order)))
        for field in FRAME_FIELDS:
            assert np.array_equal(getattr(small, field).coef,
                                  getattr(ref, field).coef), (order, field)
        for field in ("orientation_det", "gauge_axis", "gauge_fallback"):
            assert np.array_equal(getattr(small, field),
                                  getattr(ref, field)), (order, field)
