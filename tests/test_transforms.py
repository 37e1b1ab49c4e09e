import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightcone import transforms
from lightcone.ambient import Motion, projective_distance
from lightcone.analysis import willmore_energy, willmore_report
from lightcone.charts import (SurfaceChart, catalog_chart, moved_chart,
                              sample_axes, sample_grid, scaled_chart,
                              validate_chart)
from lightcone.dsl import chart_from_source
from lightcone.errors import (DegenerateTransform, DomainError,
                              GaugeReferenceDegenerate, NotWillmore,
                              OrderExhausted, ParameterOutOfRange,
                              UnknownIdentifier)
from lightcone.frames import (Tolerances, adjoint_vector,
                              frame_and_invariants, frame_field, invariants)
from lightcone.jets import seed_point
from lightcone.transforms import (TransformedSurface, apply_chain,
                                  duality_report, inverse_check)

import oracles
from helpers import (apply, motion_from_generator, plane_rotation,
                     sample_frame)

T = 2.0


@pytest.fixture(scope="module")
def torus():
    return catalog_chart("torus", t=T)


@pytest.fixture(scope="module")
def catenoid():
    return catalog_chart("catenoid")


def cylinder_chart():
    return chart_from_source("r3 [cos(v), sin(v), u]", name="cylinder",
                             domain=((-1.0, 1.0), (0.0, 2 * np.pi)),
                             periodic=(False, True))


def chart_values(chart, u, v):
    return np.real(chart.lift_at(u, v, order=0).value)


def test_torus_polars_match_frame_oracle(torus):
    th = np.linspace(0.1, 5.9, 7)
    ph = np.linspace(0.2, 6.1, 7)
    _, _, _, ell, r = oracles.torus_frame_vectors(T, th, ph)
    dL = projective_distance(chart_values(apply_chain(torus, "L"), th, ph),
                             ell)
    dR = projective_distance(chart_values(apply_chain(torus, "R"), th, ph), r)
    assert np.max(dL) < 1e-10
    assert np.max(dR) < 1e-10


def test_polar_charts_are_valid_charts(torus, catenoid):
    for base in (torus, catenoid):
        for ch in (apply_chain(base, "L"), apply_chain(base, "R")):
            rep = validate_chart(ch, nu=6, nv=6, order=3)
            assert np.max(rep["lightcone_deviation"]) < 1e-12
            assert np.max(rep["conformal_deviation"]) < 1e-12
            assert np.min(rep["spacelike_min"]) > 0.5


@given(st.sampled_from(["catenoid", "enneper", "maximal_catenoid", "torus"]),
       st.integers(2, 12), st.integers(2, 12))
@settings(max_examples=40)
def test_polar_round_trips_return_base(name, nu, nv):
    # the worst over every such grid is 5.8e-13, on enneper 6x11.  Moved
    # charts are left out: the motions exp(S eta) with S antisymmetric,
    # entries drawn from [-1, 1], read up to 8.5e-10 on 8x8, as the
    # frame's residuals grow with the lift's coordinates
    assert inverse_check(catalog_chart(name), grid=(nu, nv)) < 1e-12


def test_inverse_check_is_motion_invariant(torus):
    rng = np.random.default_rng(7)
    gen = np.zeros((6, 6))
    gen[0, 1], gen[2, 4], gen[3, 5] = rng.normal(size=3) * 0.4
    motion = motion_from_generator(gen - gen.T)
    assert inverse_check(moved_chart(torus, motion)) < 1e-8


def test_polar_and_adjoint_commute_with_motions(torus):
    rng = np.random.default_rng(11)
    gen = np.zeros((6, 6))
    gen[0, 2], gen[1, 4], gen[3, 5] = rng.normal(size=3) * 0.3
    motion = motion_from_generator(gen - gen.T)
    u, v = sample_grid(torus, 5, 5)
    for tag in ("L", "adjL"):
        moved_then_build = chart_values(
            apply_chain(moved_chart(torus, motion), tag), u, v)
        build_then_moved = apply(
            motion, chart_values(apply_chain(torus, tag), u, v))
        assert np.max(projective_distance(moved_then_build,
                                          build_then_moved)) < 1e-10


@pytest.mark.parametrize("rapidity", [-3.0, -1.0, 0.0, 1.5])
def test_chain_is_willmore_after_a_boost(rapidity):
    # a boost in the e_0, e_5 plane is a homothety of the flat chart and
    # moves the lift's values by orders of magnitude; the chain's
    # verdict and its residual's rounding level must not follow them
    chart = moved_chart(catalog_chart("enneper"),
                        plane_rotation(0, 5, rapidity))
    chain = apply_chain(chart, "L,R,L")
    raw = chain.lift_at(*sample_axes(chain, 8, 8), order=5)
    _, inv = frame_and_invariants(raw)
    assert willmore_report(inv).max_abs < Tolerances().willmore


def test_polar_charts_are_willmore(torus, catenoid):
    # the polars of a Willmore chart satisfy the Willmore condition in
    # their own right, including the null-umbilic catenoid polars
    for base in (torus, catenoid):
        for ch in (apply_chain(base, "L"), apply_chain(base, "R")):
            u, v = sample_grid(ch, 16, 16)
            _, inv = frame_and_invariants(ch.lift_at(u, v, order=6))
            rep = willmore_report(inv)
            assert rep.max_abs < 1e-6, ch.name


def test_catenoid_polars_match_classical_gauss_map(catenoid):
    u, v = sample_grid(catenoid, 6, 6)
    wplus, wminus = oracles.catenoid_polar_pair(u, v)
    vL = chart_values(apply_chain(catenoid, "L"), u, v)
    vR = chart_values(apply_chain(catenoid, "R"), u, v)
    assert np.max(projective_distance(vL, wplus)) < 1e-7
    assert np.max(projective_distance(vR, wminus)) < 1e-7
    # the assignment is rigid: swapping the pair does not work
    assert np.max(projective_distance(vL, wminus)) > 0.1
    assert np.max(projective_distance(vR, wplus)) > 0.1


def test_catenoid_polars_are_null_umbilic(catenoid):
    pL = apply_chain(catenoid, "L")
    pR = apply_chain(catenoid, "R")
    u, v = sample_grid(pL, 6, 6)
    _, invL = frame_and_invariants(pL.lift_at(u, v, order=6))
    _, invR = frame_and_invariants(pR.lift_at(u, v, order=6))
    assert np.all(invL.umbilic_left)
    assert np.min(np.abs(invL.lambda1.value)) > 0.5
    assert np.all(invR.umbilic_right)
    assert np.min(np.abs(invR.lambda2.value)) > 0.5


def test_catenoid_polar_energy_vanishes(catenoid):
    # the energy density -2 Re(lambda1 conj(lambda2)) is pointwise zero
    # on a null-umbilic chart, so the integral vanishes absolutely
    for ch in (apply_chain(catenoid, "L"), apply_chain(catenoid, "R")):
        res = willmore_energy(ch, nu=16, nv=16, order=5)
        assert abs(res.value) < 1e-8, ch.name


def test_adjoint_of_polar_is_the_other_polar(catenoid):
    u, v = sample_grid(catenoid, 6, 6)
    base_vals = chart_values(catenoid, u, v)
    vL = chart_values(apply_chain(catenoid, "L"), u, v)
    vR = chart_values(apply_chain(catenoid, "R"), u, v)
    back_left = chart_values(apply_chain(catenoid, "R,adjL"), u, v)
    back_right = chart_values(apply_chain(catenoid, "L,adjR"), u, v)
    assert np.max(projective_distance(back_left, vL)) < 1e-7
    assert np.max(projective_distance(back_right, vR)) < 1e-7
    # and it is genuinely the other polar, not the base chart
    assert np.max(projective_distance(back_left, base_vals)) > 0.1
    assert np.max(projective_distance(back_right, base_vals)) > 0.1


def test_torus_adjoint_origin_oracles(torus):
    for tag, oracle in (("adjL", oracles.torus_adjoint_left_origin(T)),
                        ("adjR", oracles.torus_adjoint_right_origin(T))):
        vals = chart_values(apply_chain(torus, tag), 0.0, 0.0)
        assert projective_distance(vals, np.asarray(oracle, float)) < 1e-10


def test_envelope_chart_reduces_to_adjoint_on_s_willmore(torus):
    u, v = sample_grid(torus, 5, 5)
    ev = chart_values(apply_chain(torus, "env"), u, v)
    av = chart_values(apply_chain(torus, "adjL"), u, v)
    assert np.max(projective_distance(ev, av)) < 1e-9


def test_envelope_chart_exists_off_willmore():
    # the corrected envelope needs no Willmore gate; on the cylinder it
    # still produces a spacelike conformal chart
    env = apply_chain(cylinder_chart(), "env")
    assert env.name == "cylinder+env"
    rep = validate_chart(env, nu=5, nv=5, order=2)
    assert np.max(rep["lightcone_deviation"]) < 1e-12
    assert np.max(rep["conformal_deviation"]) < 1e-12
    assert np.min(rep["spacelike_min"]) > 0.5


def test_degenerate_and_willmore_gates():
    plane = chart_from_source("r3 [u, v, 0]", name="plane")
    with pytest.raises(DegenerateTransform):
        apply_chain(plane, "L")
    with pytest.raises(DegenerateTransform):
        apply_chain(plane, "R")
    lag = catalog_chart("laguerre_lift")
    with pytest.raises(DegenerateTransform):
        apply_chain(lag, "L")
    apply_chain(lag, "R")
    cyl = cylinder_chart()
    with pytest.raises(NotWillmore):
        apply_chain(cyl, "adjL")
    with pytest.raises(NotWillmore):
        duality_report(sample_frame(cyl, 8, 8), Tolerances(), cyl.name)


def test_chain_mechanics(torus):
    chain = apply_chain(torus, "L,R")
    assert chain.name == "torus+L+R"
    assert chain.steps == ("polar_left", "polar_right")
    assert chain.order_cost == 4
    assert "torus_pq" not in chain.meta
    long_form = apply_chain(torus, ["polar_left", "polar_right"])
    assert long_form.steps == chain.steps
    with pytest.raises(UnknownIdentifier):
        apply_chain(torus, "L,X")


def test_curved_reparametrization_refused(torus):
    pl = apply_chain(torus, "L")
    U, V = seed_point(0.3, 0.4, 4)
    with pytest.raises(DomainError):
        pl.evaluate(U * U, V)


def test_scaled_chain_carries_the_chain_rule(torus):
    # scaled_chart feeds U/2 into the polar lift, and the jets carry the
    # chain rule through the chain: equal values, halved first
    # derivatives
    pl = apply_chain(torus, "L")
    sc = scaled_chart(pl, 2.0)
    y1 = pl.lift_at(0.35, 0.8, order=2)
    y2 = sc.lift_at(0.7, 1.6, order=2)
    assert np.max(np.abs(y1.value - y2.value)) < 1e-12
    big = np.abs(y1.c[..., 1, 0]) > 1e-9
    ratio = y2.c[..., 1, 0][big] / y1.c[..., 1, 0][big]
    assert np.max(np.abs(ratio - 0.5)) < 1e-12


def test_chain_evaluates_at_a_conformal_reparametrization(torus):
    # z -> z0 + z/2 + z^2/4 is conformal but not affine: the chain's
    # lift at its jets is the chain's lift at the mapped points
    chain = apply_chain(torus, "L")
    s, t = np.meshgrid(np.linspace(-0.5, 0.5, 3), np.linspace(-0.4, 0.4, 3))
    S, T = seed_point(s, t, chain.order_cost + 1)
    W = S + T * 1j
    Z = W * 0.5 + W * W * 0.25 + (0.3 + 0.4j)
    raw = chain.evaluate(Z.real, Z.imag)
    assert raw.order == 1
    mapped = chart_values(chain, Z.real.value, Z.imag.value)
    assert np.max(projective_distance(np.real(raw.value), mapped)) < 1e-12
    # the same map with zbar^2 in place of z^2 is not conformal
    Zbar = W * 0.5 + W.conj() * W.conj() * 0.25 + (0.3 + 0.4j)
    with pytest.raises(DomainError):
        chain.evaluate(Zbar.real, Zbar.imag)


def test_chain_refuses_jets_below_its_order_cost(torus):
    # the check runs before the conformality check, which would need a
    # derivative of the jets
    pl = apply_chain(torus, "L")
    moved = moved_chart(pl, Motion(np.eye(6)))
    for k in range(pl.order_cost):
        for chart in (pl, moved):
            with pytest.raises(OrderExhausted) as err:
                chart.evaluate(*seed_point(0.3, 0.4, k))
            assert err.value.context == {"chart": "torus+L", "order": k,
                                         "order_cost": 2}
    raw = pl.evaluate(*seed_point(0.3, 0.4, pl.order_cost))
    assert raw.order == 0
    assert np.array_equal(raw.value,
                          pl.lift_at(0.3, 0.4, order=0).value)


def test_complex_coordinate_jets_refused(torus):
    pl = apply_chain(torus, "L")
    U, V = seed_point(0.3, 0.4, 4)
    for args in ((U + 0.1j, V), (U, V * (1 + 0j))):
        with pytest.raises(DomainError):
            pl.evaluate(*args)


def test_only_evaluate_checks_conformality(torus, monkeypatch):
    calls = []
    original = transforms._require_conformal

    def counted(U, V):
        calls.append(U.order)
        return original(U, V)

    monkeypatch.setattr(transforms, "_require_conformal", counted)
    chain = apply_chain(torus, "L,R")
    chain.walk(*sample_axes(torus, 4, 4), order=chain.order_cost)
    assert calls == []
    chain.lift_at(*sample_axes(torus, 4, 4), order=1)
    assert calls == [chain.order_cost + 1]


def test_order_cost_carries_through_wrappers(torus):
    gen = np.zeros((6, 6))
    gen[0, 1] = 0.3
    motion = motion_from_generator(gen - gen.T)
    adjoint = apply_chain(torus, "adjL")
    assert torus.order_cost == 0 and adjoint.order_cost == 4
    assert moved_chart(adjoint, motion).order_cost == 4
    assert scaled_chart(adjoint, 2.0).order_cost == 4
    outer = apply_chain(moved_chart(adjoint, motion), "L")
    assert outer.order_cost == 6
    assert outer.root.order_cost == 4


def test_transformed_surface_checks_its_steps(torus):
    with pytest.raises(UnknownIdentifier) as err:
        TransformedSurface(torus, "bogus")
    assert err.value.context == {"tag": "bogus",
                                 "available": ["L", "R", "adjL", "adjR",
                                               "env"]}
    for steps in ((), [], ","):
        with pytest.raises(ParameterOutOfRange):
            TransformedSurface(torus, steps)
    assert TransformedSurface(torus, "L,polar_right").steps == (
        "polar_left", "polar_right")


def test_duality_report_torus(torus):
    rep = duality_report(sample_frame(torus, 8, 8), Tolerances(),
                         torus.name)
    tau3 = (T * T - 1.0) ** 1.5
    assert abs(rep.swillmore_dev - T * T / (8.0 * tau3)) < 1e-10
    assert rep.adjoint_coincidence > 0.01
    assert rep.sigma_residual > 0.01
    assert rep.central_sphere_residual < 1e-9
    d = rep.as_dict()
    assert set(d) == {"swillmore_dev", "adjoint_coincidence",
                      "sigma_residual", "central_sphere_residual"}


def test_duality_report_catenoid(catenoid):
    rep = duality_report(sample_frame(catenoid, 8, 8), Tolerances(),
                         catenoid.name)
    assert rep.swillmore_dev < 1e-7
    assert rep.adjoint_coincidence < 1e-7
    assert rep.sigma_residual < 1e-7
    assert rep.central_sphere_residual < 1e-7


def test_chain_tolerances_reach_probe_and_step_frames(torus):
    # no reference axis pairs with the null normals above 1e9
    strict = Tolerances(gauge=1e9)
    with pytest.raises(GaugeReferenceDegenerate):
        apply_chain(torus, "L", strict)
    step = TransformedSurface(torus, "polar_left", strict)
    u, v = sample_grid(torus, 4, 4)
    with pytest.raises(GaugeReferenceDegenerate):
        step.lift_at(u, v, order=0)
    chart = apply_chain(torus, "L")
    assert np.all(np.isfinite(chart.lift_at(u, v, order=0).value))


def test_empty_chain_is_refused(torus):
    for tags in (",", " ", "", []):
        with pytest.raises(ParameterOutOfRange):
            apply_chain(torus, tags)


def test_every_tag_is_checked_before_any_probe():
    # laguerre_lift fails the probe of L; the unknown tag is found first
    with pytest.raises(UnknownIdentifier):
        apply_chain(catalog_chart("laguerre_lift"), "L,X")


def nested(chart, tags):
    """Reference chain: each step a chart that lifts its base chart at
    the jets it receives and frames that lift, so steps nest as charts;
    each declares the jet orders it uses up."""
    vectors = {
        "L": lambda frame: frame.L,
        "R": lambda frame: frame.R,
        "adjL": lambda frame: adjoint_vector(frame, invariants(frame),
                                             "left"),
    }
    for tag in tags.split(","):
        cost = 4 if tag.startswith("adj") else 2

        def lift(U, V, base=chart, tag=tag, cost=cost):
            raw = base.evaluate(U, V)
            frame = frame_field(raw)
            return vectors[tag](frame).truncated(raw.order - cost)

        step = SurfaceChart(chart.name + "+" + tag, lift, chart.domain,
                            chart.periodic)
        step.order_cost = chart.order_cost + cost
        chart = step
    return chart


@pytest.mark.parametrize("tags", ["L", "L,R", "adjL"])
def test_chain_walk_equals_nested_steps(torus, tags):
    chain, reference = apply_chain(torus, tags), nested(torus, tags)
    u, v = sample_axes(torus, 4, 5)
    for order in (0, 2):
        assert np.array_equal(chain.lift_at(u, v, order=order).coef,
                              reference.lift_at(u, v, order=order).coef)
    # wrapped charts reach the chain through evaluate
    gen = np.zeros((6, 6))
    gen[0, 1], gen[2, 4], gen[3, 5] = 0.3, -0.2, 0.25
    motion = motion_from_generator(gen - gen.T)
    for wrap in (lambda c: moved_chart(c, motion),
                 lambda c: scaled_chart(c, 2.0)):
        wrapped, wrapped_ref = wrap(chain), wrap(reference)
        uw, vw = sample_axes(wrapped, 4, 5)
        assert np.array_equal(wrapped.lift_at(uw, vw, order=2).coef,
                              wrapped_ref.lift_at(uw, vw, order=2).coef)


def test_chain_of_a_chain_walks_from_the_root(torus):
    chain = apply_chain(torus, "L,R")
    twice = apply_chain(apply_chain(torus, "L"), "R")
    assert twice.root is torus
    assert (twice.name, twice.steps) == (chain.name, chain.steps)
    u, v = sample_axes(torus, 4, 4)
    assert np.array_equal(twice.lift_at(u, v, order=1).coef,
                          chain.lift_at(u, v, order=1).coef)


def test_probe_frames_each_prefix_once(torus, monkeypatch):
    orders = []
    original = transforms.frame_field

    def counted(raw, **kw):
        orders.append(raw.order)
        return original(raw, **kw)

    monkeypatch.setattr(transforms, "frame_field", counted)
    apply_chain(torus, "L,R,L")
    assert orders == [8, 6, 4]
