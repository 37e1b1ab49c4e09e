import numpy as np
import pytest

from lightcone.ambient import Motion, projective_distance
from lightcone.analysis import willmore_energy, willmore_report
from lightcone.charts import (catalog_chart, moved_chart, sample_grid,
                              scaled_chart, validate_chart)
from lightcone.dsl import chart_from_source
from lightcone.errors import (DegenerateTransform, DomainError,
                              GaugeReferenceDegenerate, NotWillmore,
                              UnknownIdentifier)
from lightcone.frames import Tolerances, frame_and_invariants
from lightcone.jets import seed_point
from lightcone.transforms import (TransformedSurface, adjoint_left,
                                  adjoint_right, apply_chain,
                                  duality_report, full_second_envelope,
                                  inverse_check, polar_left, polar_right)

import oracles

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
    dL = projective_distance(chart_values(polar_left(torus), th, ph), ell)
    dR = projective_distance(chart_values(polar_right(torus), th, ph), r)
    assert np.max(dL) < 1e-10
    assert np.max(dR) < 1e-10


def test_polar_charts_are_valid_charts(torus, catenoid):
    for base in (torus, catenoid):
        for ch in (polar_left(base), polar_right(base)):
            rep = validate_chart(ch, nu=6, nv=6, order=3)
            assert np.max(rep["lightcone_deviation"]) < 1e-12
            assert np.max(rep["conformal_deviation"]) < 1e-12
            assert np.min(rep["spacelike_min"]) > 0.5


def test_polar_round_trips_return_base(torus, catenoid):
    assert inverse_check(torus) < 1e-8
    assert inverse_check(catenoid) < 1e-8


def test_inverse_check_is_motion_invariant(torus):
    rng = np.random.default_rng(7)
    gen = np.zeros((6, 6))
    gen[0, 1], gen[2, 4], gen[3, 5] = rng.normal(size=3) * 0.4
    motion = Motion.from_generator(gen - gen.T)
    assert inverse_check(moved_chart(torus, motion)) < 1e-8


def test_polar_and_adjoint_commute_with_motions(torus):
    rng = np.random.default_rng(11)
    gen = np.zeros((6, 6))
    gen[0, 2], gen[1, 4], gen[3, 5] = rng.normal(size=3) * 0.3
    motion = Motion.from_generator(gen - gen.T)
    u, v = sample_grid(torus, 5, 5)
    for build in (polar_left, adjoint_left):
        moved_then_build = chart_values(build(moved_chart(torus, motion)), u, v)
        build_then_moved = motion.apply(chart_values(build(torus), u, v))
        assert np.max(projective_distance(moved_then_build,
                                          build_then_moved)) < 1e-10


def test_polar_charts_are_willmore(torus, catenoid):
    # the polars of a Willmore chart satisfy the Willmore condition in
    # their own right, including the null-umbilic catenoid polars
    for base in (torus, catenoid):
        for ch in (polar_left(base), polar_right(base)):
            u, v = sample_grid(ch, 16, 16)
            _, inv = frame_and_invariants(ch.lift_at(u, v, order=6))
            rep = willmore_report(inv)
            assert rep.max_abs < 1e-6, ch.name


def test_catenoid_polars_match_classical_gauss_map(catenoid):
    u, v = sample_grid(catenoid, 6, 6)
    wplus, wminus = oracles.catenoid_polar_pair(u, v)
    vL = chart_values(polar_left(catenoid), u, v)
    vR = chart_values(polar_right(catenoid), u, v)
    assert np.max(projective_distance(vL, wplus)) < 1e-7
    assert np.max(projective_distance(vR, wminus)) < 1e-7
    # the assignment is rigid: swapping the pair does not work
    assert np.max(projective_distance(vL, wminus)) > 0.1
    assert np.max(projective_distance(vR, wplus)) > 0.1


def test_catenoid_polars_are_null_umbilic(catenoid):
    pL = polar_left(catenoid)
    pR = polar_right(catenoid)
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
    for ch in (polar_left(catenoid), polar_right(catenoid)):
        res = willmore_energy(ch, nu=16, nv=16, order=5)
        assert abs(res.value) < 1e-8, ch.name


def test_adjoint_of_polar_is_the_other_polar(catenoid):
    u, v = sample_grid(catenoid, 6, 6)
    base_vals = chart_values(catenoid, u, v)
    vL = chart_values(polar_left(catenoid), u, v)
    vR = chart_values(polar_right(catenoid), u, v)
    back_left = chart_values(adjoint_left(polar_right(catenoid)), u, v)
    back_right = chart_values(adjoint_right(polar_left(catenoid)), u, v)
    assert np.max(projective_distance(back_left, vL)) < 1e-7
    assert np.max(projective_distance(back_right, vR)) < 1e-7
    # and it is genuinely the other polar, not the base chart
    assert np.max(projective_distance(back_left, base_vals)) > 0.1
    assert np.max(projective_distance(back_right, base_vals)) > 0.1


def test_torus_adjoint_origin_oracles(torus):
    for build, oracle in ((adjoint_left, oracles.torus_adjoint_left_origin(T)),
                          (adjoint_right,
                           oracles.torus_adjoint_right_origin(T))):
        vals = chart_values(build(torus), 0.0, 0.0)
        assert projective_distance(vals, np.asarray(oracle, float)) < 1e-10


def test_envelope_chart_reduces_to_adjoint_on_s_willmore(torus):
    u, v = sample_grid(torus, 5, 5)
    ev = chart_values(full_second_envelope(torus), u, v)
    av = chart_values(adjoint_left(torus), u, v)
    assert np.max(projective_distance(ev, av)) < 1e-9


def test_envelope_chart_exists_off_willmore():
    # the corrected envelope needs no Willmore gate; on the cylinder it
    # still produces a spacelike conformal chart
    env = full_second_envelope(cylinder_chart())
    assert env.name == "cylinder+env"
    rep = validate_chart(env, nu=5, nv=5, order=2)
    assert np.max(rep["lightcone_deviation"]) < 1e-12
    assert np.max(rep["conformal_deviation"]) < 1e-12
    assert np.min(rep["spacelike_min"]) > 0.5


def test_degenerate_and_willmore_gates():
    plane = chart_from_source("r3 [u, v, 0]", name="plane")
    with pytest.raises(DegenerateTransform):
        polar_left(plane)
    with pytest.raises(DegenerateTransform):
        polar_right(plane)
    lag = catalog_chart("laguerre_lift")
    with pytest.raises(DegenerateTransform):
        polar_left(lag)
    polar_right(lag)
    cyl = cylinder_chart()
    with pytest.raises(NotWillmore):
        adjoint_left(cyl)
    with pytest.raises(NotWillmore):
        duality_report(cyl)


def test_chain_mechanics(torus):
    chain = apply_chain(torus, "L,R")
    assert chain.name == "torus+L+R"
    assert chain.steps == ("polar_left", "polar_right")
    assert chain.order_cost == 6
    assert chain.meta["steps"] == ["polar_left", "polar_right"]
    assert "torus_pq" not in chain.meta
    long_form = apply_chain(torus, ["polar_left", "polar_right"])
    assert long_form.steps == chain.steps
    with pytest.raises(UnknownIdentifier):
        apply_chain(torus, "L,X")


def test_curved_reparametrization_refused(torus):
    pl = polar_left(torus)
    U, V = seed_point(0.3, 0.4, 4)
    with pytest.raises(DomainError):
        pl.evaluate(U * U, V)


def test_transform_chart_reseeds_affinely(torus):
    # scaled_chart feeds U/2 into the polar lift; the reseed must carry
    # the chain rule exactly: equal values, halved first derivatives
    pl = polar_left(torus)
    sc = scaled_chart(pl, 2.0)
    y1 = pl.lift_at(0.35, 0.8, order=2)
    y2 = sc.lift_at(0.7, 1.6, order=2)
    assert np.max(np.abs(y1.value - y2.value)) < 1e-12
    big = np.abs(y1.c[..., 1, 0]) > 1e-9
    ratio = y2.c[..., 1, 0][big] / y1.c[..., 1, 0][big]
    assert np.max(np.abs(ratio - 0.5)) < 1e-12


def test_duality_report_torus(torus):
    rep = duality_report(torus)
    tau3 = (T * T - 1.0) ** 1.5
    assert abs(rep.swillmore_dev - T * T / (8.0 * tau3)) < 1e-10
    assert rep.adjoint_coincidence > 0.01
    assert rep.sigma_residual > 0.01
    assert rep.central_sphere_residual < 1e-9
    d = rep.as_dict()
    assert set(d) == {"swillmore_dev", "adjoint_coincidence",
                      "sigma_residual", "central_sphere_residual"}


def test_duality_report_catenoid(catenoid):
    rep = duality_report(catenoid)
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
