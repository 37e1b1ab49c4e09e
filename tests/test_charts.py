import numpy as np
import pytest

from lightcone import jets
from lightcone.charts import (catalog_chart, embed_flat, embed_hyperbolic,
                              embed_sphere, grid_axis, moved_chart,
                              rational_parameter, sample_axes, sample_grid,
                              scaled_chart, validate_chart, CATALOG)
from lightcone.dsl import chart_from_source
from lightcone.errors import (DomainError, NonFinite, NotOnQuadric,
                              ParameterOutOfRange, UnknownIdentifier)
from lightcone.jets import seed_point
from lightcone.transforms import apply_chain

import oracles
from helpers import compose, plane_rotation, refuse_the_plan


def test_torus_lift_matches_oracle():
    chart = catalog_chart("torus", t=2.0)
    u, v = sample_grid(chart, 7, 5)
    w = chart.lift_at(u, v, order=2)
    expect = oracles.torus_lift(2.0, u, v)
    assert np.max(np.abs(w.value - expect)) < 1e-14


def test_torus_domain_rational():
    chart = catalog_chart("torus", t=1.5)
    p, q = chart.meta["torus_pq"]
    assert (p, q) == (3, 2)
    tau = np.sqrt(1.5 ** 2 - 1)
    assert chart.domain[0][1] == pytest.approx(2 * np.pi * 2 * tau)
    assert chart.periodic == (True, True)


def test_torus_irrational_parameter():
    chart = catalog_chart("torus", t=np.sqrt(5.0))
    assert "torus_pq" not in chart.meta
    assert chart.periodic == (False, True)


def test_torus_parameter_out_of_range():
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ParameterOutOfRange):
            catalog_chart("torus", t=bad)


def test_catenoid_lift_matches_oracle():
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 6, 6)
    w = chart.lift_at(u, v, order=2)
    assert np.max(np.abs(w.value - oracles.catenoid_lift(u, v))) < 1e-13


def test_catalog_charts_validate():
    for name in CATALOG:
        chart = catalog_chart(name)
        report = validate_chart(chart)
        assert report["lightcone_deviation"] < 1e-11, name
        assert report["conformal_deviation"] < 1e-10, name
        assert report["spacelike_min"] > 1e-4, name


def test_unknown_catalog_name():
    with pytest.raises(UnknownIdentifier):
        catalog_chart("moebius")


def test_unknown_catalog_parameter_lists_the_accepted_ones():
    for name, params, accepted in (("torus", {"s": 2.0}, ["t"]),
                                   ("catenoid", {"t": 2.0}, [])):
        with pytest.raises(UnknownIdentifier) as info:
            catalog_chart(name, **params)
        assert info.value.context["available"] == accepted
        assert info.value.context["names"] == sorted(params)


def test_torus_parameter_must_be_finite():
    for bad in (np.inf, np.nan):
        with pytest.raises(ParameterOutOfRange):
            catalog_chart("torus", t=bad)


def test_embed_flat_is_null():
    U, V = seed_point(0.3, -0.8, 3)
    w = embed_flat([U, V, U * V, U.exp()])
    q = w.inner(w)
    assert np.max(np.abs(q.c)) < 1e-12


def test_embed_flat_against_catenoid_oracle():
    U, V = seed_point(0.25, 1.3, 2)
    ch = U.cosh()
    w = embed_flat([ch * V.cos(), ch * V.sin(), U, 1.0])
    assert np.max(np.abs(w.value - oracles.catenoid_lift(0.25, 1.3))) < 1e-13


def test_embed_sphere_null_and_quadric_guard():
    U, V = seed_point(0.4, 0.1, 3)
    good = [U.cosh() * V.cos(), U.cosh() * V.sin(),
            0.0 * U, 0.0 * U, U.sinh()]
    w = embed_sphere(good)
    assert np.max(np.abs(w.inner(w).c)) < 1e-12
    bad = list(good)
    bad[0] = bad[0] * 1.001
    with pytest.raises(NotOnQuadric):
        embed_sphere(bad)


def test_embed_hyperbolic_null_and_quadric_guard():
    U, V = seed_point(0.7, 0.2, 3)
    good = [0.0 * U, 0.0 * U, 0.0 * U, V.cos(), V.sin()]
    w = embed_hyperbolic(good)
    assert np.max(np.abs(w.inner(w).c)) < 1e-12
    bad = list(good)
    bad[3] = bad[3] + 0.01
    with pytest.raises(NotOnQuadric):
        embed_hyperbolic(bad)


def test_grid_axis_policy():
    ax = grid_axis(0.0, 1.0, 4, periodic=True)
    assert np.allclose(ax, [0.0, 0.25, 0.5, 0.75])
    ax = grid_axis(0.0, 1.0, 4, periodic=False)
    assert np.allclose(ax, [0.2, 0.4, 0.6, 0.8])


def test_sample_grid_shapes():
    chart = catalog_chart("catenoid")
    u, v = sample_grid(chart, 5, 9)
    assert u.shape == v.shape == (5, 9)
    assert np.all(u >= -1) and np.all(u <= 1)
    assert np.all(v >= 0) and np.all(v < 2 * np.pi)


def test_moved_chart_preserves_inner_products():
    chart = catalog_chart("torus", t=2.0)
    motion = compose(plane_rotation(1, 4, 0.6),
                     plane_rotation(2, 3, 1.1))
    moved = moved_chart(chart, motion)
    u, v = sample_grid(chart, 4, 4)
    w0 = chart.lift_at(u, v, order=1)
    w1 = moved.lift_at(u, v, order=1)
    assert np.max(np.abs(w1.inner(w1).value)) < 1e-12
    g0 = w0.z().inner(w0.z().conj()).value
    g1 = w1.z().inner(w1.z().conj()).value
    assert np.max(np.abs(g0 - g1)) < 1e-12
    assert np.max(np.abs(w1.value - w0.value @ motion.matrix)) < 1e-12


def test_scaled_chart_reparametrizes():
    chart = catalog_chart("catenoid")
    scaled = scaled_chart(chart, 2.0)
    (u0, u1), _ = scaled.domain
    assert (u0, u1) == (-2.0, 2.0)
    w0 = chart.lift_at(0.3, 1.0, order=1)
    w1 = scaled.lift_at(0.6, 2.0, order=1)
    assert np.max(np.abs(w0.value - w1.value)) < 1e-14
    # first derivatives pick up the factor 1/2
    assert np.max(np.abs(w1.z().value - 0.5 * w0.z().value)) < 1e-14


@pytest.mark.parametrize("factor", [0.0, -0.0, np.nan, np.inf, -np.inf])
def test_scale_factor_must_be_finite_and_nonzero(factor):
    # a zero factor would divide by zero in the lift, and a non-finite
    # one would surface only later, as a NonFinite lift
    with pytest.raises(ParameterOutOfRange):
        scaled_chart(catalog_chart("catenoid"), factor)


def test_rational_parameter():
    assert rational_parameter(2.0) == (2, 1)
    assert rational_parameter(1.25) == (5, 4)
    assert rational_parameter(np.sqrt(2.0)) is None


def test_overflowing_lift_raises_nonfinite():
    # exp(800) overflows: the second point's lift is Inf/NaN, the first
    # is finite
    chart = chart_from_source("r3 [exp(800*u)*cos(v), exp(800*u)*sin(v), u]")
    with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
        chart.lift_at(np.array([0.0, 1.0]), np.zeros(2), order=2)
    assert info.value.context == {"count": 1, "points": 2}


def axes_charts():
    """The catalog, a DSL chart, a moved, a scaled and a transformed
    chart: every way a chart is built."""
    catenoid = catalog_chart("catenoid")
    dsl = chart_from_source("r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]",
                            domain=catenoid.domain,
                            periodic=catenoid.periodic)
    motion = compose(plane_rotation(1, 4, 0.6),
                     plane_rotation(2, 3, 1.1))
    return ([catalog_chart(name) for name in sorted(CATALOG)]
            + [dsl, moved_chart(catalog_chart("torus"), motion),
               scaled_chart(catenoid, 2.0), apply_chain(catenoid, "L,R")])


@pytest.mark.parametrize("order", [0, 3, 5, 8])
def test_lift_on_axes_equals_lift_on_grid(order):
    for chart in axes_charts():
        u, v = sample_axes(chart, 5, 4)
        U, V = sample_grid(chart, 5, 4)
        assert u.shape == (5, 1) and v.shape == (1, 4)
        assert np.array_equal(np.broadcast_to(u, U.shape), U)
        assert np.array_equal(np.broadcast_to(v, V.shape), V)
        on_axes = chart.lift_at(u, v, order=order)
        on_grid = chart.lift_at(U, V, order=order)
        assert on_axes.batch_shape == (5, 4), chart.name
        assert np.array_equal(on_axes.coef, on_grid.coef), chart.name
        assert same_bits_in_triangle(on_axes, on_grid), chart.name


def same_bits_in_triangle(a, b):
    """Jets a and b of one order hold the same bits, -0.0 apart from
    +0.0, on the triangle j + k <= K; above it they may differ in the
    sign of a zero."""
    tri = jets._mask(a.order)
    return (a.order == b.order and a.coef.dtype == b.coef.dtype
            and np.array_equal(a.coef[tri].view(np.int64),
                               b.coef[tri].view(np.int64)))


@pytest.mark.parametrize("order", [3, 14])
def test_torus_lift_on_axes_never_reaches_the_plan(order, monkeypatch):
    # cos(a u) cos(v) and its kin are outer products of the two lines
    chart = catalog_chart("torus", t=2.0)
    u, v = sample_axes(chart, 5, 4)
    on_grid = chart.lift_at(*sample_grid(chart, 5, 4), order=order)
    refuse_the_plan(monkeypatch)
    on_axes = chart.lift_at(u, v, order=order)
    assert same_bits_in_triangle(on_axes, on_grid)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["dsl_catenoid"])
def test_lift_coefficients_do_not_depend_on_the_order(name):
    # a coefficient has the same bits at every order that holds it
    if name in CATALOG:
        chart = catalog_chart(name)
    else:
        chart = chart_from_source("r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]",
                                  domain=((-1.0, 1.0), (0.0, 2 * np.pi)),
                                  periodic=(False, True))
    u, v = sample_axes(chart, 5, 4)
    lifts = [chart.lift_at(u, v, order=k) for k in range(13)]
    for top in range(1, 13):
        for k in range(top):
            assert same_bits_in_triangle(lifts[top].truncated(k),
                                         lifts[k]), (chart.name, top, k)


def test_lift_reading_one_coordinate_spans_the_grid():
    chart = chart_from_source("r3 [cos(u), sin(u), u]")
    u, v = sample_axes(chart, 5, 4)
    w = chart.lift_at(u, v, order=3)
    assert w.batch_shape == (5, 4)
    assert w.coef.flags.c_contiguous
    assert np.array_equal(w.coef,
                          chart.lift_at(*sample_grid(chart, 5, 4), 3).coef)


def test_domain_error_counts_the_values_its_function_saw():
    # 1/u at u = 0: the axes hand 1/u one value of u, the mesh hands it
    # the four points of that grid line
    chart = chart_from_source("r3 [1/u, v, u]")
    u = np.array([-1.0, 0.0, 1.0])[:, None]
    v = np.linspace(0.0, 1.0, 4)[None, :]
    with pytest.raises(DomainError) as on_axes:
        chart.lift_at(u, v, order=2)
    assert on_axes.value.context["count"] == 1
    with pytest.raises(DomainError) as on_grid:
        chart.lift_at(*np.broadcast_arrays(u, v), order=2)
    assert on_grid.value.context["count"] == 4
