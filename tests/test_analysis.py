import os
import threading
import warnings

import numpy as np
import pytest

import oracles
from helpers import (motion_from_generator, mu_riccati_residual,
                     two_pass_energy)
from lightcone import analysis as an
from lightcone.charts import CATALOG, DEFAULT_ORDER, SurfaceChart, \
    catalog_chart, moved_chart, sample_grid, scaled_chart, torus_chart
from lightcone.dsl import chart_from_source
from lightcone.errors import (DegenerateTransform, IntegrandSingular,
                              LightconeError, NonFinite, NotSWillmore,
                              NotWillmore, OrderExhausted)
from lightcone.frames import (INVARIANTS_ORDER, frame_and_invariants,
                              pair_density)


def frame_inv(chart, nu=8, nv=8, order=8):
    U, V = sample_grid(chart, nu, nv)
    return frame_and_invariants(chart.lift_at(U, V, order=order))


def cylinder_chart():
    return chart_from_source("r3 [cos(v), sin(v), u]", name="cylinder",
                             domain=((-1.0, 1.0), (0.0, 2 * np.pi)),
                             periodic=(False, True))


@pytest.fixture(scope="module")
def torus_data():
    return frame_inv(catalog_chart("torus", t=2.0))


@pytest.fixture(scope="module")
def catenoid_data():
    return frame_inv(catalog_chart("catenoid"))


@pytest.fixture(scope="module")
def cylinder_data():
    return frame_inv(cylinder_chart())


def catalog_instances():
    out = []
    for name in sorted(CATALOG):
        chart = catalog_chart(name, t=2.0) if name == "torus" \
            else catalog_chart(name)
        out.append(chart)
    return out


# structure and integrability


@pytest.mark.parametrize("chart", catalog_instances(),
                         ids=lambda c: c.name)
def test_structure_identities_on_catalog(chart):
    report = an.structure_residual(*frame_inv(chart))
    assert report.max_abs < 1e-10, report.lines
    assert report.max_abs >= report.mean_abs >= 0.0


@pytest.mark.parametrize("chart", catalog_instances(),
                         ids=lambda c: c.name)
def test_integrability_identities_on_catalog(chart):
    report = an.integrability_residual(*frame_inv(chart))
    assert report.max_abs < 1e-10, report.lines


def test_residuals_are_grid_resolution_independent():
    chart = catalog_chart("torus", t=2.0)
    a = an.structure_residual(*frame_inv(chart, 8, 8)).max_abs
    b = an.structure_residual(*frame_inv(chart, 16, 16)).max_abs
    assert abs(a - b) < 1e-11


def test_structure_detects_mismatched_data():
    chart = catalog_chart("torus", t=2.0)
    U, V = sample_grid(chart, 8, 8)
    frame, _ = frame_and_invariants(chart.lift_at(U, V, order=8))
    _, other = frame_and_invariants(chart.lift_at(U + 0.05, V, order=8))
    report = an.structure_residual(frame, other)
    assert report.max_abs > 1e-3


def test_report_mechanics(torus_data):
    frame, inv = torus_data
    report = an.structure_residual(frame, inv)
    d = report.as_dict()
    assert set(d) == {"identity", "grid", "max_abs", "mean_abs",
                      "degenerate_fraction"}
    assert d["identity"] == "structure"
    assert d["grid"] is None
    assert d["degenerate_fraction"] == 0.0
    assert "structure" in repr(report)
    assert set(report.lines) == {"second_derivative", "mixed_derivative",
                                 "gauss_direction", "left_null",
                                 "right_null"}


# Willmore condition and the S-condition


def test_torus_is_willmore(torus_data):
    _, inv = torus_data
    assert an.willmore_report(inv).max_abs < 1e-12


def test_cylinder_is_not_willmore(cylinder_data):
    _, inv = cylinder_data
    report = an.willmore_report(inv)
    assert report.max_abs > 1e-3
    assert report.lines["right"] > report.lines["left"]


def test_gate_orders_are_the_least_that_work(torus_data):
    # the transform probe lifts at these orders; one order less cannot
    # form what its gates read, and the order changes no value read
    _, full = torus_data
    low = {k: frame_inv(catalog_chart("torus", t=2.0), order=k)[1]
           for k in (INVARIANTS_ORDER, an.WILLMORE_ORDER)}
    for inv in low.values():
        assert np.array_equal(inv.umbilic_left, full.umbilic_left)
        assert np.array_equal(inv.umbilic_right, full.umbilic_right)
    assert (an.willmore_report(low[an.WILLMORE_ORDER]).max_abs
            == an.willmore_report(full).max_abs)
    with pytest.raises(OrderExhausted):
        an.willmore_report(low[INVARIANTS_ORDER])
    with pytest.raises(OrderExhausted):
        frame_inv(catalog_chart("torus", t=2.0), order=INVARIANTS_ORDER - 1)


def test_torus_swillmore_deviation_matches_closed_form(torus_data):
    _, inv = torus_data
    expected = oracles.torus_invariants(2.0)["swillmore_dev"]
    assert abs(an.swillmore_report(inv).max_abs - expected) < 1e-10
    report = an.swillmore_report(inv)
    assert abs(report.max_abs - expected) < 1e-10
    assert report.degenerate_fraction == 0.0


def test_catenoid_swillmore(catenoid_data):
    _, inv = catenoid_data
    assert an.swillmore_report(inv).max_abs < 1e-12


def test_theta_holomorphy_on_willmore_charts(torus_data, catenoid_data):
    for _, inv in (torus_data, catenoid_data):
        assert an.theta_report(inv).max_abs < 1e-10


def test_theta_gated_on_non_willmore(cylinder_data):
    _, inv = cylinder_data
    with pytest.raises(NotWillmore):
        an.theta_report(inv)


def test_mu_riccati_on_torus(torus_data):
    _, inv = torus_data
    assert mu_riccati_residual(inv, "left") < 1e-10
    assert mu_riccati_residual(inv, "right") < 1e-10


def test_side_names_are_checked(torus_data):
    frame, inv = torus_data
    for check in (lambda side: mu_riccati_residual(inv, side),
                  lambda side: an.harmonicity_report(frame, inv, side),
                  lambda side: an.omega_report(frame, inv, side,
                                               swillmore_gate=1.0)):
        with pytest.raises(ValueError, match="side must be"):
            check("lft")


def test_adjoint_side_prefers_nondegenerate_direction(torus_data):
    # the torus has no umbilic point on either side: the tie goes left
    # on every grid, not by rounding
    assert an.adjoint_side(torus_data[1]) == "left"
    for n in (16, 32):
        _, inv = frame_inv(catalog_chart("torus", t=2.0), n, n,
                           order=INVARIANTS_ORDER)
        assert an.adjoint_side(inv) == "left", n
    # laguerre_lift's left side is umbilic everywhere
    _, inv2 = frame_inv(catalog_chart("laguerre_lift"))
    assert np.all(inv2.umbilic_left)
    assert an.adjoint_side(inv2) == "right"


def test_rho_sigma_derivative_identities(torus_data, catenoid_data):
    # the left adjoint data of a Willmore chart satisfies two first
    # order relations tying rho and sigma to mu and alpha
    for _, inv in (torus_data, catenoid_data):
        mub = inv.mu_left.conj()
        rho_id = (inv.rho_left.zbar() - mub * inv.rho_left
                  + inv.lambda2.conj() * inv.sigma_left * 2.0)
        sig_id = (inv.sigma_left.zbar()
                  - (mub * 0.5 - inv.alpha.conj()) * inv.sigma_left)
        assert np.max(np.abs(rho_id.value)) < 1e-10
        assert np.max(np.abs(sig_id.value)) < 1e-10


# energy quadrature


def test_homogeneous_torus_energy_values():
    assert np.isclose(an.homogeneous_torus_energy(2, 1),
                      4 * np.pi ** 2 / np.sqrt(3.0), rtol=0, atol=1e-14)
    assert np.isclose(an.homogeneous_torus_energy(3, 2),
                      9 * np.pi ** 2 / np.sqrt(5.0), rtol=0, atol=1e-14)
    assert np.isclose(an.homogeneous_torus_energy(5, 4),
                      25 * np.pi ** 2 / 3.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("t,p,q", [(2.0, 2, 1), (1.5, 3, 2)])
def test_torus_energy_matches_closed_form(t, p, q):
    chart = catalog_chart("torus", t=t)
    result = an.willmore_energy(chart, 64, 64, order=3)
    reference = oracles.torus_energy(p, q)
    assert abs(result.value - reference) / reference < 1e-10
    assert result.estimate < 1e-9
    assert result.meta["torus_pq"] == [p, q]
    assert [r["nu"] for r in result.refinements] == [32, 64]


def test_energy_result_as_dict():
    chart = catalog_chart("torus", t=2.0)
    result = an.willmore_energy(chart, 16, 16, order=3)
    d = result.as_dict()
    assert set(d) == {"value", "estimate", "refinements"}
    assert len(d["refinements"]) == 2


def test_gauss_legendre_axis_converges_fast():
    # open u direction of the catenoid: analytic integrand, so two
    # modest resolutions must already agree to quadrature precision
    chart = catalog_chart("catenoid")
    a = an.willmore_energy(chart, 12, 24, order=3)
    b = an.willmore_energy(chart, 40, 80, order=3)
    assert abs(a.value - b.value) < 1e-8


def test_trapezoid_is_exact_for_closed_torus():
    chart = catalog_chart("torus", t=2.0)
    small = an.willmore_energy(chart, 4, 4, order=3)
    big = an.willmore_energy(chart, 64, 64, order=3)
    assert abs(small.value - big.value) < 1e-10


def test_abs_integrand_flips_negative_density():
    chart = catalog_chart("maximal_catenoid")
    plain = an.willmore_energy(chart, 24, 24, order=3)
    folded = an.willmore_energy(chart, 24, 24, order=3, abs_integrand=True)
    assert plain.value < 0 < folded.value
    assert np.isclose(folded.value, -plain.value, rtol=1e-12)


def test_energy_singularity_gate():
    with pytest.raises(IntegrandSingular):
        an.willmore_energy(torus_chart(1.0 + 5e-8), 8, 8, order=3)


def test_energy_is_motion_invariant():
    chart = catalog_chart("catenoid")
    rng = np.random.default_rng(7)
    gen = np.zeros((6, 6))
    gen[0, 1], gen[2, 4], gen[3, 5] = rng.normal(size=3) * 0.4
    motion = motion_from_generator(gen - gen.T)
    base = an.willmore_energy(chart, 24, 48, order=3)
    moved = an.willmore_energy(moved_chart(chart, motion), 24, 48, order=3)
    assert abs(moved.value - base.value) < 1e-8 * (1 + abs(base.value))


def test_energy_is_scale_consistent():
    chart = catalog_chart("catenoid")
    base = an.willmore_energy(chart, 24, 48, order=3)
    stretched = an.willmore_energy(scaled_chart(chart, 3.0), 24, 48,
                                   order=3)
    assert abs(stretched.value - base.value) < 1e-8 * (1 + abs(base.value))


# conformal Gauss map metric data


@pytest.mark.parametrize("chart", catalog_instances(),
                         ids=lambda c: c.name)
def test_gauss_metric_identities(chart):
    frame, _ = frame_inv(chart, order=6)
    report = an.gauss_metric_report(frame)
    assert report.lines["gram_GG"] < 1e-10
    assert report.lines["quarter_dG2"] < 1e-8


# harmonicity of the adjoint pair map


@pytest.mark.parametrize("name", ["torus", "catenoid", "enneper",
                                  "maximal_catenoid", "laguerre_lift"])
def test_willmore_charts_have_harmonic_pair_map(name):
    chart = catalog_chart(name, t=2.0) if name == "torus" \
        else catalog_chart(name)
    report = an.harmonicity_report(*frame_inv(chart))
    assert report.lines["tension"] < 1e-8, report.lines
    assert report.lines["radial"] < 1e-10
    assert report.lines["metric"] < 1e-10


def test_non_willmore_chart_has_tension(cylinder_data):
    frame, inv = cylinder_data
    report = an.harmonicity_report(frame, inv)
    assert report.lines["tension"] > 1e-2
    # the scale and radial parts are construction identities either way
    assert report.lines["radial"] < 1e-10
    assert report.lines["metric"] < 1e-10


def test_harmonicity_masks_null_umbilic_side():
    frame, inv = frame_inv(catalog_chart("laguerre_lift"))
    report = an.harmonicity_report(frame, inv)
    assert report.degenerate_fraction == 0.0
    with pytest.raises(DegenerateTransform):
        an.harmonicity_report(frame, inv, side="left")


# the quartic differential of coincident adjoint directions


def test_omega_identities_on_catenoid():
    frame, inv = frame_inv(catalog_chart("catenoid"))
    report, omega, side = an.omega_report(frame, inv)
    # the lambdas tie in magnitude here, so the side is a tie-break
    assert side in ("left", "right")
    assert report.lines["holomorphy"] < 1e-9
    assert report.lines["cross_check"] < 1e-9
    assert np.max(np.abs(omega)) < 1e-20


def test_omega_gates(torus_data):
    frame, inv = torus_data
    with pytest.raises(NotSWillmore):
        an.omega_report(frame, inv)
    plane = chart_from_source("r3 [u, v, 0]", name="plane")
    pframe, pinv = frame_inv(plane, 6, 6)
    with pytest.raises(DegenerateTransform):
        an.omega_report(pframe, pinv)
    # one degenerate polar direction is already disqualifying
    lframe, linv = frame_inv(catalog_chart("laguerre_lift"))
    with pytest.raises(DegenerateTransform):
        an.omega_report(lframe, linv)


def test_pair_density_matches_kappa_on_torus():
    chart = catalog_chart("torus", t=2.0)
    U, V = sample_grid(chart, 8, 8)
    density = pair_density(chart.lift_at(U, V, order=3))
    expected = oracles.torus_invariants(2.0)["kappa_pair"]
    assert np.max(np.abs(density - expected)) < 1e-12


def meshgrid_energy(chart, nu, nv, order=3):
    """``willmore_energy``'s two passes, lifted on full meshgrids."""
    (u0, u1), (v0, v1) = chart.domain

    def single(nu_, nv_):
        xu, wu = an._axis_quadrature(u0, u1, nu_, chart.periodic[0])
        xv, wv = an._axis_quadrature(v0, v1, nv_, chart.periodic[1])
        U, V = np.meshgrid(xu, xv, indexing="ij")
        f = pair_density(chart.lift_at(U, V, order=order))
        return float(np.einsum("i,j,ij->", wu, wv, f))

    return single(-(-nu // 2), -(-nv // 2)), single(nu, nv)


@pytest.mark.parametrize("name, params", [("torus", {"t": 1.5}),
                                          ("maximal_catenoid", {})])
def test_energy_on_axes_equals_meshgrid_energy(name, params):
    # maximal_catenoid's u axis is open, so it takes Gauss-Legendre nodes
    chart = catalog_chart(name, **params)
    result = an.willmore_energy(chart, nu=12, nv=10)
    coarse, fine = meshgrid_energy(chart, 12, 10)
    assert [r["value"] for r in result.refinements] == [coarse, fine]
    assert result.value == fine


# on periodic-by-periodic charts with even nu and nv the half-resolution
# nodes are the even nodes of the fine rule, so willmore_energy takes the
# coarse pass from the fine one; it must equal two passes float for float

@pytest.mark.parametrize("t, nu, nv, fold", [
    (2.0, 128, 128, False), (2.5, 128, 128, False), (2.0, 64, 64, False),
    (2.0, 32, 32, False), (2.0, 128, 128, True), (2.0, 2, 2, False),
    (2.0, 2, 8, False)])
def test_energy_reuses_the_fine_pass_exactly(t, nu, nv, fold):
    # at nu = 2 the coarse rule is the fine rule itself, not its even
    # nodes
    chart = catalog_chart("torus", t=t)
    result = an.willmore_energy(chart, nu, nv, order=3, abs_integrand=fold)
    coarse, fine = two_pass_energy(chart, nu, nv, abs_integrand=fold)
    assert [r["value"] for r in result.refinements] == [coarse, fine]
    assert result.value == fine
    assert result.estimate == abs(fine - coarse)


def hold_cores(monkeypatch, n):
    """Make the process's affinity set hold n cores."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


def use_cores(monkeypatch, n):
    """Make the process's affinity set hold n cores, and let a block be
    as small as one grid row, so that small grids split too."""
    hold_cores(monkeypatch, n)
    monkeypatch.setattr(an, "MIN_BLOCK_POINTS", 1)


@pytest.mark.parametrize("name, nu, nv, lifts", [
    ("torus", 128, 128, 1), ("torus", 33, 32, 2), ("catenoid", 24, 48, 2)])
def test_energy_lifts_once_where_the_rules_nest(monkeypatch, name, nu, nv,
                                                lifts):
    # each pass lifts its nodes in row blocks, one per core; the blocks
    # of a pass must tile its grid exactly once.  The catenoid's u axis
    # is Gauss-Legendre, whose nodes do not nest, so its coarse grid is
    # lifted once more
    use_cores(monkeypatch, 3)
    calls = []
    original = SurfaceChart.lift_at

    def spy(self, u, v, order=DEFAULT_ORDER):
        calls.append((np.asarray(u), np.asarray(v)))
        return original(self, u, v, order=order)

    monkeypatch.setattr(SurfaceChart, "lift_at", spy)
    chart = catalog_chart(name)
    an.willmore_energy(chart, nu, nv, order=3)

    (u0, u1), (v0, v1) = chart.domain
    sizes = [(nu, nv), (-(-nu // 2), -(-nv // 2))][:lifts]
    assert len(calls) == 3 * lifts
    for n_u, n_v in sizes:
        xu, _ = an._axis_quadrature(u0, u1, n_u, chart.periodic[0])
        xv, _ = an._axis_quadrature(v0, v1, n_v, chart.periodic[1])
        blocks = [(u, v) for u, v in calls
                  if v.shape == (1, n_v) and np.array_equal(v[0], xv)]
        assert len(blocks) == 3
        assert all(u.shape[1] == 1 for u, _ in blocks)
        assert sum(u.shape[0] for u, _ in blocks) == n_u
        rows = np.concatenate(sorted((u[:, 0] for u, _ in blocks),
                                     key=lambda r: r[0]))
        assert np.array_equal(rows, xu)


# each density pass splits its u nodes into one block of rows per core;
# a lane's bits do not depend on the batch around it, so every result
# and every error must be those of one core

SPLIT_CASES = [("torus", {"t": 2.0}, 128, 128), ("catenoid", {}, 24, 48),
               ("enneper", {}, 5, 7)]


def energy_bits(chart, nu, nv):
    result = an.willmore_energy(chart, nu, nv, order=3)
    return [result.value.hex(), result.estimate.hex()] + [
        (r["nu"], r["nv"], r["value"].hex()) for r in result.refinements]


@pytest.mark.parametrize("name, params, nu, nv", SPLIT_CASES)
def test_energy_split_is_bit_identical(monkeypatch, name, params, nu, nv):
    chart = catalog_chart(name, **params)
    use_cores(monkeypatch, 1)
    serial = energy_bits(chart, nu, nv)
    for cores in (2, 3, nu):
        use_cores(monkeypatch, cores)
        assert energy_bits(chart, nu, nv) == serial, cores


@pytest.mark.parametrize("cores", [1, 2, 3, 16])
def test_energy_starts_a_thread_per_block_but_one(monkeypatch, cores):
    # the calling thread runs the first block; one core starts no thread
    use_cores(monkeypatch, cores)
    started = count_thread_starts(monkeypatch)
    an.willmore_energy(catalog_chart("torus"), 16, 16, order=3)
    assert len(started) == cores - 1


def count_thread_starts(monkeypatch):
    started = []
    original = threading.Thread.start

    def spy(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started


@pytest.mark.parametrize("nu, nv, cores, threads", [
    (16, 16, 16, 0), (32, 32, 2, 0), (64, 64, 16, 0), (64, 127, 16, 0),
    (64, 128, 3, 1), (128, 128, 2, 1), (128, 128, 16, 3)])
def test_energy_blocks_hold_at_least_the_least_block(monkeypatch, nu, nv,
                                                     cores, threads):
    # a block costs interpreter time whatever its size, so no block may
    # hold fewer than MIN_BLOCK_POINTS points, whatever the cores
    hold_cores(monkeypatch, cores)
    started = count_thread_starts(monkeypatch)
    an.willmore_energy(catalog_chart("torus"), nu, nv, order=3)
    assert len(started) == threads


# lifts that fail in their upper rows only: a block of those rows alone
# would report a count or a worst value of its own.  And exponents that
# are constant only up to rounding, which differs from row to row: a
# block that took the exponent of its own first row would give other
# bits than the whole grid, or a report where the whole grid refuses
UPPER_ROW_FAILURES = {
    "NonFinite": "r3 [u, v, exp(exp(exp(exp(4*u))))]",
    "NotSpacelike": "r31 [u, v, (u+1)^3/4]",
}
SPLIT_FAILURES = sorted(UPPER_ROW_FAILURES.items()) + [
    ("DomainError", "r3 [u, v, (u+2)^(3*(sin(u)^2+cos(u)^2))]"),
    ("DomainError", "r3 [u, v, (u+2)^(3 + (sin(u)^2+cos(u)^2 - 1)*64)]")]


@pytest.mark.parametrize("error, source", SPLIT_FAILURES)
@pytest.mark.parametrize("nu, nv", [(16, 16), (5, 7)])
def test_energy_split_errors_describe_the_whole_grid(monkeypatch, error,
                                                     source, nu, nv):
    chart = chart_from_source(source)

    def payload(cores):
        use_cores(monkeypatch, cores)
        with np.errstate(all="ignore"), pytest.raises(LightconeError) as info:
            an.willmore_energy(chart, nu, nv, order=3)
        return info.value.payload()

    serial = payload(1)
    assert serial["error"] == error
    for cores in (2, 3, nu):
        assert payload(cores) == serial, cores


def test_energy_blocks_share_the_callers_error_state(monkeypatch):
    # numpy's error state is a context variable; a block that did not run
    # in a copy of the caller's context would warn on the overflow
    use_cores(monkeypatch, 3)
    chart = chart_from_source(UPPER_ROW_FAILURES["NonFinite"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            an.willmore_energy(chart, 16, 16, order=3)


def test_energy_block_exceptions_reach_the_caller(monkeypatch):
    # an exception that is no LightconeError, raised on a worker thread
    # only, so that running the grid again would not raise it
    use_cores(monkeypatch, 3)
    base = catalog_chart("torus")

    def lift(U, V):
        if threading.current_thread() is not threading.main_thread():
            raise KeyError("worker block")
        return base.evaluate(U, V)

    chart = SurfaceChart("worker_fails", lift, base.domain, base.periodic)
    with pytest.raises(KeyError, match="worker block"):
        an.willmore_energy(chart, 16, 16, order=3)


def test_energy_split_keeps_the_dtype_of_the_whole_grid(monkeypatch):
    # sqrt(u) turns the lift complex where a node has u < 0: the bottom
    # block alone would be complex and the top one real, so the grid
    # runs whole and every lane takes the complex path it takes there
    chart = chart_from_source("r3 [u, v, 2 + sqrt(u + 0.3) * 0.1]")
    use_cores(monkeypatch, 1)
    serial = energy_bits(chart, 9, 8)
    use_cores(monkeypatch, 3)
    assert energy_bits(chart, 9, 8) == serial
