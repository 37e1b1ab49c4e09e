"""Acceptance battery: one test per numbered criterion.

Each test asserts the stated tolerances and then prints one line with
the measured quantities (visible under pytest -s); the pytest -v status
is the pass/fail record.  Nothing here shares fixtures with the unit
tests, so a criterion failing cannot hide behind cached state.
"""

import json
import math
import time

import numpy as np

from lightcone.ambient import projective_distance
from lightcone.analysis import (gauss_metric_report, harmonicity_report,
                                integrability_residual, omega_report,
                                structure_residual, swillmore_report,
                                theta_report, willmore_energy,
                                willmore_report)
from lightcone.charts import (CATALOG, catalog_chart, moved_chart,
                              sample_grid, validate_chart)
from lightcone.cli import main as cli_main
from lightcone.dsl import chart_from_source
from lightcone.frames import Tolerances, frame_and_invariants
from lightcone.jets import seed_point
from lightcone.transforms import apply_chain, duality_report, inverse_check

import oracles
from helpers import (motion_from_generator, mu_riccati_residual,
                     sample_frame)

T = 2.0


def _passed(num, detail):
    print("criterion %02d: PASS  %s" % (num, detail))


def test_criterion_01_homogeneous_torus_energies(tmp_path):
    cases = ((2.0, oracles.FOUR_PI_SQ_OVER_SQRT3),
             (1.5, oracles.NINE_PI_SQ_OVER_SQRT5),
             (1.25, oracles.TWENTYFIVE_PI_SQ_OVER_3))
    worst_rel = 0.0
    worst_time = 0.0
    for t, expected in cases:
        out = tmp_path / ("energy_%s.json" % t)
        start = time.perf_counter()
        code = cli_main(["energy", "--surface", "torus",
                         "--param", "t=%r" % t, "--grid", "128x128",
                         "--order", "3", "--out", str(out)])
        elapsed = time.perf_counter() - start
        bundle = json.loads(out.read_text("utf-8"))
        rel = abs(bundle["energy"]["value"] - expected) / expected
        assert code == 0
        assert rel < 1e-8, (t, rel)
        assert elapsed < 5.0, (t, elapsed)
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    _passed(1, "rel err <= %.2e, slowest run %.2fs" % (worst_rel, worst_time))


def test_criterion_02_torus_invariants_at_random_points():
    chart = catalog_chart("torus", t=T)
    rng = np.random.default_rng(20260816)
    (ulo, uhi), (vlo, vhi) = chart.domain
    u = rng.uniform(ulo, uhi, 100)
    v = rng.uniform(vlo, vhi, 100)
    _, inv = frame_and_invariants(chart.lift_at(u, v, order=6))
    ora = oracles.torus_invariants(T)
    worst = 0.0
    for name in ("s", "kappa_pair", "theta", "mu_left"):
        got = getattr(inv, name).value
        err = float(np.max(np.abs(got - ora[name])))
        assert err < 1e-10, (name, err)
        worst = max(worst, err)
    riccati = mu_riccati_residual(inv, side="left")
    assert riccati < 1e-10
    _passed(2, "invariant err <= %.2e, |mu_z - mu^2/2 - s| = %.2e"
            % (worst, riccati))


def test_criterion_03_torus_willmore_but_not_s_willmore():
    chart = catalog_chart("torus", t=T)
    grid = sample_grid(chart, 24, 24)
    _, inv = frame_and_invariants(chart.lift_at(*grid, order=6))
    wil = willmore_report(inv).max_abs
    dev = swillmore_report(inv).max_abs
    assert wil < 1e-9
    assert dev > 0.05
    _passed(3, "willmore %.2e, S-deviation %.4f" % (wil, dev))


def _random_conformal_charts():
    """Five seeded-random isothermal charts across embedding forms.

    Cones of revolution are conformal when the profile satisfies
    g'^2 +- h'^2 = g^2 (sign by ambient signature), which exponential
    profiles solve for any opening angle; the other two are a shifted
    scaled catenoid and a rescaled Enneper patch.
    """
    rng = np.random.default_rng(4)
    phi1, phi2 = (float(x) for x in rng.uniform(0.3, 1.2, 2))
    psi = float(rng.uniform(0.1, 0.8))
    scale = float(rng.uniform(0.5, 2.0))
    shift = float(rng.uniform(-0.4, 0.4))
    amp = float(rng.uniform(0.5, 1.5))

    def cone(form, k, m):
        return ("%s [exp(%r*u)*cos(v), exp(%r*u)*sin(v), %r*exp(%r*u)]"
                % (form, k, k, m, k))

    sources = (
        cone("r3", float(np.cos(phi1)), float(np.tan(phi1))),
        cone("r3", float(np.cos(phi2)), float(np.tan(phi2))),
        cone("r31", float(np.cosh(psi)), float(np.tanh(psi))),
        "r3 [%r*cosh(u + %r)*cos(v), %r*cosh(u + %r)*sin(v), %r*u]"
        % (scale, shift, scale, shift, scale),
        "r3 [%r*(u - u*u*u/3 + u*v*v), %r*(v*v*v/3 - v - u*u*v), "
        "%r*(u*u - v*v)]" % (amp, amp, amp),
    )
    return [chart_from_source(src, name="rand%d" % k)
            for k, src in enumerate(sources)]


def test_criterion_04_universal_identities_catalog_and_dsl():
    charts = [catalog_chart(name) for name in sorted(CATALOG)]
    charts += _random_conformal_charts()
    worst = 0.0
    for chart in charts:
        report = validate_chart(chart)
        assert report["spacelike_min"] > 0.0
        assert report["conformal_deviation"] < 1e-10
        for n in (10, 18):
            grid = sample_grid(chart, n, n)
            frame, inv = frame_and_invariants(chart.lift_at(*grid, order=8))
            res = max(structure_residual(frame, inv).max_abs,
                      integrability_residual(frame, inv).max_abs)
            assert res < 1e-8, (chart.name, n, res)
            worst = max(worst, res)
    _passed(4, "%d charts at two resolutions, residual <= %.2e"
            % (len(charts), worst))


def test_criterion_05_polar_round_trips_return_base():
    worst = 0.0
    for chart in (catalog_chart("torus", t=T), catalog_chart("catenoid")):
        dist = inverse_check(chart)
        assert dist < 1e-8, (chart.name, dist)
        worst = max(worst, dist)
    _passed(5, "sup projective distance <= %.2e" % worst)


def test_criterion_06_torus_polars_are_willmore():
    chart = catalog_chart("torus", t=T)
    grid = sample_grid(chart, 16, 16)
    worst = 0.0
    for tag in ("L", "R"):
        _, inv = frame_and_invariants(
            apply_chain(chart, tag).lift_at(*grid, order=6))
        res = willmore_report(inv).max_abs
        assert res < 1e-6, (tag, res)
        worst = max(worst, res)
    _passed(6, "polar Willmore residual <= %.2e on 16x16" % worst)


def test_criterion_07_catenoid_duality_and_classical_gauss_map():
    chart = catalog_chart("catenoid")
    report = duality_report(sample_frame(chart, 8, 8), Tolerances(),
                            chart.name)
    fields = {"swillmore_dev": report.swillmore_dev,
              "adjoint_coincidence": report.adjoint_coincidence,
              "sigma_residual": report.sigma_residual,
              "central_sphere_residual": report.central_sphere_residual}
    for name, value in fields.items():
        assert value < 1e-7, (name, value)
    u, v = sample_grid(chart, 8, 8)
    wplus, wminus = oracles.catenoid_polar_pair(u, v)
    worst = 0.0
    for tag, target in (("L", wplus), ("R", wminus)):
        vals = np.real(apply_chain(chart, tag).lift_at(u, v, order=0).value)
        dist = float(np.max(projective_distance(vals, target)))
        assert dist < 1e-7, (tag, dist)
        worst = max(worst, dist)
    _passed(7, "duality fields <= %.2e, Gauss-map match <= %.2e"
            % (max(fields.values()), worst))


def test_criterion_08_gauss_map_identities_and_harmonicity():
    worst_unit = 0.0
    worst_metric = 0.0
    worst_tension = 0.0
    for name in sorted(CATALOG):
        chart = catalog_chart(name)
        grid = sample_grid(chart, 10, 10)
        frame, inv = frame_and_invariants(chart.lift_at(*grid, order=6))
        gm = gauss_metric_report(frame)
        assert gm.lines["gram_GG"] < 1e-10, (name, gm.lines)
        assert gm.lines["quarter_dG2"] < 1e-8, (name, gm.lines)
        # every catalog chart is Willmore, so harmonicity applies to all
        assert willmore_report(inv).max_abs < 1e-8
        harm = harmonicity_report(*frame_and_invariants(
            chart.lift_at(*grid, order=8))).max_abs
        assert harm < 1e-8, (name, harm)
        worst_unit = max(worst_unit, gm.lines["gram_GG"])
        worst_metric = max(worst_metric, gm.lines["quarter_dG2"])
        worst_tension = max(worst_tension, harm)
    _passed(8, "<G,G>-1 <= %.2e, metric <= %.2e, harmonicity <= %.2e"
            % (worst_unit, worst_metric, worst_tension))


def test_criterion_09_theta_holomorphy_and_omega_cross_check():
    worst = 0.0
    for name in sorted(CATALOG):
        chart = catalog_chart(name)
        _, inv = frame_and_invariants(
            chart.lift_at(*sample_grid(chart, 10, 10), order=8))
        res = theta_report(inv).max_abs
        assert res < 1e-8, (name, res)
        worst = max(worst, res)
    chart = catalog_chart("catenoid")
    frame, inv = frame_and_invariants(
        chart.lift_at(*sample_grid(chart, 10, 10), order=8))
    report, _, _ = omega_report(frame, inv)
    cross = report.lines["cross_check"]
    assert cross < 1e-9
    _passed(9, "holomorphy <= %.2e, omega cross-check %.2e" % (worst, cross))


def test_criterion_10_catenoid_polar_energy_vanishes():
    chart = catalog_chart("catenoid")
    worst = 0.0
    for tag in ("L", "R"):
        value = willmore_energy(apply_chain(chart, tag), nu=16, nv=16,
                                order=5).value
        assert abs(value) < 1e-8, (tag, value)
        worst = max(worst, abs(value))
    _passed(10, "polar energy <= %.2e" % worst)


def _battery_worst():
    # mixed partials up to total order 6 against closed forms, for
    # exp(u) sin(v) and the rational germ 1/(1 + u/10 + v/5)
    worst = 0.0
    for u0, v0 in ((0.0, 0.0), (0.3, -0.7), (1.1, 2.0)):
        U, V = seed_point(u0, v0, 6)
        f = U.exp() * V.sin()
        g = (1.0 + U * 0.1 + V * 0.2).reciprocal()
        base = 1.0 + 0.1 * u0 + 0.2 * v0
        fj = f
        gj = g
        for j in range(7):
            fk, gk = fj, gj
            for k in range(7 - j):
                expect_f = (oracles.battery_f_coeff(u0, v0, j, k)
                            * math.factorial(j) * math.factorial(k))
                expect_g = (math.factorial(j + k) * (-0.1) ** j
                            * (-0.2) ** k * base ** -(j + k + 1))
                for got, expect in ((fk.value, expect_f), (gk.value,
                                                           expect_g)):
                    err = abs(got - expect) / max(1.0, abs(expect))
                    assert err < 1e-13, (u0, v0, j, k, err)
                    worst = max(worst, err)
                if k < 6 - j:
                    fk, gk = fk.dv(), gk.dv()
            if j < 6:
                fj, gj = fj.du(), gj.du()
    return worst


def _dsl_agreement_worst():
    sources = {
        "catenoid": "r3 [cosh(u)*cos(v), cosh(u)*sin(v), u]",
        "enneper": ("r3 [u - u*u*u/3 + u*v*v, "
                    "v*v*v/3 - v - u*u*v, u*u - v*v]"),
    }
    worst = 0.0
    for name, src in sources.items():
        ref = catalog_chart(name)
        dsl = chart_from_source(src, name=name + "_dsl", domain=ref.domain,
                                periodic=ref.periodic)
        u, v = sample_grid(ref, 8, 8)
        a = ref.lift_at(u, v, order=1)
        b = dsl.lift_at(u, v, order=1)
        diff = max(float(np.max(np.abs(a.value - b.value))),
                   float(np.max(np.abs(a.z().value - b.z().value))))
        assert diff < 1e-12, (name, diff)
        worst = max(worst, diff)
    return worst


def _motion_invariance_worst():
    chart = catalog_chart("torus", t=T)
    rng = np.random.default_rng(13)
    gen = rng.normal(size=(6, 6)) * 0.3
    motion = motion_from_generator(gen - gen.T)
    moved = moved_chart(chart, motion)
    grid = sample_grid(chart, 16, 16)
    worst = abs(willmore_energy(chart, 16, 16, order=3).value
                - willmore_energy(moved, 16, 16, order=3).value)
    _, inv = frame_and_invariants(chart.lift_at(*grid, order=6))
    _, moved_inv = frame_and_invariants(moved.lift_at(*grid, order=6))
    for report in (willmore_report, swillmore_report):
        worst = max(worst, abs(report(inv).max_abs
                               - report(moved_inv).max_abs))
    assert worst < 1e-8
    return worst


def _reports_identical(tmp_path):
    argv = ("verify", "--surface", "torus", "--param", "t=2",
            "--grid", "8x8")
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(list(argv) + ["--out", str(first)]) == 0
    assert cli_main(list(argv) + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_criterion_11_infrastructure_properties(tmp_path):
    battery = _battery_worst()
    agreement = _dsl_agreement_worst()
    motion = _motion_invariance_worst()
    _reports_identical(tmp_path)
    _passed(11, "jet battery %.2e, DSL-vs-catalog %.2e, motion %.2e, "
            "byte-identical reports" % (battery, agreement, motion))
