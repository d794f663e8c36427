"""Closed-form water filling, the exact water-level solve, KKT residuals."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect import solver_central

from conftest import kkt_check, objective_value

# frozen reference allocation for the 10-sensor seed-1 scenario
FIG1_LAMBDA0 = 6.157102638098877e-02
FIG1_POWERS = np.array([
    3.948023143537e-01, 4.245252016274e-02, 7.031955057504e-02,
    1.921838235152e-01, 3.962517183807e-02, 8.107473101793e-02,
    0.000000000000e+00, 1.144403709332e-01, 5.118982274972e-02,
    1.391169561029e-02,
])


def _sensor(sigma2=1.0, h=1.0, zeta=0.1, xi_amp=0.2, n=10, m=None):
    """One sensor, or m identical sensors when m is given."""
    return dd.SensorParams(sigma2, h, zeta, np.full(n if m is None else (m, n), xi_amp))


def _lagrangian_argmax_grid(sensor, n, u, lam, p_max, points=1_000_001):
    """Independent oracle: maximize the per-sensor dual objective on a grid.

    The per-sensor term of the dual is the deflection contribution
    A x / (B x + c) with x = 1 + p g, minus lam * p. Written out from
    scratch here so the closed form is checked against arithmetic that
    shares no code with the implementation.
    """
    g = sensor.h ** 2 / sensor.zeta
    A = (n * sensor.sigma2 * sensor.xi) ** 2
    B = 2 * n * sensor.sigma2 ** 2 * (1 + 2 * sensor.xi)
    c = u * u / 3.0
    p = np.linspace(0.0, p_max, points)
    x = 1.0 + p * g
    f = A * x / (B * x + c) - lam * p
    return float(p[np.argmax(f)])


class TestPowerClosedForm:
    def test_large_multiplier_censors(self):
        assert dd.power_closed_form(1e6, solver_central.water_levels(_sensor(), 3.0)) == 0.0

    def test_zero_snr_never_gets_power(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.zeros(10))
        for lam in (1e-12, 1e-6, 1e-2, 1.0, 1e4):
            assert dd.power_closed_form(lam, solver_central.water_levels(s, 3.0)) == 0.0

    def test_matches_grid_search_oracle(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full(10, np.sqrt(0.4)))  # xi = 0.4
        lam = 1e-4
        p = dd.power_closed_form(lam, solver_central.water_levels(s, 3.0))
        assert_allclose(p, 5.97747286117, rtol=1e-9)
        p_grid = _lagrangian_argmax_grid(s, 10, 3.0, lam, p_max=20.0)
        assert abs(p - p_grid) < 1e-4

    def test_total_power_nonincreasing_in_multiplier(self, fig1_scenario):
        lams = np.logspace(-10, 2, 200)
        totals = [dd.total_power(l, fig1_scenario) for l in lams]
        assert np.all(np.diff(totals) <= 1e-12)


class TestWaterLevels:
    LAMS = [5e-324, 1e-300, 1e-16, 1e-8, 1e-2, 1.0, 1e4, 1e300, np.inf]

    def test_zero_snr_sensors_have_slope_0_and_level_inf(self):
        amp = np.array([0.0, 0.3, 0.0, 0.8])[:, None]
        sensors = dd.SensorParams(1.0, 1.0, 0.1, np.broadcast_to(amp, (4, 10)))
        with np.errstate(all="raise"):
            a, b = solver_central.water_levels(sensors, 3.0)
            assert np.array_equal(a == 0, [True, False, True, False])
            assert np.all(b[[0, 2]] == np.inf) and np.all(np.isfinite(b[[1, 3]]))
            for lam in self.LAMS:
                p = dd.power_closed_form(lam, (a, b))
                assert p[0] == p[2] == 0.0

    def test_one_zero_snr_sensor(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.zeros(10))
        with np.errstate(all="raise"):
            assert solver_central.water_levels(s, 3.0) == (0.0, np.inf)
            for lam in self.LAMS:
                assert dd.power_closed_form(lam, solver_central.water_levels(s, 3.0)) == 0.0

    def test_matches_the_four_term_closed_form(self):
        rng = np.random.default_rng(24)
        m, n, u = 1000, 10, 3.0
        sensors = dd.SensorParams(rng.uniform(0.1, 10.0, m), rng.uniform(0.1, 3.0, m),
                                  rng.uniform(0.01, 1.0, m), rng.uniform(0.0, 2.0, (m, n)))
        lam = 10 ** rng.uniform(-9, 1, m)
        # p = [num / (den sqrt(lambda0)) - t2 - t3]+, as the closed form used to be computed
        g = sensors.h ** 2 / sensors.zeta
        one = 1.0 + 2.0 * sensors.xi
        num = sensors.xi * u * np.sqrt(3.0)
        den = 6.0 * sensors.sigma2 * one * np.sqrt(g)
        t2 = u * u / (6.0 * n * sensors.sigma2 ** 2 * one * g)
        reference = np.maximum(num / (den * np.sqrt(lam)) - t2 - 1.0 / g, 0.0)
        a, b = solver_central.water_levels(sensors, u)
        p = a * np.maximum(1.0 / np.sqrt(lam) - b, 0.0)
        assert 100 < np.count_nonzero(reference) < m
        assert_allclose(p, reference, rtol=1e-12)
        assert np.array_equal(dd.power_closed_form(lam, (a, b)), p)

    def test_a_level_past_float_range_raises_under_errstate(self):
        # xi about 1e-320: b = (t2 + t3) / a overflows, which the distributed solve must see
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full((2, 10), 1e-160))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            solver_central.water_levels(s, 3.0)

    def test_the_central_solve_reads_the_record_once(self, fig1_scenario, fig1_central,
                                                     monkeypatch):
        calls = []
        record = solver_central.water_levels
        monkeypatch.setattr(solver_central, "water_levels",
                            lambda *args: calls.append(args) or record(*args))
        alloc = dd.solve_centralized(fig1_scenario)
        assert len(calls) == 1
        assert np.array_equal(alloc.p, fig1_central.p)


class TestSolveCentralized:
    def test_single_sensor_absorbs_the_budget(self):
        sc = dd.Scenario(1.0, 1.0, 0.1, np.full((1, 10), 0.2), U=3.0, Pt=1.0, Pfa=0.1, seed=0)
        alloc = dd.solve_centralized(sc)
        assert_allclose(alloc.p[0], 1.0, rtol=1e-9)

    def test_identical_sensors_split_evenly(self):
        sc = dd.Scenario(1.0, 1.0, 0.1, np.full((5, 10), 0.2), U=3.0, Pt=2.0, Pfa=0.1, seed=0)
        alloc = dd.solve_centralized(sc)
        assert_allclose(alloc.p, 0.4, rtol=1e-9)

    def test_budget_binds(self, fig1_scenario, fig1_central):
        assert abs(fig1_central.total() - 1.0) <= 1e-9
        fig1_central.validate(1.0)

    def test_reference_allocation(self, fig1_central):
        assert_allclose(fig1_central.lambda0, FIG1_LAMBDA0, rtol=1e-7)
        assert_allclose(fig1_central.p, FIG1_POWERS, rtol=1e-6, atol=1e-12)

    def test_budget_override(self, fig1_scenario):
        alloc = dd.solve_centralized(fig1_scenario, pt=2.5)
        assert_allclose(alloc.total(), 2.5, rtol=1e-9)

    def test_no_signal_raises(self):
        sc = dd.Scenario(1.0, 1.0, 0.1, np.zeros((3, 10)), U=3.0, Pt=1.0, Pfa=0.1, seed=0)
        with pytest.raises(dd.NoSignalError):
            dd.solve_centralized(sc)

    def test_better_joint_channel_and_snr_gets_more_power(self):
        # sensor 0 dominates sensor 1 in both xi and h^2/zeta at equal sigma2
        sc = dd.Scenario(1.0, [1.5, 0.8], 0.1, np.repeat([[0.4], [0.2]], 10, axis=1),
                         U=3.0, Pt=1.0, Pfa=0.1, seed=0)
        alloc = dd.solve_centralized(sc)
        assert alloc.p[0] >= alloc.p[1]

    def test_beats_random_feasible_allocations(self, fig1_scenario, fig1_central):
        best = objective_value(fig1_central.p, fig1_scenario)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            raw = rng.dirichlet(np.ones(10)) * 1.0
            assert objective_value(raw, fig1_scenario) <= best * (1 + 1e-9)


class TestAgainstTheBisectionReference:
    def test_seeded_scenarios(self, reference_water_filling):
        rng = np.random.default_rng(2005)
        for _ in range(200):
            m = int(rng.integers(1, 201))
            pt = float(10.0 ** rng.uniform(-2.0, 2.0))
            n = int(rng.integers(1, 51))
            seed = int(rng.integers(2 ** 31))
            case = f"m={m} n={n} seed={seed} pt={pt!r}"
            sc = dd.make_scenario(m=m, n=n, seed=seed, pt=pt)
            alloc = dd.solve_centralized(sc)
            ref = reference_water_filling(sc)
            assert abs(alloc.lambda0 - ref.lambda0) <= 1e-8 * ref.lambda0, case
            assert np.array_equal(alloc.p == 0, ref.p == 0), case
            assert abs(math.fsum(alloc.p) - pt) <= 1e-12 * pt, case
            report = kkt_check(alloc, sc)
            assert report.max_abs_residual_active <= 1e-6, case
            assert abs(report.complementary_slackness) <= 1e-9, case
            assert report.budget_feasible and report.powers_nonnegative, case


class TestPowerAllocationType:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            dd.PowerAllocation(p=np.array([-0.1, 0.2]), lambda0=1.0)

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(ValueError):
            dd.PowerAllocation(p=np.array([0.1]), lambda0=0.0)

    def test_validate_flags_budget_violation(self):
        alloc = dd.PowerAllocation(p=np.array([2.0]), lambda0=1.0)
        with pytest.raises(ValueError):
            alloc.validate(1.0)

    def test_validate_flags_slack_violation(self):
        # positive multiplier with an inactive budget breaks slackness
        alloc = dd.PowerAllocation(p=np.array([0.5]), lambda0=1.0)
        with pytest.raises(ValueError):
            alloc.validate(1.0)


class TestKktCheck:
    def test_solution_is_stationary(self, fig1_scenario, fig1_central):
        report = kkt_check(fig1_central, fig1_scenario)
        assert report.max_abs_residual_active <= 1e-6
        assert report.budget_feasible
        assert report.powers_nonnegative
        assert abs(report.complementary_slackness) <= 1e-9

    def test_perturbed_power_breaks_stationarity(self, fig1_scenario, fig1_central):
        p = fig1_central.p.copy()
        active = int(np.argmax(p))
        p[active] *= 1.01
        perturbed = dd.PowerAllocation(p=p, lambda0=fig1_central.lambda0)
        report = kkt_check(perturbed, fig1_scenario)
        assert abs(report.stationarity_residuals[active]) > 1e-6

    def test_all_censored_with_huge_multiplier(self, fig1_scenario):
        alloc = dd.PowerAllocation(p=np.zeros(10), lambda0=1e9)
        report = kkt_check(alloc, fig1_scenario)
        assert np.all(report.mu >= 0)
        assert report.budget_feasible


class TestNanRefused:
    """Each positivity guard refuses NaN, which compares False with everything."""

    @pytest.mark.parametrize("call, message", [
        (lambda sc: dd.solve_centralized(sc, pt=float("nan")), "pt must be positive"),
        (lambda sc: solver_central.water_levels(sc, float("nan")), "need U > 0"),
    ], ids=["solve_centralized_pt", "water_levels_u"])
    def test_nan_refused(self, call, message, fig1_scenario):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            call(fig1_scenario)
