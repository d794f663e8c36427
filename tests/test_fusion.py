"""Linear combining, analytic detection performance, deflection weights."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect.fusion import combined_moments
from distdetect.model import Hypothesis

from conftest import each_sensor


class TestQFunction:
    def test_tabulated_tail_values(self):
        assert_allclose(dd.qfunc(0.0), 0.5, atol=1e-15)
        assert_allclose(dd.qfunc(1.0), 0.158655253931457, atol=1e-12)
        assert_allclose(dd.qfunc(2.0), 0.0227501319481792, atol=1e-12)
        assert_allclose(dd.qfunc(3.0), 0.0013498980316301, atol=1e-12)

    def test_inverse_tabulated(self):
        assert_allclose(dd.qfunc_inv(0.5), 0.0, atol=1e-12)
        assert_allclose(dd.qfunc_inv(0.1), 1.2815515655446, atol=1e-10)

    def test_round_trip(self):
        x = np.linspace(-6, 6, 61)
        assert_allclose(dd.qfunc_inv(dd.qfunc(x)), x, atol=1e-9)


class TestFuse:
    def test_selector_weight(self):
        w = dd.FusionWeights(np.array([1.0, 0.0, 0.0]))
        assert dd.fuse(np.array([4.2, 9.0, -1.0]), w) == 4.2

    def test_hand_sum(self):
        w = dd.FusionWeights(np.array([1.0, 1.0]))
        assert dd.fuse(np.array([2.0, 3.0]), w) == 5.0

    def test_equal_combining_rule(self):
        w = dd.equal_weights(4)
        assert_allclose(dd.fuse(np.ones(4), w), 2.0, rtol=1e-12)


class TestCombinedMoments:
    def test_zero_snr_equalizes_variances(self):
        m = combined_moments(n=10, sigma2=np.array([1.0]), xi=np.array([0.0]),
                             alpha=np.array([1.0]), noise_var=np.array([0.5]), u=3.0)
        assert m.var_h0 == m.var_h1 == 2 * 10 * 1.0 + 0.5

    def test_single_sensor_hand_values(self):
        # sigma2=1, xi=0.4, N=10, U=3, p*h^2/zeta=10 -> sigma_v^2 = 9/33
        nv = dd.quant_noise_var(1.0, 1.0, 0.1, 3.0)
        m = combined_moments(n=10, sigma2=np.array([1.0]), xi=np.array([0.4]),
                             alpha=np.array([1.0]), noise_var=np.array([nv]), u=3.0)
        assert_allclose(m.psi, 4.0, rtol=1e-12)
        assert_allclose(m.var_h1, 36.0 + 9.0 / 33.0, rtol=1e-12)
        # the received mean carries one +U offset per unit combining weight
        assert_allclose(m.mean_h0, 10.0 + 3.0, rtol=1e-12)
        assert_allclose(m.mean_offset, 3.0, rtol=1e-12)

    def test_psi_does_not_depend_on_halfrange(self, fig1_scenario):
        alloc = dd.solve_centralized(fig1_scenario)
        w = dd.optimal_weights(dd.deflection_inputs(fig1_scenario, alloc.p))
        sens = each_sensor(fig1_scenario)
        sigma2 = np.array([s.sigma2 for s in sens])
        xi = np.array([s.xi for s in sens])
        nv = np.array([dd.quant_noise_var(p, s.h, s.zeta, 1.0)
                       for p, s in zip(alloc.p, sens)])
        a = combined_moments(10, sigma2, xi, w.alpha, nv, u=1.0)
        b = combined_moments(10, sigma2, xi, w.alpha, nv, u=7.0)
        assert_allclose(a.psi, b.psi, rtol=1e-12)

    def test_psi_identity(self, fig1_scenario, fig1_central):
        w = dd.optimal_weights(dd.deflection_inputs(fig1_scenario, fig1_central.p))
        m = dd.fusion_moments(fig1_scenario, w, fig1_central.p)
        sens = each_sensor(fig1_scenario)
        expected = 10 * sum(a * s.sigma2 * s.xi for a, s in zip(w.alpha, sens))
        assert_allclose(m.psi, expected, rtol=1e-12)


class TestAnalyticPd:
    def test_chance_level_when_no_signal(self):
        m = dd.FusionMoments(mean_h0=5.0, var_h0=2.0, mean_h1=5.0, var_h1=2.0, psi=0.0)
        for pfa in (0.05, 0.1, 0.4):
            assert_allclose(dd.analytic_pd(m, pfa), pfa, rtol=1e-10)

    def test_infinite_separation(self):
        m = dd.FusionMoments(mean_h0=0.0, var_h0=1.0, mean_h1=1e9, var_h1=1.0, psi=1e9)
        assert dd.analytic_pd(m, 0.1) > 1 - 1e-12

    def test_strictly_increasing_in_separation(self):
        vals = [dd.analytic_pd(
            dd.FusionMoments(mean_h0=0.0, var_h0=1.0, mean_h1=psi, var_h1=1.5, psi=psi), 0.1)
            for psi in np.linspace(0.0, 5.0, 21)]
        assert np.all(np.diff(vals) > 0)


class TestDeflection:
    def test_rayleigh_quotient_diagonal_case(self):
        b = np.array([1.0, 2.0, 2.0])
        r = np.full(3, 4.0)
        w = dd.FusionWeights(b.copy())
        val = dd.deflection(w, dd.DeflectionInputs(b=b, R_diag=r))
        assert_allclose(val, float(np.sum(b * b)) / 4.0, rtol=1e-12)

    @given(st.floats(-50, 50).filter(lambda c: abs(c) > 1e-6))
    def test_scale_invariance(self, c):
        b = np.array([1.0, 2.0])
        inputs = dd.DeflectionInputs(b=b, R_diag=np.array([1.0, 1.0]))
        w1 = dd.FusionWeights(np.array([0.3, 1.1]))
        w2 = dd.FusionWeights(np.array([0.3, 1.1]) * c)
        assert_allclose(dd.deflection(w1, inputs), dd.deflection(w2, inputs), rtol=1e-9)

    def test_random_weights_never_beat_the_bound(self):
        b = np.array([1.0, 2.0])
        inputs = dd.DeflectionInputs(b=b, R_diag=np.array([1.0, 1.0]))
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a = rng.normal(size=2)
            if np.all(a == 0):
                continue
            assert dd.deflection(dd.FusionWeights(a), inputs) <= 5.0 + 1e-9

    def test_zero_weights_rejected(self):
        inputs = dd.DeflectionInputs(b=np.ones(2), R_diag=np.ones(2))
        with pytest.raises(ValueError):
            dd.deflection(dd.FusionWeights(np.zeros(2)), inputs)


class TestOptimalWeights:
    def test_identical_sensors_give_uniform_weights(self):
        inputs = dd.DeflectionInputs(b=np.full(5, 2.0), R_diag=np.full(5, 3.0))
        w = dd.optimal_weights(inputs)
        assert_allclose(w.alpha, w.alpha[0], rtol=1e-12)

    def test_zero_snr_sensor_gets_zero_weight(self):
        inputs = dd.DeflectionInputs(b=np.array([1.0, 0.0]), R_diag=np.array([1.0, 1.0]))
        assert dd.optimal_weights(inputs).alpha[1] == 0.0

    def test_censored_sensor_forced_to_zero(self):
        inputs = dd.DeflectionInputs(b=np.array([1.0, 1.0]), R_diag=np.array([1.0, 1.0]),
                                     censored=np.array([False, True]))
        assert dd.optimal_weights(inputs).alpha[1] == 0.0

    def test_achieves_the_closed_form_maximum(self, fig1_scenario, fig1_central):
        inputs = dd.deflection_inputs(fig1_scenario, fig1_central.p)
        w = dd.optimal_weights(inputs)
        live = ~inputs.censored if inputs.censored is not None else np.ones(10, bool)
        bound = float(np.sum(inputs.b[live] ** 2 / inputs.R_diag[live]))
        assert_allclose(dd.deflection(w, inputs), bound, rtol=1e-9)

    def test_matches_eigen_solution(self):
        rng = np.random.default_rng(21)
        b = rng.uniform(0.5, 2.0, size=6)
        r = rng.uniform(1.0, 5.0, size=6)
        inputs = dd.DeflectionInputs(b=b, R_diag=r)
        best = dd.deflection(dd.optimal_weights(inputs), inputs)
        # independent route: max generalized Rayleigh quotient equals the
        # largest eigenvalue of R^-1/2 b b^T R^-1/2
        mat = np.outer(b / np.sqrt(r), b / np.sqrt(r))
        top = float(np.linalg.eigvalsh(mat)[-1])
        assert_allclose(best, top, rtol=1e-9)

    def test_dominates_random_weights(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(0.1, 3.0, size=10)
        r = rng.uniform(0.5, 4.0, size=10)
        inputs = dd.DeflectionInputs(b=b, R_diag=r)
        best = dd.deflection(dd.optimal_weights(inputs), inputs)
        for _ in range(1000):
            a = rng.normal(size=10)
            assert dd.deflection(dd.FusionWeights(a), inputs) <= best * (1 + 1e-9)


class TestMatchedFilter:
    def test_statistic_on_the_signal_itself(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full(10, 0.2))
        assert_allclose(dd.matched_filter_statistic(s.signal.copy(), s), 0.4, rtol=1e-12)

    def test_weight_formula_hand_value(self):
        # Es = 0.4, sigma2 = 1, sigma_v^2 = 9/33:
        # alpha = Es / (sigma2 * Es + sigma_v^2)
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full((1, 10), 0.2))
        sc = dd.Scenario(sensors=s, N=10, U=3.0, Pt=1.0, Pfa=0.1,
                         topology=dd.complete_graph(1), seed=0, solver=dd.SolverConfig())
        w = dd.matched_filter_weights(sc, np.array([1.0]))
        nv = 9.0 / 33.0
        assert_allclose(w.alpha[0], 0.4 / (0.4 + nv), rtol=1e-12)

    def test_weight_tends_to_one_as_noise_var_vanishes(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full((1, 10), 0.2))
        sc = dd.Scenario(sensors=s, N=10, U=3.0, Pt=1e9, Pfa=0.1,
                         topology=dd.complete_graph(1), seed=0, solver=dd.SolverConfig())
        w = dd.matched_filter_weights(sc, np.array([1e9]))
        assert_allclose(w.alpha[0], 1.0, rtol=1e-6)

    def test_zero_signal_rejected(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.zeros(10))
        with pytest.raises(ValueError):
            dd.matched_filter_statistic(np.ones(10), s)

    def test_h0_mean_is_zero(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full(10, 0.2))
        rng = np.random.default_rng(17)
        x = dd.generate_observations(s, 10, Hypothesis.H0, rng, trials=50_000)
        y = dd.matched_filter_statistic(x, s)
        # Var{y|H0} = sigma2 * Es = 0.4
        band = 3 * np.sqrt(0.4 / 50_000)
        assert abs(float(np.mean(y))) < band


def test_fused_h0_variance_monte_carlo(fig1_scenario):
    """Empirical fused H0 variance tracks the analytic value.

    Run at a statistic half-range wide enough that nothing clips and at
    powers high enough that integer-bit quantization is fine-grained,
    so the whole-bit caveat stays inside the 5% band.
    """
    sensors = fig1_scenario.sensors
    n = 10
    u = dd.suggest_statistic_halfrange(sensors, n)
    powers = np.full(10, 500.0)
    sc = dd.Scenario(sensors=sensors, N=n, U=u, Pt=5000.0, Pfa=0.1,
                     topology=fig1_scenario.topology, seed=2, solver=dd.SolverConfig())
    w = dd.optimal_weights(dd.deflection_inputs(sc, powers))
    m = dd.fusion_moments(sc, w, powers)
    spec = dd.specs_for_allocation(powers, sensors.h, sensors.zeta, u)
    rng = np.random.default_rng(23)
    trials = 40_000
    fused = np.zeros(trials)
    for i, s in enumerate(each_sensor(sensors)):
        x = dd.generate_observations(s, n, Hypothesis.H0, rng, trials=trials)
        t_hat = dd.quantize_array(dd.energy_statistic(x), spec.bits_int[i], u)
        fused += w.alpha[i] * t_hat
    assert abs(float(np.var(fused)) / m.var_h0 - 1.0) < 0.05
