"""Linear combining, analytic detection performance, deflection weights."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import special

import distdetect as dd
from distdetect.montecarlo import Scheme

from conftest import (
    each_sensor,
    energy_statistic,
    generate_observations,
    matched_filter_statistic,
    reference_combined_moments,
    reference_energy_weights,
    reference_matched_filter_moments,
    reference_matched_filter_weights,
    reference_quantize_array,
    reference_quantize_centered,
    scheme_weights,
    spec_at,
    suggest_statistic_halfrange,
)


def _energy_moments(sc, weights, powers):
    """fusion_moments of the energy detector at the given powers."""
    return dd.fusion_moments(dd.Statistic.energy(sc), weights, spec_at(sc, powers))


def _energy_inputs(sc, powers):
    """deflection_inputs of the energy detector at the given powers."""
    return dd.deflection_inputs(dd.Statistic.energy(sc), spec_at(sc, powers))


def _one_sensor(sigma2=1.0, amp=0.2, n=10, u=3.0, pt=1.0):
    """A one-sensor scenario: h = 1, zeta = 0.1, a constant signal of amplitude amp."""
    return dd.Scenario(sigma2, 1.0, 0.1, np.full((1, n), amp), U=u, Pt=pt, Pfa=0.1, seed=0)


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

    # scipy's cephes routines as the reference for libm erfc and NormalDist.inv_cdf
    def test_tail_matches_scipy_erfc(self):
        x = np.linspace(-10.0, 37.0, 4701)   # Q(37) ~ 6e-300, near the smallest normal double
        assert_allclose(dd.qfunc(x), 0.5 * special.erfc(x / np.sqrt(2.0)), rtol=1e-13, atol=0)

    def test_inverse_matches_scipy_ndtri(self):
        p = np.concatenate([np.logspace(-300, -1, 3000), np.linspace(0.1, 0.9, 801),
                            1.0 - np.logspace(-1, -16, 1501)])
        assert_allclose(dd.qfunc_inv(p), -special.ndtri(p), rtol=1e-15, atol=0)

    def test_reflected_tail_is_the_normal_cdf(self):
        z = np.linspace(-10.0, 10.0, 2001)
        assert_allclose(dd.qfunc(-z), special.ndtr(z), rtol=0, atol=np.finfo(float).eps)


class TestFuse:
    def test_selector_weight(self):
        w = dd.FusionWeights(np.array([1.0, 0.0, 0.0]))
        assert dd.fuse(np.array([4.2, 9.0, -1.0]), w) == 4.2

    def test_hand_sum(self):
        w = dd.FusionWeights(np.array([1.0, 1.0]))
        assert dd.fuse(np.array([2.0, 3.0]), w) == 5.0

    def test_equal_combining_rule(self):
        w = dd.equal_weights(np.zeros(4, dtype=bool))
        assert_allclose(dd.fuse(np.ones(4), w), 2.0, rtol=1e-12)


class TestCombinedMoments:
    def test_zero_snr_equalizes_variances(self):
        # U=3, p*h^2/zeta=5 -> sigma_v^2 = 9 / 18 = 0.5
        sc = _one_sensor(amp=0.0)
        m = _energy_moments(sc, dd.FusionWeights(np.array([1.0])), np.array([0.5]))
        assert m.var_h0 == m.var_h1 == 2 * 10 * 1.0 + 0.5

    def test_single_sensor_hand_values(self):
        # sigma2=1, xi=0.4, N=10, U=3, p*h^2/zeta=10 -> sigma_v^2 = 9/33
        sc = _one_sensor(amp=np.sqrt(0.4))
        m = _energy_moments(sc, dd.FusionWeights(np.array([1.0])), np.array([1.0]))
        assert_allclose(m.psi, 4.0, rtol=1e-12)
        assert_allclose(m.var_h1, 36.0 + 9.0 / 33.0, rtol=1e-12)
        # the means are the statistic's own, N sigma^2 and N sigma^2 (1 + xi)
        assert_allclose(m.mean_h0, 10.0, rtol=1e-12)
        assert_allclose(m.mean_h1, 14.0, rtol=1e-12)

    def test_psi_does_not_depend_on_halfrange(self, fig1_scenario):
        alloc = dd.solve_centralized(fig1_scenario)
        w = dd.optimal_weights(_energy_inputs(fig1_scenario, alloc.p))
        f = fig1_scenario
        a, b = (dd.Scenario(f.sigma2, f.h, f.zeta, f.signal, U=u, Pt=1.0, Pfa=0.1, seed=1)
                for u in (1.0, 7.0))
        for statistic in (dd.Statistic.energy, dd.Statistic.matched):
            psi = [dd.fusion_moments(statistic(sc, sc.U), w, spec_at(sc, alloc.p)).psi
                   for sc in (a, b)]
            assert_allclose(psi[0], psi[1], rtol=1e-12)

    def test_psi_identity(self, fig1_scenario, fig1_central):
        w = dd.optimal_weights(_energy_inputs(fig1_scenario, fig1_central.p))
        m = _energy_moments(fig1_scenario, w, fig1_central.p)
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
        inputs = _energy_inputs(fig1_scenario, fig1_central.p)
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
        assert_allclose(matched_filter_statistic(s.signal.copy(), s), 0.4, rtol=1e-12)

    @staticmethod
    def _weights(sc, powers):
        return scheme_weights(sc, Scheme.MFD_opt_power, powers)

    def test_weight_formula_hand_value(self):
        # Es = 0.4, sigma2 = 1, sigma_v^2 = 9/33:
        # alpha = Es / (sigma2 * Es + sigma_v^2)
        w = self._weights(_one_sensor(), np.array([1.0]))
        nv = 9.0 / 33.0
        assert_allclose(w.alpha[0], 0.4 / (0.4 + nv), rtol=1e-12)

    def test_weight_tends_to_one_as_noise_var_vanishes(self):
        w = self._weights(_one_sensor(pt=1e9), np.array([1e9]))
        assert_allclose(w.alpha[0], 1.0, rtol=1e-6)

    def test_zero_signal_rejected(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.zeros(10))
        with pytest.raises(ValueError):
            matched_filter_statistic(np.ones(10), s)

    def test_h0_mean_is_zero(self):
        s = dd.SensorParams(1.0, 1.0, 0.1, np.full(10, 0.2))
        rng = np.random.default_rng(17)
        x = generate_observations(s, 10, False, rng, trials=50_000)
        y = matched_filter_statistic(x, s)
        # Var{y|H0} = sigma2 * Es = 0.4
        band = 3 * np.sqrt(0.4 / 50_000)
        assert abs(float(np.mean(y))) < band


def test_fused_h0_variance_monte_carlo(fig1_scenario):
    """Empirical fused H0 variance tracks the analytic value.

    Run at a statistic half-range wide enough that nothing clips and at
    powers high enough that integer-bit quantization is fine-grained,
    so the whole-bit caveat stays inside the 5% band.
    """
    sensors = fig1_scenario
    n = 10
    u = suggest_statistic_halfrange(sensors)
    powers = np.full(10, 500.0)
    sc = dd.Scenario(sensors.sigma2, sensors.h, sensors.zeta, sensors.signal, U=u, Pt=5000.0,
                     Pfa=0.1, seed=2)
    spec = spec_at(sc, powers)
    statistic = dd.Statistic.energy(sc)
    w = dd.optimal_weights(dd.deflection_inputs(statistic, spec))
    m = dd.fusion_moments(statistic, w, spec)
    rng = np.random.default_rng(23)
    trials = 40_000
    fused = np.zeros(trials)
    for i, s in enumerate(each_sensor(sensors)):
        x = generate_observations(s, n, False, rng, trials=trials)
        t_hat = dd.quantize_array(energy_statistic(x), spec.bits_int[i], u)
        fused += w.alpha[i] * t_hat
    assert abs(float(np.var(fused)) / m.var_h0 - 1.0) < 0.05


class TestOneRuleForBothStatistics:
    """The shared weight rule, fused moments and quantizer against the split code they replaced.

    Equality is exact (==): every output file keeps its bytes only if each
    float is computed in the same order as before.
    """

    POPULATIONS = 200

    @staticmethod
    def _population(seed):
        """1-40 sensors, 1-50 samples, a random U, and about 30% of sensors censored."""
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 41)), int(rng.integers(1, 51))
        sensors = dd.build_sensors(m, n, seed, xa_db=float(rng.uniform(-12.0, 6.0)))
        sc = dd.Scenario(sensors.sigma2, sensors.h, sensors.zeta, sensors.signal,
                         U=float(rng.uniform(0.5, 10.0)), Pt=1.0, Pfa=0.1, seed=seed)
        powers = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 5.0, size=m))
        return sc, powers

    @staticmethod
    def _moments(m):
        return m.mean_h0, m.var_h0, m.mean_h1, m.var_h1, m.psi

    def test_energy_detector(self):
        censored = 0
        for seed in range(self.POPULATIONS):
            sc, p = self._population(seed)
            censored += int(np.sum(p == 0.0))
            statistic, spec = dd.Statistic.energy(sc, sc.U), spec_at(sc, p)
            w = scheme_weights(sc, Scheme.ED_opt_weights_opt_power, p)
            assert np.array_equal(w.alpha, reference_energy_weights(sc, p))
            assert np.array_equal(
                dd.optimal_weights(dd.deflection_inputs(statistic, spec)).alpha, w.alpha)
            nv = dd.quant_noise_var(p, sc.h, sc.zeta, sc.U)
            for weights in (w, dd.equal_weights(p == 0.0)):
                got = self._moments(dd.fusion_moments(statistic, weights, spec))
                ref = reference_combined_moments(sc.N, sc.sigma2, sc.xi, weights.alpha, nv, sc.U)
                assert (got[1], got[3], got[4]) == (ref[1], ref[3], ref[4])
                # the means are physical: the old ones without their +U per unit weight
                assert_allclose((got[0], got[2]), (ref[0] - ref[5], ref[2] - ref[5]),
                                rtol=1e-12)
        assert censored > 0

    def test_matched_filter(self):
        censored = 0
        for seed in range(self.POPULATIONS):
            sc, p = self._population(seed)
            censored += int(np.sum(p == 0.0))
            statistic, spec = dd.Statistic.matched(sc, sc.U), spec_at(sc, p)
            w = scheme_weights(sc, Scheme.MFD_opt_power, p)
            assert np.array_equal(w.alpha, reference_matched_filter_weights(sc, p))
            for weights in (w, dd.equal_weights(p == 0.0)):
                got = self._moments(dd.fusion_moments(statistic, weights, spec))
                assert got == reference_matched_filter_moments(sc, weights.alpha, p)[:5]
        assert censored > 0

    def test_quantizer(self):
        for seed in range(self.POPULATIONS):
            rng = np.random.default_rng(seed)
            u = float(rng.uniform(0.5, 10.0))
            rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 60))
            bits = rng.integers(1, 13, size=(rows, 1))
            cells = np.ldexp(1.0, bits)
            # cell edges k * delta, k = -2 .. cells + 2, reach past both ends of the window
            k = np.floor(rng.uniform(-2.0, cells + 3.0, size=(rows, cols)))
            edges = k * (2.0 * u / cells)
            for lo, reference in ((0.0, reference_quantize_array),
                                  (-u, reference_quantize_centered)):
                t = rng.uniform(lo - u, lo + 3.0 * u, size=(rows, cols))
                t[:, ::2] = lo + edges[:, ::2]
                given_t = t.copy()
                assert np.array_equal(dd.quantize_array(t, bits, u, lo), reference(t, bits, u))
                assert np.array_equal(t, given_t)   # the input is left as it was
                one = float(t[0, 0])
                assert dd.quantize_array(one, int(bits[0, 0]), u, lo) == reference(
                    one, int(bits[0, 0]), u)


class TestNanRefused:
    """Each positivity guard refuses NaN, which compares False with everything."""

    @pytest.mark.parametrize("call, message", [
        (lambda: dd.analytic_pd(dd.FusionMoments(0.0, float("nan"), 1.0, 1.0, 1.0), 0.1),
         "variances must be positive"),
        (lambda: dd.analytic_pd(dd.FusionMoments(0.0, 1.0, 1.0, float("nan"), 1.0), 0.1),
         "variances must be positive"),
        (lambda: dd.DeflectionInputs(b=[1.0, 1.0], R_diag=[1.0, float("nan")]),
         "R_diag must be strictly positive"),
        (lambda: dd.qfunc_inv(float("nan")), "strictly inside"),
        (lambda: dd.qfunc_inv([0.5, float("nan")]), "strictly inside"),
    ], ids=["analytic_pd_var_h0", "analytic_pd_var_h1", "deflection_inputs_r",
            "qfunc_inv", "qfunc_inv_array"])
    def test_nan_refused(self, call, message):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            call()
