"""Signal model: sample generation, energy statistic, moment formulas."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect.model import Hypothesis

from conftest import each_sensor


def _sensor(sigma2=1.0, h=1.0, zeta=0.1, signal=None, n=10, amp=0.2):
    if signal is None:
        signal = np.full(n, amp)
    return dd.SensorParams(sigma2, h, zeta, np.asarray(signal, dtype=float))


class TestSensorParams:
    def test_xi_is_derived_from_signal(self):
        s = _sensor(sigma2=1.0, n=10, amp=0.2)
        # sum(s^2) = 10 * 0.04 = 0.4 over N=10 samples of unit-variance noise
        assert_allclose(s.xi, 0.4 / (10 * 1.0), rtol=1e-12)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            _sensor(sigma2=0.0)

    def test_nonpositive_channel_rejected(self):
        with pytest.raises(ValueError):
            _sensor(h=0.0)
        with pytest.raises(ValueError):
            _sensor(zeta=-1.0)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            dd.SensorParams(1.0, 1.0, 0.1, np.array([]))

    def test_signal_is_immutable(self):
        s = _sensor()
        with pytest.raises((ValueError, RuntimeError)):
            s.signal[0] = 99.0


class TestGenerateObservations:
    def test_zero_signal_collapses_h1_to_h0(self):
        s = _sensor(signal=np.zeros(10))
        a = dd.generate_observations(s, 10, Hypothesis.H0, np.random.default_rng(7))
        b = dd.generate_observations(s, 10, Hypothesis.H1, np.random.default_rng(7))
        assert_allclose(a, b)

    def test_h1_adds_the_signal_deterministically(self):
        s = _sensor()
        noise = dd.generate_observations(s, 10, Hypothesis.H0, np.random.default_rng(3))
        x = dd.generate_observations(s, 10, Hypothesis.H1, np.random.default_rng(3))
        assert x.shape == (1, 10)
        assert_allclose((x - noise)[0], s.signal, atol=1e-15)

    def test_h1_sample_mean_matches_signal_level(self):
        s = _sensor(n=100, amp=0.2)
        rng = np.random.default_rng(11)
        x = dd.generate_observations(s, 100, Hypothesis.H1, rng, trials=10_000)
        assert abs(float(np.mean(x)) - 0.2) < 0.01


class TestEnergyStatistic:
    def test_zero_input(self):
        assert dd.energy_statistic(np.zeros(3)) == 0.0

    def test_hand_sum_of_squares(self):
        assert dd.energy_statistic(np.array([1.0, -1.0, 2.0])) == 6.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dd.energy_statistic(np.array([]))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30), st.randoms())
    def test_permutation_invariant(self, xs, pyrandom):
        x = np.array(xs)
        perm = list(range(len(xs)))
        pyrandom.shuffle(perm)
        assert_allclose(dd.energy_statistic(x), dd.energy_statistic(x[perm]), rtol=1e-12)

    def test_monte_carlo_mean_matches_model(self):
        s = _sensor(sigma2=1.0, n=10)
        rng = np.random.default_rng(5)
        x = dd.generate_observations(s, 10, Hypothesis.H0, rng, trials=100_000)
        t = dd.energy_statistic(x)
        assert abs(float(np.mean(t)) - 10.0) < 0.1


class TestStatisticMoments:
    def test_zero_snr_equalizes_hypotheses(self):
        m = dd.Statistic.energy(_sensor(signal=np.zeros(10)), 10)
        assert (m.mean_h0, m.var_h0, m.mean_h1, m.var_h1) == (10.0, 20.0, 10.0, 20.0)

    def test_hand_evaluation_at_snr_04(self):
        s = _sensor(sigma2=1.0, n=10, amp=np.sqrt(0.4))  # sum(s^2)=4 -> xi=0.4
        m = dd.Statistic.energy(s, 10)
        assert_allclose(m.mean_h1, 14.0, rtol=1e-12)
        assert_allclose(m.var_h1, 36.0, rtol=1e-12)

    def test_mean_gap_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sigma2 = float(rng.uniform(0.3, 3.0))
            n = int(rng.integers(2, 40))
            amp = float(rng.uniform(0.05, 1.0))
            s = _sensor(sigma2=sigma2, n=n, amp=amp)
            m = dd.Statistic.energy(s, n)
            assert_allclose(m.mean_h1 - m.mean_h0, n * sigma2 * s.xi, rtol=1e-12)

    def test_variances_ordered(self):
        s = _sensor(sigma2=1.3, n=12, amp=0.4)
        m = dd.Statistic.energy(s, 12)
        assert m.var_h1 >= m.var_h0 > 0

    def test_empirical_h1_variance(self):
        s = _sensor(sigma2=1.0, n=20, amp=0.3)
        rng = np.random.default_rng(9)
        x = dd.generate_observations(s, 20, Hypothesis.H1, rng, trials=100_000)
        t = dd.energy_statistic(x)
        m = dd.Statistic.energy(s, 20)
        assert abs(float(np.var(t)) / m.var_h1 - 1.0) < 0.03


class TestCalibrateAverageSnr:
    def test_target_minus_4_db(self):
        sensors = dd.SensorParams([0.5, 1.0, 2.0], 1.0, 0.1, np.full((3, 10), 0.2))
        out = dd.calibrate_average_snr(sensors, -4.0)
        assert_allclose(np.mean(out.xi), 10 ** (-0.4), rtol=1e-9)

    def test_sensor_already_at_target_unchanged(self):
        s = _sensor(sigma2=1.0, n=10, amp=np.sqrt(10 ** (-0.4)))  # xi = 10^-0.4
        out = dd.calibrate_average_snr(s, -4.0)
        assert_allclose(out.signal, s.signal, rtol=1e-9)

    def test_ratios_preserved(self):
        signal = np.repeat([[0.4], [0.4 / np.sqrt(2)]], 10, axis=1)
        out = dd.calibrate_average_snr(dd.SensorParams(1.0, 1.0, 0.1, signal), -2.0)
        assert_allclose(out.xi[0] / out.xi[1], 2.0, rtol=1e-9)

    def test_all_zero_signals_rejected(self):
        with pytest.raises(ValueError):
            dd.calibrate_average_snr(_sensor(signal=np.zeros(10)), -4.0)

    @pytest.mark.parametrize("xa_db", [4000.0, -4000.0])
    def test_target_outside_float_range_rejected(self, xa_db):
        with pytest.raises(ValueError, match="dB"):
            dd.calibrate_average_snr(_sensor(), xa_db)

    def test_signal_energy_past_float_range_rejected(self):
        s = _sensor(amp=1e300)
        assert s.es == np.inf
        with pytest.raises(ValueError, match="mean SNR is inf"):
            dd.calibrate_average_snr(s, -4.0)


class TestBuildSensors:
    def test_sigma2_within_documented_range(self):
        v = dd.build_sensors(50, 10, seed=4).sigma2
        assert v.shape == (50,)
        assert np.all(v >= 0.5) and np.all(v <= 2.0)

    def test_sigma2_is_libm_exp_of_the_draws(self):
        # numpy's SIMD exp rounds some last bits differently from libm on
        # some CPUs; libm's exp gives the same noise levels on every one
        draws = dd.derive_stream(1, "sigma2").uniform(math.log(0.5), math.log(2.0), size=100)
        sigma2 = dd.build_sensors(100, 10, seed=1).sigma2
        assert sigma2.tolist() == [math.exp(v) for v in draws.tolist()]

    def test_deterministic_given_seed(self):
        a = dd.build_sensors(8, 10, seed=12)
        b = dd.build_sensors(8, 10, seed=12)
        assert np.array_equal(a.sigma2, b.sigma2) and np.array_equal(a.h, b.h)
        assert_allclose(a.signal, b.signal)

    def test_deterministic_channel_flag(self):
        sensors = dd.build_sensors(5, 10, seed=1, deterministic_channel=True)
        assert np.all(sensors.h == 1.0)

    def test_average_snr_hits_target(self):
        sensors = dd.build_sensors(20, 10, seed=6, xa_db=-1.0)
        assert_allclose(np.mean(sensors.xi), 10 ** (-0.1), rtol=1e-9)


class TestScenario:
    def test_pfa_bounds_enforced(self):
        sensors = dd.build_sensors(3, 10, seed=0)
        with pytest.raises(ValueError):
            dd.Scenario(sensors=sensors, N=10, U=3.0, Pt=1.0, Pfa=1.5,
                        topology=dd.complete_graph(3), seed=0, solver=dd.SolverConfig())

    def test_topology_size_must_match(self):
        sensors = dd.build_sensors(3, 10, seed=0)
        with pytest.raises(ValueError):
            dd.Scenario(sensors=sensors, N=10, U=3.0, Pt=1.0, Pfa=0.1,
                        topology=dd.complete_graph(4), seed=0, solver=dd.SolverConfig())

    def test_make_scenario_wires_everything(self, fig1_scenario):
        assert fig1_scenario.M == 10
        assert fig1_scenario.topology.M == 10
        assert 0 < fig1_scenario.Pfa < 1

    def test_population_arrays_mirror_the_sensors(self, fig1_scenario):
        sc = fig1_scenario
        for name in ("sigma2", "h", "zeta", "xi", "es"):
            arr = getattr(sc, name)
            assert arr is getattr(sc.sensors, name)
            assert arr.shape == (sc.M,)
            assert not arr.flags.writeable
        assert sc.signal is sc.sensors.signal
        assert sc.signal.shape == (sc.M, sc.N)
        assert not sc.signal.flags.writeable

    def test_population_build_matches_the_per_sensor_reference(self, population):
        sc = population
        ref = _reference_population(sc.M, sc.N, sc.seed)
        for name in ("sigma2", "h", "zeta", "es", "xi", "signal"):
            assert np.array_equal(getattr(sc, name), ref[name]), name

    def test_equality_is_identity(self, fig1_scenario):
        a = dd.make_scenario(m=10, n=10, seed=1)
        b = dd.make_scenario(m=10, n=10, seed=1)
        assert fig1_scenario == fig1_scenario
        assert a != b and not a == b
        assert a.sensors == a.sensors and a.sensors != b.sensors
        assert len({a, b, a.sensors, b.sensors}) == 4   # hashable, by identity
        spec = dd.specs_for_allocation(np.ones(3), 1.0, 0.1, 3.0)
        assert spec == spec and spec != dd.specs_for_allocation(np.ones(3), 1.0, 0.1, 3.0)


def _reference_population(m, n, seed, xa_db=-4.0, amplitude=0.2, sigma2_range=(0.5, 2.0),
                          zeta=0.1):
    """build_sensors sensor by sensor, in plain Python floats, then stacked.

    The draws are build_sensors' own. Each sensor is one record whose
    es and xi are computed from its own (N,) signal, as the per-sensor
    SensorParams did; calibration scales each record on its own.
    """
    def record(sigma2, h, signal):
        es = float(np.sum(signal * signal))
        return {"sigma2": sigma2, "h": h, "zeta": zeta, "signal": signal,
                "es": es, "xi": es / (signal.size * sigma2)}

    draws = dd.derive_stream(seed, "sigma2").uniform(
        math.log(sigma2_range[0]), math.log(sigma2_range[1]), size=m)
    sigma2 = [math.exp(v) for v in draws.tolist()]
    re_im = dd.derive_stream(seed, "channel").normal(0.0, math.sqrt(0.5), size=(m, 2))
    h = np.maximum(np.hypot(re_im[:, 0], re_im[:, 1]), 1e-6)
    sensors = [record(sigma2[i], float(h[i]), np.full(n, amplitude)) for i in range(m)]
    factor = math.sqrt(10.0 ** (xa_db / 10.0) / float(np.mean([s["xi"] for s in sensors])))
    sensors = [record(s["sigma2"], s["h"], s["signal"] * factor) for s in sensors]
    return {name: np.array([s[name] for s in sensors]) for name in sensors[0]}


@pytest.fixture(scope="module", params=["fig1", "m200"])
def population(request, fig1_scenario):
    if request.param == "fig1":
        return fig1_scenario
    return dd.make_scenario(m=200, n=10, seed=2, pt=20.0, radius=0.2)


class TestPopulationArrays:
    """Each per-sensor formula run on whole arrays equals the per-sensor scalar calls."""

    def test_power_closed_form(self, population):
        sc = population
        for lam in (1e-6, 1e-2, 1.0):
            scalar = [dd.power_closed_form(lam, s, sc.N, sc.U) for s in each_sensor(sc)]
            assert np.array_equal(dd.power_closed_form(lam, sc, sc.N, sc.U), scalar)
        lams = np.logspace(-6, 0, sc.M)   # one multiplier copy per sensor
        scalar = [dd.local_power_update(float(v), s, sc.N, sc.U)
                  for v, s in zip(lams, each_sensor(sc))]
        assert np.array_equal(dd.local_power_update(lams, sc, sc.N, sc.U), scalar)

    def test_quantizer_rate_and_noise(self, population):
        sc = population
        p = np.linspace(0.0, 3.0, sc.M)
        bits = [dd.capacity_bits(float(v), s.h, s.zeta) for v, s in zip(p, each_sensor(sc))]
        noise = [dd.quant_noise_var(float(v), s.h, s.zeta, sc.U)
                 for v, s in zip(p, each_sensor(sc))]
        assert np.array_equal(dd.capacity_bits(p, sc.h, sc.zeta), bits)
        assert np.array_equal(dd.quant_noise_var(p, sc.h, sc.zeta, sc.U), noise)

    def test_statistic_moments(self, population):
        sc = population
        arrays = dd.Statistic.energy(sc, sc.N)
        per_sensor = [dd.Statistic.energy(s, sc.N) for s in each_sensor(sc)]
        for name in ("mean_h0", "var_h0", "mean_h1", "var_h1"):
            assert np.array_equal(getattr(arrays, name), [getattr(m, name) for m in per_sensor])

    def test_dual_update(self, population):
        sc = population
        lam = np.logspace(-8, -1, sc.M)
        mean_power = np.linspace(0.0, 2.0 * sc.Pt / sc.M, sc.M)
        eps = lam.copy()
        scalar = [dd.dual_update(float(a), float(b), sc.M, sc.Pt, float(e))
                  for a, b, e in zip(lam, mean_power, eps)]
        out = dd.dual_update(lam, mean_power, sc.M, sc.Pt, eps)
        assert np.array_equal(out, scalar)
        assert np.min(out) == 1e-16   # the underspending end hits the floor

    @pytest.mark.parametrize("hyp", list(Hypothesis))
    def test_observations_and_statistics(self, population, hyp):
        sc, trials = population, 3
        batch = dd.generate_observations(sc, sc.N, hyp, np.random.default_rng(5), trials=trials)
        # one stream, drawn trial by trial and sensor by sensor, gives the same samples
        rng = np.random.default_rng(5)
        rows = np.array([[dd.generate_observations(s, sc.N, hyp, rng)[0]
                          for s in each_sensor(sc)] for _ in range(trials)])
        assert np.array_equal(batch, rows)
        energy = [[dd.energy_statistic(x) for x in row] for row in rows]
        assert np.array_equal(dd.energy_statistic(batch), energy)
        matched = [[dd.matched_filter_statistic(x, s) for x, s in zip(row, each_sensor(sc))]
                   for row in rows]
        assert np.array_equal(dd.matched_filter_statistic(batch, sc), matched)

    def test_quantizers(self, population):
        sc = population
        t = np.random.default_rng(8).uniform(-2.0 * sc.U, 3.0 * sc.U, size=(50, sc.M))
        bits = 1 + np.arange(sc.M) % 9
        for lo in (0.0, -sc.U):
            columns = np.stack([dd.quantize_array(t[:, i], int(b), sc.U, lo)
                                for i, b in enumerate(bits)], axis=1)
            assert np.array_equal(dd.quantize_array(t, bits, sc.U, lo), columns)
            assert np.array_equal(dd.quantize_array(t.T, bits[:, None], sc.U, lo), columns.T)

    def test_quantized_gaussian_moments(self, population):
        sc = population
        mom = dd.Statistic.energy(sc, sc.N)
        bits = 1 + np.arange(sc.M) % 17   # at M=200, every count up to 17 occurs
        bits[-1] = 20
        mean, var = dd.quantized_gaussian_moments(mom.mean_h1, mom.var_h1, bits, sc.U)
        scalar = [dd.quantized_gaussian_moments(float(m), float(v), int(b), sc.U)
                  for m, v, b in zip(mom.mean_h1, mom.var_h1, bits)]
        assert np.array_equal(mean, [m for m, _ in scalar])
        assert np.array_equal(var, [v for _, v in scalar])

    def test_fuse(self, population):
        sc = population
        t = np.random.default_rng(9).uniform(0.0, 2.0 * sc.U, size=(sc.M, 40))
        w = dd.FusionWeights(np.random.default_rng(10).uniform(0.1, 2.0, size=sc.M))
        # every third sensor silent: a zero weight adds nothing to the sums
        w_kept = dd.FusionWeights(np.where(np.arange(sc.M) % 3 == 0, 0.0, w.alpha))
        for weights in (w, w_kept):
            fused = dd.fuse(t, weights)
            assert np.array_equal(fused, [dd.fuse(col, weights) for col in t.T])
            # sensors are added one after another, in index order
            total = np.zeros(t.shape[1])
            for i in np.flatnonzero(weights.alpha):
                total += weights.alpha[i] * t[i]
            assert np.array_equal(fused, total)


class TestStreams:
    def test_same_key_same_stream(self):
        a = dd.derive_stream(17, "mc", 0).standard_normal(4)
        b = dd.derive_stream(17, "mc", 0).standard_normal(4)
        assert_allclose(a, b)

    def test_distinct_keys_decorrelate(self):
        a = dd.derive_stream(17, "mc", 0).standard_normal(4)
        b = dd.derive_stream(17, "mc", 1).standard_normal(4)
        assert not np.allclose(a, b)


def test_halfrange_covers_h1_spread():
    sensors = dd.build_sensors(10, 10, seed=3)
    u = dd.suggest_statistic_halfrange(sensors, 10)
    for s in each_sensor(sensors):
        m = dd.Statistic.energy(s, 10)
        assert 2 * u >= m.mean_h1 + 3 * np.sqrt(m.var_h1)
