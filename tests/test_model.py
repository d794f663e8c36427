"""Signal model: sample generation, energy statistic, moment formulas."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect.solver_central import water_levels

from conftest import (
    calibrate_average_snr,
    each_sensor,
    energy_statistic,
    generate_observations,
    matched_filter_statistic,
    suggest_statistic_halfrange,
)


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
        a = generate_observations(s, 10, False, np.random.default_rng(7))
        b = generate_observations(s, 10, True, np.random.default_rng(7))
        assert_allclose(a, b)

    def test_h1_adds_the_signal_deterministically(self):
        s = _sensor()
        noise = generate_observations(s, 10, False, np.random.default_rng(3))
        x = generate_observations(s, 10, True, np.random.default_rng(3))
        assert x.shape == (1, 10)
        assert_allclose((x - noise)[0], s.signal, atol=1e-15)

    def test_h1_sample_mean_matches_signal_level(self):
        s = _sensor(n=100, amp=0.2)
        rng = np.random.default_rng(11)
        x = generate_observations(s, 100, True, rng, trials=10_000)
        assert abs(float(np.mean(x)) - 0.2) < 0.01


class TestEnergyStatistic:
    def test_zero_input(self):
        assert energy_statistic(np.zeros(3)) == 0.0

    def test_hand_sum_of_squares(self):
        assert energy_statistic(np.array([1.0, -1.0, 2.0])) == 6.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_statistic(np.array([]))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30), st.randoms())
    def test_permutation_invariant(self, xs, pyrandom):
        x = np.array(xs)
        perm = list(range(len(xs)))
        pyrandom.shuffle(perm)
        assert_allclose(energy_statistic(x), energy_statistic(x[perm]), rtol=1e-12)

    def test_monte_carlo_mean_matches_model(self):
        s = _sensor(sigma2=1.0, n=10)
        rng = np.random.default_rng(5)
        x = generate_observations(s, 10, False, rng, trials=100_000)
        t = energy_statistic(x)
        assert abs(float(np.mean(t)) - 10.0) < 0.1


class TestStatisticMoments:
    def test_zero_snr_equalizes_hypotheses(self):
        m = dd.Statistic.energy(_sensor(signal=np.zeros(10)))
        assert (m.mean_h0, m.var_h0, m.mean_h1, m.var_h1) == (10.0, 20.0, 10.0, 20.0)

    def test_hand_evaluation_at_snr_04(self):
        s = _sensor(sigma2=1.0, n=10, amp=np.sqrt(0.4))  # sum(s^2)=4 -> xi=0.4
        m = dd.Statistic.energy(s)
        assert_allclose(m.mean_h1, 14.0, rtol=1e-12)
        assert_allclose(m.var_h1, 36.0, rtol=1e-12)

    def test_mean_gap_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sigma2 = float(rng.uniform(0.3, 3.0))
            n = int(rng.integers(2, 40))
            amp = float(rng.uniform(0.05, 1.0))
            s = _sensor(sigma2=sigma2, n=n, amp=amp)
            m = dd.Statistic.energy(s)
            assert_allclose(m.mean_h1 - m.mean_h0, n * sigma2 * s.xi, rtol=1e-12)

    def test_variances_ordered(self):
        s = _sensor(sigma2=1.3, n=12, amp=0.4)
        m = dd.Statistic.energy(s)
        assert m.var_h1 >= m.var_h0 > 0

    def test_empirical_h1_variance(self):
        s = _sensor(sigma2=1.0, n=20, amp=0.3)
        rng = np.random.default_rng(9)
        x = generate_observations(s, 20, True, rng, trials=100_000)
        t = energy_statistic(x)
        m = dd.Statistic.energy(s)
        assert abs(float(np.var(t)) / m.var_h1 - 1.0) < 0.03


class TestCalibrateAverageSnr:
    def test_target_minus_4_db(self):
        sensors = dd.SensorParams([0.5, 1.0, 2.0], 1.0, 0.1, np.full((3, 10), 0.2))
        out = calibrate_average_snr(sensors, -4.0)
        assert_allclose(np.mean(out.xi), 10 ** (-0.4), rtol=1e-9)

    def test_sensor_already_at_target_unchanged(self):
        s = _sensor(sigma2=1.0, n=10, amp=np.sqrt(10 ** (-0.4)))  # xi = 10^-0.4
        out = calibrate_average_snr(s, -4.0)
        assert_allclose(out.signal, s.signal, rtol=1e-9)

    def test_ratios_preserved(self):
        signal = np.repeat([[0.4], [0.4 / np.sqrt(2)]], 10, axis=1)
        out = calibrate_average_snr(dd.SensorParams(1.0, 1.0, 0.1, signal), -2.0)
        assert_allclose(out.xi[0] / out.xi[1], 2.0, rtol=1e-9)

    def test_all_zero_signals_rejected(self):
        with pytest.raises(ValueError):
            calibrate_average_snr(_sensor(signal=np.zeros(10)), -4.0)

    @pytest.mark.parametrize("xa_db", [4000.0, -4000.0])
    def test_target_outside_float_range_rejected(self, xa_db):
        with pytest.raises(ValueError, match="dB"):
            calibrate_average_snr(_sensor(), xa_db)

    def test_signal_energy_past_float_range_rejected(self):
        s = _sensor(amp=1e300)
        assert s.es == np.inf
        with pytest.raises(ValueError, match="mean SNR is inf"):
            calibrate_average_snr(s, -4.0)


class TestBuildSensors:
    @pytest.mark.parametrize("options", [{}, {"xa_db": 3.0, "amplitude": -0.7},
                                         {"sigma2_range": (1e-3, 1e3), "zeta": 2.0},
                                         {"deterministic_channel": True, "amplitude": 1}])
    def test_calibrates_as_calibrate_average_snr(self, options):
        # the factor comes from the drawn arrays, not from a record built to hold them
        sensors = dd.build_sensors(40, 6, 9, **options)
        drawn = {"xa_db": -4.0, "amplitude": 0.2, **options}
        raw = dd.SensorParams(sensors.sigma2, sensors.h, sensors.zeta,
                              np.full((40, 6), float(drawn["amplitude"])))
        want = calibrate_average_snr(raw, drawn["xa_db"])
        for name in ("signal", "es", "xi"):
            assert np.array_equal(getattr(sensors, name), getattr(want, name)), name

    @pytest.mark.parametrize("build", [dd.build_sensors, dd.make_scenario])
    @pytest.mark.parametrize("name, value", [("m", 3.0), ("m", "3"), ("m", 0),
                                             ("n", 10.0), ("n", None), ("n", 0)])
    def test_counts_that_are_not_integers_rejected(self, build, name, value):
        counts = {"m": 3, "n": 10, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
            build(**counts, seed=0)

    def test_make_scenario_validates_the_population_twice(self, monkeypatch):
        # once for build_sensors' record and once for the Scenario's
        calls = []
        check = dd.SensorParams.__post_init__

        def counted(self):
            calls.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(dd.SensorParams, "__post_init__", counted)
        dd.make_scenario(30, 5, 2)
        assert calls == ["SensorParams", "Scenario"]

    @pytest.mark.parametrize("options, message", [
        ({"amplitude": math.inf}, "signal must be finite"),
        ({"amplitude": math.nan}, "signal must be finite"),
        ({"amplitude": 0.0}, "cannot calibrate: mean SNR is 0.0, not a finite positive float"),
        ({"amplitude": 1e300}, "cannot calibrate: mean SNR is inf, not a finite positive float"),
        ({"sigma2_range": (0.0, 1.0)}, "sigma2_range must satisfy 0 < lo <= hi"),
        ({"sigma2_range": (2.0, 1.0)}, "sigma2_range must satisfy 0 < lo <= hi"),
        ({"sigma2_range": (1e-310, 1e-310)},
         "sigma2 is so small that the energy's variance 2 N sigma2^2 is 0"),
        ({"xa_db": 4000.0}, "cannot calibrate: a mean SNR of 4000.0 dB is not a finite positive float"),
        ({"xa_db": -4000.0},
         "cannot calibrate: a mean SNR of -4000.0 dB is not a finite positive float"),
        # calibrated past float range
        ({"xa_db": 3070.0}, "signal must be finite"),
        # the population's own refusal comes before the calibration's
        ({"zeta": -1.0, "amplitude": 0.0}, "zeta must be positive"),
        ({"zeta": 0.0, "xa_db": 4000.0}, "zeta must be positive"),
    ], ids=["amplitude_inf", "amplitude_nan", "amplitude_0", "amplitude_1e300", "sigma2_lo_0",
            "sigma2_lo_above_hi", "sigma2_1e-310", "xa_db_4000", "xa_db_-4000", "xa_db_3070",
            "zeta_and_amplitude", "zeta_and_xa_db"])
    def test_refusals(self, options, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dd.make_scenario(20, 10, 1, **options)

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


def _scenario(sensors, u=3.0, pt=1.0, pfa=0.1, seed=0):
    return dd.Scenario(sensors.sigma2, sensors.h, sensors.zeta, sensors.signal, U=u, Pt=pt,
                       Pfa=pfa, seed=seed)


class TestScenario:
    def test_pfa_bounds_enforced(self):
        sensors = dd.build_sensors(3, 10, seed=0)
        with pytest.raises(ValueError):
            _scenario(sensors, pfa=1.5)

    @pytest.mark.parametrize("change, message", [
        (dict(signal=np.full(10, 0.2)), r"sensors must have an \(M, N\) signal, got shape \(10,\)"),
        (dict(sigma2=-1.0), "sigma2 must be positive"),
        (dict(signal=np.full((3, 10), np.inf)), "signal must be finite"),
        (dict(U=0.0), "U must be positive"),
        (dict(Pt=-1.0), "Pt must be positive"),
        (dict(Pfa=0.0), r"Pfa must be in \(0, 1\)"),
    ], ids=["one_sensor", "sigma2", "signal", "U", "Pt", "Pfa"])
    def test_refusals(self, change, message):
        fields = dict(sigma2=1.0, h=1.0, zeta=0.1, signal=np.full((3, 10), 0.2), U=3.0, Pt=1.0,
                      Pfa=0.1, seed=0)
        with pytest.raises(ValueError, match=message):
            dd.Scenario(**{**fields, **change})

    def test_make_scenario_wires_everything(self, fig1_scenario):
        assert fig1_scenario.M == 10
        assert 0 < fig1_scenario.Pfa < 1

    def test_a_scenario_is_a_sensor_population(self, fig1_scenario):
        sc = fig1_scenario
        assert isinstance(sc, dd.SensorParams) and not hasattr(sc, "sensors")
        parent = {f.name for f in dataclasses.fields(dd.SensorParams)}
        assert parent.isdisjoint(dd.Scenario.__dict__["__annotations__"])
        for name in ("sigma2", "h", "zeta", "xi", "es"):
            arr = getattr(sc, name)
            assert arr.shape == (sc.M,)
            assert not arr.flags.writeable
        assert sc.signal.shape == (sc.M, sc.N)
        assert not sc.signal.flags.writeable

    def test_make_scenario_keeps_the_built_arrays(self):
        options = dict(xa_db=-1.5, amplitude=0.3, zeta=0.2)
        sc = dd.make_scenario(m=12, n=7, seed=4, **options)
        sensors = dd.build_sensors(12, 7, 4, **options)
        for name in ("sigma2", "h", "zeta", "signal", "es", "xi"):
            assert np.array_equal(getattr(sc, name), getattr(sensors, name)), name

    def test_make_scenario_shares_the_built_arrays(self, monkeypatch):
        built = []
        build = dd.model.build_sensors
        monkeypatch.setattr(dd.model, "build_sensors",
                            lambda *a, **k: built.append(build(*a, **k)) or built[-1])
        sc = dd.make_scenario(5000, 10, 1)
        for name in ("sigma2", "h", "zeta", "signal"):
            assert np.shares_memory(getattr(sc, name), getattr(built[0], name)), name

    def test_an_array_the_caller_could_write_is_copied(self):
        s = dd.build_sensors(6, 4, 1)
        fields = dict(zeta=0.1, U=3.0, Pt=1.0, Pfa=0.1, seed=1)
        writeable, view = np.array(s.signal), s.sigma2[::-1]   # a view owns no data
        narrow = s.h.astype(np.float32)
        narrow.setflags(write=False)
        sc = dd.Scenario(sigma2=view, h=narrow, signal=writeable, **fields)
        for kept, given in ((sc.signal, writeable), (sc.sigma2, view), (sc.h, narrow)):
            assert not np.shares_memory(kept, given)
            assert np.array_equal(kept, given) and kept.dtype == np.float64
            assert not kept.flags.writeable

    def test_per_sensor_formulas_read_a_scenario_as_its_sensors(self, fig1_scenario):
        sc = fig1_scenario
        sensors = dd.build_sensors(10, 10, 1)
        u = sc.U
        for a, b in zip(water_levels(sc, u), water_levels(sensors, u)):
            assert np.array_equal(a, b)
        for lambda0 in (1e-3, 0.2, np.linspace(0.01, 1.0, 10)):
            assert np.array_equal(dd.power_closed_form(lambda0, water_levels(sc, u)),
                                  dd.power_closed_form(lambda0, water_levels(sensors, u)))
        for make in (dd.Statistic.energy, dd.Statistic.matched):
            a, b = make(sc, u), make(sensors, u)
            for name in ("mean_h0", "var_h0", "mean_h1", "var_h1", "b", "lo"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

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
        s, t = dd.build_sensors(10, 10, 1), dd.build_sensors(10, 10, 1)
        assert s == s and s != t and a != s
        assert len({a, b, s, t}) == 4   # hashable, by identity
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
    return dd.make_scenario(m=200, n=10, seed=2, pt=20.0)


class TestPopulationArrays:
    """Each per-sensor formula run on whole arrays equals the per-sensor scalar calls."""

    def test_power_closed_form(self, population):
        sc = population
        for lam in (1e-6, 1e-2, 1.0):
            scalar = [dd.power_closed_form(lam, water_levels(s, sc.U)) for s in each_sensor(sc)]
            assert np.array_equal(dd.power_closed_form(lam, water_levels(sc, sc.U)), scalar)
        lams = np.logspace(-6, 0, sc.M)   # one multiplier copy per sensor
        scalar = [dd.local_power_update(float(v), water_levels(s, sc.U))
                  for v, s in zip(lams, each_sensor(sc))]
        assert np.array_equal(dd.local_power_update(lams, water_levels(sc, sc.U)), scalar)

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
        arrays = dd.Statistic.energy(sc)
        per_sensor = [dd.Statistic.energy(s) for s in each_sensor(sc)]
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

    @pytest.mark.parametrize("h1", [False, True], ids=["Hypothesis.H0", "Hypothesis.H1"])
    def test_observations_and_statistics(self, population, h1):
        sc, trials = population, 3
        batch = generate_observations(sc, sc.N, h1, np.random.default_rng(5), trials=trials)
        # one stream, drawn trial by trial and sensor by sensor, gives the same samples
        rng = np.random.default_rng(5)
        rows = np.array([[generate_observations(s, sc.N, h1, rng)[0]
                          for s in each_sensor(sc)] for _ in range(trials)])
        assert np.array_equal(batch, rows)
        energy = [[energy_statistic(x) for x in row] for row in rows]
        assert np.array_equal(energy_statistic(batch), energy)
        matched = [[matched_filter_statistic(x, s) for x, s in zip(row, each_sensor(sc))]
                   for row in rows]
        assert np.array_equal(matched_filter_statistic(batch, sc), matched)

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
        mom = dd.Statistic.energy(sc)
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
    u = suggest_statistic_halfrange(sensors)
    for s in each_sensor(sensors):
        m = dd.Statistic.energy(s)
        assert 2 * u >= m.mean_h1 + 3 * np.sqrt(m.var_h1)


class TestIterationSettingsAreIntegers:
    @pytest.mark.parametrize("name", ["consensus_max_iter", "outer_max_iter",
                                      "consensus_window"])
    @pytest.mark.parametrize("value", [2.5, 3.0])
    def test_non_integer_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value}"):
            dd.SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["consensus_max_iter", "outer_max_iter",
                                      "consensus_window"])
    def test_below_one_refused(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got 0"):
            dd.SolverConfig(**{name: 0})

    def test_numpy_integers_accepted(self):
        config = dd.SolverConfig(outer_max_iter=np.int64(3), consensus_window=np.int32(2))
        assert config.outer_max_iter == 3 and config.consensus_window == 2


class TestNanRefused:
    """Each positivity guard refuses NaN, which compares False with everything."""

    @pytest.mark.parametrize("call, message", [
        (lambda: dd.SolverConfig(lambda0_init=float("nan")), "lambda0_init must be positive"),
        (lambda: dd.SolverConfig(kappa=float("nan")), "kappa must be positive"),
        (lambda: dd.SolverConfig(consensus_tol=float("nan")), "consensus_tol must be positive"),
        (lambda: _scenario(dd.build_sensors(3, 10, seed=0), u=float("nan")),
         "U must be positive"),
        (lambda: _scenario(dd.build_sensors(3, 10, seed=0), pt=float("nan")),
         "Pt must be positive"),
    ], ids=["solver_lambda0_init", "solver_kappa", "solver_consensus_tol", "scenario_u",
            "scenario_pt"])
    def test_nan_refused(self, call, message):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            call()
