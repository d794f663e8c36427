"""Trial simulation, threshold calibration, ROC and budget sweeps."""
import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

import distdetect as dd
from distdetect import montecarlo
from distdetect.model import Hypothesis
from distdetect.montecarlo import (
    Scheme,
    clip_probabilities,
    equal_power,
    plan_scheme,
    powers_for_scheme,
    weights_for_scheme,
    write_results_csv,
)


def _chance_scenario(m=4, n=10):
    """All-zero signals: H1 is literally H0, so any detector sits at chance."""
    sensors = dd.SensorParams(1.0, 1.0, 0.1, np.zeros((m, n)))
    return dd.Scenario(sensors=sensors, N=n, U=8.0, Pt=4.0, Pfa=0.1,
                       topology=dd.complete_graph(m), seed=5, solver=dd.SolverConfig())


@pytest.fixture(scope="module")
def small_scenario():
    return dd.make_scenario(m=5, n=8, seed=7, u=3.0, pt=5.0, pfa=0.1,
                            xa_db=-4.0, amplitude=0.2, radius=0.6)


class TestSchemeFlags:
    def test_partition(self):
        assert Scheme.MFD_opt_power.matched_filter
        assert not Scheme.ED_opt_weights_opt_power.matched_filter
        assert Scheme.ED_opt_weights_equal_power.equal_power
        assert not Scheme.MFD_opt_power.equal_power
        assert Scheme.ED_equal_weights_opt_power.equal_combining
        assert not Scheme.ED_opt_weights_equal_power.equal_combining

    def test_six_schemes(self):
        assert len(Scheme) == 6


class TestDetectionThreshold:
    def test_median_threshold_at_half(self):
        m = dd.FusionMoments(mean_h0=7.0, var_h0=4.0, mean_h1=9.0, var_h1=5.0, psi=2.0)
        assert_allclose(dd.detection_threshold(m, 0.5), 7.0, atol=1e-12)

    def test_grows_without_bound_for_small_pfa(self):
        m = dd.FusionMoments(mean_h0=0.0, var_h0=1.0, mean_h1=1.0, var_h1=1.0, psi=1.0)
        grid = [0.3, 0.1, 1e-3, 1e-6, 1e-9]
        thr = [dd.detection_threshold(m, v) for v in grid]
        assert np.all(np.diff(thr) > 0)

    def test_offset_is_removed_from_the_received_scale(self):
        base = dd.FusionMoments(mean_h0=10.0, var_h0=4.0, mean_h1=12.0, var_h1=5.0, psi=2.0)
        shifted = dd.FusionMoments(mean_h0=10.0, var_h0=4.0, mean_h1=12.0, var_h1=5.0,
                                   psi=2.0, mean_offset=3.0)
        assert_allclose(dd.detection_threshold(shifted, 0.2),
                        dd.detection_threshold(base, 0.2) - 3.0, rtol=1e-12)


class TestQuantizedGaussianMoments:
    def test_against_dense_numerical_integration(self):
        mu, var, bits, u = 4.0, 3.0, 3, 3.0
        mean, qvar = dd.quantized_gaussian_moments(mu, var, bits, u)
        # independent oracle: quantize a dense Gaussian quadrature grid
        sd = np.sqrt(var)
        x = np.linspace(mu - 10 * sd, mu + 10 * sd, 4_000_001)
        w = norm.pdf(x, mu, sd)
        w /= np.sum(w)
        q = dd.quantize_array(x, bits, u)
        m1 = float(np.sum(w * q))
        assert_allclose(mean, m1, atol=2e-6)
        assert_allclose(qvar, float(np.sum(w * q * q)) - m1 ** 2, atol=2e-5)

    def test_coarse_one_bit_cell_probabilities(self):
        mu, var, u = 3.0, 1.0, 3.0
        mean, qvar = dd.quantized_gaussian_moments(mu, var, 1, u)
        # two cells with midpoints 1.5 and 4.5 split at 3.0; mass is
        # symmetric around the split here, so both get probability 1/2
        assert_allclose(mean, 3.0, rtol=1e-12)
        assert_allclose(qvar, 1.5 ** 2, rtol=1e-12)

    def test_fine_bit_fallback_continuity(self):
        mu, var, u = 4.0, 2.0, 3.0
        m16 = dd.quantized_gaussian_moments(mu, var, 16, u)
        m17 = dd.quantized_gaussian_moments(mu, var, 17, u)
        assert_allclose(m16[0], m17[0], rtol=1e-6)
        assert_allclose(m16[1], m17[1], rtol=1e-5)

    def test_clip_probabilities_hand_value(self):
        lo, hi = clip_probabilities(0.0, 1.0, -1.0, 1.0)
        assert_allclose(lo, norm.cdf(-1.0), rtol=1e-10)
        assert_allclose(hi, norm.sf(1.0), rtol=1e-10)


class TestSchemePowersAndWeights:
    def test_equal_power_splits_the_budget(self, small_scenario):
        p = equal_power(small_scenario)
        assert_allclose(p, small_scenario.Pt / 5)

    def test_opt_power_matches_centralized_solver(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        assert_allclose(p, dd.solve_centralized(small_scenario).p, rtol=1e-12)

    def test_equal_combining_weights(self, small_scenario):
        p = equal_power(small_scenario)
        w = weights_for_scheme(small_scenario, Scheme.ED_equal_weights_equal_power, p)
        assert_allclose(w.alpha, 1 / np.sqrt(5), rtol=1e-12)

    def test_censored_sensors_get_zero_weight(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, pt=0.05)
        w = weights_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, p)
        assert np.all(w.alpha[p == 0.0] == 0.0)


class TestPlanScheme:
    def test_transmit_requires_power_and_a_whole_bit(self, small_scenario):
        plan = plan_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        np.testing.assert_array_equal(
            plan.transmit, (plan.powers > 0) & (plan.bits_int >= 1))

    def test_all_zero_powers_rejected(self, small_scenario):
        with pytest.raises(dd.DegenerateFusionError):
            plan_scheme(small_scenario, Scheme.ED_opt_weights_equal_power,
                        powers=np.zeros(5))

    def test_degenerate_when_no_sensor_affords_a_bit(self, small_scenario):
        plan = plan_scheme(small_scenario, Scheme.ED_opt_weights_equal_power, pt=1e-6)
        assert plan.degenerate and plan.n_transmit == 0

    def test_silenced_weights_match_transmit_mask(self, small_scenario):
        plan = plan_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        assert np.all(plan.alpha_tx[~plan.transmit] == 0.0)


class TestRunTrials:
    def test_chance_level_with_zero_signal(self):
        sc = _chance_scenario()
        p = equal_power(sc)
        w = weights_for_scheme(sc, Scheme.ED_equal_weights_equal_power, p)
        est = dd.run_trials(sc, p, w, Scheme.ED_equal_weights_equal_power, 20_000)
        sigma = 3 * np.sqrt(0.1 * 0.9 / 20_000)
        assert abs(est.pd_hat - est.pfa_hat) < 2 * sigma

    def test_single_hypothesis_runs_return_none_for_the_other(self, small_scenario):
        p = equal_power(small_scenario)
        w = weights_for_scheme(small_scenario, Scheme.ED_equal_weights_equal_power, p)
        est = dd.run_trials(small_scenario, p, w, Scheme.ED_equal_weights_equal_power,
                            500, hypothesis=Hypothesis.H0)
        assert est.pd_hat is None and est.pfa_hat is not None

    def test_deterministic_repeats(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        w = weights_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, p)
        a = dd.run_trials(small_scenario, p, w, Scheme.ED_opt_weights_opt_power, 4000)
        b = dd.run_trials(small_scenario, p, w, Scheme.ED_opt_weights_opt_power, 4000)
        assert a.pfa_hat == b.pfa_hat and a.pd_hat == b.pd_hat

    def test_estimate_error_bar(self):
        est = dd.DetectionEstimate(
            scheme=Scheme.MFD_opt_power, pfa_target=0.1, pfa_hat=0.1, pd_hat=0.5,
            pd_analytic=0.5, trials=400, pt=1.0, n_transmit=3)
        assert_allclose(est.sigma_binomial(), np.sqrt(0.5 * 0.5 / 400), rtol=1e-12)


class TestRocCurve:
    def test_pd_exactly_nondecreasing(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        w = weights_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, p)
        ests = dd.roc_curve(small_scenario, p, w, Scheme.ED_opt_weights_opt_power,
                            [0.02, 0.05, 0.1, 0.2, 0.5], 4000)
        pd = [e.pd_hat for e in ests]
        pfa = [e.pfa_hat for e in ests]
        assert np.all(np.diff(pd) >= 0)
        assert np.all(np.diff(pfa) >= 0)

    def test_accept_everything_corner(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        w = weights_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, p)
        (est,) = dd.roc_curve(small_scenario, p, w, Scheme.ED_opt_weights_opt_power,
                              [0.999], 2000)
        # the threshold model is Gaussian, so the extreme tail carries a
        # small skew bias at short windows; the corner still pins both rates
        assert est.pd_hat > 0.97 and est.pfa_hat > 0.97

    def test_grid_must_increase_within_unit_interval(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        w = weights_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, p)
        with pytest.raises(ValueError):
            dd.roc_curve(small_scenario, p, w, Scheme.ED_opt_weights_opt_power,
                         [0.5, 0.1], 100)
        with pytest.raises(ValueError):
            dd.roc_curve(small_scenario, p, w, Scheme.ED_opt_weights_opt_power,
                         [0.1, 1.5], 100)


class TestSweepBudget:
    def test_row_block_structure(self, small_scenario):
        schemes = [Scheme.ED_opt_weights_opt_power, Scheme.MFD_opt_power]
        ests = dd.sweep_budget(small_scenario, schemes, [0.5, 5.0], 1000)
        assert len(ests) == 4
        assert [e.pt for e in ests] == [0.5, 0.5, 5.0, 5.0]

    def test_shared_draws_match_single_runs(self, small_scenario):
        grid = [1e-6, 2.0, 5.0]   # the first budget starves the equal-power schemes
        ests = dd.sweep_budget(small_scenario, list(Scheme), grid, 2000)
        solo = [dd.run_trials(small_scenario, None, None, scheme, 2000, pt=pt)
                for pt in grid for scheme in Scheme]
        assert ests == solo
        assert any(e.n_transmit == 0 for e in ests) and any(e.n_transmit > 0 for e in ests)

    def test_starved_budget_rows_report_zero(self, small_scenario):
        ests = dd.sweep_budget(small_scenario, [Scheme.ED_opt_weights_equal_power],
                               [1e-6], 100)
        assert ests[0].n_transmit == 0
        assert ests[0].pd_hat == 0.0 and ests[0].pfa_hat == 0.0


def _count_draws(monkeypatch) -> list:
    """Patch montecarlo.derive_stream; the list gets the shape of every normal() batch."""
    shapes = []
    derive = montecarlo.derive_stream

    class Stream:
        def __init__(self, rng):
            self._rng = rng

        def normal(self, *args, **kwargs):
            out = self._rng.normal(*args, **kwargs)
            shapes.append(out.shape)
            return out

    monkeypatch.setattr(montecarlo, "derive_stream", lambda *key: Stream(derive(*key)))
    return shapes


class TestChunking:
    GRID = [1e-6, 2.0, 5.0]

    def _sweep(self, sc):
        diag: list = []
        ests = dd.sweep_budget(sc, list(Scheme), self.GRID, 1000, diagnostics=diag)
        return ests, diag

    def test_results_do_not_depend_on_chunk_size(self, small_scenario, monkeypatch):
        whole, whole_diag = self._sweep(small_scenario)
        # the 256-trial floor then splits the 1000 trials into four chunks
        monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 1)
        shapes = _count_draws(monkeypatch)
        chunked, chunked_diag = self._sweep(small_scenario)
        assert len(shapes) >= 3
        assert chunked == whole
        assert chunked_diag == whole_diag   # clip rates over the same trial count
        assert any(row["clip_hi_h0"] > 0 for rows in whole_diag for row in rows)

    def test_a_sweep_draws_each_chunk_once(self, small_scenario, monkeypatch):
        sc = small_scenario
        shapes = _count_draws(monkeypatch)
        self._sweep(sc)
        assert shapes == [(1000, sc.M, sc.N)]
        shapes.clear()
        monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 1)
        self._sweep(sc)
        assert shapes == [(c, sc.M, sc.N) for c in (256, 256, 256, 232)]


    def test_plans_sharing_bit_loads_quantize_once(self, small_scenario, monkeypatch):
        sc = small_scenario
        plans = [plan_scheme(sc, s, pt=pt) for pt in self.GRID for s in Scheme]
        # one group per (statistic, senders, bit loads); equal-power ED schemes share one
        groups = {(p.scheme.matched_filter, tuple(p.alpha_tx != 0.0),
                   tuple(p.bits_int[p.alpha_tx != 0.0])) for p in plans if not p.degenerate}
        assert len(groups) < sum(not p.degenerate for p in plans)
        calls = []

        def counted(real):
            def wrapper(*args):
                calls.append(real.__name__)
                return real(*args)
            return wrapper

        for name in ("quantize_array", "quantize_centered"):
            monkeypatch.setattr(montecarlo, name, counted(getattr(montecarlo, name)))
        self._sweep(sc)
        assert len(calls) == 2 * len(groups)   # one chunk, two hypotheses

class TestResultsCsv:
    def test_schema_and_formatting(self, tmp_path, small_scenario):
        p = equal_power(small_scenario)
        w = weights_for_scheme(small_scenario, Scheme.ED_equal_weights_equal_power, p)
        full = dd.run_trials(small_scenario, p, w, Scheme.ED_equal_weights_equal_power, 200)
        h0_only = dd.run_trials(small_scenario, p, w, Scheme.ED_equal_weights_equal_power,
                                200, hypothesis=Hypothesis.H0)
        path = tmp_path / "results.csv"
        write_results_csv(path, [(full, 8, 5), (h0_only, 8, 5)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scheme", "Pt", "N", "M", "pfa_target", "pfa_hat",
                           "pd_hat", "pd_analytic", "trials", "sigma_binomial"]
        assert rows[1][0] == "ED_equal_weights_equal_power"
        assert rows[1][2] == "8" and rows[1][3] == "5"
        assert rows[2][6] == ""  # un-simulated pd left blank, not faked
