"""Trial simulation, threshold calibration, ROC and budget sweeps."""
import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import ks_2samp, norm

import distdetect as dd
from distdetect import cli, montecarlo
from distdetect.cli import write_results_csv
from distdetect.fusion import fuse
from distdetect.montecarlo import (
    Scheme,
    equal_power,
    plan_scheme,
    powers_for_scheme,
)

from conftest import (
    bundled_config,
    energy_statistic,
    generate_observations,
    matched_filter_statistic,
    run_cli,
    scheme_weights,
    write_config,
)


def _chance_scenario(m=4, n=10):
    """All-zero signals: H1 is literally H0, so any detector sits at chance."""
    return dd.Scenario(1.0, 1.0, 0.1, np.zeros((m, n)), U=8.0, Pt=4.0, Pfa=0.1, seed=5)


@pytest.fixture(scope="module")
def small_scenario():
    return dd.make_scenario(m=5, n=8, seed=7, u=3.0, pt=5.0, pfa=0.1,
                            xa_db=-4.0, amplitude=0.2)


class TestSchemeFlags:
    # scheme: statistic constructor, equal combining weights, equal power
    TABLE = {
        Scheme.ED_opt_weights_opt_power: (dd.Statistic.energy, False, False),
        Scheme.ED_opt_weights_equal_power: (dd.Statistic.energy, False, True),
        Scheme.ED_equal_weights_opt_power: (dd.Statistic.energy, True, False),
        Scheme.ED_equal_weights_equal_power: (dd.Statistic.energy, True, True),
        Scheme.MFD_opt_power: (dd.Statistic.matched, False, False),
        Scheme.MFD_equal_power: (dd.Statistic.matched, False, True),
    }

    def test_partition(self):
        assert set(self.TABLE) == set(Scheme)
        for scheme, (statistic, equal_combining, equal_power) in self.TABLE.items():
            assert scheme.statistic == statistic, scheme
            assert scheme.equal_combining is equal_combining, scheme
            assert scheme.equal_power is equal_power, scheme
            # the value is the name, and names the scheme back
            assert scheme.value == scheme.name and Scheme(scheme.value) is scheme

    def test_six_schemes(self):
        assert len(Scheme) == 6


class TestDetectionThreshold:
    def test_median_threshold_at_half(self):
        assert_allclose(dd.detection_threshold(7.0, 4.0, 0.5), 7.0, atol=1e-12)

    def test_grows_without_bound_for_small_pfa(self):
        grid = [0.3, 0.1, 1e-3, 1e-6, 1e-9]
        thr = [dd.detection_threshold(0.0, 1.0, v) for v in grid]
        assert np.all(np.diff(thr) > 0)

    def test_threshold_moves_with_the_h0_mean(self):
        assert_allclose(dd.detection_threshold(7.0, 4.0, 0.2),
                        dd.detection_threshold(10.0, 4.0, 0.2) - 3.0, rtol=1e-12)


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

    @pytest.mark.parametrize("lo", [0.0, -3.0], ids=["energy_window", "matched_window"])
    def test_past_16_bits_is_the_clipped_law_plus_rounding_noise(self, lo):
        # 17 to 24 bits, a mean below, inside and above the window [lo, lo + 2U]
        var, u = 2.0, 3.0
        hi, sd = lo + 2.0 * u, math.sqrt(var)
        mus = np.array([lo - 2.0, lo + 2.5, hi + 2.0])
        bits = np.arange(17, 25)
        delta, d16 = 2.0 * u / 2.0 ** bits, 2.0 * u / 2.0 ** 16
        mean, qvar = dd.quantized_gaussian_moments(mus[:, None], var, bits, u, lo)
        m16, v16 = dd.quantized_gaussian_moments(mus, var, 16, u, lo)
        for i, mu in enumerate(mus):
            # independent oracle: the two clipped atoms plus quadrature over the window
            below, above = norm.cdf(lo, mu, sd), norm.sf(hi, mu, sd)
            m1, m2 = (lo ** k * below + hi ** k * above
                      + quad(lambda x: x ** k * norm.pdf(x, mu, sd), lo, hi,
                             epsabs=1e-14, epsrel=1e-13)[0] for k in (1, 2))
            clipped_var = m2 - m1 * m1
            assert_allclose(mean[i], m1, rtol=1e-10, atol=1e-14)
            assert_allclose(qvar[i], clipped_var + delta ** 2 / 12.0, rtol=1e-10)
            # the exact 16-bit cell sum: each clipped value moves to its cell's
            # midpoint, at most d16 / 2 away, which bounds the change in the mean
            # by d16 / 2 and in the variance by sd(clipped) * d16 + d16^2 / 4
            assert np.all(np.abs(mean[i] - m16[i]) <= d16 / 2.0)
            assert np.all(np.abs(qvar[i] - v16[i])
                          <= math.sqrt(clipped_var) * d16 + d16 ** 2 / 4.0 + delta ** 2 / 12.0)


class TestSchemePowersAndWeights:
    def test_equal_power_splits_the_budget(self, small_scenario):
        p = equal_power(small_scenario)
        assert_allclose(p, small_scenario.Pt / 5)

    def test_opt_power_matches_centralized_solver(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        assert_allclose(p, dd.solve_centralized(small_scenario).p, rtol=1e-12)

    def test_equal_combining_weights(self, small_scenario):
        p = equal_power(small_scenario)
        w = scheme_weights(small_scenario, Scheme.ED_equal_weights_equal_power, p)
        assert_allclose(w.alpha, 1 / np.sqrt(5), rtol=1e-12)

    def test_censored_sensors_get_zero_weight(self, small_scenario):
        p = powers_for_scheme(small_scenario, Scheme.ED_opt_weights_opt_power, pt=0.05)
        w = scheme_weights(small_scenario, Scheme.ED_opt_weights_opt_power, p)
        assert np.all(w.alpha[p == 0.0] == 0.0)


class TestPlanScheme:
    def test_allocation_csv_and_plan_share_one_quantizer_rule(self, tmp_path):
        path = bundled_config("fig1.cfg")
        assert run_cli("allocate", path, "--method", "central", "--out", tmp_path) == 0
        with open(tmp_path / "allocation.csv") as fh:
            rows = list(csv.DictReader(fh))
        sc = cli.scenario_from_config(cli.load_config(path))
        plan = plan_scheme(sc, Scheme.ED_opt_weights_opt_power)
        assert not plan.degenerate
        spec = plan.spec
        assert [float(r["bits_real"]) for r in rows] == spec.bits_real.tolist()
        assert [int(r["bits_int"]) for r in rows] == spec.bits_int.tolist()
        assert [r["censored"] == "1" for r in rows] == spec.censored.tolist()
        assert spec.censored.any() and not spec.censored.all()
        np.testing.assert_array_equal(plan.transmit, spec.bits_int >= 1)

    def test_plan_with_no_h0_variance_among_its_senders_is_silenced(self):
        # U is so small that every sensor's statistic clips into the top cell: the
        # received sum has zero H0 variance, so the plan is treated as silent
        # although each sensor affords 4 bits; this pins that behaviour
        sc = dd.make_scenario(m=3, n=2000, seed=1, u=1e-3, pt=100.0)
        scheme = Scheme.ED_opt_weights_equal_power
        plan = plan_scheme(sc, scheme)
        assert plan.spec.bits_int.tolist() == [4, 4, 4]
        assert plan.received_h0 is None and plan.degenerate
        assert not plan.transmit.any() and plan.senders.size == 0
        assert plan.sender_weights is None
        assert plan.threshold(0.1) == math.inf
        counts = montecarlo.simulate_plans(sc, [plan], [np.array([plan.threshold(0.1)])], 100)
        assert counts[0].tolist() == [[0], [0]]
        (est,) = dd.sweep_budget(sc, [scheme], [100.0], 100)
        assert est.n_transmit == 0 and est.pfa_hat == est.pd_hat == 0.0
        assert est.pd_analytic > 0.99

    def test_all_zero_powers_rejected(self, small_scenario):
        with pytest.raises(dd.DegenerateFusionError):
            # Pt / M underflows to 0 under equal power
            plan_scheme(small_scenario, Scheme.ED_opt_weights_equal_power, pt=5e-324)

    def test_degenerate_when_no_sensor_affords_a_bit(self, small_scenario):
        plan = plan_scheme(small_scenario, Scheme.ED_opt_weights_equal_power, pt=1e-6)
        assert plan.degenerate and plan.n_transmit == 0

    def test_silenced_weights_match_transmit_mask(self, small_scenario):
        plan = plan_scheme(small_scenario, Scheme.ED_opt_weights_opt_power)
        w = scheme_weights(small_scenario, plan.scheme, plan.powers)
        np.testing.assert_array_equal(plan.senders,
                                      np.flatnonzero(plan.transmit & (w.alpha != 0.0)))
        np.testing.assert_array_equal(plan.sender_weights.alpha, w.alpha[plan.senders])

    def test_a_zero_signal_sensor_transmits_but_does_not_send(self):
        # sensor 0 has xi = 0, so its optimal weight is 0; at 10 units of power each
        # every sensor affords 3 bits
        m, n = 4, 10
        signal = np.full((m, n), 0.5)
        signal[0] = 0.0
        sc = dd.Scenario(np.array([1.0, 0.5, 1.5, 2.0]), 1.0, 0.1, signal, U=8.0, Pt=40.0,
                         Pfa=0.1, seed=5)
        scheme = Scheme.ED_opt_weights_equal_power
        plan = plan_scheme(sc, scheme)
        assert plan.spec.bits_int.tolist() == [3, 3, 3, 3]
        assert plan.transmit.all() and plan.n_transmit == m
        assert plan.senders.tolist() == [1, 2, 3]
        # the same three sensors alone, each at the same power
        rest = dd.Scenario(sc.sigma2[1:], 1.0, 0.1, signal[1:], U=8.0, Pt=30.0, Pfa=0.1, seed=5)
        alone = plan_scheme(rest, scheme)
        np.testing.assert_array_equal(alone.powers, plan.powers[1:])
        assert plan.received_h0 == alone.received_h0
        assert plan.threshold(0.1) == alone.threshold(0.1)
        (est,) = dd.sweep_budget(sc, [scheme], [40.0], 100)
        assert est.n_transmit == m


class TestRunTrials:
    def test_chance_level_with_zero_signal(self):
        est = dd.run_trials(_chance_scenario(), Scheme.ED_equal_weights_equal_power, 20_000)
        sigma = 3 * np.sqrt(0.1 * 0.9 / 20_000)
        assert abs(est.pd_hat - est.pfa_hat) < 2 * sigma

    def test_deterministic_repeats(self, small_scenario):
        a = dd.run_trials(small_scenario, Scheme.ED_opt_weights_opt_power, 4000)
        b = dd.run_trials(small_scenario, Scheme.ED_opt_weights_opt_power, 4000)
        assert a.pfa_hat == b.pfa_hat and a.pd_hat == b.pd_hat

    def test_estimate_error_bar(self):
        est = dd.DetectionEstimate(
            scheme=Scheme.MFD_opt_power, pfa_target=0.1, pfa_hat=0.1, pd_hat=0.5,
            pd_analytic=0.5, trials=400, pt=1.0, n_transmit=3)
        assert_allclose(est.sigma_binomial(), np.sqrt(0.5 * 0.5 / 400), rtol=1e-12)


class TestRocCurve:
    def test_pd_exactly_nondecreasing(self, small_scenario):
        ests = dd.roc_curve(small_scenario, Scheme.ED_opt_weights_opt_power,
                            [0.02, 0.05, 0.1, 0.2, 0.5], 4000)
        pd = [e.pd_hat for e in ests]
        pfa = [e.pfa_hat for e in ests]
        assert np.all(np.diff(pd) >= 0)
        assert np.all(np.diff(pfa) >= 0)

    def test_accept_everything_corner(self, small_scenario):
        (est,) = dd.roc_curve(small_scenario, Scheme.ED_opt_weights_opt_power, [0.999], 2000)
        # the threshold model is Gaussian, so the extreme tail carries a
        # small skew bias at short windows; the corner still pins both rates
        assert est.pd_hat > 0.97 and est.pfa_hat > 0.97

    def test_grid_must_increase_within_unit_interval(self, small_scenario):
        with pytest.raises(ValueError):
            dd.roc_curve(small_scenario, Scheme.ED_opt_weights_opt_power, [0.5, 0.1], 100)
        with pytest.raises(ValueError):
            dd.roc_curve(small_scenario, Scheme.ED_opt_weights_opt_power, [0.1, 1.5], 100)


class TestSweepBudget:
    def test_row_block_structure(self, small_scenario):
        schemes = [Scheme.ED_opt_weights_opt_power, Scheme.MFD_opt_power]
        ests = dd.sweep_budget(small_scenario, schemes, [0.5, 5.0], 1000)
        assert len(ests) == 4
        assert [e.pt for e in ests] == [0.5, 0.5, 5.0, 5.0]

    def test_shared_draws_match_single_runs(self, small_scenario):
        grid = [1e-6, 2.0, 5.0]   # the first budget starves the equal-power schemes
        ests = dd.sweep_budget(small_scenario, list(Scheme), grid, 2000)
        solo = [dd.run_trials(small_scenario, scheme, 2000, pt=pt)
                for pt in grid for scheme in Scheme]
        assert ests == solo
        assert any(e.n_transmit == 0 for e in ests) and any(e.n_transmit > 0 for e in ests)

    def test_starved_budget_rows_report_zero(self, small_scenario):
        ests = dd.sweep_budget(small_scenario, [Scheme.ED_opt_weights_equal_power],
                               [1e-6], 100)
        assert ests[0].n_transmit == 0
        assert ests[0].pd_hat == 0.0 and ests[0].pfa_hat == 0.0


def _count_draws(monkeypatch) -> list:
    """Patch montecarlo.derive_stream; the list gets the shape of every normal() batch.

    Every other draw, such as chisquare(), passes through uncounted.
    """
    shapes = []
    derive = montecarlo.derive_stream

    class Stream:
        def __init__(self, rng):
            self._rng = rng

        def normal(self, *args, **kwargs):
            out = self._rng.normal(*args, **kwargs)
            shapes.append(out.shape)
            return out

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(montecarlo, "derive_stream", lambda *key: Stream(derive(*key)))
    return shapes


class TestChunking:
    GRID = [1e-6, 2.0, 5.0]

    def _sweep(self, sc):
        diag: list = []
        ests = dd.sweep_budget(sc, list(Scheme), self.GRID, 1000, diagnostics=diag)
        return ests, diag

    def _check_chunking(self, sc, monkeypatch):
        whole, whole_diag = self._sweep(sc)
        # the 256-trial floor then splits the 1000 trials into four chunks
        monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 1)
        shapes = _count_draws(monkeypatch)
        chunked, chunked_diag = self._sweep(sc)
        assert len(shapes) >= 3
        assert chunked == whole
        # clip rates over the same trial count
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(chunked_diag, whole_diag))
        assert any(rates[1].any() for _, rates in whole_diag)   # clip_hi_h0

    def test_results_do_not_depend_on_chunk_size(self, small_scenario, monkeypatch):
        self._check_chunking(small_scenario, monkeypatch)

    @pytest.mark.parametrize("n", [1, 2])
    def test_short_windows_do_not_depend_on_chunk_size(self, n, monkeypatch):
        # N=1 draws no chi-square at all, N=2 one degree of freedom
        sc = dd.make_scenario(m=5, n=n, seed=7, u=3.0, pt=5.0, pfa=0.1,
                              xa_db=-4.0, amplitude=0.2)
        self._check_chunking(sc, monkeypatch)

    def test_a_sweep_draws_each_chunk_once(self, small_scenario, monkeypatch, tmp_path):
        sc = small_scenario
        path = write_config(tmp_path, M=sc.M, N=sc.N, seed=7, Pt=5.0, overrides={
            "radius": 0.6,
            "detect": {"trials": 1000, "pfa_grid": [0.05, 0.1, 0.5], "n_grid": [8, 12]}})
        shapes = _count_draws(monkeypatch)
        # whole, then in the four chunks the 256-trial floor splits 1000 trials into
        for chunks in ((1000,), (256, 256, 256, 232)):
            shapes.clear()
            self._sweep(sc)
            assert shapes == [(c, sc.M) for c in chunks]
            # the CLI's pfa and n sweeps: one batch per window length, shared by all six schemes
            for sweep in ("pfa", "n"):
                shapes.clear()
                assert run_cli("detect", path, "--sweep", sweep, "--out", tmp_path / sweep) == 0
                assert shapes == [(c, sc.M) for n in (8, 12) for c in chunks]
            monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 1)

    def test_plans_sharing_bit_loads_quantize_once(self, small_scenario, monkeypatch):
        sc = small_scenario
        plans = [plan_scheme(sc, s, pt=pt) for pt in self.GRID for s in Scheme]
        # one quantized row per (statistic, sensor, bit load) that some plan sends
        cells = {(p.scheme.statistic, i, p.spec.bits_int[i]) for p in plans
                 for i in p.senders}
        sent = sum(p.senders.size for p in plans)
        assert len(cells) < sent
        rows = []

        def counted(real):
            def wrapper(t, *args):
                rows.append(len(t))
                return real(t, *args)
            return wrapper

        monkeypatch.setattr(montecarlo, "quantize_array", counted(montecarlo.quantize_array))
        self._sweep(sc)
        assert sum(rows) == 2 * len(cells)   # one chunk, two hypotheses
        assert len(rows) == 2 * 2            # one call per statistic and hypothesis
        # each plan fuses with the sender weights it was built with: the pass builds none
        monkeypatch.setattr(montecarlo, "FusionWeights", None)
        thresholds = [np.array([p.threshold(0.1)]) for p in plans]
        montecarlo.simulate_plans(sc, plans, thresholds, 1000)

    def test_plans_sending_the_same_rows_share_one_gather(self, small_scenario, monkeypatch):
        sc = small_scenario
        plans = [plan_scheme(sc, s, pt=5.0) for s in (Scheme.ED_opt_weights_equal_power,
                                                      Scheme.ED_equal_weights_equal_power)]
        # equal power gives both the same quantizers, and both weight rules the same senders
        assert plans[0].senders.size
        assert np.array_equal(plans[0].senders, plans[1].senders)
        assert np.array_equal(plans[0].spec.bits_int, plans[1].spec.bits_int)
        gathered = []   # (weights, q) of every fuse; holding q keeps identities unique

        def recording(q, weights):
            gathered.append((weights, q))
            return fuse(q, weights)

        monkeypatch.setattr(montecarlo, "fuse", recording)
        thresholds = [np.array([p.threshold(0.1)]) for p in plans]
        montecarlo.simulate_plans(sc, plans, thresholds, 1000)
        first, second = ([q for w, q in gathered if w is p.sender_weights] for p in plans)
        assert len(first) == len(second) == 2   # one chunk, two hypotheses
        assert all(a is b for a, b in zip(first, second))


def _law_population(n, m=3):
    """Three sensors with unequal noise and signals that are not constant over the window."""
    signal = np.random.default_rng(100 + n).normal(0.0, 0.4, size=(m, n))
    return dd.Scenario(np.array([0.5, 1.0, 2.0]), 1.0, 0.1, signal, U=3.0, Pt=1.0, Pfa=0.1,
                       seed=5)


class TestSufficientStatisticLaw:
    """The two-variate draw against the sample path: generate_observations plus both statistics."""

    TRIALS = 20_000

    @staticmethod
    def _within(estimates, exact, terms):
        """Each sensor's mean of terms is within 5 standard errors of its exact value."""
        se = np.std(terms, axis=1) / np.sqrt(terms.shape[1])
        assert np.all(np.abs(estimates - exact) <= 5.0 * se), (estimates, exact, se)

    @pytest.mark.parametrize("h1", [False, True], ids=["Hypothesis.H0", "Hypothesis.H1"])
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    def test_moments_and_ks_against_the_sample_path(self, n, h1):
        sc, trials = _law_population(n), self.TRIALS
        sg, rest = montecarlo._noise(sc, np.random.default_rng(1), np.random.default_rng(2),
                                     trials)
        drawn = [statistic(sc, sc.U).from_noise(sg, rest, h1)
                 for statistic in (dd.Statistic.energy, dd.Statistic.matched)]
        x = generate_observations(sc, n, h1, np.random.default_rng(3), trials=trials)
        sampled = [energy_statistic(x).T, matched_filter_statistic(x, sc).T]
        # exact: sigma^2 chi2_N, noncentral by Es / sigma^2 under H1, and N(h1 Es, sigma^2 Es)
        s2, es = sc.sigma2, sc.es
        mean = [n * s2 + h1 * es, h1 * es]
        var = [2 * n * s2 * s2 + h1 * 4 * s2 * es, s2 * es]
        cov = h1 * 2 * s2 * es
        for ed, mf in (drawn, sampled):
            assert ed.shape == mf.shape == (3, trials)
            centered = []
            for t, mu, v in zip((ed, mf), mean, var):
                self._within(t.mean(axis=1), mu, t)
                d = t - t.mean(axis=1, keepdims=True)
                self._within(np.mean(d * d, axis=1), v, d * d)
                centered.append(d)
            prod = centered[0] * centered[1]
            self._within(prod.mean(axis=1), cov, prod)
        # the marginals and one joint projection, sensor by sensor, at fixed seeds
        for a, b in ((drawn[0], sampled[0]), (drawn[1], sampled[1]),
                     (drawn[0] + drawn[1], sampled[0] + sampled[1])):
            for i in range(3):
                assert ks_2samp(a[i], b[i]).pvalue > 1e-4

    def test_detect_pt_sweep_runs_at_one_sample(self, tmp_path):
        path = write_config(tmp_path, N=1, overrides={
            "detect": {"trials": 500, "pt_grid": [20.0]}})
        out = tmp_path / "out"
        assert run_cli("detect", path, "--sweep", "pt", "--out", out) == 0
        with open(out / "results_pt.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["N"] for r in rows} == {"1"}
        assert any(float(r["pd_hat"]) > 0.0 for r in rows)


class TestResultsCsv:
    def test_schema_and_formatting(self, tmp_path, small_scenario):
        est = dd.run_trials(small_scenario, Scheme.ED_equal_weights_equal_power, 200)
        path = tmp_path / "results.csv"
        write_results_csv(path, [(est, 8, 5)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scheme", "Pt", "N", "M", "pfa_target", "pfa_hat",
                           "pd_hat", "pd_analytic", "trials", "sigma_binomial"]
        assert rows[1][0] == "ED_equal_weights_equal_power"
        assert rows[1][2] == "8" and rows[1][3] == "5"


class TestNanRefused:
    """Each positivity guard refuses NaN, which compares False with everything."""

    @pytest.mark.parametrize("call, message", [
        (lambda: montecarlo.detection_threshold(0.0, float("nan"), 0.1),
         "var_h0 must be positive"),
        (lambda: montecarlo.quantized_gaussian_moments(1.0, float("nan"), 3, 3.0),
         "var must be positive"),
        (lambda: montecarlo.quantized_gaussian_moments([1.0, 1.0], [1.0, float("nan")], 3, 3.0),
         "var must be positive"),
        (lambda: dd.sweep_budget(dd.make_scenario(m=3, n=5, seed=1, u=3.0, pt=1.0, pfa=0.1,
                                                  xa_db=-4.0, amplitude=0.2),
                                 [dd.Scheme.ED_opt_weights_opt_power], [1.0, float("nan")], 10),
         "pt grid values must be positive"),
        (lambda: montecarlo.quantized_gaussian_moments(1.0, 1.0, 3, float("nan")),
         "U must be positive"),
    ], ids=["detection_threshold_var_h0", "quantized_gaussian_moments_var",
            "quantized_gaussian_moments_var_array", "sweep_budget_pt_grid",
            "quantized_gaussian_moments_u"])
    def test_nan_refused(self, call, message):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("bits, u", [(3, -3.0), (3, 0.0), (20, -3.0), (20, 0.0)],
                             ids=["negative", "zero", "negative_past_16_bits",
                                  "zero_past_16_bits"])
    def test_nonpositive_halfrange_refused(self, bits, u):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="U must be positive"):
            montecarlo.quantized_gaussian_moments(1.0, 1.0, bits, u)
