"""Distributed dual ascent with consensus-averaged power sums."""
import collections
import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect import cli, consensus, solver_central, solver_dist
from distdetect.cli import write_trace_csv
from distdetect.consensus import Consensus
from distdetect.solver_central import water_levels

from conftest import bundled_config, complete_graph, each_sensor


def _identical_scenario(m=4, pt=2.0, n=10):
    return dd.Scenario(1.0, 1.0, 0.1, np.full((m, n), 0.2), U=3.0, Pt=pt, Pfa=0.1, seed=0)


def _solve_identical(sc, solver=dd.SolverConfig()):
    """solve_distributed on the complete graph of the scenario's sensors."""
    return dd.solve_distributed(sc, complete_graph(sc.M), solver)


def _config_case(cfg):
    """The scenario and sensor graph of a validated config."""
    return cli.scenario_from_config(cfg), dd.make_topology(cfg["M"], cfg["seed"], cfg["radius"])


def _single_sensor(seed):
    return _config_case(cli.validate_config({"schema_version": 1, "seed": seed, "M": 1, "N": 10,
                                             "U": 3.0, "Pt": 1.0, "Pfa": 0.1}))


class TestLocalPowerUpdate:
    def test_identical_to_the_centralized_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            s = dd.SensorParams(
                float(rng.uniform(0.3, 3.0)),
                float(rng.uniform(0.2, 2.0)),
                float(rng.uniform(0.05, 0.5)),
                np.full(10, float(rng.uniform(0.05, 0.8))),
            )
            lam = float(10 ** rng.uniform(-9, 1))
            levels = water_levels(s, float(rng.uniform(1.0, 10.0)))
            assert dd.local_power_update(lam, levels) == dd.power_closed_form(lam, levels)

    def test_at_the_solved_multiplier_reproduces_central(self, fig1_scenario, fig1_central):
        p = np.array([dd.local_power_update(fig1_central.lambda0, water_levels(s, 3.0))
                      for s in each_sensor(fig1_scenario)])
        assert_allclose(p, fig1_central.p, rtol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1e-6, -np.inf, np.r_[np.full(9, 1e-6), 0.0],
                                     np.r_[-1e-6, np.full(9, 1e-6)]])
    def test_nonpositive_multiplier_refused(self, lam, fig1_scenario):
        with pytest.raises(ValueError, match="lambda0 must be positive"):
            dd.power_closed_form(lam, water_levels(fig1_scenario, 3.0))

    @pytest.mark.parametrize("lam", [np.nan, np.r_[np.nan, np.ones(9)]])
    def test_nan_multiplier_refused(self, lam, fig1_scenario):
        # NaN <= 0 is False, so a refusal of lam <= 0 would let it through to NaN powers
        with np.errstate(all="raise"), pytest.raises(ValueError, match="lambda0 must be positive"):
            dd.power_closed_form(lam, water_levels(fig1_scenario, 3.0))


class TestDualUpdate:
    def test_stationary_point_unchanged(self):
        assert dd.dual_update(3e-5, 0.1, 10, 1.0, 1e-3) == 3e-5

    def test_overspend_raises_multiplier(self):
        assert dd.dual_update(1e-5, 0.2, 10, 1.0, 1e-3) > 1e-5

    def test_hand_computed_step(self):
        # lambda + eps * (M p_bar - Pt) = 1e-8 + 1e-8 * (2 - 1)
        assert_allclose(dd.dual_update(1e-8, 0.2, 10, 1.0, 1e-8), 2e-8, rtol=1e-12)

    def test_floored_at_tiny_positive_value(self):
        out = dd.dual_update(1e-8, 0.0, 10, 1.0, 1.0)
        assert out == 1e-16

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            dd.dual_update(1e-8, 0.1, 10, 1.0, 0.0)

    @pytest.mark.parametrize("eps", [-1e-9, -np.inf, np.array([1e-3, 0.0, 1e-3]),
                                     np.array([-1.0, 1.0, 1.0])])
    def test_every_nonpositive_step_refused(self, eps):
        with pytest.raises(ValueError, match="eps_k must be positive"):
            dd.dual_update(np.full(3, 1e-8), 0.1, 3, 1.0, eps)

    @pytest.mark.parametrize("eps", [np.nan, np.array([np.nan, 1.0, 1.0])])
    def test_nan_step_refused(self, eps):
        # NaN <= 0 is False, so a refusal of eps <= 0 would let it through to NaN multipliers
        with np.errstate(all="raise"), pytest.raises(ValueError, match="eps_k must be positive"):
            dd.dual_update(np.full(3, 1e-8), 0.1, 3, 1.0, eps)


class TestSolveDistributed:
    def test_identical_sensors_split_evenly(self):
        sc = _identical_scenario()
        alloc, trace = _solve_identical(sc)
        assert_allclose(alloc.p, alloc.p[0], rtol=1e-10)
        assert abs(alloc.total() - sc.Pt) <= 1e-3 * sc.Pt
        assert trace.converged
        assert trace.rel_step[-1] <= dd.SolverConfig().kappa

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    def test_matches_centralized_solution(self, fig1_scenario, fig1_topology, fig1_central,
                                          mode):
        alloc, trace = dd.solve_distributed(fig1_scenario, fig1_topology,
                                            dd.SolverConfig(consensus_mode=mode))
        gap = np.linalg.norm(alloc.p - fig1_central.p) / np.linalg.norm(fig1_central.p)
        assert gap <= 1e-3
        assert abs(alloc.total() - 1.0) <= 1e-3

    def test_multiplier_replicas_stay_in_lockstep(self):
        _, trace = _solve_identical(_identical_scenario(m=6, pt=3.0))
        assert np.max(trace.lambda0_spread) <= 10 * dd.SolverConfig().consensus_tol

    def test_deterministic(self):
        a_alloc, a_tr = _solve_identical(_identical_scenario())
        b_alloc, b_tr = _solve_identical(_identical_scenario())
        assert_allclose(a_alloc.p, b_alloc.p, rtol=0, atol=0)
        assert_allclose(a_tr.lambda0, b_tr.lambda0, rtol=0, atol=0)
        assert a_tr.iterations == b_tr.iterations

    def test_iteration_budget_error_carries_trace(self):
        with pytest.raises(dd.ConvergenceError) as exc:
            _solve_identical(_identical_scenario(), dd.SolverConfig(outer_max_iter=3))
        assert exc.value.trace is not None
        assert exc.value.trace.iterations == 3
        assert not exc.value.trace.converged

    def test_a_step_stop_off_the_budget_is_not_converged(self):
        # kappa=0.1 fires on the step at iteration 6, with sum(p) still 14% over Pt
        with pytest.raises(dd.ConvergenceError) as exc:
            _solve_identical(_identical_scenario(), dd.SolverConfig(kappa=0.1))
        assert str(exc.value) == ("stopped at outer iteration 6 on relative step 5.742e-02 <= "
                                  "kappa=0.1, but |sum(p)-Pt|/Pt=1.388e-01 exceeds 1e-3")
        trace = exc.value.trace
        assert trace.iterations == 6 and not trace.converged
        assert trace.rel_step[-1] <= 0.1

    def test_graph_size_must_match(self):
        with pytest.raises(ValueError, match="graph has 4 nodes for 3 sensors"):
            dd.solve_distributed(_identical_scenario(m=3), complete_graph(4))

    def test_trace_quantities_are_consistent(self):
        _, trace = _solve_identical(_identical_scenario())
        assert trace.k[0] == 1 and trace.k[-1] == trace.iterations
        assert np.isnan(trace.rel_step[0])
        assert trace.powers.shape == (trace.iterations, 4)
        assert trace.total_consensus_rounds == int(np.sum(trace.consensus_iters))


class TestWarmStart:
    """Each consensus run resumes from the last consensus state plus the node's power change."""

    # starting every run from p_k took 393,557 rounds on fig1 and 6,631 on fig2
    @pytest.mark.parametrize("config, max_rounds", [("fig1.cfg", 100_000), ("fig2.cfg", 5_000)])
    def test_inputs_keep_the_mean_power_and_the_rounds_drop(self, config, max_rounds,
                                                            monkeypatch):
        cfg = cli.load_config(bundled_config(config))
        real, inputs = Consensus.run, []

        def spy(engine, x0, *args, **kwargs):
            inputs.append(np.array(x0))
            return real(engine, x0, *args, **kwargs)

        monkeypatch.setattr(Consensus, "run", spy)
        _, trace = dd.solve_distributed(*_config_case(cfg))
        assert np.array_equal(inputs[0], trace.powers[0])
        assert len(inputs) == trace.iterations
        mean_p = trace.powers.mean(axis=1)
        assert np.all(np.abs(np.mean(inputs, axis=1) - mean_p) <= 1e-9 * mean_p)
        assert trace.total_consensus_rounds < max_rounds


def _trace_arrays(trace):
    return [trace.k, trace.lambda0, trace.powers, trace.consensus_iters, trace.rel_step,
            trace.lambda0_spread]


class TestBlockedConsensusInTheSolver:
    def test_fig1_trace_equals_the_per_round_loop(self, fig1_scenario, fig1_topology,
                                                  monkeypatch, reference_consensus_average):
        _, blocked = dd.solve_distributed(fig1_scenario, fig1_topology)
        runs = []

        def per_round(engine, x0):
            runs.append(None)
            return reference_consensus_average(engine.graph, x0, engine.solver)

        monkeypatch.setattr(Consensus, "run", per_round)
        _, reference = dd.solve_distributed(fig1_scenario, fig1_topology)
        assert len(runs) == reference.iterations
        assert blocked.total_consensus_rounds == reference.total_consensus_rounds
        for a, b in zip(_trace_arrays(blocked), _trace_arrays(reference)):
            assert np.array_equal(a, b, equal_nan=True)

    def test_consensus_failure_keeps_the_partial_trace(self, monkeypatch):
        sc = _identical_scenario()
        _, full = _solve_identical(sc)
        real = Consensus.run
        calls = []

        def fails_on_third_call(engine, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise dd.ConsensusError("no consensus after 7 rounds (tol=1e-10)",
                                        values=np.zeros(sc.M), iterations=7)
            return real(engine, *args, **kwargs)

        monkeypatch.setattr(Consensus, "run", fails_on_third_call)
        with pytest.raises(dd.ConvergenceError) as exc:
            _solve_identical(sc)
        assert "no consensus after 7 rounds" in str(exc.value)
        assert isinstance(exc.value.__cause__, dd.ConsensusError)
        partial = exc.value.trace
        assert partial.iterations == 2 and not partial.converged
        for a, b in zip(_trace_arrays(partial), _trace_arrays(full)):
            assert np.array_equal(a, b[:2], equal_nan=True)

    def test_consensus_failure_on_the_first_iteration_leaves_an_empty_trace(
            self, fig1_scenario, fig1_topology):
        # the fig1 network needs 249 rounds in its first consensus run
        with pytest.raises(dd.ConvergenceError) as exc:
            dd.solve_distributed(fig1_scenario, fig1_topology,
                                 dd.SolverConfig(consensus_max_iter=50))
        assert "outer iteration 1: no consensus after 50 rounds" in str(exc.value)
        assert exc.value.trace.iterations == 0
        assert exc.value.trace.powers.shape == (0, 10)


def _solve_outcome(solve, scenario, graph, solver):
    """(allocation or None, trace, error message or None) of one solve."""
    try:
        alloc, trace = solve(scenario, graph, solver)
    except dd.ConvergenceError as e:
        return None, e.trace, str(e)
    return alloc, trace, None


class TestTraceReducedOnce:
    """Reducing the kept multiplier copies once gives the bytes of reducing them every iteration."""

    def _same_as_the_reference(self, scenario, graph, solver, reference_solve_distributed):
        got = _solve_outcome(dd.solve_distributed, scenario, graph, solver)
        ref = _solve_outcome(reference_solve_distributed, scenario, graph, solver)
        assert got[2] == ref[2]
        assert got[1].converged == ref[1].converged
        for a, b in zip(_trace_arrays(got[1]), _trace_arrays(ref[1])):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
        assert (got[0] is None) == (ref[0] is None)
        if ref[0] is not None:
            assert np.array_equal(got[0].p, ref[0].p)
            assert got[0].lambda0 == ref[0].lambda0
        return got

    @pytest.mark.parametrize("mode", ["oracle", "local"])
    @pytest.mark.parametrize("config, iterations", [("fig1.cfg", 2150), ("fig2.cfg", 35)])
    def test_bundled_allocations(self, config, iterations, mode, reference_solve_distributed):
        cfg = cli.load_config(bundled_config(config))
        solver = dd.SolverConfig(**{**cfg["solver"], "consensus_mode": mode})
        _, trace, error = self._same_as_the_reference(*_config_case(cfg), solver,
                                                      reference_solve_distributed)
        assert error is None
        assert trace.iterations == iterations

    # seeds 1 and 2 stop on kappa off the budget, seed 3 converges
    @pytest.mark.parametrize("seed, iterations, converged", [
        (1, 26879, False), (2, 17721, False), (3, 50, True)])
    def test_single_sensor(self, seed, iterations, converged, reference_solve_distributed):
        _, trace, error = self._same_as_the_reference(*_single_sensor(seed), dd.SolverConfig(),
                                                      reference_solve_distributed)
        assert trace.iterations == iterations
        assert trace.converged is converged
        assert (error is None) is converged

    def test_fig5_consensus_failure(self, reference_solve_distributed):
        cfg = cli.load_config(bundled_config("fig5.cfg"))
        _, trace, error = self._same_as_the_reference(
            *_config_case(cfg), dd.SolverConfig(**cfg["solver"]), reference_solve_distributed)
        assert error == "outer iteration 4: no consensus after 20000 rounds (tol=1e-10)"
        assert trace.iterations == 3

    @pytest.mark.parametrize("m", [1, 7, 10, 100, 1000])
    def test_row_means_equal_each_rows_mean(self, m):
        rows = np.random.default_rng(m).lognormal(-12.0, 4.0, size=(64, m))
        assert np.array_equal(np.add.reduce(rows, axis=1) / m, [r.mean() for r in rows])


class TestSetUpOncePerSolve:
    """One solve builds one consensus engine, one weight matrix and one water-filling record."""

    def _count_set_up(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every binding a solve could reach each of them through
        for module, name in [(solver_dist, "Consensus"), (solver_dist, "metropolis_matrix"),
                             (consensus, "metropolis_matrix"), (solver_dist, "water_levels"),
                             (solver_central, "water_levels"),
                             (solver_dist, "power_closed_form")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(Consensus, "run", counted("run", Consensus.run))
        return calls

    @pytest.mark.parametrize("case, solver, iterations", [
        ("fig1", dd.SolverConfig(), 2150),
        ("M=1 seed 3", dd.SolverConfig(), 50),
        ("M=1 seed 1", dd.SolverConfig(outer_max_iter=3000), 3000),   # ConvergenceError
    ])
    def test_set_up_once_whatever_the_iterations(self, case, solver, iterations, monkeypatch):
        if case == "fig1":
            scenario, graph = _config_case(cli.load_config(bundled_config("fig1.cfg")))
        else:
            scenario, graph = _single_sensor(int(case[-1]))
        calls = self._count_set_up(monkeypatch)
        try:
            _, trace = dd.solve_distributed(scenario, graph, solver)
        except dd.ConvergenceError as e:
            trace = e.trace
        assert trace.iterations == iterations
        assert calls == {"Consensus": 1, "metropolis_matrix": 1, "water_levels": 1,
                         "power_closed_form": iterations, "run": iterations}


class TestTraceCsv:
    def test_schema_and_round_trip(self, tmp_path):
        _, trace = _solve_identical(_identical_scenario())
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "lambda0", "p_1", "p_2", "p_3", "p_4",
                           "consensus_iters", "rel_step"]
        assert len(rows) - 1 == trace.iterations
        body = rows[1:]
        assert_allclose([float(r[1]) for r in body], trace.lambda0, rtol=1e-15)
        assert_allclose([float(r[2]) for r in body], trace.powers[:, 0], rtol=1e-15)
