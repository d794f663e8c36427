"""Distributed dual ascent with consensus-averaged power sums."""
import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distdetect as dd
from distdetect import solver_dist
from distdetect.solver_dist import write_trace_csv

from conftest import each_sensor


def _identical_scenario(m=4, pt=2.0, n=10, outer_max=100_000):
    sensors = dd.SensorParams(1.0, 1.0, 0.1, np.full((m, n), 0.2))
    return dd.Scenario(sensors=sensors, N=n, U=3.0, Pt=pt, Pfa=0.1,
                       topology=dd.complete_graph(m), seed=0,
                       solver=dd.SolverConfig(outer_max_iter=outer_max))


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
            u = float(rng.uniform(1.0, 10.0))
            assert dd.local_power_update(lam, s, 10, u) == dd.power_closed_form(lam, s, 10, u)

    def test_at_the_solved_multiplier_reproduces_central(self, fig1_scenario, fig1_central):
        p = np.array([dd.local_power_update(fig1_central.lambda0, s, 10, 3.0)
                      for s in each_sensor(fig1_scenario)])
        assert_allclose(p, fig1_central.p, rtol=1e-12)


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


class TestSolveDistributed:
    def test_identical_sensors_split_evenly(self):
        sc = _identical_scenario()
        alloc, trace = dd.solve_distributed(sc)
        assert_allclose(alloc.p, alloc.p[0], rtol=1e-10)
        assert abs(alloc.total() - sc.Pt) <= 1e-3 * sc.Pt
        assert trace.converged
        assert trace.rel_step[-1] <= sc.solver.kappa

    def test_matches_centralized_solution(self, fig1_scenario, fig1_central):
        alloc, trace = dd.solve_distributed(fig1_scenario)
        gap = np.linalg.norm(alloc.p - fig1_central.p) / np.linalg.norm(fig1_central.p)
        assert gap <= 1e-3
        assert abs(alloc.total() - 1.0) <= 1e-3

    def test_multiplier_replicas_stay_in_lockstep(self):
        sc = _identical_scenario(m=6, pt=3.0)
        _, trace = dd.solve_distributed(sc)
        assert np.max(trace.lambda0_spread) <= 10 * sc.solver.consensus_tol

    def test_deterministic(self):
        a_alloc, a_tr = dd.solve_distributed(_identical_scenario())
        b_alloc, b_tr = dd.solve_distributed(_identical_scenario())
        assert_allclose(a_alloc.p, b_alloc.p, rtol=0, atol=0)
        assert_allclose(a_tr.lambda0, b_tr.lambda0, rtol=0, atol=0)
        assert a_tr.iterations == b_tr.iterations

    def test_iteration_budget_error_carries_trace(self):
        sc = _identical_scenario(outer_max=3)
        with pytest.raises(dd.ConvergenceError) as exc:
            dd.solve_distributed(sc)
        assert exc.value.trace is not None
        assert exc.value.trace.iterations == 3
        assert not exc.value.trace.converged

    def test_trace_quantities_are_consistent(self):
        sc = _identical_scenario()
        _, trace = dd.solve_distributed(sc)
        assert trace.k[0] == 1 and trace.k[-1] == trace.iterations
        assert np.isnan(trace.rel_step[0])
        assert trace.powers.shape == (trace.iterations, 4)
        assert trace.total_consensus_rounds == int(np.sum(trace.consensus_iters))


def _trace_arrays(trace):
    return [trace.k, trace.lambda0, trace.powers, trace.consensus_iters, trace.rel_step,
            trace.lambda0_spread]


class TestBlockedConsensusInTheSolver:
    def test_fig1_trace_equals_the_per_round_loop(self, fig1_scenario, monkeypatch,
                                                  reference_consensus_average):
        _, blocked = dd.solve_distributed(fig1_scenario)
        monkeypatch.setattr(solver_dist, "consensus_average", reference_consensus_average)
        _, reference = dd.solve_distributed(fig1_scenario)
        assert blocked.total_consensus_rounds == reference.total_consensus_rounds
        for a, b in zip(_trace_arrays(blocked), _trace_arrays(reference)):
            assert np.array_equal(a, b, equal_nan=True)

    def test_consensus_failure_keeps_the_partial_trace(self, monkeypatch):
        sc = _identical_scenario()
        _, full = dd.solve_distributed(sc)
        real = solver_dist.consensus_average
        calls = []

        def fails_on_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise dd.ConsensusError("no consensus after 7 rounds (tol=1e-10)",
                                        values=np.zeros(sc.M), iterations=7)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_dist, "consensus_average", fails_on_third_call)
        with pytest.raises(dd.ConvergenceError) as exc:
            dd.solve_distributed(sc)
        assert "no consensus after 7 rounds" in str(exc.value)
        assert isinstance(exc.value.__cause__, dd.ConsensusError)
        partial = exc.value.trace
        assert partial.iterations == 2 and not partial.converged
        for a, b in zip(_trace_arrays(partial), _trace_arrays(full)):
            assert np.array_equal(a, b[:2], equal_nan=True)

    def test_consensus_failure_on_the_first_iteration_leaves_an_empty_trace(self):
        # the fig1 network needs 249 rounds in its first consensus run
        sc = dd.make_scenario(m=10, n=10, seed=1, radius=0.5,
                              solver=dd.SolverConfig(consensus_max_iter=50))
        with pytest.raises(dd.ConvergenceError) as exc:
            dd.solve_distributed(sc)
        assert "outer iteration 1: no consensus after 50 rounds" in str(exc.value)
        assert exc.value.trace.iterations == 0
        assert exc.value.trace.powers.shape == (0, 10)


class TestTraceCsv:
    def test_schema_and_round_trip(self, tmp_path):
        sc = _identical_scenario()
        _, trace = dd.solve_distributed(sc)
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
