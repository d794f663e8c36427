"""Shared fixtures: canned scenarios, config helpers, CLI runner."""
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import distdetect as dd
from distdetect import cli

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

CONFIG_DIR = Path(dd.__file__).parent / "configs"


def bundled_config(name: str) -> Path:
    path = CONFIG_DIR / name
    assert path.is_file(), f"missing bundled config {name}"
    return path


def sensor(population, i: int) -> dd.SensorParams:
    """Sensor i of a population (a Scenario or a SensorParams with an (M, N) signal)."""
    return dd.SensorParams(population.sigma2[i], population.h[i], population.zeta[i],
                           population.signal[i])


def each_sensor(population) -> list:
    """Every sensor of a population, one SensorParams each, in index order."""
    return [sensor(population, i) for i in range(len(population.signal))]


@pytest.fixture(scope="session")
def fig1_scenario():
    return dd.make_scenario(m=10, n=10, seed=1, u=3.0, pt=1.0, pfa=0.1,
                            xa_db=-4.0, amplitude=0.2, radius=0.5)


@pytest.fixture(scope="session")
def fig1_central(fig1_scenario):
    return dd.solve_centralized(fig1_scenario)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def reference_consensus_average(graph, x0, tol=1e-10, max_iter=10000, mode="oracle",
                                window=5, weights=None):
    """consensus_average as a plain x = W @ x loop that tests the stopping rule every round."""
    w = dd.metropolis_matrix(graph) if weights is None else weights
    x = np.asarray(x0, dtype=float)
    target = x.mean()
    hist = [x]
    k = 0
    while True:
        if mode == "oracle":
            done = np.max(np.abs(x - target)) <= tol
        else:
            done = len(hist) == window + 1 and np.max(np.ptp(np.stack(hist), axis=0)) <= tol
        if done:
            return dd.ConsensusResult(values=x, iterations=k,
                                      max_deviation=float(np.max(np.abs(x - target))))
        if k >= max_iter:
            raise dd.ConsensusError(f"no consensus after {max_iter} rounds (tol={tol})",
                                    values=x, iterations=k)
        x = w @ x
        k += 1
        hist = (hist + [x])[-(window + 1):]


@pytest.fixture(name="reference_consensus_average")
def _reference_consensus_average():
    return reference_consensus_average


def reference_water_filling(scenario, pt=None, budget_rtol=1e-9, max_bisect=2000):
    """solve_centralized as a bracket-plus-bisection search on total power over lambda0.

    Total power is continuous and strictly decreasing in lambda0 wherever
    positive, so halving from 1 until it exceeds pt, doubling until it
    falls below, then bisecting meets pt to budget_rtol.
    """
    pt = scenario.Pt if pt is None else pt
    lo = 1.0
    while dd.total_power(lo, scenario) <= pt:
        lo *= 0.5
        assert lo >= 1e-300, "no lower bracket: total power never exceeds the budget"
    hi = max(lo * 2.0, 1.0)
    while dd.total_power(hi, scenario) >= pt:
        hi *= 2.0
        assert hi <= 1e300, "no upper bracket: total power never falls below the budget"
    for _ in range(max_bisect):
        lam = 0.5 * (lo + hi)
        tot = dd.total_power(lam, scenario)
        if abs(tot - pt) <= budget_rtol * pt:
            break
        if tot > pt:
            lo = lam
        else:
            hi = lam
    else:
        raise AssertionError(f"budget not met to {budget_rtol} relative after {max_bisect} bisections")
    return dd.PowerAllocation(
        p=dd.power_closed_form(lam, scenario, scenario.N, scenario.U), lambda0=lam)


@pytest.fixture(name="reference_water_filling")
def _reference_water_filling():
    return reference_water_filling


def write_config(tmpdir, overrides=None, **kw) -> Path:
    """Drop a minimal valid config file into tmpdir and return its path."""
    cfg = {
        "schema_version": 1,
        "seed": 3,
        "M": 5,
        "N": 10,
        "U": 3.0,
        "Pt": 1.0,
        "Pfa": 0.1,
    }
    cfg.update(kw)
    if overrides:
        cfg.update(overrides)
    path = Path(tmpdir) / "scenario.cfg"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run_cli(*argv) -> int:
    """Invoke the CLI in-process; returns the exit code."""
    return cli.main([str(a) for a in argv])
