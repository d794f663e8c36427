"""Shared fixtures: canned scenarios, config helpers, CLI runner."""
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import distdetect as dd
from distdetect import cli
from distdetect.montecarlo import weights_for_scheme

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


def spec_at(scenario, powers) -> dd.QuantSpec:
    """The quantizers of a scenario's sensors at the given powers."""
    return dd.specs_for_allocation(powers, scenario.h, scenario.zeta, scenario.U)


def scheme_weights(scenario, scheme, powers) -> dd.FusionWeights:
    """weights_for_scheme from the scheme's statistic and the quantizers at the given powers."""
    statistic = scheme.statistic(scenario, scenario.N, scenario.U)
    return weights_for_scheme(scheme, statistic, spec_at(scenario, powers))


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


def reference_graph(m, edges):
    """Graph's checks as a per-edge loop plus a depth-first search.

    Returns (sorted edge tuple, degree tuple, connected). Raises
    TopologyError, with Graph's message, at the first malformed edge in
    the order given.
    """
    seen = set()
    for u, v in edges:
        if u == v:
            raise dd.TopologyError(f"self loop at vertex {u}")
        if not (0 <= u < m and 0 <= v < m):
            raise dd.TopologyError(f"edge ({u}, {v}) out of range for M={m}")
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            raise dd.TopologyError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    adj = [[] for _ in range(m)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    reached = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in reached:
                reached.add(v)
                stack.append(v)
    return tuple(sorted(seen)), tuple(len(a) for a in adj), len(reached) == m


@pytest.fixture(name="reference_graph")
def _reference_graph():
    return reference_graph


def reference_geometric_edges(pts, radius):
    """random_geometric_graph's edge build as the full M x M x 2 difference tensor.

    Returns the (E, 2) pairs u < v with d2 <= radius * radius, rows in
    lexicographic order, as Graph stores them.
    """
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return np.argwhere(np.triu(d2 <= radius * radius, k=1))


@pytest.fixture(name="reference_geometric_edges")
def _reference_geometric_edges():
    return reference_geometric_edges


# The energy/matched-filter split as it was written before both statistics shared one
# model.Statistic record: the unified weight rule, fused moments and quantizer must
# reproduce these bit for bit.

def reference_quantize_array(t, bits_int, u):
    """quantize_array over [0, 2U], each step into a fresh array."""
    bits_int = np.asarray(bits_int)
    cells = np.ldexp(1.0, bits_int)
    delta = 2.0 * u / cells
    tc = np.clip(np.asarray(t, dtype=float), 0.0, 2.0 * u)
    idx = np.minimum(np.floor(tc / delta), cells - 1)
    return (idx + 0.5) * delta


def reference_quantize_centered(t, bits_int, u):
    """The [0, 2U] quantizer shifted to [-U, U]."""
    return reference_quantize_array(np.asarray(t, dtype=float) + u, bits_int, u) - u


def reference_energy_weights(scenario, powers):
    """alpha_i = N sigma_i^2 xi_i / (var_h1_i + noise_var_i), censored sensors 0."""
    p = np.asarray(powers, dtype=float)
    n, sigma2, xi = scenario.N, scenario.sigma2, scenario.xi
    var_h1 = 2.0 * n * np.square(sigma2) * (1.0 + 2.0 * xi)
    noise_var = dd.quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    return np.where(p == 0.0, 0.0, n * sigma2 * xi / (var_h1 + noise_var))


def reference_matched_filter_weights(scenario, powers):
    """alpha_i = Es_i / (sigma_i^2 Es_i + noise_var_i), censored sensors 0."""
    p = np.asarray(powers, dtype=float)
    nv = dd.quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    return np.where(p == 0.0, 0.0, scenario.es / (scenario.sigma2 * scenario.es + nv))


def reference_combined_moments(n, sigma2, xi, alpha, noise_var, u):
    """Fused energy moments, means carrying +U per unit weight.

    Returns (mean_h0, var_h0, mean_h1, var_h1, psi, mean_offset).
    """
    sigma2, xi = np.asarray(sigma2, dtype=float), np.asarray(xi, dtype=float)
    alpha, noise_var = np.asarray(alpha, dtype=float), np.asarray(noise_var, dtype=float)
    var_h0 = 2.0 * n * np.square(sigma2)
    a2 = alpha * alpha
    return (float(np.sum(alpha * (n * sigma2 + u))),
            float(np.sum(a2 * (var_h0 + noise_var))),
            float(np.sum(alpha * (n * sigma2 * (1.0 + xi) + u))),
            float(np.sum(a2 * (var_h0 * (1.0 + 2.0 * xi) + noise_var))),
            float(n * np.sum(alpha * sigma2 * xi)),
            float(u * np.sum(alpha)))


def reference_matched_filter_moments(scenario, alpha, powers):
    """Fused matched-filter moments: mean 0 / sum(alpha Es), one variance for both.

    Returns (mean_h0, var_h0, mean_h1, var_h1, psi, mean_offset).
    """
    p = np.asarray(powers, dtype=float)
    noise_var = dd.quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    alpha = np.where(p == 0.0, 0.0, alpha)
    var = float(np.sum(alpha ** 2 * (scenario.sigma2 * scenario.es + noise_var)))
    psi = float(np.sum(alpha * scenario.es))
    return 0.0, var, psi, var, psi, 0.0


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
