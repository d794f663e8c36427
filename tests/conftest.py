"""Shared fixtures: canned scenarios, config helpers, CLI runner, and the test oracles.

The oracles are reference_* functions (a slower, plainer way to compute
what a package function computes) and the library code that only the
tests call: the sample-by-sample observation law, SNR calibration, a
quantizer half-range, the KKT audit, the complete graph and the
edge-list reader.
"""
from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import distdetect as dd
from distdetect import cli
from distdetect.consensus import STACK_NODES, Consensus, Graph, TopologyError
from distdetect.fusion import deflection_inputs
from distdetect.model import Scenario, SensorParams, Statistic, _snr_factor
from distdetect.montecarlo import weights_for_scheme
from distdetect.quantize import specs_for_allocation
from distdetect.solver_central import BUDGET_RTOL, PowerAllocation, water_levels

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def _openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    """numpy's version, SIMD extensions and BLAS kernel: the pinned digests depend on them."""
    try:
        from numpy._core import _multiarray_umath as umath
        found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
        simd = " ".join(umath.__cpu_baseline__ + found) or "none"
    except (ImportError, AttributeError):
        simd = "unknown"
    return f"numpy {np.__version__}; SIMD: {simd}; OpenBLAS core: {_openblas_core()}"


def pytest_terminal_summary(terminalreporter, config):
    """The header line again at the end, where a -q run, which prints no header, shows it."""
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


CONFIG_DIR = Path(dd.__file__).parent / "configs"


def bundled_config(name: str) -> Path:
    path = CONFIG_DIR / name
    assert path.is_file(), f"missing bundled config {name}"
    return path


def sensor(population, i: int) -> dd.SensorParams:
    """Sensor i of a population: a SensorParams with an (M, N) signal, such as a Scenario."""
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
    statistic = scheme.statistic(scenario, scenario.U)
    return weights_for_scheme(scheme, statistic, spec_at(scenario, powers))


@pytest.fixture(scope="session")
def fig1_scenario():
    return dd.make_scenario(m=10, n=10, seed=1, u=3.0, pt=1.0, pfa=0.1,
                            xa_db=-4.0, amplitude=0.2)


@pytest.fixture(scope="session")
def fig1_topology():
    return dd.make_topology(10, seed=1, radius=0.5)


@pytest.fixture(scope="session")
def fig1_central(fig1_scenario):
    return dd.solve_centralized(fig1_scenario)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def in_order(terms):
    """terms[0] + terms[1] + ..., added one after another: floats, or arrays entry by entry."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


@functools.lru_cache(maxsize=4)
def _powers(w_bytes, m):
    """W^1 ... W^64 of the m x m matrix W with these bytes, W^(r+1) = W^r W.

    Each entry is a loop over the inner index in order. Kept for the
    last few matrices: a solve runs the reference on one W thousands of times.
    """
    w = np.frombuffer(w_bytes).reshape(m, m)
    powers = [w]
    for _ in range(63):
        last = powers[-1]
        powers.append(in_order([np.outer(last[:, l], w[l]) for l in range(m)]))
    return powers


def reference_states(graph, x0):
    """The states after 0, 1, 2, ... rounds of consensus_average's arithmetic, as plain loops.

    Each sum is a Python loop over its terms in index order (vectorized
    across the entries it produces, never across its terms). Up to
    STACK_NODES nodes, the state after c + r rounds, c the last multiple
    of 64, is W^r times the state after c rounds. Above, each round adds
    each node's own term and then its neighbours' in ascending order.
    """
    m = graph.M
    w = dd.metropolis_matrix(graph)
    if m <= STACK_NODES:
        powers, period = _powers(w.tobytes(), m), 64

        def mixed(chain, r):
            return in_order([powers[r - 1][:, j] * chain[j] for j in range(m)])
    else:
        slots = [[i] for i in range(m)]
        for u, v in graph.edges.tolist():
            slots[u].append(v)
            slots[v].append(u)
        slots = [[i, *sorted(rest)] for i, *rest in slots]
        period = 1

        def mixed(chain, r):
            return np.array([in_order([w[i, j] * chain[j] for j in slots[i]])
                             for i in range(m)])
    x = chain = np.asarray(x0, dtype=float)
    k = 0
    while True:
        yield x
        k += 1
        x = mixed(chain, (k - 1) % period + 1)
        if k % period == 0:
            chain = x


def reference_consensus_average(graph, x0, solver=dd.SolverConfig()):
    """consensus_average on reference_states, testing the stopping rule after every round."""
    tol, max_iter = solver.consensus_tol, solver.consensus_max_iter
    mode, window = solver.consensus_mode, solver.consensus_window
    target = np.asarray(x0, dtype=float).mean()
    hist = []
    for k, x in enumerate(reference_states(graph, x0)):
        hist = (hist + [x])[-(window + 1):]
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


@pytest.fixture(name="reference_consensus_average")
def _reference_consensus_average():
    return reference_consensus_average


def reference_solve_distributed(scenario, graph, solver=dd.SolverConfig()):
    """solve_distributed with the trace's statistics and both norms taken in every iteration.

    lambda0 is lam.mean() and lambda0_spread lam.max() - lam.min() of each
    iteration's multiplier copies, and rel_step divides the norm of the
    step by the norm of the previous powers, recomputed each time, each
    norm a loop adding the squares in index order.
    """
    m = scenario.M
    if graph.M != m:
        raise ValueError(f"graph has {graph.M} nodes for {m} sensors")
    pt = scenario.Pt
    levels = water_levels(scenario, scenario.U)
    consensus = Consensus(graph, solver)

    lam = np.full(m, solver.lambda0_init)
    p_prev = None
    state = None

    lams, prows, crows, rels, spreads = [], [], [], [], []

    def trace_so_far(converged):
        return dd.DualAscentTrace(
            k=np.arange(1, len(crows) + 1),
            lambda0=np.array(lams),
            powers=np.array(prows).reshape(len(prows), m),
            consensus_iters=np.array(crows, dtype=int),
            rel_step=np.array(rels),
            lambda0_spread=np.array(spreads),
            converged=converged,
        )

    for k in range(solver.outer_max_iter):
        p = dd.power_closed_form(lam, levels)
        x0 = p if state is None else state + (p - p_prev)
        try:
            cres = consensus.run(x0)
        except dd.ConsensusError as e:
            raise dd.ConvergenceError(f"outer iteration {k + 1}: {e}",
                                      trace=trace_so_far(False)) from e
        state = cres.values
        eps = lam if k == 0 else lam / k
        lam_used = float(lam.mean())
        lam = dd.dual_update(lam, cres.values, m, pt, eps)

        if p_prev is None:
            rel = float("nan")
        else:
            denom = math.sqrt(in_order([a * a for a in p_prev.tolist()]))
            step = (p - p_prev).tolist()
            rel = math.sqrt(in_order([a * a for a in step])) / denom if denom > 0 else float("nan")

        lams.append(lam_used)
        prows.append(p)
        crows.append(cres.iterations)
        rels.append(rel)
        spreads.append(float(lam.max() - lam.min()))

        if np.isfinite(rel) and rel <= solver.kappa:
            break
        p_prev = p
    else:
        raise dd.ConvergenceError(
            f"no convergence to kappa={solver.kappa} within {solver.outer_max_iter} "
            "outer iterations",
            trace=trace_so_far(False),
        )
    alloc = dd.PowerAllocation(p=p, lambda0=lam_used)
    residual = abs(alloc.total() - pt)
    if residual > 1e-3 * pt:
        raise dd.ConvergenceError(
            f"stopped at outer iteration {k + 1} on relative step {rel:.3e} <= "
            f"kappa={solver.kappa}, but |sum(p)-Pt|/Pt={residual / pt:.3e} exceeds 1e-3",
            trace=trace_so_far(False),
        )
    return alloc, trace_so_far(True)


@pytest.fixture(name="reference_solve_distributed")
def _reference_solve_distributed():
    return reference_solve_distributed


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
        p=dd.power_closed_form(lam, water_levels(scenario, scenario.U)), lambda0=lam)


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


# Library code that no run of the package reaches, kept here as the tests' reference:
# the sample-by-sample observations and the two statistics formed from them (the law
# the Monte Carlo pass's two-variate draw is checked against), SNR calibration of a
# built population, a quantizer half-range wide enough for the energy, the KKT audit
# of an allocation and the objective it maximizes, the complete graph and the
# edge-list reader.

def generate_observations(
    sensor: SensorParams,
    n: int,
    h1: bool,
    rng: np.random.Generator,
    trials: int = 1,
) -> np.ndarray:
    """Draw observation rows: (trials, n) for one sensor, (trials, M, n) for a population.

    h1 picks the hypothesis. Under H1 each sensor's known signal is added
    sample for sample, so n must match the stored signal length. The Monte
    Carlo pass draws the statistics' exact law from two variates per sensor
    and trial instead; this sample path, with energy_statistic and
    matched_filter_statistic, is the reference it is tested against.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    samples = np.shape(sensor.signal)[-1]
    if h1 and n != samples:
        raise ValueError(f"n={n} but sensor signal has {samples} samples")
    sd = np.sqrt(sensor.sigma2)
    # unit draws scaled in place: the same values as a per-sensor scale, drawn faster
    x = rng.normal(0.0, 1.0, size=(trials, *sd.shape, n))
    x *= sd[..., None]
    if h1:
        x += sensor.signal
    return x


def energy_statistic(x: np.ndarray) -> np.ndarray | float:
    """Sum of squares along the last axis; scalar for a 1-d input."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty observation vector")
    t = np.einsum("...n,...n->...", x, x)
    return float(t) if t.ndim == 0 else t


def calibrate_average_snr(sensors: SensorParams, target_xa_db: float) -> SensorParams:
    """Scale every signal by one common factor so mean(xi) hits a dB target.

    Per-sensor SNR ratios are preserved: xi scales with the square of
    the amplitude factor, so a single multiplier moves the average
    without reshuffling who is strong and who is weak. Raises ValueError
    when the current mean SNR or the target is not a finite positive float.
    """
    factor = _snr_factor(float(np.mean(sensors.xi)), target_xa_db)
    # a signal past float range becomes inf, which SensorParams rejects
    with np.errstate(over="ignore"):
        signal = sensors.signal * factor
    return SensorParams(sensors.sigma2, sensors.h, sensors.zeta, signal)


def matched_filter_statistic(x: np.ndarray, sensor) -> np.ndarray | float:
    """Correlation of the observation with the known signal.

    sensor is a SensorParams for one sensor, or for a population (a
    Scenario is one) whose (M, N) signals correlate with the last two
    axes of x.
    """
    s = sensor.signal
    if not np.any(s != 0.0):
        raise ValueError("all-zero signal: matched filter undefined")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != s.shape[-1]:
        raise ValueError("observation length must match the signal")
    t = np.einsum("...n,...n->...", x, s)
    return float(t) if t.ndim == 0 else t


def suggest_statistic_halfrange(sensors: SensorParams) -> float:
    """Half-range U wide enough that clipping at 2U is negligible.

    Covers the largest per-sensor H1 energy mean plus 8 standard
    deviations, then halves (the energy's quantizer window is [0, 2U]).
    """
    mom = Statistic.energy(sensors)
    return 0.5 * float(np.max(mom.mean_h1 + 8.0 * np.sqrt(mom.var_h1)))


def objective_value(powers: np.ndarray, scenario: Scenario) -> float:
    """The quantity the allocation maximizes: sum_i b_i^2 / R_ii(p_i).

    Equals the best deflection achievable with optimal weights at that
    allocation, which is what makes it the right figure of merit for
    randomized optimality audits.
    """
    spec = specs_for_allocation(powers, scenario.h, scenario.zeta, scenario.U)
    d = deflection_inputs(Statistic.energy(scenario), spec)
    return float(np.sum(d.b * d.b / d.R_diag))


@dataclass(frozen=True)
class KktReport:
    """Stationarity and feasibility audit of an allocation.

    stationarity_residuals holds gradient - lambda0 + mu per sensor,
    where mu is the implied multiplier of the p >= 0 constraint:
    mu = 0 for active sensors, mu = max(0, lambda0 - gradient) for
    censored ones. Every entry is 0 at an exact KKT point.
    """

    stationarity_residuals: np.ndarray
    max_abs_residual_active: float
    mu: np.ndarray
    budget_residual: float          # sum(p) - Pt
    complementary_slackness: float  # |lambda0 * (sum(p) - Pt)|
    budget_feasible: bool
    powers_nonnegative: bool


def kkt_check(alloc: PowerAllocation, scenario: Scenario) -> KktReport:
    """Evaluate the first-order conditions at an allocation from any solver, at scenario.Pt."""
    p = alloc.p
    if p.size != scenario.M:
        raise ValueError("allocation size does not match the scenario")
    pt = scenario.Pt
    lam = alloc.lambda0
    # d/dp of b^2 / R(p) with R = var_h1 + v(p) and v = U^2 / (3 (1 + p g)):
    # -b^2 v'(p) / R^2 = 3 g (b v / (U R))^2
    spec = specs_for_allocation(p, scenario.h, scenario.zeta, scenario.U)
    d = deflection_inputs(Statistic.energy(scenario), spec)
    v = spec.noise_var
    g = scenario.h * scenario.h / scenario.zeta
    raw = 3.0 * g * (d.b * v / (scenario.U * d.R_diag)) ** 2 - lam
    active = p > 0
    mu = np.where(active, 0.0, np.maximum(0.0, -raw))
    resid = raw + mu
    max_active = float(np.max(np.abs(resid[active]))) if np.any(active) else 0.0
    budget_residual = float(np.sum(p) - pt)
    return KktReport(
        stationarity_residuals=resid,
        max_abs_residual_active=max_active,
        mu=mu,
        budget_residual=budget_residual,
        complementary_slackness=abs(lam * budget_residual),
        budget_feasible=bool(np.sum(p) <= pt * (1.0 + BUDGET_RTOL)),
        powers_nonnegative=bool(np.all(p >= 0)),
    )


def complete_graph(m: int) -> Graph:
    return Graph(m, np.argwhere(np.triu(np.ones((m, m), dtype=bool), k=1)))


def load_edge_list(path, m: int | None = None) -> Graph:
    """Read a graph saved by save_edge_list.

    The format carries no vertex count, so M is inferred as the largest
    vertex index plus one; pass `m` explicitly for graphs with a
    trailing isolated index or for the single-vertex graph (empty file).
    """
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TopologyError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as e:
                raise TopologyError(f"{path}:{lineno}: {e}") from e
    if m is None:
        if not edges:
            raise TopologyError(f"{path}: empty edge list needs an explicit vertex count")
        m = int(np.max(edges)) + 1
    return Graph(m, edges)


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
