"""Monte Carlo detection experiments: thresholds and one sweep over budgets and targets.

Six schemes are compared: the energy detector with optimal or equal
combining weights crossed with optimal or equal power allocation, and
the matched-filter benchmark with optimal or equal power. One batch of
noise is shared by every scheme, budget and pfa of a sweep, and by both
hypotheses (common random numbers), so comparisons across them are not
washed out by independent sampling noise. Both local statistics depend
on a sensor's N white-Gaussian samples only through two numbers, the
noise along the known signal and the noise energy orthogonal to it, so
the batch holds those two variates per trial and sensor rather than N
samples (the exact law, not an approximation). The first does not
depend on N, so a sweep over window lengths draws it once for all of
them in its one pass; only the second is drawn per N. The statistics follow
in closed form and are quantized and fused by the quantize and fusion
stages; the tests keep the sample-by-sample path (observations and
both statistics formed from them) as the reference for that law. The two detectors
differ only in their model.Statistic record (moments, deflection
numerator, quantizer window and closed-form law), whose constructor is
one of a Scheme's three choice fields; planning, simulation and the
sweeps run one code path for both. sweep_budget is the one way an
estimate is made; run_trials (one operating point) and roc_curve (one
budget, a pfa grid) are one-scheme calls of it.

Thresholds come from an analytic Gaussian calibration, never from
empirical quantiles: the Monte Carlo run is an audit of the Gaussian
model, not a tautology. Each SchemePlan holds its senders (sensors
sending whole bits with a nonzero weight), their weights, and the H0
mean and variance of what the fusion center receives from them:
statistics clipped to the quantizer range and mapped to cell midpoints.
The threshold reads that law alone, which coincides with the plain
Gaussian one whenever clipping is negligible and bits are generous. The
reported pd_analytic stays the design-layer prediction at real-valued
bits, so the gap between the two layers is visible in the output
rather than hidden by construction.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fusion import (
    DegenerateFusionError,
    FusionMoments,
    FusionWeights,
    analytic_pd,
    deflection_inputs,
    equal_weights,
    fuse,
    fuse_plans,
    fusion_moments,
    optimal_weights,
    qfunc,
    qfunc_inv,
)
from .model import Scenario, Statistic, _exp, derive_stream
from .quantize import QuantSpec, quantize_array, specs_for_allocation
from .solver_central import solve_centralized

# not called here: bench/tracer.py wraps these three names, which now
# stand for the one weight rule, moment formula and quantizer of both statistics
matched_filter_weights, matched_filter_moments, quantize_centered = (
    optimal_weights, fusion_moments, quantize_array)

# floats in a chunk's widest (rows, trials) array, its rows the sensors or one
# statistic's quantized (sensor, bit load) rows, whichever are more: 128 KiB, which
# glibc serves from its heap rather than from fresh mmap pages faulted in for every
# chunk. A chunk holds at least 256 trials, so past 64 rows its arrays outgrow this
CHUNK_SAMPLES = 1 << 14
# cell probabilities (sensors x cells) held at a time by quantized_gaussian_moments
_CELL_BLOCK = 1 << 16


class Scheme(enum.Enum):
    """A detector the fusion center compares, as its three choices.

    statistic is the Statistic constructor of what the sensors send; the
    two flags pick equal weights and equal power over the optimal ones.
    value is the name: the results' `scheme` column and a config entry.
    """

    ED_opt_weights_opt_power = "ED_opt_weights_opt_power", Statistic.energy, False, False
    ED_opt_weights_equal_power = "ED_opt_weights_equal_power", Statistic.energy, False, True
    ED_equal_weights_opt_power = "ED_equal_weights_opt_power", Statistic.energy, True, False
    ED_equal_weights_equal_power = "ED_equal_weights_equal_power", Statistic.energy, True, True
    MFD_opt_power = "MFD_opt_power", Statistic.matched, False, False
    MFD_equal_power = "MFD_equal_power", Statistic.matched, False, True

    def __new__(cls, name: str, statistic, equal_combining: bool, equal_power: bool):
        scheme = object.__new__(cls)
        scheme._value_, scheme.statistic = name, statistic
        scheme.equal_combining, scheme.equal_power = equal_combining, equal_power
        return scheme


@dataclass(frozen=True)
class DetectionEstimate:
    """Empirical rates for one scheme at one operating point.

    pd_analytic is the design-layer prediction. n_transmit counts
    sensors that actually put bits on the air.
    """

    scheme: Scheme
    pfa_target: float
    pfa_hat: float
    pd_hat: float
    pd_analytic: float
    trials: int
    pt: float
    n_transmit: int

    def __post_init__(self):
        if not (0.0 <= self.pfa_hat <= 1.0 and 0.0 <= self.pd_hat <= 1.0):
            raise ValueError("empirical rates must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def sigma_binomial(self) -> float:
        """Normal-approximation error bar on pd_hat."""
        return math.sqrt(self.pd_hat * (1.0 - self.pd_hat) / self.trials)


def detection_threshold(mean_h0: float, var_h0: float, pfa: float) -> float:
    """Gaussian H0 threshold: N(mean_h0, var_h0) exceeds it with probability pfa."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must be in (0, 1)")
    if not var_h0 > 0:
        raise ValueError("var_h0 must be positive")
    return float(mean_h0 + qfunc_inv(pfa) * math.sqrt(var_h0))


def quantized_gaussian_moments(mu, var, bits_int, u: float, lo: float = 0.0):
    """Mean and variance of a midrise-quantized, clipped Gaussian.

    The input N(mu, var) is clipped to [lo, lo + 2U] and mapped to the
    midpoint of one of 2^bits_int uniform cells; end cells absorb the
    tails. Exact under the Gaussian assumption (cell-probability sums),
    with a continuous fallback above 16 bits where the cell count stops
    being worth enumerating: the input clipped to the outermost cell
    midpoints, plus delta^2/12 of rounding noise.

    Elementwise over arrays of mu, var and bits_int, one entry per
    sensor, returning two arrays; floats in, floats out. The cell grid
    is built once per distinct bit count.
    """
    mu, var, bits = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                        np.asarray(var, dtype=float), np.asarray(bits_int))
    if np.any(bits < 1):
        raise ValueError("need at least one bit")
    if not np.all(np.greater(var, 0)):
        raise ValueError("var must be positive")
    if not u > 0:
        raise ValueError("U must be positive")
    shape = mu.shape
    mu, bits = mu.ravel(), bits.ravel()
    sd = np.sqrt(var).ravel()
    mean, qvar = np.empty(mu.size), np.empty(mu.size)
    for b in np.unique(bits).tolist():
        idx = np.flatnonzero(bits == b)
        cells = 1 << b
        delta = 2.0 * u / cells
        if b > 16:
            mean_c, var_c = _clipped_gaussian_moments(mu[idx], sd[idx], lo + delta / 2.0,
                                                      lo + 2.0 * u - delta / 2.0)
            mean[idx], qvar[idx] = mean_c, var_c + delta * delta / 12.0
            continue
        inner = lo + delta * np.arange(1, cells)
        mids = lo + (np.arange(cells) + 0.5) * delta
        rows = max(1, _CELL_BLOCK // cells)
        for start in range(0, idx.size, rows):
            blk = idx[start:start + rows]
            cdf = qfunc((mu[blk, None] - inner) / sd[blk, None])
            probs = np.empty((blk.size, cells))
            probs[:, 0] = cdf[:, 0]
            probs[:, 1:-1] = np.diff(cdf, axis=1)
            probs[:, -1] = 1.0 - cdf[:, -1]
            m = np.sum(mids * probs, axis=1)
            second = np.sum(mids * mids * probs, axis=1)
            mean[blk], qvar[blk] = m, np.maximum(second - m * m, 0.0)
    if shape == ():
        return float(mean[0]), float(qvar[0])
    return mean.reshape(shape), qvar.reshape(shape)


def _clipped_gaussian_moments(mu, sd, lo: float, hi: float):
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    phi_a, phi_b = qfunc(-a), qfunc(-b)
    pdf_a = _exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    pdf_b = _exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
    dphi = phi_b - phi_a
    mean = lo * phi_a + hi * (1.0 - phi_b) + mu * dphi + sd * (pdf_a - pdf_b)
    second = (lo * lo * phi_a + hi * hi * (1.0 - phi_b)
              + (mu * mu + sd * sd) * dphi
              + 2.0 * mu * sd * (pdf_a - pdf_b)
              + sd * sd * (a * pdf_a - b * pdf_b))
    return mean, np.maximum(second - mean * mean, 0.0)


def equal_power(scenario: Scenario, pt: float | None = None) -> np.ndarray:
    pt = scenario.Pt if pt is None else pt
    return np.full(scenario.M, pt / scenario.M)


def powers_for_scheme(scenario: Scenario, scheme: Scheme, pt: float | None = None) -> np.ndarray:
    if scheme.equal_power:
        return equal_power(scenario, pt)
    return solve_centralized(scenario, pt).p


def weights_for_scheme(scheme: Scheme, statistic: Statistic, spec: QuantSpec) -> FusionWeights:
    """The scheme's combining weights for its statistic at the quantizers in spec."""
    if scheme.equal_combining:
        return equal_weights(spec.censored)
    return optimal_weights(deflection_inputs(statistic, spec))


@dataclass(frozen=True)
class SchemePlan:
    """Everything one scheme needs at one operating point; a silent plan sends nothing."""

    scenario: Scenario = field(repr=False)  # planned for; its N picks the window simulated
    scheme: Scheme
    pt: float
    statistic: Statistic            # what the scheme's sensors send
    powers: np.ndarray
    spec: QuantSpec                 # each sensor's quantizer at its power
    transmit: np.ndarray            # bool: spec.bits_int >= 1; all False if silent
    senders: np.ndarray             # indices of transmitting sensors with a nonzero weight
    sender_weights: FusionWeights | None  # the senders' design weights; None if silent
    design_moments: FusionMoments   # real-valued-bit analytic layer
    received_h0: tuple[float, float] | None  # (mean, var) of the received sum under H0

    @property
    def n_transmit(self) -> int:
        return int(np.sum(self.transmit))

    @property
    def degenerate(self) -> bool:
        return self.n_transmit == 0

    def threshold(self, pfa: float) -> float:
        """Decision level at target pfa; infinite when nobody transmits, so nothing alarms."""
        if self.received_h0 is None:
            return math.inf
        return detection_threshold(*self.received_h0, pfa)

    def pd_analytic(self, pfa: float) -> float:
        return analytic_pd(self.design_moments, pfa)


def plan_scheme(scenario: Scenario, scheme: Scheme, pt: float | None = None) -> SchemePlan:
    """Resolve powers, quantizers, senders, the design layer and the received H0 law.

    pt defaults to the scenario's budget. The statistic, the quantizer
    spec and the senders' weights are built once here and read by every
    later layer, the simulation included.
    """
    pt = scenario.Pt if pt is None else pt
    powers = powers_for_scheme(scenario, scheme, pt)
    spec = specs_for_allocation(powers, scenario.h, scenario.zeta, scenario.U)
    if np.all(spec.censored):
        raise DegenerateFusionError("all sensors censored: zero power everywhere")
    statistic = scheme.statistic(scenario, scenario.U)
    weights = weights_for_scheme(scheme, statistic, spec)
    design = fusion_moments(statistic, weights, spec)

    transmit = spec.bits_int >= 1   # zero power has zero capacity, so no whole bit
    senders = np.flatnonzero(transmit & (weights.alpha != 0.0))
    sender_weights = received_h0 = None
    if senders.size:
        a = weights.alpha[senders]
        e0, s0 = quantized_gaussian_moments(statistic.mean_h0[senders], statistic.var_h0[senders],
                                            spec.bits_int[senders], scenario.U, statistic.lo)
        # the received sum's H0 moments fuse the per-sensor ones, with weights a and a^2
        sender_weights, var_h0 = FusionWeights(a), fuse(s0, FusionWeights(a * a))
        if var_h0 > 0.0:
            received_h0 = (fuse(e0, sender_weights), var_h0)
    if received_h0 is None:   # nobody sends, or the received sum has no H0 spread: silent
        transmit = np.zeros(scenario.M, dtype=bool)
        senders, sender_weights = senders[:0], None

    return SchemePlan(
        scenario=scenario, scheme=scheme, pt=float(pt), statistic=statistic, powers=powers,
        spec=spec, transmit=transmit, senders=senders, sender_weights=sender_weights,
        design_moments=design, received_h0=received_h0,
    )


def simulate_plans(
    scenario: Scenario,
    plans: list[SchemePlan],
    thresholds: list[np.ndarray],
    trials: int,
    clip_counts: dict | None = None,
) -> list[np.ndarray]:
    """Count threshold exceedances for every plan over shared noise, in one pass.

    thresholds[j] is the threshold grid for plans[j]; counts[j] holds its
    exceedances under H0 (row 0) and H1 (row 1): the trials whose fused
    value is strictly above each threshold. The plans' scenarios
    (plan.scenario, one per window length N) may differ from scenario in
    N and their signals alone; its seed, M, U and noise powers fix the
    draw. Each sensor's N white-Gaussian noise samples enter both
    statistics only through g ~ N(0, 1), their projection on the unit
    signal direction, and R ~ chi2(N - 1), the energy left over,
    independent of g. The trials run in chunks sized so that the widest
    array the pass holds, one row per sensor or per quantized row, spans
    at most CHUNK_SAMPLES floats, and at least 256 trials a chunk. Per
    chunk, g is drawn once and R once per window length (_noise), so each
    N sees exactly the noise a pass at that N alone would draw, and each
    plan's statistic follows in closed form (Statistic.from_noise), under
    H0 and H1 from the same (g, R). Each (N, statistic, sensor, bit load)
    used by some plan is quantized once per hypothesis; the plans
    sending the same rows are fused together (fusion.fuse_plans),
    and all plans of one statistic are thresholded in one comparison,
    whose boolean temporary holds plans x levels x trials. Counts are
    integers summed in a fixed order, so a given seed is fully
    deterministic, whatever the chunk size or the other window lengths.

    clip_counts, if supplied, is filled with per-sensor counts of raw
    statistics falling outside the quantizer window, keyed by the window
    length N and the statistic's constructor (Scheme.statistic): a (4, M)
    array with rows below and above the window under H0, then below and
    above under H1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m, u = scenario.M, scenario.U

    counts = [np.zeros((2, len(thr)), dtype=np.int64) for thr in thresholds]
    # per window length N, its scenario and one table per statistic constructor: the
    # record (plans of one statistic built equal ones), the row of each (sensor, bit load)
    # sent in its quantized array, and the groups of plans fusing the same rows:
    # (senders, bits) -> (rows, [j])
    windows = {}
    for j, plan in enumerate(plans):
        if plan.degenerate:
            continue
        window = plan.scenario
        if window.N not in windows:
            if not ((window.seed, window.M, window.U) == (scenario.seed, m, u)
                    and np.array_equal(window.sigma2, scenario.sigma2)):
                raise ValueError("every plan's scenario must have the seed, M, U and "
                                 "noise powers of the draw")
            windows[window.N] = (window, {})
        elif windows[window.N][0] is not window:
            raise ValueError("the plans of one window length N must share one scenario")
        _, rows_of, groups = windows[window.N][1].setdefault(plan.scheme.statistic,
                                                             (plan.statistic, {}, {}))
        senders = plan.senders
        bits = plan.spec.bits_int[senders]
        key = (senders.tobytes(), bits.tobytes())
        if key not in groups:
            groups[key] = (np.array([rows_of.setdefault(cell, len(rows_of))
                                     for cell in zip(senders.tolist(), bits.tolist())]), [])
        groups[key][1].append(j)
    if not windows:
        return counts   # nothing to draw: nobody transmits
    # per N and statistic: its record, the sensor of each row, a (rows, 1) array of bit
    # loads, one (rows, weights) pair per group, and its plans' thresholds as
    # (plans, levels, 1), padded with inf, and exceedances as (2, plans, levels), the
    # plans in group order; counts[j] is plan j's part of them
    tables, widest = {}, m
    for n, (_, by_kind) in windows.items():
        tables[n] = {}
        for kind, (stat, rows_of, groups) in by_kind.items():
            cells = np.array(list(rows_of))
            widest = max(widest, len(cells))
            members = [j for _, group in groups.values() for j in group]
            levels = np.full((len(members), max(len(thresholds[j]) for j in members), 1),
                             np.inf)
            exceed = np.zeros((2, *levels.shape[:2]), dtype=np.int64)
            for p, j in enumerate(members):
                k = len(thresholds[j])
                levels[p, :k, 0] = thresholds[j]
                counts[j] = exceed[:, p, :k]
            fusing = [(rows, [plans[j].sender_weights for j in group])
                      for rows, group in groups.values()]
            tables[n][kind] = (stat, cells[:, 0], cells[:, 1:], fusing, levels, exceed)

    chunk_cap = max(256, CHUNK_SAMPLES // widest)
    # the keys fix every draw: changing them changes every results CSV. Each window
    # length gets its own instance of the R stream, the one a pass at that N alone uses
    rng_g = derive_stream(scenario.seed, "mc", "mc", 0)
    rng_r = {n: derive_stream(scenario.seed, "mc", "mc", 1) for n in tables}
    left = trials
    while left > 0:
        c = min(left, chunk_cap)
        left -= c
        for n, sg, rest in _noise(scenario, rng_g, rng_r, c):
            # one statistic and its quantized rows held at a time
            for hyp_idx, (kind, (stat, sensors, bits, groups, levels, exceed)) in \
                    itertools.product((0, 1), tables[n].items()):
                st = stat.from_noise(sg, rest, hyp_idx == 1)   # (sensors, trials)
                lo = stat.lo
                if clip_counts is not None:
                    tally = clip_counts.setdefault((n, kind), np.zeros((4, m), dtype=np.int64))
                    tally[2 * hyp_idx] += (st < lo).sum(axis=1)
                    tally[2 * hyp_idx + 1] += (st > lo + 2.0 * u).sum(axis=1)
                st = st[sensors]   # the rows some plan sends
                quantized = quantize_array(st, bits, u, lo)
                fused = np.concatenate([fuse_plans(quantized[rows], weights)
                                        for rows, weights in groups])
                exceed[hyp_idx] += np.add.reduce(fused[:, None] > levels, axis=2)
    return counts


def _noise(scenario: Scenario, rng_g: np.random.Generator, rng_r: dict, trials: int):
    """The two numbers each sensor's N noise samples enter both statistics through.

    With z the unit-variance samples and e = s / |s|, g = e . z ~ N(0, 1)
    is the noise along the signal and R = |z|^2 - g^2 ~ chi2(N - 1), the
    noise energy orthogonal to it, independent of g (white Gaussian
    noise is rotation-invariant; for an all-zero signal any direction
    will do). g does not depend on N: one (trials, M) batch is drawn from
    rng_g and shared by every window length. rng_r maps each window
    length N to its R stream, from which a (trials, M) batch of R is
    drawn when that N's turn comes, so consecutive batches continue every
    stream whatever their size. Yields (N, sigma g, sigma^2 R) per N,
    the two as (M, trials) arrays, which Statistic.from_noise turns into
    either statistic; R is 0, and nothing is drawn from N's stream, when
    N = 1.
    """
    m = scenario.M
    sg = rng_g.normal(0.0, 1.0, size=(trials, m)).T * np.sqrt(scenario.sigma2)[:, None]
    for n, rng in rng_r.items():
        if n == 1:
            yield n, sg, 0.0
            continue
        # chisquare(k) is 2 * standard_gamma(k / 2), draw for draw; scaling by 2 is exact,
        # so folding it into sigma^2 leaves every bit of sigma^2 R as chisquare's would be
        rest = rng.standard_gamma((n - 1) / 2.0, size=(trials, m))
        rest *= 2.0 * scenario.sigma2
        yield n, sg, rest.T


def run_trials(scenario: Scenario, scheme: Scheme, trials: int, pt: float | None = None,
               pfa: float | None = None) -> DetectionEstimate:
    """One scheme at one budget and one false-alarm target: a one-point sweep_budget.

    pt and pfa default to the scenario's Pt and Pfa.
    """
    pt = scenario.Pt if pt is None else pt
    pfa = scenario.Pfa if pfa is None else pfa
    return sweep_budget(scenario, [scheme], [pt], trials, pfa_grid=[pfa])[0]


def roc_curve(scenario: Scenario, scheme: Scheme, pfa_grid, trials: int) -> list[DetectionEstimate]:
    """One estimate per pfa grid point for one scheme at the scenario's budget.

    A one-budget sweep_budget: every threshold is evaluated against the
    same fused samples, so the empirical pd column is exactly
    nondecreasing in pfa.
    """
    return sweep_budget(scenario, [scheme], [scenario.Pt], trials, pfa_grid=pfa_grid)


def sweep_budget(
    scenario: Scenario | list[Scenario],
    schemes: list[Scheme],
    pt_grid,
    trials: int,
    diagnostics: list | None = None,
    pfa_grid=None,
) -> list[DetectionEstimate]:
    """All schemes across window lengths, power budgets and false-alarm targets, in one pass.

    scenario is one Scenario or a list of them, one per window length N
    of a sweep, in order: scenarios that differ in N and their signals
    alone, as make_scenario builds them at one seed, a repeated N
    repeating its scenario object. pfa_grid defaults to [Pfa] of the first.
    The observation streams are keyed independently of budget and scheme,
    and g independently of N, so all (N, budget, scheme) plans go through
    a single simulate_plans pass, each thresholded at every pfa, and pd
    curves move with the operating point alone. Estimates come in (N,
    budget, scheme, pfa) order. diagnostics, if given, gets one (plan,
    clip rates) pair per plan, the rates a (4, M) array with rows lo/hi
    under H0, then lo/hi under H1; clips are counted only then.
    """
    scenarios = [scenario] if isinstance(scenario, Scenario) else list(scenario)
    if not scenarios:
        raise ValueError("need at least one scenario")
    grid = [float(v) for v in pt_grid]
    if not grid or not all(v > 0 for v in grid):
        raise ValueError("pt grid values must be positive")
    pfas = [float(v) for v in ([scenarios[0].Pfa] if pfa_grid is None else pfa_grid)]
    if not pfas or any(not 0.0 < v < 1.0 for v in pfas):
        raise ValueError("pfa grid values must lie in (0, 1)")
    if sorted(pfas) != pfas:
        raise ValueError("pfa grid must be increasing")
    plans = [plan_scheme(sc, s, pt=pt) for sc in scenarios for pt in grid for s in schemes]
    clip = {} if diagnostics is not None else None
    thresholds = [np.array([p.threshold(v) for v in pfas]) for p in plans]
    counts = simulate_plans(scenarios[0], plans, thresholds, trials, clip)
    if diagnostics is not None:
        none = np.zeros((4, scenarios[0].M), dtype=np.int64)
        # a silent plan clips nothing
        diagnostics.extend(
            (p, (none if p.degenerate else clip.get((p.scenario.N, p.scheme.statistic), none))
             / trials)
            for p in plans)
    return [DetectionEstimate(scheme=p.scheme, pfa_target=v, pfa_hat=float(c[0, j]) / trials,
                              pd_hat=float(c[1, j]) / trials, pd_analytic=p.pd_analytic(v),
                              trials=trials, pt=p.pt, n_transmit=p.n_transmit)
            for p, c in zip(plans, counts) for j, v in enumerate(pfas)]
