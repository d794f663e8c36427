"""Monte Carlo detection experiments: thresholds, trial runs, ROC and budget sweeps.

Six schemes are compared: the energy detector with optimal or equal
combining weights crossed with optimal or equal power allocation, and
the matched-filter benchmark with optimal or equal power. One batch of
noise is shared by every scheme, budget and pfa of a sweep, and by both
hypotheses (common random numbers), so comparisons across them are not
washed out by independent sampling noise. Both local statistics depend
on a sensor's N white-Gaussian samples only through two numbers, the
noise along the known signal and the noise energy orthogonal to it, so
the batch holds those two variates per trial and sensor rather than N
samples (the exact law, not an approximation). The statistics follow
in closed form and are quantized and fused by the quantize and fusion
stages; model.generate_observations and the two statistic functions
remain the sample-by-sample reference for that law. The two detectors
differ only in their model.Statistic record (moments, deflection
numerator, quantizer window and closed-form law), which each scheme
names through Scheme.statistic; planning, simulation and the sweeps
run one code path for both.

Thresholds come from an analytic Gaussian calibration, never from
empirical quantiles: the Monte Carlo run is an audit of the Gaussian
model, not a tautology. Calibration uses the moments of what the
fusion center actually receives - per-sensor statistics clipped to the
quantizer range and mapped to cell midpoints at integer bit counts,
zero-bit sensors silent - which coincides with the plain Gaussian
moments whenever clipping is negligible and bits are generous. The
reported pd_analytic stays the design-layer prediction at real-valued
bits, so the gap between the two layers is visible in the output
rather than hidden by construction.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .fusion import (
    DegenerateFusionError,
    FusionMoments,
    FusionWeights,
    analytic_pd,
    deflection_inputs,
    equal_weights,
    fuse,
    fusion_moments,
    optimal_weights,
    qfunc_inv,
)
from .model import Hypothesis, Scenario, Statistic, _exp, derive_stream
from .quantize import QuantSpec, quantize_array, specs_for_allocation
from .solver_central import solve_centralized

# not called here: bench/tracer.py wraps these three names, which now
# stand for the one weight rule, moment formula and quantizer of both statistics
matched_filter_weights, matched_filter_moments, quantize_centered = (
    optimal_weights, fusion_moments, quantize_array)

# (trial, sensor) pairs drawn and simulated at a time: each (sensors, trials)
# float array is then 512 KiB; larger chunks ran no faster and held more memory
CHUNK_SAMPLES = 1 << 16
# cell probabilities (sensors x cells) held at a time by quantized_gaussian_moments
_CELL_BLOCK = 1 << 16


class Scheme(enum.Enum):
    ED_opt_weights_opt_power = "ED_opt_weights_opt_power"
    ED_opt_weights_equal_power = "ED_opt_weights_equal_power"
    ED_equal_weights_opt_power = "ED_equal_weights_opt_power"
    ED_equal_weights_equal_power = "ED_equal_weights_equal_power"
    MFD_opt_power = "MFD_opt_power"
    MFD_equal_power = "MFD_equal_power"

    @property
    def matched_filter(self) -> bool:
        return self.value.startswith("MFD")

    @property
    def equal_power(self) -> bool:
        return self.value.endswith("equal_power")

    @property
    def equal_combining(self) -> bool:
        return "equal_weights" in self.value

    @property
    def statistic(self):
        """The Statistic constructor of what this scheme's sensors send.

        Called as scheme.statistic(sensors, n, u), like either constructor.
        """
        return Statistic.matched if self.matched_filter else Statistic.energy


@dataclass(frozen=True)
class DetectionEstimate:
    """Empirical rates for one scheme at one operating point.

    pd_hat / pfa_hat are None when the corresponding hypothesis was not
    simulated. pd_analytic is the design-layer prediction. n_transmit
    counts sensors that actually put bits on the air.
    """

    scheme: Scheme
    pfa_target: float
    pfa_hat: float | None
    pd_hat: float | None
    pd_analytic: float
    trials: int
    pt: float
    n_transmit: int

    def __post_init__(self):
        for v in (self.pfa_hat, self.pd_hat):
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError("empirical rates must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def sigma_binomial(self) -> float:
        """Normal-approximation error bar on pd_hat (pfa_hat if pd was not run)."""
        p = self.pd_hat if self.pd_hat is not None else self.pfa_hat
        if p is None:
            return float("nan")
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)


def detection_threshold(moments: FusionMoments, pfa: float) -> float:
    """Gaussian H0 threshold: exceeded with probability pfa under the model."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must be in (0, 1)")
    if moments.var_h0 <= 0:
        raise ValueError("var_h0 must be positive")
    return float(moments.mean_h0 + qfunc_inv(pfa) * math.sqrt(moments.var_h0))


def quantized_gaussian_moments(mu, var, bits_int, u: float, lo: float = 0.0):
    """Mean and variance of a midrise-quantized, clipped Gaussian.

    The input N(mu, var) is clipped to [lo, lo + 2U] and mapped to the
    midpoint of one of 2^bits_int uniform cells; end cells absorb the
    tails. Exact under the Gaussian assumption (cell-probability sums),
    with a continuous fallback above 16 bits where the cell count stops
    being worth enumerating.

    Elementwise over arrays of mu, var and bits_int, one entry per
    sensor, returning two arrays; floats in, floats out. The cell grid
    is built once per distinct bit count.
    """
    mu, var, bits = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                        np.asarray(var, dtype=float), np.asarray(bits_int))
    if np.any(bits < 1):
        raise ValueError("need at least one bit")
    if np.any(var <= 0):
        raise ValueError("var must be positive")
    shape = mu.shape
    mu, bits = mu.ravel(), bits.ravel()
    sd = np.sqrt(var).ravel()
    mean, qvar = np.empty(mu.size), np.empty(mu.size)
    for b in np.unique(bits).tolist():
        idx = np.flatnonzero(bits == b)
        cells = 1 << b
        delta = 2.0 * u / cells
        if b > 16:
            mean_c, var_c = _clipped_gaussian_moments(mu[idx], sd[idx], lo, lo + 2.0 * u)
            mean[idx], qvar[idx] = mean_c, var_c + delta * delta / 12.0
            continue
        inner = lo + delta * np.arange(1, cells)
        mids = lo + (np.arange(cells) + 0.5) * delta
        rows = max(1, _CELL_BLOCK // cells)
        for start in range(0, idx.size, rows):
            blk = idx[start:start + rows]
            cdf = special.ndtr((inner - mu[blk, None]) / sd[blk, None])
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
    phi_a, phi_b = special.ndtr(a), special.ndtr(b)
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
        return equal_weights(spec.censored.size, censored=spec.censored)
    return optimal_weights(deflection_inputs(statistic, spec))


@dataclass(frozen=True)
class SchemePlan:
    """Everything one scheme needs at one operating point."""

    scheme: Scheme
    pt: float
    statistic: Statistic            # what the scheme's sensors send
    powers: np.ndarray
    weights: FusionWeights          # design-layer weights (censored entries 0)
    spec: QuantSpec                 # each sensor's quantizer at its power
    transmit: np.ndarray            # bool: spec.bits_int >= 1
    alpha_tx: np.ndarray            # design weights silenced outside transmit
    design_moments: FusionMoments   # real-valued-bit analytic layer
    tx_moments: FusionMoments | None  # what the fusion center receives; None if nobody transmits

    @property
    def n_transmit(self) -> int:
        return int(np.sum(self.transmit))

    @property
    def degenerate(self) -> bool:
        return self.n_transmit == 0

    def threshold(self, pfa: float) -> float:
        """Decision level at target pfa; infinite when nobody transmits, so nothing alarms."""
        if self.tx_moments is None:
            return math.inf
        return detection_threshold(self.tx_moments, pfa)

    def pd_analytic(self, pfa: float) -> float:
        return analytic_pd(self.design_moments, pfa)


def plan_scheme(
    scenario: Scenario,
    scheme: Scheme,
    pt: float | None = None,
    powers: np.ndarray | None = None,
    weights: FusionWeights | None = None,
) -> SchemePlan:
    """Resolve powers, weights, quantizers, and both moment layers for a scheme.

    The statistic and the quantizer spec are built once here and read by
    the weights, both moment layers and the simulation.
    """
    pt = scenario.Pt if pt is None else pt
    if powers is None:
        powers = powers_for_scheme(scenario, scheme, pt)
    powers = np.asarray(powers, dtype=float)
    spec = specs_for_allocation(powers, scenario.h, scenario.zeta, scenario.U)
    if np.all(spec.censored):
        raise DegenerateFusionError("all sensors censored: zero power everywhere")
    statistic = scheme.statistic(scenario, scenario.N, scenario.U)
    if weights is None:
        weights = weights_for_scheme(scheme, statistic, spec)

    transmit = spec.bits_int >= 1   # zero power has zero capacity, so no whole bit
    alpha_tx = np.where(transmit, weights.alpha, 0.0)
    design = fusion_moments(statistic, weights, spec)

    tx_moments = None
    senders = alpha_tx != 0.0   # transmitting, with a nonzero weight
    if np.any(senders):
        bits, a = spec.bits_int[senders], alpha_tx[senders]
        e0, s0 = quantized_gaussian_moments(statistic.mean_h0[senders], statistic.var_h0[senders],
                                            bits, scenario.U, statistic.lo)
        e1, s1 = quantized_gaussian_moments(statistic.mean_h1[senders], statistic.var_h1[senders],
                                            bits, scenario.U, statistic.lo)
        # the received sum's moments fuse the per-sensor ones, with weights a and a^2
        w, w2 = FusionWeights(a), FusionWeights(a * a)
        m0, m1, v0 = fuse(e0, w), fuse(e1, w), fuse(s0, w2)
        if v0 > 0.0:
            tx_moments = FusionMoments(mean_h0=m0, var_h0=v0, mean_h1=m1, var_h1=fuse(s1, w2),
                                       psi=m1 - m0)
    if tx_moments is None:
        transmit = np.zeros(scenario.M, dtype=bool)
        alpha_tx = np.zeros(scenario.M)

    return SchemePlan(
        scheme=scheme, pt=float(pt), statistic=statistic, powers=powers, weights=weights,
        spec=spec, transmit=transmit, alpha_tx=alpha_tx, design_moments=design,
        tx_moments=tx_moments,
    )


def simulate_plans(
    scenario: Scenario,
    plans: list[SchemePlan],
    thresholds: list[np.ndarray],
    trials: int,
    hypotheses: tuple[bool, bool] = (True, True),
    clip_counts: dict | None = None,
) -> list[np.ndarray]:
    """Count threshold exceedances for every plan over shared noise.

    thresholds[j] is the threshold grid for plans[j]; counts[j] holds its
    exceedances under H0 (row 0) and H1 (row 1). hypotheses flags
    (run_h0, run_h1). Each sensor's N white-Gaussian noise samples enter
    both statistics only through g ~ N(0, 1), their projection on the
    unit signal direction, and R ~ chi2(N - 1), the energy left over,
    independent of g. Per trial and sensor g and R are drawn from two
    PRNG streams derived from the scenario seed, in chunks of at most
    CHUNK_SAMPLES (trial, sensor) pairs, and each plan's statistic follows
    in closed form (Statistic.from_noise), under H0 and H1 from the same
    (g, R). Each chunk is
    drawn once, each (statistic, sensor, bit load) used by some plan is
    quantized once per hypothesis, and every plan fuses its senders'
    rows. Counts are integers summed in a fixed order, so a given seed
    is fully deterministic, whatever the chunk size.

    clip_counts, if supplied, is filled with per-sensor counts of raw
    statistics falling outside the quantizer window, keyed by the
    statistic's constructor (Scheme.statistic): a (4, M) array with rows
    below and above the window under H0, then below and above under H1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m, u = scenario.M, scenario.U

    counts = [np.zeros((2, len(thr)), dtype=np.int64) for thr in thresholds]
    hyps = [i for i, run in enumerate(hypotheses) if run]
    # a plan's kind is its statistic's constructor; plans of one kind built
    # equal records, so the first one stands for them all
    statistics: dict[object, Statistic] = {}
    # kind -> {(sensor, bit load): its row in that kind's quantized array}
    rows_of: dict[object, dict[tuple[int, int], int]] = {}
    # plans with the same statistic, senders and bit loads fuse the same quantized
    # rows: kind -> {(senders, bits): (senders, their rows, plans)}
    groups: dict[object, dict[tuple, tuple[np.ndarray, np.ndarray, list]]] = {}
    for j, plan in enumerate(plans):
        if plan.degenerate:
            continue
        kind = plan.scheme.statistic
        statistics.setdefault(kind, plan.statistic)
        senders = np.flatnonzero(plan.alpha_tx != 0.0)
        bits = plan.spec.bits_int[senders]
        key = (senders.tobytes(), bits.tobytes())
        if key not in groups.setdefault(kind, {}):
            index = rows_of.setdefault(kind, {})
            rows = [index.setdefault(cell, len(index))
                    for cell in zip(senders.tolist(), bits.tolist())]
            groups[kind][key] = (senders, np.array(rows), [])
        groups[kind][key][2].append((j, plan))
    if not groups or not hyps:
        return counts   # nothing to draw: nobody transmits, or no hypothesis is run
    # kind -> (sensor, bit load) of each row, in row order
    quantized_rows = {kind: (np.array([i for i, _ in index]), np.array([[b] for _, b in index]))
                      for kind, index in rows_of.items()}

    chunk_cap = max(256, CHUNK_SAMPLES // m)
    # the keys fix every draw: changing them changes every results CSV
    rng_g = derive_stream(scenario.seed, "mc", "mc", 0)
    rng_r = derive_stream(scenario.seed, "mc", "mc", 1)
    left = trials
    while left > 0:
        c = min(left, chunk_cap)
        left -= c
        sg, rest = _noise(scenario, rng_g, rng_r, c)
        # one statistic and its quantized rows held at a time
        for hyp_idx, (kind, (sensors, bits)) in itertools.product(hyps, quantized_rows.items()):
            st = statistics[kind].from_noise(sg, rest, hyp_idx == 1)   # (sensors, trials)
            lo = statistics[kind].lo
            if clip_counts is not None:
                tally = clip_counts.setdefault(kind, np.zeros((4, m), dtype=np.int64))
                tally[2 * hyp_idx] += (st < lo).sum(axis=1)
                tally[2 * hyp_idx + 1] += (st > lo + 2.0 * u).sum(axis=1)
            quantized = quantize_array(st[sensors], bits, u, lo)
            del st
            for senders, rows, members in groups[kind].values():
                q = quantized[rows]
                for j, plan in members:
                    fused = fuse(q, FusionWeights(plan.alpha_tx[senders]))
                    counts[j][hyp_idx] += (fused[:, None] > thresholds[j][None, :]).sum(axis=0)
    return counts


def _noise(scenario: Scenario, rng_g: np.random.Generator, rng_r: np.random.Generator,
           trials: int) -> tuple[np.ndarray, np.ndarray | float]:
    """The two numbers each sensor's N noise samples enter both statistics through.

    With z the unit-variance samples and e = s / |s|, g = e . z ~ N(0, 1)
    is the noise along the signal and R = |z|^2 - g^2 ~ chi2(N - 1), the
    noise energy orthogonal to it, independent of g (white Gaussian
    noise is rotation-invariant; for an all-zero signal any direction
    will do). Draws a (trials, M) batch of each, g from rng_g and R from
    rng_r, so consecutive batches continue both streams whatever their
    size. Returns sigma g and sigma^2 R as (M, trials) arrays, which
    Statistic.from_noise turns into either statistic; R is 0, and nothing
    is drawn from rng_r, when N = 1.
    """
    m, n = scenario.M, scenario.N
    sg = rng_g.normal(0.0, 1.0, size=(trials, m)).T * np.sqrt(scenario.sigma2)[:, None]
    if n == 1:
        return sg, 0.0
    return sg, rng_r.chisquare(n - 1, size=(trials, m)).T * scenario.sigma2[:, None]


def run_trials(
    scenario: Scenario,
    powers: np.ndarray,
    weights: FusionWeights,
    scheme: Scheme,
    trials: int,
    hypothesis=None,
    pfa: float | None = None,
    pt: float | None = None,
) -> DetectionEstimate:
    """Simulate one scheme at one operating point with given powers and weights.

    hypothesis restricts simulation to model.Hypothesis.H0 or .H1; the
    default None runs both. The un-simulated rate comes back as None.
    """
    pfa = scenario.Pfa if pfa is None else pfa
    plan = plan_scheme(scenario, scheme, pt=pt, powers=powers, weights=weights)
    hypotheses = (hypothesis in (None, Hypothesis.H0), hypothesis in (None, Hypothesis.H1))
    return _simulate(scenario, [plan], [pfa], trials, hypotheses=hypotheses)[0]


def roc_curve(
    scenario: Scenario,
    powers: np.ndarray,
    weights: FusionWeights,
    scheme: Scheme,
    pfa_grid,
    trials: int,
) -> list[DetectionEstimate]:
    """One DetectionEstimate per pfa grid point for one scheme with given powers and weights.

    All thresholds are evaluated against the same fused samples of one
    simulation pass, so the empirical pd column is exactly nondecreasing
    in pfa. sweep_budget does the same for many schemes and budgets at once.
    """
    grid = _pfa_grid(pfa_grid)
    plan = plan_scheme(scenario, scheme, powers=powers, weights=weights)
    return _simulate(scenario, [plan], grid, trials)


def sweep_budget(
    scenario: Scenario,
    schemes: list[Scheme],
    pt_grid,
    trials: int,
    diagnostics: list | None = None,
    pfa_grid=None,
) -> list[DetectionEstimate]:
    """All schemes across a grid of power budgets and a grid of false-alarm targets.

    pfa_grid defaults to [scenario.Pfa]. The observation stream is keyed
    independently of budget and scheme, so all (budget, scheme) plans go
    through a single simulate_plans pass on one batch, each thresholded
    at every pfa, and pd curves move with the operating point alone.
    Estimates come in (budget, scheme, pfa) order. diagnostics, if given,
    gets one (plan, clip rates) pair per plan, the rates a (4, M) array
    with rows lo/hi under H0, then lo/hi under H1; clips are counted only then.
    """
    grid = [float(v) for v in pt_grid]
    if not grid or any(v <= 0 for v in grid):
        raise ValueError("pt grid values must be positive")
    pfas = _pfa_grid([scenario.Pfa] if pfa_grid is None else pfa_grid)
    plans = [plan_scheme(scenario, s, pt=pt) for pt in grid for s in schemes]
    clip = {} if diagnostics is not None else None
    ests = _simulate(scenario, plans, pfas, trials, clip_counts=clip)
    if diagnostics is not None:
        none = np.zeros((4, scenario.M), dtype=np.int64)
        # a silent plan clips nothing
        diagnostics.extend(
            (p, (none if p.degenerate else clip.get(p.scheme.statistic, none)) / trials)
            for p in plans)
    return ests


def _pfa_grid(values) -> list[float]:
    grid = [float(v) for v in values]
    if not grid or any(not 0.0 < v < 1.0 for v in grid):
        raise ValueError("pfa grid values must lie in (0, 1)")
    if sorted(grid) != grid:
        raise ValueError("pfa grid must be increasing")
    return grid


def _simulate(scenario: Scenario, plans: list[SchemePlan], pfas: list[float], trials: int,
              hypotheses: tuple[bool, bool] = (True, True),
              clip_counts: dict | None = None) -> list[DetectionEstimate]:
    """Every plan at every pfa from one simulate_plans pass, in (plan, pfa) order.

    A hypothesis that was not run reports None.
    """
    thresholds = [np.array([p.threshold(v) for v in pfas]) for p in plans]
    counts = simulate_plans(scenario, plans, thresholds, trials, hypotheses, clip_counts)
    run_h0, run_h1 = hypotheses
    return [DetectionEstimate(scheme=p.scheme, pfa_target=v,
                              pfa_hat=float(c[0, j]) / trials if run_h0 else None,
                              pd_hat=float(c[1, j]) / trials if run_h1 else None,
                              pd_analytic=p.pd_analytic(v), trials=trials, pt=p.pt,
                              n_transmit=p.n_transmit)
            for p, c in zip(plans, counts) for j, v in enumerate(pfas)]

