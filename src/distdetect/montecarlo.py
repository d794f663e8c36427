"""Monte Carlo detection experiments: thresholds, trial runs, ROC and budget sweeps.

Six schemes are compared: the energy detector with optimal or equal
combining weights crossed with optimal or equal power allocation, and
the matched-filter benchmark with optimal or equal power. One batch of
raw observations is shared by every scheme in a run (common random
numbers), so scheme-to-scheme comparisons are not washed out by
independent sampling noise.

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
    fusion_moments,
    matched_filter_moments,
    matched_filter_weights,
    optimal_weights,
    qfunc_inv,
)
from .model import Scenario, StatisticMoments, derive_stream, statistic_moments
from .quantize import quantize_array, quantize_centered, specs_for_allocation
from .solver_central import solve_centralized


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
    """Gaussian H0 threshold: exceeded with probability pfa under the model.

    mean_offset is subtracted first so moments carrying the
    interval-center constant calibrate on the physical scale.
    """
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must be in (0, 1)")
    if moments.var_h0 <= 0:
        raise ValueError("var_h0 must be positive")
    return float(moments.mean_h0 - moments.mean_offset
                 + qfunc_inv(pfa) * math.sqrt(moments.var_h0))


def quantized_gaussian_moments(mu: float, var: float, bits_int: int, u: float,
                               lo: float = 0.0) -> tuple[float, float]:
    """Mean and variance of a midrise-quantized, clipped Gaussian.

    The input N(mu, var) is clipped to [lo, lo + 2U] and mapped to the
    midpoint of one of 2^bits_int uniform cells; end cells absorb the
    tails. Exact under the Gaussian assumption (cell-probability sums),
    with a continuous fallback above 16 bits where the cell count stops
    being worth enumerating.
    """
    if bits_int < 1:
        raise ValueError("need at least one bit")
    if var <= 0:
        raise ValueError("var must be positive")
    sd = math.sqrt(var)
    hi = lo + 2.0 * u
    if bits_int > 16:
        mean_c, var_c = _clipped_gaussian_moments(mu, sd, lo, hi)
        cells = 1 << bits_int
        delta = 2.0 * u / cells
        return mean_c, var_c + delta * delta / 12.0
    cells = 1 << bits_int
    delta = 2.0 * u / cells
    inner = lo + delta * np.arange(1, cells)
    cdf = special.ndtr((inner - mu) / sd)
    probs = np.empty(cells)
    probs[0] = cdf[0]
    probs[1:-1] = np.diff(cdf)
    probs[-1] = 1.0 - cdf[-1]
    mids = lo + (np.arange(cells) + 0.5) * delta
    mean = float(np.sum(mids * probs))
    second = float(np.sum(mids * mids * probs))
    return mean, max(second - mean * mean, 0.0)


def _clipped_gaussian_moments(mu: float, sd: float, lo: float, hi: float) -> tuple[float, float]:
    a = (lo - mu) / sd
    b = (hi - mu) / sd
    phi_a, phi_b = special.ndtr(a), special.ndtr(b)
    pdf_a = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    pdf_b = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
    dphi = phi_b - phi_a
    mean = lo * phi_a + hi * (1.0 - phi_b) + mu * dphi + sd * (pdf_a - pdf_b)
    second = (lo * lo * phi_a + hi * hi * (1.0 - phi_b)
              + (mu * mu + sd * sd) * dphi
              + 2.0 * mu * sd * (pdf_a - pdf_b)
              + sd * sd * (a * pdf_a - b * pdf_b))
    return mean, max(second - mean * mean, 0.0)


def clip_probabilities(mu: float, var: float, lo: float, hi: float) -> tuple[float, float]:
    """Model probabilities of the statistic landing below lo / above hi."""
    sd = math.sqrt(var)
    return float(special.ndtr((lo - mu) / sd)), float(1.0 - special.ndtr((hi - mu) / sd))


def equal_power(scenario: Scenario, pt: float | None = None) -> np.ndarray:
    pt = scenario.Pt if pt is None else pt
    return np.full(scenario.M, pt / scenario.M)


def powers_for_scheme(scenario: Scenario, scheme: Scheme, pt: float | None = None) -> np.ndarray:
    if scheme.equal_power:
        return equal_power(scenario, pt)
    return solve_centralized(scenario, pt).p


def weights_for_scheme(scenario: Scenario, scheme: Scheme, powers: np.ndarray) -> FusionWeights:
    censored = np.asarray(powers) == 0.0
    if scheme.matched_filter:
        return matched_filter_weights(scenario, powers)
    if scheme.equal_combining:
        return equal_weights(scenario.M, censored=censored)
    return optimal_weights(deflection_inputs(scenario, powers))


@dataclass(frozen=True)
class SchemePlan:
    """Everything one scheme needs at one operating point."""

    scheme: Scheme
    pt: float
    powers: np.ndarray
    weights: FusionWeights          # design-layer weights (censored entries 0)
    bits_real: np.ndarray
    bits_int: np.ndarray
    transmit: np.ndarray            # bool: p > 0 and bits_int >= 1
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
        if self.tx_moments is None:
            raise DegenerateFusionError("no transmitting sensors, no threshold to set")
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
    """Resolve powers, weights, bit budgets, and both moment layers for a scheme."""
    pt = scenario.Pt if pt is None else pt
    if powers is None:
        powers = powers_for_scheme(scenario, scheme, pt)
    powers = np.asarray(powers, dtype=float)
    if np.all(powers == 0.0):
        raise DegenerateFusionError("all sensors censored: zero power everywhere")
    if weights is None:
        weights = weights_for_scheme(scenario, scheme, powers)

    specs = specs_for_allocation(powers, scenario.h, scenario.zeta, scenario.U)
    bits_real = np.array([s.bits_real for s in specs])
    bits_int = np.array([s.bits_int for s in specs], dtype=int)
    transmit = (powers > 0.0) & (bits_int >= 1)
    alpha_tx = np.where(transmit, weights.alpha, 0.0)

    if scheme.matched_filter:
        design = matched_filter_moments(scenario, weights, powers)
    else:
        design = fusion_moments(scenario, weights, powers)

    tx_moments = None
    if np.any(transmit & (alpha_tx != 0.0)):
        mom = (StatisticMoments.matched(scenario.sigma2, scenario.es) if scheme.matched_filter
               else statistic_moments(scenario, scenario.N))
        lo = -scenario.U if scheme.matched_filter else 0.0
        m0 = v0 = m1 = v1 = 0.0
        for i in np.nonzero(transmit)[0]:
            a = float(alpha_tx[i])
            if a == 0.0:
                continue
            e0, s0 = quantized_gaussian_moments(float(mom.mean_h0[i]), float(mom.var_h0[i]),
                                                int(bits_int[i]), scenario.U, lo)
            e1, s1 = quantized_gaussian_moments(float(mom.mean_h1[i]), float(mom.var_h1[i]),
                                                int(bits_int[i]), scenario.U, lo)
            m0 += a * e0
            v0 += a * a * s0
            m1 += a * e1
            v1 += a * a * s1
        if v0 > 0.0:
            tx_moments = FusionMoments(mean_h0=m0, var_h0=v0, mean_h1=m1, var_h1=v1,
                                       psi=m1 - m0, mean_offset=0.0)
    if tx_moments is None:
        transmit = np.zeros(scenario.M, dtype=bool)
        alpha_tx = np.zeros(scenario.M)

    return SchemePlan(
        scheme=scheme, pt=float(pt), powers=powers, weights=weights,
        bits_real=bits_real, bits_int=bits_int, transmit=transmit,
        alpha_tx=alpha_tx, design_moments=design, tx_moments=tx_moments,
    )


@dataclass
class _PlanCounts:
    exceed_h0: np.ndarray   # per threshold
    exceed_h1: np.ndarray


def simulate_plans(
    scenario: Scenario,
    plans: list[SchemePlan],
    thresholds: list[np.ndarray],
    trials: int,
    hypotheses: tuple[bool, bool] = (True, True),
    clip_counts: dict | None = None,
) -> list[_PlanCounts]:
    """Count threshold exceedances for every plan over shared observations.

    thresholds[j] is the threshold grid for plans[j]. hypotheses flags
    (run_h0, run_h1). Observations come from one PRNG stream derived
    from the scenario seed and are drawn in chunks of bounded size;
    counts are integers summed in a fixed order, so a given seed is
    fully deterministic.

    clip_counts, if supplied, is filled with per-sensor counts of raw
    statistics falling outside the quantizer range, keyed by
    (kind, hyp) with kind in {"energy", "matched"}.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m, n = scenario.M, scenario.N
    sig = scenario.signal                                         # (M, N)
    sd = np.sqrt(scenario.sigma2)[:, None]                        # (M, 1)
    run_h0, run_h1 = hypotheses

    counts = [_PlanCounts(np.zeros(len(thr), dtype=np.int64),
                          np.zeros(len(thr), dtype=np.int64)) for thr in thresholds]
    kinds = {("matched" if p.scheme.matched_filter else "energy") for p in plans if not p.degenerate}

    chunk_cap = max(256, int(4_000_000 // max(m * n, 1)))
    # the key fixes every draw: changing it changes every results CSV
    rng = derive_stream(scenario.seed, "mc", "mc", 0)
    left = trials
    while left > 0:
        c = min(left, chunk_cap)
        left -= c
        noise = rng.normal(0.0, 1.0, size=(c, m, n)) * sd[None, :, :]
        for hyp_idx, run in ((0, run_h0), (1, run_h1)):
            if not run:
                continue
            x = noise if hyp_idx == 0 else noise + sig[None, :, :]
            stats = {}
            if "energy" in kinds:
                stats["energy"] = np.einsum("cmn,cmn->cm", x, x)
            if "matched" in kinds:
                stats["matched"] = np.einsum("cmn,mn->cm", x, sig)
            if clip_counts is not None:
                for kind, st in stats.items():
                    lo = -scenario.U if kind == "matched" else 0.0
                    hi = lo + 2.0 * scenario.U
                    key = (kind, hyp_idx)
                    if key not in clip_counts:
                        clip_counts[key] = np.zeros((2, m), dtype=np.int64)
                    clip_counts[key][0] += (st < lo).sum(axis=0)
                    clip_counts[key][1] += (st > hi).sum(axis=0)
            qcache: dict = {}
            for j, plan in enumerate(plans):
                if plan.degenerate:
                    continue
                kind = "matched" if plan.scheme.matched_filter else "energy"
                fused = np.zeros(c)
                for i in np.nonzero(plan.transmit)[0]:
                    a = float(plan.alpha_tx[i])
                    if a == 0.0:
                        continue
                    ck = (kind, i, int(plan.bits_int[i]))
                    if ck not in qcache:
                        col = stats[kind][:, i]
                        if kind == "matched":
                            qcache[ck] = quantize_centered(col, int(plan.bits_int[i]), scenario.U)
                        else:
                            qcache[ck] = quantize_array(col, int(plan.bits_int[i]), scenario.U)
                    fused += a * qcache[ck]
                exceed = (fused[:, None] > thresholds[j][None, :]).sum(axis=0)
                if hyp_idx == 0:
                    counts[j].exceed_h0 += exceed
                else:
                    counts[j].exceed_h1 += exceed
    return counts


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
    from .model import Hypothesis

    pfa = scenario.Pfa if pfa is None else pfa
    plan = plan_scheme(scenario, scheme, pt=pt, powers=powers, weights=weights)
    run_h0 = hypothesis in (None, Hypothesis.H0)
    run_h1 = hypothesis in (None, Hypothesis.H1)
    if plan.degenerate:
        # nobody transmits: the fusion center never alarms
        return DetectionEstimate(
            scheme=scheme, pfa_target=pfa,
            pfa_hat=0.0 if run_h0 else None,
            pd_hat=0.0 if run_h1 else None,
            pd_analytic=plan.pd_analytic(pfa), trials=trials,
            pt=plan.pt, n_transmit=0,
        )
    thr = np.array([plan.threshold(pfa)])
    (c,) = simulate_plans(scenario, [plan], [thr], trials, hypotheses=(run_h0, run_h1))
    return DetectionEstimate(
        scheme=scheme, pfa_target=pfa,
        pfa_hat=float(c.exceed_h0[0]) / trials if run_h0 else None,
        pd_hat=float(c.exceed_h1[0]) / trials if run_h1 else None,
        pd_analytic=plan.pd_analytic(pfa), trials=trials,
        pt=plan.pt, n_transmit=plan.n_transmit,
    )


def roc_curve(
    scenario: Scenario,
    powers: np.ndarray,
    weights: FusionWeights,
    scheme: Scheme,
    pfa_grid,
    trials: int,
) -> list[DetectionEstimate]:
    """One DetectionEstimate per pfa grid point, from a single simulation pass.

    All thresholds are evaluated against the same fused samples, so the
    empirical pd column is exactly nondecreasing in pfa.
    """
    grid = [float(v) for v in pfa_grid]
    if not grid or any(not 0.0 < v < 1.0 for v in grid):
        raise ValueError("pfa grid values must lie in (0, 1)")
    if sorted(grid) != grid:
        raise ValueError("pfa grid must be increasing")
    plan = plan_scheme(scenario, scheme, powers=powers, weights=weights)
    if plan.degenerate:
        return [DetectionEstimate(scheme=scheme, pfa_target=v, pfa_hat=0.0, pd_hat=0.0,
                                  pd_analytic=plan.pd_analytic(v), trials=trials,
                                  pt=plan.pt, n_transmit=0)
                for v in grid]
    thr = np.array([plan.threshold(v) for v in grid])
    (c,) = simulate_plans(scenario, [plan], [thr], trials)
    return [DetectionEstimate(scheme=scheme, pfa_target=v,
                              pfa_hat=float(c.exceed_h0[j]) / trials,
                              pd_hat=float(c.exceed_h1[j]) / trials,
                              pd_analytic=plan.pd_analytic(v), trials=trials,
                              pt=plan.pt, n_transmit=plan.n_transmit)
            for j, v in enumerate(grid)]


def sweep_budget(
    scenario: Scenario,
    schemes: list[Scheme],
    pt_grid,
    trials: int,
    diagnostics: list | None = None,
) -> list[DetectionEstimate]:
    """All schemes across a grid of power budgets at the scenario's target pfa.

    The observation stream is keyed independently of the budget, so
    every grid point sees the same data and pd curves move with the
    budget alone.
    """
    grid = [float(v) for v in pt_grid]
    if not grid or any(v <= 0 for v in grid):
        raise ValueError("pt grid values must be positive")
    out: list[DetectionEstimate] = []
    for pt in grid:
        plans = [plan_scheme(scenario, s, pt=pt) for s in schemes]
        live = [p for p in plans if not p.degenerate]
        thresholds = [np.array([p.threshold(scenario.Pfa)]) for p in live]
        clip: dict = {}
        counts = simulate_plans(scenario, live, thresholds, trials, clip_counts=clip)
        by_plan = dict(zip([id(p) for p in live], counts))
        for plan in plans:
            if plan.degenerate:
                out.append(DetectionEstimate(
                    scheme=plan.scheme, pfa_target=scenario.Pfa, pfa_hat=0.0, pd_hat=0.0,
                    pd_analytic=plan.pd_analytic(scenario.Pfa), trials=trials,
                    pt=pt, n_transmit=0))
            else:
                c = by_plan[id(plan)]
                out.append(DetectionEstimate(
                    scheme=plan.scheme, pfa_target=scenario.Pfa,
                    pfa_hat=float(c.exceed_h0[0]) / trials,
                    pd_hat=float(c.exceed_h1[0]) / trials,
                    pd_analytic=plan.pd_analytic(scenario.Pfa), trials=trials,
                    pt=pt, n_transmit=plan.n_transmit))
            if diagnostics is not None:
                diagnostics.append(_diagnostic_rows(scenario, plan, clip, trials))
    return out


def _diagnostic_rows(scenario: Scenario, plan: SchemePlan, clip: dict, trials: int) -> list[dict]:
    kind = "matched" if plan.scheme.matched_filter else "energy"
    rows = []
    for i in range(scenario.M):
        row = {
            "scheme": plan.scheme.value, "Pt": plan.pt, "sensor": i,
            "p": float(plan.powers[i]), "bits_real": float(plan.bits_real[i]),
            "bits_int": int(plan.bits_int[i]), "transmitting": bool(plan.transmit[i]),
        }
        for hyp in (0, 1):
            arr = clip.get((kind, hyp))
            if arr is None or trials == 0 or plan.degenerate:
                lo_rate = hi_rate = 0.0
            else:
                lo_rate = float(arr[0, i]) / trials
                hi_rate = float(arr[1, i]) / trials
            row[f"clip_lo_h{hyp}"] = lo_rate
            row[f"clip_hi_h{hyp}"] = hi_rate
        rows.append(row)
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_results_csv(path, rows: list[tuple[DetectionEstimate, int, int]]) -> None:
    """Rows are (estimate, N, M) triples.

    Pinned column order: scheme,Pt,N,M,pfa_target,pfa_hat,pd_hat,pd_analytic,trials,sigma_binomial.
    """
    header = "scheme,Pt,N,M,pfa_target,pfa_hat,pd_hat,pd_analytic,trials,sigma_binomial"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for e, n, m in rows:
            fields = [e.scheme.value, _fmt(e.pt), str(n), str(m), _fmt(e.pfa_target),
                      _fmt(e.pfa_hat), _fmt(e.pd_hat), _fmt(e.pd_analytic),
                      str(e.trials), _fmt(e.sigma_binomial())]
            fh.write(",".join(fields) + "\n")


def write_diagnostics_csv(path, diag_rows: list[list[dict]]) -> None:
    cols = ["scheme", "Pt", "sensor", "p", "bits_real", "bits_int", "transmitting",
            "clip_lo_h0", "clip_hi_h0", "clip_lo_h1", "clip_hi_h1"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rows in diag_rows:
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")
