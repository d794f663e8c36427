"""Linear fusion of quantized sensor statistics at the fusion center.

The fusion center forms T_f = sum_i alpha_i * t_hat_i and compares it
to a threshold. Everything analytic about that test lives here: the
Gaussian moments of the fused statistic, the detection probability at a
target false-alarm rate, the modified deflection coefficient, and the
weights that maximize it. A matched-filter variant of the per-sensor
statistic is included as the benchmark upper baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .model import Scenario, StatisticMoments, statistic_moments
from .quantize import quant_noise_var


class DegenerateFusionError(RuntimeError):
    """Every sensor is excluded; there is nothing to fuse."""


def qfunc(x):
    """Gaussian tail probability Q(x) = P(Z > x), vectorized."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def qfunc_inv(p):
    """Inverse of qfunc on (0, 1). Accurate to well below 1e-12 over (1e-10, 1-1e-10)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("qfunc_inv needs arguments strictly inside (0, 1)")
    out = -special.ndtri(p)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FusionWeights:
    """Combining coefficients. Censored sensors must carry exactly 0."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float).copy()
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alpha must be a nonempty 1-d vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("alpha must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def m(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class FusionMoments:
    """Gaussian moments of the fused statistic under both hypotheses.

    psi is the mean separation mean_h1 - mean_h0. The reported means
    carry a constant +U per weighted sensor (each quantizer midpoint
    representation is analyzed around the interval center); mean_offset
    records that constant so thresholding can place the decision level
    on the physical zero-mean-noise scale. psi is offset-free either
    way since the constant cancels in the difference.
    """

    mean_h0: float
    var_h0: float
    mean_h1: float
    var_h1: float
    psi: float
    mean_offset: float = 0.0


@dataclass(frozen=True)
class DeflectionInputs:
    """Per-sensor pieces of the deflection quotient.

    b_i is the mean separation contributed by sensor i, R_diag_i its
    H1 variance plus quantization noise. The censored mask marks
    sensors that transmit nothing; the weight formula alone cannot see
    that (it only sees an inflated noise variance), so the mask rides
    along to force their weights to zero.
    """

    b: np.ndarray
    R_diag: np.ndarray
    censored: np.ndarray = field(default=None)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        r = np.asarray(self.R_diag, dtype=float)
        if b.shape != r.shape or b.ndim != 1 or b.size < 1:
            raise ValueError("b and R_diag must be matching nonempty 1-d vectors")
        if np.any(r <= 0):
            raise ValueError("R_diag must be strictly positive")
        c = self.censored
        c = np.zeros(b.size, dtype=bool) if c is None else np.asarray(c, dtype=bool)
        if c.shape != b.shape:
            raise ValueError("censored mask must match b")
        for name, arr in (("b", b), ("R_diag", r), ("censored", c)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fuse(t_hat: np.ndarray, weights: FusionWeights) -> float | np.ndarray:
    """Weighted sum of the received statistics; a silent sensor carries weight 0.

    t_hat holds one statistic per sensor, or a (sensors, trials) array
    whose columns are fused into one value per trial. Either way the
    sensors are added one after another, in index order.
    """
    t = np.asarray(t_hat, dtype=float)
    a = weights.alpha
    if t.ndim not in (1, 2) or t.shape[0] != a.size:
        raise ValueError("t_hat and weights must have matching length")
    weighted = a[:, None] * t.reshape(a.size, -1)
    # numpy sums whole rows in order but a lone column pairwise, like a vector
    lone = weighted.shape[1] == 1
    fused = np.cumsum(weighted, axis=0)[-1] if lone else np.sum(weighted, axis=0)
    return float(fused[0]) if t.ndim == 1 else fused


def combined_moments(
    n: int,
    sigma2: np.ndarray,
    xi: np.ndarray,
    alpha: np.ndarray,
    noise_var: np.ndarray,
    u: float,
) -> FusionMoments:
    """Fused-statistic moments from per-sensor pieces.

    mean_h0 = sum alpha_i (N sigma_i^2 + U)
    mean_h1 = sum alpha_i (N sigma_i^2 (1 + xi_i) + U)
    var_h0  = sum alpha_i^2 (2 N sigma_i^4 + noise_var_i)
    var_h1  = sum alpha_i^2 (2 N sigma_i^4 (1 + 2 xi_i) + noise_var_i)
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    xi = np.asarray(xi, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    noise_var = np.asarray(noise_var, dtype=float)
    mom = StatisticMoments.energy(n, sigma2, xi)
    a2 = alpha * alpha
    mean_h0 = float(np.sum(alpha * (mom.mean_h0 + u)))
    mean_h1 = float(np.sum(alpha * (mom.mean_h1 + u)))
    var_h0 = float(np.sum(a2 * (mom.var_h0 + noise_var)))
    var_h1 = float(np.sum(a2 * (mom.var_h1 + noise_var)))
    psi = float(n * np.sum(alpha * sigma2 * xi))
    return FusionMoments(mean_h0, var_h0, mean_h1, var_h1, psi,
                         mean_offset=float(u * np.sum(alpha)))


def fusion_moments(scenario: Scenario, weights: FusionWeights, powers: np.ndarray) -> FusionMoments:
    """Moments of the fused energy statistic at a given power allocation.

    Quantization noise per sensor follows the capacity-matched model at
    the allocated power. Censored sensors (zero power) are excluded;
    their weights must already be zero.
    """
    p = np.asarray(powers, dtype=float)
    a = weights.alpha
    if p.size != scenario.M or a.size != scenario.M:
        raise ValueError("powers and weights must have one entry per sensor")
    censored = p == 0.0
    if np.any(a[censored] != 0.0):
        raise ValueError("censored sensors must have weight 0")
    noise_var = quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    alpha = np.where(censored, 0.0, a)
    return combined_moments(scenario.N, scenario.sigma2, scenario.xi,
                            alpha, noise_var, scenario.U)


def analytic_pd(moments: FusionMoments, pfa: float) -> float:
    """Detection probability of the Gaussian threshold test at target pfa."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must be in (0, 1)")
    if moments.var_h0 <= 0 or moments.var_h1 <= 0:
        raise ValueError("variances must be positive")
    num = qfunc_inv(pfa) * np.sqrt(moments.var_h0) - moments.psi
    return float(qfunc(num / np.sqrt(moments.var_h1)))


def deflection(weights: FusionWeights, inputs: DeflectionInputs) -> float:
    """Modified deflection coefficient (b . alpha)^2 / (alpha^T R alpha), R diagonal."""
    a = weights.alpha
    if a.size != inputs.b.size:
        raise ValueError("weights and inputs must have matching length")
    if np.all(a == 0.0):
        raise ValueError("all-zero weights")
    num = float(np.dot(inputs.b, a)) ** 2
    den = float(np.sum(a * a * inputs.R_diag))
    return num / den


def optimal_weights(inputs: DeflectionInputs) -> FusionWeights:
    """Deflection-maximizing weights alpha_i = b_i / R_diag_i, unnormalized.

    This is the rank-one eigenvector direction written componentwise.
    Censored sensors get exactly 0 regardless of the quotient.
    """
    a = inputs.b / inputs.R_diag
    a = np.where(inputs.censored, 0.0, a)
    return FusionWeights(a)


def equal_weights(m: int, censored: np.ndarray | None = None) -> FusionWeights:
    """Equal-combining baseline alpha_i = 1/sqrt(M), censored entries zeroed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a = np.full(m, 1.0 / np.sqrt(m))
    if censored is not None:
        a = np.where(np.asarray(censored, dtype=bool), 0.0, a)
    return FusionWeights(a)


def deflection_inputs(scenario: Scenario, powers: np.ndarray) -> DeflectionInputs:
    """Assemble b, R_diag, and the censor mask from a power allocation."""
    p = np.asarray(powers, dtype=float)
    if p.size != scenario.M:
        raise ValueError("powers must have one entry per sensor")
    n = scenario.N
    noise_var = quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    return DeflectionInputs(b=n * scenario.sigma2 * scenario.xi,
                            R_diag=statistic_moments(scenario, n).var_h1 + noise_var,
                            censored=(p == 0.0))


def matched_filter_statistic(x: np.ndarray, sensor) -> np.ndarray | float:
    """Correlation of the observation with the known signal.

    sensor is a SensorParams for one sensor, or a population
    SensorParams or Scenario whose (M, N) signals correlate with the
    last two axes of x.
    """
    s = sensor.signal
    if not np.any(s != 0.0):
        raise ValueError("all-zero signal: matched filter undefined")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != s.shape[-1]:
        raise ValueError("observation length must match the signal")
    t = np.einsum("...n,...n->...", x, s)
    return float(t) if t.ndim == 0 else t


def matched_filter_weights(scenario: Scenario, powers: np.ndarray) -> FusionWeights:
    """Benchmark combining rule alpha_i = Es_i / (sigma_i^2 Es_i + noise_var_i).

    Es_i is the signal energy sum(s_i^2). Censored sensors get 0.
    """
    p = np.asarray(powers, dtype=float)
    if p.size != scenario.M:
        raise ValueError("powers must have one entry per sensor")
    mom = StatisticMoments.matched(scenario.sigma2, scenario.es)
    nv = quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    return FusionWeights(np.where(p == 0.0, 0.0, mom.mean_h1 / (mom.var_h0 + nv)))


def matched_filter_moments(scenario: Scenario, weights: FusionWeights, powers: np.ndarray) -> FusionMoments:
    """Fused matched-filter moments: mean 0 / sum(alpha Es) and equal variances."""
    p = np.asarray(powers, dtype=float)
    a = weights.alpha
    mom = StatisticMoments.matched(scenario.sigma2, scenario.es)
    noise_var = quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
    alpha = np.where(p == 0.0, 0.0, a)
    var = float(np.sum(alpha ** 2 * (mom.var_h0 + noise_var)))
    psi = float(np.sum(alpha * mom.mean_h1))
    return FusionMoments(mean_h0=0.0, var_h0=var, mean_h1=psi, var_h1=var,
                         psi=psi, mean_offset=0.0)
