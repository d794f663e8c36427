"""Linear fusion of quantized sensor statistics at the fusion center.

The fusion center forms T_f = sum_i alpha_i * t_hat_i and compares it
to a threshold. Everything analytic about that test lives here: the
Gaussian moments of the fused statistic, the detection probability at a
target false-alarm rate, the modified deflection coefficient, and the
weights that maximize it. The moments and the weights read a
model.Statistic record and a quantize.QuantSpec, so the energy detector
and the matched-filter benchmark (the upper baseline) share one moment
formula and one weight rule, and the quantization noise and the
censored sensors come from the one rule that turns power into bits.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .model import Statistic
from .quantize import QuantSpec


# libm's erfc and the standard library's normal quantile, elementwise as model._exp
_erfc = np.vectorize(math.erfc, otypes=[float])
_inv_cdf = np.vectorize(statistics.NormalDist().inv_cdf, otypes=[float])


class DegenerateFusionError(RuntimeError):
    """Every sensor is excluded; there is nothing to fuse."""


def qfunc(x):
    """Gaussian tail probability Q(x) = P(Z > x), vectorized; the normal cdf is qfunc(-x)."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def qfunc_inv(p):
    """Inverse of qfunc on (0, 1). Accurate to well below 1e-12 over (1e-10, 1-1e-10)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("qfunc_inv needs arguments strictly inside (0, 1)")
    out = -_inv_cdf(p)
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


@dataclass(frozen=True)
class FusionMoments:
    """Gaussian moments of the fused statistic under both hypotheses.

    psi is the mean separation mean_h1 - mean_h0.
    """

    mean_h0: float
    var_h0: float
    mean_h1: float
    var_h1: float
    psi: float


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
        if not np.all(np.greater(r, 0)):
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
    if t.ndim not in (1, 2):
        raise ValueError("t_hat and weights must have matching length")
    fused = fuse_plans(t.reshape(t.shape[0], -1), [weights])[0]
    return float(fused[0]) if t.ndim == 1 else fused


def fuse_plans(t_hat: np.ndarray, weights) -> np.ndarray:
    """Each of several weight vectors fused over one (sensors, trials) array: (plans, trials).

    fuse's one rule, which fuse itself runs through: whatever t_hat's
    memory order, the weighted terms go into one C-contiguous
    (plans, sensors, trials) array, whose sensors are added one after
    another, in index order. Row p is fuse(t_hat, weights[p]) bit for bit.
    """
    t = np.asarray(t_hat, dtype=float)
    alphas = np.array([w.alpha for w in weights])
    if t.ndim != 2 or alphas.ndim != 2 or alphas.shape[1] != t.shape[0]:
        raise ValueError("t_hat and weights must have matching length")
    weighted = np.multiply(alphas[:, :, None], t, out=np.empty((len(alphas), *t.shape)))
    # numpy sums whole rows in order but a lone column pairwise, like a vector
    if t.shape[1] == 1:
        return np.cumsum(weighted, axis=1)[:, -1]
    return np.add.reduce(weighted, axis=1)


def fusion_moments(statistic: Statistic, weights: FusionWeights,
                   spec: QuantSpec) -> FusionMoments:
    """Moments of the fused statistic at the quantizers of a power allocation.

    statistic is the sensors' local statistic and spec their quantizers
    at the allocated powers. With noise_var_i = spec.noise_var_i:

    mean_h0 = sum alpha_i mean_h0_i
    mean_h1 = sum alpha_i mean_h1_i
    var_h0  = sum alpha_i^2 (var_h0_i + noise_var_i)
    var_h1  = sum alpha_i^2 (var_h1_i + noise_var_i)
    psi     = sum alpha_i b_i, as c sum alpha_i f1_i f2_i (Statistic.b_factors)

    Censored sensors (spec.censored) must already carry weight zero.
    """
    a = weights.alpha
    if spec.censored.shape != a.shape:
        raise ValueError("spec and weights must have one entry per sensor")
    if np.any(a[spec.censored] != 0.0):
        raise ValueError("censored sensors must have weight 0")
    a2 = a * a
    c, f1, f2 = statistic.b_factors
    return FusionMoments(mean_h0=float(np.sum(a * statistic.mean_h0)),
                         var_h0=float(np.sum(a2 * (statistic.var_h0 + spec.noise_var))),
                         mean_h1=float(np.sum(a * statistic.mean_h1)),
                         var_h1=float(np.sum(a2 * (statistic.var_h1 + spec.noise_var))),
                         psi=float(c * np.sum(a * f1 * f2)))


def analytic_pd(moments: FusionMoments, pfa: float) -> float:
    """Detection probability of the Gaussian threshold test at target pfa."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must be in (0, 1)")
    if not (moments.var_h0 > 0 and moments.var_h1 > 0):
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


def equal_weights(censored: np.ndarray) -> FusionWeights:
    """Equal-combining baseline alpha_i = 1/sqrt(M) for an (M,) censor mask, censored ones 0."""
    censored = np.asarray(censored, dtype=bool)
    if censored.ndim != 1 or censored.size < 1:
        raise ValueError("censored must be a nonempty (M,) mask")
    return FusionWeights(np.where(censored, 0.0, 1.0 / np.sqrt(censored.size)))


def deflection_inputs(statistic: Statistic, spec: QuantSpec) -> DeflectionInputs:
    """Assemble b, R_diag, and the censor mask at the quantizers of a power allocation.

    R_diag is the statistic's H1 variance plus the quantization noise, so
    optimal_weights gives b / (var_h1 + noise_var) for either statistic.
    """
    return DeflectionInputs(b=statistic.b, R_diag=statistic.var_h1 + spec.noise_var,
                            censored=spec.censored)
