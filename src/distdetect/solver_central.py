"""Centralized power allocation: closed-form water filling plus a KKT audit.

The network-wide problem is to split a total transmit budget Pt across
sensors to maximize the best achievable deflection of the fused
detector, sum_i b_i^2 / R_ii(p_i). The problem separates per sensor
given the Lagrange multiplier lambda0 of the budget constraint, and
each sensor's optimum has a closed form with a water-filling [.]+
clamp. Total power is piecewise linear in the water level
lambda0^(-1/2), so the multiplier is found exactly by sorting the
breakpoints (Palomar & Fonollosa, "Practical algorithms for a family
of waterfilling solutions", IEEE TSP 53(2), 2005).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import deflection_inputs
from .model import Scenario, Statistic
from .quantize import specs_for_allocation


class NoSignalError(ValueError):
    """Every sensor has xi = 0: the objective does not depend on power."""


class ScaleError(ValueError):
    """The closed form's coefficients or water level overflow or underflow float64."""


@dataclass(frozen=True)
class PowerAllocation:
    """Per-sensor powers plus the dual variable they came from.

    Feasibility and complementary slackness are checked by validate(),
    not at construction: diagnostic tools legitimately build
    allocations that violate them (e.g. an all-zero allocation with a
    huge multiplier) to probe the KKT checker.
    """

    p: np.ndarray
    lambda0: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).copy()
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("p must be finite")
        if np.any(p < 0):
            raise ValueError("powers must be nonnegative")
        if not (self.lambda0 > 0):
            raise ValueError("lambda0 must be positive")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def total(self) -> float:
        return float(np.sum(self.p))

    def validate(self, pt: float, budget_rtol: float = 1e-9, slack_rtol: float = 1e-6) -> None:
        """Raise unless the allocation is budget-feasible and slack-consistent.

        budget_rtol bounds sum(p) - Pt from above; slack_rtol bounds
        |sum(p) - Pt|, since lambda0 > 0 means the budget constraint is
        active.
        """
        tot = self.total()
        if tot > pt + budget_rtol * pt:
            raise ValueError(f"budget violated: sum(p)={tot} > Pt={pt}")
        if abs(tot - pt) > slack_rtol * pt:
            raise ValueError(
                f"complementary slackness violated: |sum(p)-Pt|={abs(tot - pt)} with lambda0={self.lambda0}"
            )


def _closed_form_terms(sensor, n: int, u: float):
    """num, den, t2, t3 of the closed form p = [num / (den sqrt(lambda0)) - t2 - t3]+."""
    if n < 1 or u <= 0:
        raise ValueError("need n >= 1 and U > 0")
    g = sensor.h * sensor.h / sensor.zeta
    s2 = sensor.sigma2
    xi = sensor.xi
    one = 1.0 + 2.0 * xi
    num = xi * u * np.sqrt(3.0)
    den = 6.0 * s2 * one * np.sqrt(g)
    t2 = u * u / (6.0 * n * s2 * s2 * one * g)
    t3 = 1.0 / g
    return num, den, t2, t3


def power_closed_form(lambda0, sensor, n: int, u: float):
    """Water-filling optimum of a sensor's power at multiplier lambda0.

    [ (1/sqrt(lambda0)) * xi U sqrt(3) / (6 sigma^2 (1+2xi) sqrt(g))
      - U^2 / (6 N sigma^4 (1+2xi) g) - 1/g ]+          with g = h^2/zeta

    sensor is a SensorParams for one sensor, or a population
    SensorParams or Scenario, whose array fields give every sensor's
    power at once; lambda0 may be one multiplier or one per sensor. The clamp censors sensors whose channel or SNR
    cannot pay for even the constant terms; xi = 0 always lands at 0.
    """
    if np.any(np.less_equal(lambda0, 0)):
        raise ValueError("lambda0 must be positive")
    num, den, t2, t3 = _closed_form_terms(sensor, n, u)
    return np.maximum(num / (den * np.sqrt(lambda0)) - t2 - t3, 0.0)


def total_power(lambda0: float, scenario: Scenario) -> float:
    return float(np.sum(power_closed_form(lambda0, scenario, scenario.N, scenario.U)))


def objective_value(powers: np.ndarray, scenario: Scenario) -> float:
    """The quantity the allocation maximizes: sum_i b_i^2 / R_ii(p_i).

    Equals the best deflection achievable with optimal weights at that
    allocation, which is what makes it the right figure of merit for
    randomized optimality audits.
    """
    spec = specs_for_allocation(powers, scenario.h, scenario.zeta, scenario.U)
    d = deflection_inputs(Statistic.energy(scenario, scenario.N), spec)
    return float(np.sum(d.b * d.b / d.R_diag))


def solve_centralized(scenario: Scenario, pt: float | None = None) -> PowerAllocation:
    """Water-fill exactly pt by sorting the breakpoints of total power.

    With s = lambda0^(-1/2), sensor i gets a_i [s - b_i]+, where a = num / den
    and b = (t2 + t3) / a, so total power is piecewise linear in s. At the
    k-th smallest breakpoint the power spent is
    spent_k = spent_{k-1} + A_{k-1} (b_k - b_{k-1}), A the running sum of a;
    the last k with spent_k < pt fixes the active set and
    s - b_k = (pt - spent_k) / A_k. Active powers a_i ((s - b_k) + (b_k - b_i))
    cancel no large terms. Sensors with a_i = 0 (xi = 0) never transmit.
    Raises ScaleError when a, b or the water level are not finite floats.
    """
    if pt is None:
        pt = scenario.Pt
    if pt <= 0:
        raise ValueError("pt must be positive")
    if np.all(scenario.xi == 0.0):
        raise NoSignalError("all sensors have xi = 0; power does not affect the objective")

    with np.errstate(all="ignore"):  # out-of-range values are caught below
        num, den, t2, t3 = _closed_form_terms(scenario, scenario.N, scenario.U)
        a = num / den
        cand = np.flatnonzero(a > 0)
        b = (t2 + t3)[cand] / a[cand]
        if not (cand.size and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ScaleError("the closed form's coefficients are not finite positive floats")
        order = np.argsort(b, kind="stable")
        idx, b = cand[order], b[order]
        a_sum = np.cumsum(a[idx])
        spent = np.concatenate(([0.0], np.cumsum(a_sum[:-1] * np.diff(b))))
        k = int(np.searchsorted(spent, pt)) - 1
        level = (pt - spent[k]) / a_sum[k]
        s = b[k] + level
        lam = 1.0 / (s * s)
        p = np.zeros(scenario.M)
        p[idx[:k + 1]] = a[idx[:k + 1]] * (level + (b[k] - b[:k + 1]))
    if not (0.0 < lam < np.inf and np.all(np.isfinite(p))):
        raise ScaleError(f"the water level for Pt={pt} is not a finite float")
    alloc = PowerAllocation(p=p, lambda0=float(lam))
    alloc.validate(pt)
    return alloc


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
    lambda0: float


def kkt_check(
    alloc: PowerAllocation,
    scenario: Scenario,
    pt: float | None = None,
    budget_rtol: float = 1e-9,
) -> KktReport:
    """Evaluate the first-order conditions at an allocation from any solver."""
    p = alloc.p
    if p.size != scenario.M:
        raise ValueError("allocation size does not match the scenario")
    if pt is None:
        pt = scenario.Pt
    lam = alloc.lambda0
    # d/dp of b^2 / R(p) with R = var_h1 + v(p) and v = U^2 / (3 (1 + p g)):
    # -b^2 v'(p) / R^2 = 3 g (b v / (U R))^2
    spec = specs_for_allocation(p, scenario.h, scenario.zeta, scenario.U)
    d = deflection_inputs(Statistic.energy(scenario, scenario.N), spec)
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
        budget_feasible=bool(np.sum(p) <= pt * (1.0 + budget_rtol)),
        powers_nonnegative=bool(np.all(p >= 0)),
        lambda0=lam,
    )
