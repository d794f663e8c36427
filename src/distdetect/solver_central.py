"""Centralized power allocation: closed-form water filling plus a KKT audit.

The network-wide problem is to split a total transmit budget Pt across
sensors to maximize the best achievable deflection of the fused
detector, sum_i b_i^2 / R_ii(p_i). The problem separates per sensor
given the Lagrange multiplier lambda0 of the budget constraint, each
sensor's optimum has a closed form with a water-filling [.]+ clamp, and
the multiplier itself is found by bisection on the (strictly
decreasing) total power curve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import deflection_inputs
from .model import Scenario
from .quantize import quant_noise_var


class NoSignalError(ValueError):
    """Every sensor has xi = 0: the objective does not depend on power."""


class BisectionError(RuntimeError):
    """The multiplier search failed to meet the budget tolerance."""


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
        |sum(p) - Pt| whenever lambda0 > 0 (a positive multiplier means
        the budget constraint is active).
        """
        tot = self.total()
        if tot > pt + budget_rtol * pt:
            raise ValueError(f"budget violated: sum(p)={tot} > Pt={pt}")
        if self.lambda0 > 0 and abs(tot - pt) > slack_rtol * pt:
            raise ValueError(
                f"complementary slackness violated: |sum(p)-Pt|={abs(tot - pt)} with lambda0={self.lambda0}"
            )


def power_closed_form(lambda0, sensor, n: int, u: float):
    """Water-filling optimum of a sensor's power at multiplier lambda0.

    [ (1/sqrt(lambda0)) * xi U sqrt(3) / (6 sigma^2 (1+2xi) sqrt(g))
      - U^2 / (6 N sigma^4 (1+2xi) g) - 1/g ]+          with g = h^2/zeta

    sensor is one SensorParams or a whole Scenario, whose array fields
    give every sensor's power at once; lambda0 may be one multiplier
    or one per sensor. The clamp censors sensors whose channel or SNR
    cannot pay for even the constant terms; xi = 0 always lands at 0.
    """
    if np.any(np.less_equal(lambda0, 0)):
        raise ValueError("lambda0 must be positive")
    if n < 1 or u <= 0:
        raise ValueError("need n >= 1 and U > 0")
    g = sensor.h * sensor.h / sensor.zeta
    s2 = sensor.sigma2
    xi = sensor.xi
    one = 1.0 + 2.0 * xi
    t1 = xi * u * np.sqrt(3.0) / (6.0 * s2 * one * np.sqrt(g) * np.sqrt(lambda0))
    t2 = u * u / (6.0 * n * s2 * s2 * one * g)
    t3 = 1.0 / g
    return np.maximum(t1 - t2 - t3, 0.0)


def total_power(lambda0: float, scenario: Scenario) -> float:
    return float(np.sum(power_closed_form(lambda0, scenario, scenario.N, scenario.U)))


def allocation_powers(lambda0: float, scenario: Scenario) -> np.ndarray:
    return power_closed_form(lambda0, scenario, scenario.N, scenario.U)


def objective_value(powers: np.ndarray, scenario: Scenario) -> float:
    """The quantity the allocation maximizes: sum_i b_i^2 / R_ii(p_i).

    Equals the best deflection achievable with optimal weights at that
    allocation, which is what makes it the right figure of merit for
    randomized optimality audits.
    """
    d = deflection_inputs(scenario, powers)
    return float(np.sum(d.b * d.b / d.R_diag))


def solve_centralized(
    scenario: Scenario,
    pt: float | None = None,
    budget_rtol: float = 1e-9,
    max_bisect: int = 2000,
) -> PowerAllocation:
    """Find lambda0 by bisection so the closed-form powers spend exactly pt.

    Total power is continuous and strictly decreasing in lambda0
    wherever positive, diverges as lambda0 -> 0+ and dies to 0 as
    lambda0 -> inf, so a bracket always exists: halve from 1 until the
    total exceeds pt, double until it falls below.
    """
    if pt is None:
        pt = scenario.Pt
    if pt <= 0:
        raise ValueError("pt must be positive")
    if np.all(scenario.xi == 0.0):
        raise NoSignalError("all sensors have xi = 0; power does not affect the objective")

    lo = 1.0
    while total_power(lo, scenario) <= pt:
        lo *= 0.5
        if lo < 1e-300:
            raise BisectionError("no lower bracket: total power never exceeds the budget")
    hi = max(lo * 2.0, 1.0)
    while total_power(hi, scenario) >= pt:
        hi *= 2.0
        if hi > 1e300:
            raise BisectionError("no upper bracket: total power never falls below the budget")

    lam = 0.5 * (lo + hi)
    for _ in range(max_bisect):
        lam = 0.5 * (lo + hi)
        tot = total_power(lam, scenario)
        if abs(tot - pt) <= budget_rtol * pt:
            break
        if tot > pt:
            lo = lam
        else:
            hi = lam
    else:
        raise BisectionError(
            f"budget not met to {budget_rtol} relative after {max_bisect} bisections"
        )
    alloc = PowerAllocation(p=allocation_powers(lam, scenario), lambda0=lam)
    alloc.validate(pt, budget_rtol=budget_rtol)
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
    d = deflection_inputs(scenario, p)
    v = quant_noise_var(p, scenario.h, scenario.zeta, scenario.U)
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
