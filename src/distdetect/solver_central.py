"""Centralized power allocation: closed-form water filling and its exact solve.

The network-wide problem is to split a total transmit budget Pt across
sensors to maximize the best achievable deflection of the fused
detector, sum_i b_i^2 / R_ii(p_i). The problem separates per sensor
given the Lagrange multiplier lambda0 of the budget constraint, and
each sensor's optimum is a_i [s - b_i]+ at the water level
s = lambda0^(-1/2), (a_i, b_i) its water_levels record. Total power is
then piecewise linear in s, so the multiplier is found exactly by
sorting the breakpoints b_i (Palomar & Fonollosa, "Practical algorithms
for a family of waterfilling solutions", IEEE TSP 53(2), 2005); the
distributed solver reads the same record at each node's multiplier copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Scenario


# relative tolerances of the budget audits: overspending, and missing the budget
BUDGET_RTOL, SLACK_RTOL = 1e-9, 1e-6


class NoSignalError(ValueError):
    """Every sensor has xi = 0: the objective does not depend on power."""


class ScaleError(ValueError):
    """The closed form's coefficients or water level overflow or underflow float64."""


@dataclass(frozen=True)
class PowerAllocation:
    """Per-sensor powers plus the dual variable they came from.

    Feasibility and complementary slackness are checked by validate(),
    not at construction: the distributed solve stops within 1e-3 of the
    budget, not within SLACK_RTOL, and an audit may build an allocation
    that violates both on purpose (all-zero powers at a huge multiplier).
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

    def validate(self, pt: float) -> None:
        """Raise unless the allocation is budget-feasible and slack-consistent.

        BUDGET_RTOL bounds sum(p) - Pt from above; SLACK_RTOL bounds
        |sum(p) - Pt|, since lambda0 > 0 means the budget constraint is
        active.
        """
        tot = self.total()
        if tot > pt + BUDGET_RTOL * pt:
            raise ValueError(f"budget violated: sum(p)={tot} > Pt={pt}")
        if abs(tot - pt) > SLACK_RTOL * pt:
            raise ValueError(
                f"complementary slackness violated: |sum(p)-Pt|={abs(tot - pt)} with lambda0={self.lambda0}"
            )


def water_levels(sensor, u: float):
    """Water-filling record (a, b): the power at level s = lambda0^(-1/2) is a [s - b]+.

    With g = h^2 / zeta and N the signal's length, a = xi U sqrt(3) /
    (6 sigma^2 (1+2xi) sqrt(g)) and b = (U^2 / (6 N sigma^4 (1+2xi) g) + 1/g) / a,
    elementwise over a population; xi = 0 gives a = 0 and b = inf, no power at any level.
    """
    if not u > 0:
        raise ValueError("need U > 0")
    n = sensor.signal.shape[-1]
    g = sensor.h * sensor.h / sensor.zeta
    s2, xi = sensor.sigma2, sensor.xi
    one = 1.0 + 2.0 * xi
    a = xi * u * np.sqrt(3.0) / (6.0 * s2 * one * np.sqrt(g))
    offset = u * u / (6.0 * n * s2 * s2 * one * g) + 1.0 / g
    return a, np.divide(offset, a, out=np.full_like(a, np.inf), where=a > 0)[()]


def power_closed_form(lambda0, levels):
    """Water-filling optimum of sensor power at multiplier lambda0: a [lambda0^(-1/2) - b]+.

    levels is the water_levels record (a, b) of one sensor, or of a
    population such as a Scenario, whose arrays give every sensor's power
    at once. lambda0 may be one multiplier or one per sensor. The clamp
    censors sensors whose channel or SNR cannot pay for even the constant
    terms; xi = 0 (a = 0, b = inf) always lands at 0.
    """
    if not np.minimum.reduce(lambda0, axis=None) > 0:   # a NaN minimum is not positive either
        raise ValueError("lambda0 must be positive")
    a, b = levels
    return a * np.maximum(1.0 / np.sqrt(lambda0) - b, 0.0)


def total_power(lambda0: float, scenario: Scenario) -> float:
    return float(np.sum(power_closed_form(lambda0, water_levels(scenario, scenario.U))))


def solve_centralized(scenario: Scenario, pt: float | None = None) -> PowerAllocation:
    """Water-fill exactly pt by sorting the breakpoints of total power.

    With s = lambda0^(-1/2), sensor i gets a_i [s - b_i]+, (a, b) its
    water_levels record, so total power is piecewise linear in s. At the
    k-th smallest breakpoint the power spent is
    spent_k = spent_{k-1} + A_{k-1} (b_k - b_{k-1}), A the running sum of a;
    the last k with spent_k < pt fixes the active set and
    s - b_k = (pt - spent_k) / A_k. Active powers a_i ((s - b_k) + (b_k - b_i))
    cancel no large terms. Sensors with a_i = 0 (xi = 0) never transmit.
    Raises ScaleError when a, b or the water level are not finite floats
    or the powers, rounded at subnormal scale, miss the budget.
    """
    if pt is None:
        pt = scenario.Pt
    if not pt > 0:
        raise ValueError("pt must be positive")
    if np.all(scenario.xi == 0.0):
        raise NoSignalError("all sensors have xi = 0; power does not affect the objective")

    with np.errstate(all="ignore"):  # out-of-range values are caught below
        a, b = water_levels(scenario, scenario.U)
        cand = np.flatnonzero(a > 0)
        b = b[cand]
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
    try:
        alloc.validate(pt)
    except ValueError as e:  # the exact solve misses it only by rounding at subnormal scale
        raise ScaleError(f"the water level for Pt={pt} misses the budget in float64: {e}") from e
    return alloc
