"""Distributed power allocation by dual ascent over average consensus.

Each sensor keeps its own copy of the budget multiplier lambda0,
updates its power by the same closed form the centralized solver uses
(it only needs its own xi, sigma^2, h, zeta), learns the network mean
power through average consensus with its neighbors, and takes an
identical diminishing gradient step on its multiplier copy. Since every
sensor sees the same consensus output and applies the same
deterministic step rule, the multiplier copies track each other to
within consensus accuracy and the iteration reproduces the centralized
water filling without any coordinator.

Each consensus run resumes from the last one: a node starts from its
previous consensus output plus its own power change p_k - p_{k-1}.
Mixing by a doubly stochastic matrix keeps the mean, so the input still
averages to mean(p_k), and powers that moved by one dual step need far
fewer rounds than a start from p_k. The (a_i, b_i) water-filling record
and one Consensus engine are set up once per solve, the trace's statistics once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .consensus import Consensus, ConsensusError, Graph, consensus_average, metropolis_matrix
from .model import Scenario, SolverConfig
from .solver_central import PowerAllocation, power_closed_form, water_levels

# each sensor's power update is the centralized solver's closed form, which needs
# nothing beyond sensor-local parameters. The solve calls power_closed_form on its
# water_levels record. This name, consensus_average and metropolis_matrix (the engine
# builds its own weights) stay bound for callers that look them up
local_power_update = power_closed_form

LAMBDA_MIN = 1e-16   # dual variable floor; the closed form needs sqrt(lambda0) > 0


class ConvergenceError(RuntimeError):
    """Outer loop exhausted its budget or a consensus run failed; carries the partial trace."""

    def __init__(self, msg: str, trace: "DualAscentTrace | None" = None):
        super().__init__(msg)
        self.trace = trace


def ordered_norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, its squares added in index order.

    A BLAS dot adds in an order that follows the CPU's kernel; this sum
    gives the same bits on every host. A square past float range warns
    or raises as np.errstate says.
    """
    return math.sqrt(np.add.accumulate(v * v)[-1])


def dual_update(lambda0_k, mean_power, m: int, pt: float, eps_k):
    """One gradient step on the budget multiplier, floored at LAMBDA_MIN.

    lambda0 rises while the network overspends (M * mean_power > Pt)
    and falls while it underspends; the floor keeps the closed-form
    power update defined. Elementwise over per-sensor arrays, so one
    call steps every sensor's multiplier copy.
    """
    if not np.minimum.reduce(eps_k, axis=None) > 0:   # a NaN minimum is not positive either
        raise ValueError("eps_k must be positive")
    return np.maximum(lambda0_k + eps_k * (m * mean_power - pt), LAMBDA_MIN)


@dataclass(frozen=True)
class DualAscentTrace:
    """Per-outer-iteration record of the distributed solve.

    lambda0[j] is the mean() of the per-sensor multiplier copies that
    produced powers[j]; lambda0_spread[j], the max - min of those its dual
    step left, shows how well consensus kept them in lockstep; rel_step[j]
    = ||p[j] - p[j-1]|| / ||p[j-1]|| is nan on the first row.
    """

    k: np.ndarray                # 1-based outer iteration index
    lambda0: np.ndarray
    powers: np.ndarray           # shape (iters, M)
    consensus_iters: np.ndarray
    rel_step: np.ndarray
    lambda0_spread: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return int(self.k.size)

    @property
    def total_consensus_rounds(self) -> int:
        return int(np.sum(self.consensus_iters))


def solve_distributed(scenario: Scenario, graph: Graph, solver: SolverConfig = SolverConfig()
                      ) -> tuple[PowerAllocation, DualAscentTrace]:
    """Run the dual-ascent protocol to convergence over the sensor graph.

    graph joins the scenario's M sensors, one vertex each, and solver
    holds the step and consensus settings. Stops when the relative power
    step drops to the solver's kappa. The returned allocation approaches
    the budget from above as the multiplier climbs, so its residual is
    bounded by the coarser distributed tolerance (1e-3 relative), not the
    centralized one. Every consensus run after the first resumes from
    the last one's output, shifted by each node's power change, on the
    solve's one engine, which sizes each run's first block of rounds from
    the last one's round count. That schedule sets no bits: the engine
    computes each consensus state with sums in a fixed order from a
    state the schedule does not choose (consensus.Consensus), and the
    rel_step norms add their squares in index order, so the trace does
    not depend on the CPU or its BLAS kernel. A consensus run that fails
    raises ConvergenceError with the trace of the outer iterations
    completed before it; so does a stop on kappa that misses the budget,
    with a trace that reads converged=False.
    """
    m = scenario.M
    if graph.M != m:
        raise ValueError(f"graph has {graph.M} nodes for {m} sensors")
    pt = scenario.Pt
    # set up once: each sensor's water-filling record and the consensus engine
    levels = water_levels(scenario, scenario.U)
    consensus = Consensus(graph, solver)

    lam = np.full(m, solver.lambda0_init)
    # as if after a step from zero power: the first x0 is p, and its rel_step (norm 0) is nan
    p_prev = state = norm_prev = 0.0

    # multiplier copies: lams[j] produced prows[j], and lams[j + 1] is its dual step
    lams, prows, crows, rels = [lam], [], [], []

    def trace_so_far(converged: bool) -> DualAscentTrace:
        copies = np.array(lams)
        return DualAscentTrace(
            k=np.arange(1, len(crows) + 1),
            lambda0=np.add.reduce(copies[:-1], axis=1) / m,   # each row's mean()
            powers=np.array(prows).reshape(len(prows), m),
            consensus_iters=np.array(crows, dtype=int),
            rel_step=np.array(rels),
            lambda0_spread=copies[1:].max(axis=1) - copies[1:].min(axis=1),
            converged=converged,
        )

    for k in range(solver.outer_max_iter):
        p = power_closed_form(lam, levels)
        step = p - p_prev
        # each node resumes from its last consensus output, moved by its own power change
        x0 = state + step
        try:
            cres = consensus.run(x0)
        except ConsensusError as e:
            raise ConvergenceError(f"outer iteration {k + 1}: {e}",
                                   trace=trace_so_far(False)) from e
        state = cres.values
        # every sensor applies the same rule to its own multiplier copy
        eps = lam if k == 0 else lam / k
        lam = dual_update(lam, state, m, pt, eps)
        # all-zero previous iterate: criterion undefined, keep going
        rel = ordered_norm(step) / norm_prev if norm_prev > 0 else float("nan")

        lams.append(lam)
        prows.append(p)
        crows.append(cres.iterations)
        rels.append(rel)

        if math.isfinite(rel) and rel <= solver.kappa:
            break
        # a numpy scalar, so that an overflowing rel_step warns or raises as np.errstate says
        p_prev, norm_prev = p, np.float64(ordered_norm(p))
    else:
        raise ConvergenceError(
            f"no convergence to kappa={solver.kappa} within {solver.outer_max_iter} "
            "outer iterations",
            trace=trace_so_far(False),
        )
    alloc = PowerAllocation(p=p, lambda0=float(lams[-2].mean()))   # the copies that gave p
    residual = abs(alloc.total() - pt)
    if residual > 1e-3 * pt:
        raise ConvergenceError(
            f"stopped at outer iteration {k + 1} on relative step {rel:.3e} <= "
            f"kappa={solver.kappa}, but |sum(p)-Pt|/Pt={residual / pt:.3e} exceeds 1e-3",
            trace=trace_so_far(False),
        )
    return alloc, trace_so_far(True)
