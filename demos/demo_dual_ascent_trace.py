"""Inside the distributed solver: the price trajectory and budget error.

Dual ascent alternates two moves. Each sensor maximizes its own payoff
at the current price; the network then averages the spent power by
consensus and nudges the price up if the budget is overshot, down if
power is left on the table. The trace below shows the price settling
and the budget error dying out.
"""
import numpy as np

import distdetect as dd


def main():
    sc = dd.make_scenario(m=10, n=10, seed=1, u=3.0, pt=1.0, pfa=0.1,
                          xa_db=-4.0, amplitude=0.2)
    graph = dd.make_topology(10, seed=1, radius=0.5)
    alloc, trace = dd.solve_distributed(sc, graph)

    total = np.sum(trace.powers, axis=1)
    picks = sorted({1, 2, 5, 10, 50, 200, 1000, trace.iterations})
    print("  iter      lambda0    sum(p)-Pt   consensus iters")
    for k in picks:
        if k > trace.iterations:
            continue
        i = k - 1
        print(f"{k:6d}   {trace.lambda0[i]:.4e}   {total[i] - sc.Pt:+.3e}   "
              f"{trace.consensus_iters[i]:6d}")
    print()
    print(f"converged after {trace.iterations} outer iterations "
          f"({trace.total_consensus_rounds} consensus rounds in total)")
    print(f"final budget error {alloc.total() - sc.Pt:+.3e} on Pt = {sc.Pt}")
    central = dd.solve_centralized(sc)
    gap = np.linalg.norm(alloc.p - central.p) / np.linalg.norm(central.p)
    print(f"distance to the centralized solution: {gap:.3e}")


if __name__ == "__main__":
    main()
