"""Average consensus on a random geometric graph, step by step.

Nodes start with arbitrary numbers and may only talk to neighbors within
radio range. Repeated Metropolis-weighted averaging drives every node to
the network mean. The same primitive is what lets the distributed power
solver agree on a common price without a fusion center.
"""
import numpy as np

import distdetect as dd


def main():
    rng = np.random.default_rng(42)
    m = 10
    graph = dd.random_geometric_graph(m, 0.5, rng)
    print(f"{m} nodes, {len(graph.edges)} links, degrees {graph.degrees.tolist()}")

    x0 = rng.uniform(0.0, 100.0, size=m)
    target = float(np.mean(x0))
    print(f"initial values rounded: {np.round(x0, 1).tolist()}")
    print(f"network mean to agree on: {target:.4f}")
    print()

    w = dd.metropolis_matrix(graph)
    x = x0.copy()
    print("iter   max deviation from the mean")
    for k in range(1, 201):
        x = w @ x
        dev = float(np.max(np.abs(x - target)))
        if k <= 5 or k % 25 == 0 or dev <= 1e-10:
            print(f"{k:4d}   {dev:.3e}")
        if dev <= 1e-10:
            break
    print()

    res = dd.consensus_average(graph, x0, dd.SolverConfig(consensus_tol=1e-10,
                                                          consensus_max_iter=10 * m * m))
    print(f"library call agrees: {res.iterations} iterations, "
          f"final deviation {res.max_deviation:.3e}")
    print(f"mean preserved exactly: {np.mean(res.values):.10f} vs {target:.10f}")


if __name__ == "__main__":
    main()
