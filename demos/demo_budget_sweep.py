"""Detection probability against the transmit budget, optimized vs even split.

A Monte Carlo sweep over the total power budget with the false-alarm rate
pinned at 0.1. All schemes share the same random draws at each budget, so
differences between columns are real and the curves come out smooth.
"""
import distdetect as dd
from distdetect.montecarlo import Scheme, sweep_budget


def main():
    sc = dd.make_scenario(m=20, n=3, seed=5, u=3.0, pt=20.0, pfa=0.1,
                          xa_db=-4.0, sigma2_range=(0.6, 1.0))
    schemes = [Scheme.ED_opt_weights_opt_power, Scheme.ED_opt_weights_equal_power]
    grid = [2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    ests = sweep_budget(sc, schemes, grid, trials=5000)

    print("Pd at Pfa=0.1, 5000 trials per point")
    print("    Pt   optimized power   equal power   transmitting")
    for i, pt in enumerate(grid):
        opt, eq = ests[2 * i], ests[2 * i + 1]
        print(f"{pt:6.0f}   {opt.pd_hat:15.3f}   {eq.pd_hat:11.3f}   "
              f"{opt.n_transmit:5d} vs {eq.n_transmit:2d}")
    print()
    print("both curves climb with the budget. at the tight end only a few "
          "sensors afford even one")
    print("bit, and with quantization that coarse the variance proxy the "
          "allocator optimizes stops")
    print("tracking the true detection rate, so the even split can briefly "
          "win; the two schemes")
    print("agree again once the budget buys everyone fine quantization")


if __name__ == "__main__":
    main()
