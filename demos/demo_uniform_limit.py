"""Watch the water-filling allocation flatten out as conditions improve.

With a tight budget and weak signals the solver concentrates power on a
few good channels and censors the rest. Raise the budget and the average
SNR and the allocation tends toward an even split: the quantization rate
saturates, so there is little to gain from favoritism.
"""
import numpy as np

import distdetect as dd


def spread(label, m, n, pt, xa_db, amplitude):
    sc = dd.make_scenario(m=m, n=n, seed=1, u=3.0, pt=pt, pfa=0.1,
                          xa_db=xa_db, amplitude=amplitude)
    p = dd.solve_centralized(sc).p
    active = p[p > 0]
    cv = np.std(active) / np.mean(active)
    print(f"{label:28s} Pt={pt:5.1f}  active {active.size}/{m}  "
          f"CV of active powers {cv:.3f}")
    return cv


def main():
    cv_tight = spread("tight budget, -4 dB", 10, 10, 1.0, -4.0, 0.2)
    cv_loose = spread("loose budget, -1 dB", 10, 50, 5.0, -1.0, 0.3)
    drop = 100 * (1 - cv_loose / cv_tight)
    print()
    print(f"the spread of the allocation drops by {drop:.0f}% "
          "as the problem gets easier")


if __name__ == "__main__":
    main()
