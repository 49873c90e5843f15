"""The deviation-rate dichotomy, certified at astronomically large horizons.

On the normal scale gamma the quantity n^(-2 gamma) log P[S_n/sqrt(n) >
c n^gamma] should approach the normal limit -c^2 / (2 sigma^2) in these
plain-sum units, the units of `RateQuery`; the -c^2/2 printed below is the
rate of S_n / sigma.  Inside the window (u, v) the boundary
excursions break this: a single rare end state already carries enough
probability to drag the rate up to zero.  Simulation dies long before the
effect is visible, but both regimes reduce to closed-form log-domain
bounds that evaluate instantly at n = 1e12.
"""

from mdwindow import (
    Params,
    RateQuery,
    case1_upper,
    case2_certificate,
    gaussian_reference,
    window_from_params,
)

PARAMS = Params(0.3, 0.05)


def main():
    w = window_from_params(PARAMS)
    print(f"anomalous window: ({w.u}, {w.v}); reference rate -c^2/2 = {gaussian_reference(1.0)}")
    print()

    print("gamma = 0.32 (inside): lower certificates, rate climbing to 0")
    print(f"{'n':>14} {'pinned level c_n':>24} {'log P >=':>14} {'rate':>10}")
    for exp in (6, 8, 10, 12):
        cert = case2_certificate(PARAMS, RateQuery(10 ** exp, 0.32, 1.0))
        print(f"{10**exp:>14.0e} {cert.c_n:>24} {cert.log_prob:>14.4g} {cert.rate:>10.4f}")
    print()

    print("gamma = 0.15 (below): upper certificates, rate diving to -inf")
    print(f"{'n':>14} {'log P <=':>16} {'rate':>12}")
    for exp in (6, 8, 10, 12):
        cert = case1_upper(PARAMS, RateQuery(10 ** exp, 0.15, 1.0))
        print(f"{10**exp:>14.0e} {cert.log_prob:>16.6g} {cert.rate:>12.4f}")
    print()

    print("the same thresholds are hopeless for Monte Carlo: at n = 1e12,")
    cert = case2_certificate(PARAMS, RateQuery(10 ** 12, 0.32, 1.0))
    print(f"the certified event has log-probability {cert.log_prob:.3g},")
    print("yet the certificate is exact and costs microseconds.")


if __name__ == "__main__":
    main()
