"""Independent components realize any finite union of windows.

Each component owns one window; their normalized sum inherits the union.
Between the windows the normal rate reappears, and each component's own
certificates supply the evidence at its scales.
"""

import numpy as np

from mdwindow import (
    RateQuery,
    RngStream,
    WindowSet,
    build_composite,
    case2_certificate,
    predicted_rate,
    sample_composite_path,
)


def main():
    windows = WindowSet([(0.1, 0.15), (0.25, 0.4)])
    comp = build_composite(windows, tol=1e-5)

    print("components realizing the windows", windows.windows)
    for (params, stats), (u, v) in zip(comp.components, windows.windows):
        print(
            f"  ({u}, {v}): alpha={params.alpha:.10g} beta={params.beta:.10g}"
            f"  sigma={stats.sigma:.10g}"
        )
    quad = sum(s.sigma ** 2 for _, s in comp.components) ** 0.5
    print(f"  combined sigma {comp.combined_sigma:.12g} (quadrature {quad:.12g})")
    print()

    x = sample_composite_path(comp, 3000, RngStream(seed=4))
    print(f"normalized composite path, n=3000: mean {x.mean():+.4f}, sd {x.std():.4f}")
    print(f"  |X| never exceeds #components/sigma = {2 / comp.combined_sigma:.3f}:"
          f" max {np.abs(x).max():.3f}")
    print()

    print("predicted limit rate across scales (c = 1):")
    for gamma in (0.05, 0.12, 0.20, 0.30, 0.45):
        r = predicted_rate(windows, gamma, 1.0)
        where = windows.locate(gamma)
        print(f"  gamma={gamma:4}: {r:+.1f}   ({where})")
    print()

    print("certificate evidence inside each window (n = 1e10):")
    for (params, _), (u, v) in zip(comp.components, windows.windows):
        gamma = 0.5 * (u + v)
        cert = case2_certificate(params, RateQuery(10 ** 10, gamma, 1.0))
        print(f"  window ({u}, {v}) at gamma={gamma}: rate {cert.rate:.4f} -> 0")


if __name__ == "__main__":
    main()
