"""Stable log-domain primitives.

Everything downstream manipulates probabilities like exp(-n^a) for n up to
1e12 and beyond, where the interesting quantities are differences of nearly
equal exponentials.  The helpers here keep full relative precision in the
regimes where naive evaluation underflows or cancels.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def log1mexp(x):
    """log(1 - exp(-x)) for x > 0, stable for both tiny and large x.

    Splits at x = ln 2: below it 1 - e^-x is best reached through expm1,
    above it through log1p (the usual two-branch construction).
    Accepts scalars or arrays.
    """
    if np.isscalar(x):
        if x <= 0.0:
            raise ValueError(f"log1mexp needs x > 0, got {x}")
        if x < _LN2:
            return math.log(-math.expm1(-x))
        return math.log1p(-math.exp(-x))
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("log1mexp needs x > 0")
    small = x < _LN2
    out = np.empty_like(x)
    out[small] = np.log(-np.expm1(-x[small]))
    out[~small] = np.log1p(-np.exp(-x[~small]))
    return out


def power_gap(m, a):
    """m^a - (m-1)^a with full relative precision, m >= 2, 0 < a < 1.

    Direct subtraction dies for large m (the gap ~ a*m^(a-1) falls below
    one ulp of m^a).  Rewrites as -m^a * expm1(a * log1p(-1/m)).
    Accepts scalars or integer/float arrays; uses float64 throughout, so m
    may exceed 2^53 at the usual relative-error cost.
    """
    if np.isscalar(m):
        mf = float(m)
        return -(mf ** a) * math.expm1(a * math.log1p(-1.0 / mf))
    mf = np.asarray(m, dtype=np.float64)
    return -(mf ** a) * np.expm1(a * np.log1p(-1.0 / mf))
