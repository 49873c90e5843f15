"""Stable log-domain primitives, on Python floats.

Everything downstream manipulates probabilities like exp(-n^a) for n up to
1e12 and beyond, where the interesting quantities are differences of nearly
equal exponentials.  The helpers here keep full relative precision in the
regimes where naive evaluation underflows or cancels, for the scalar
`measure.log_mu`; its level kernel writes the same formula over arrays.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)


def log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0, stable for both tiny and large x.

    Splits at x = ln 2: below it 1 - e^-x is best reached through expm1,
    above it through log1p (the usual two-branch construction).
    """
    if x <= 0.0:
        raise ValueError(f"log1mexp needs x > 0, got {x}")
    if x < _LN2:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def power_gap(m, a: float) -> float:
    """m^a - (m-1)^a with full relative precision, m >= 2, 0 < a < 1.

    Direct subtraction dies for large m (the gap ~ a*m^(a-1) falls below
    one ulp of m^a).  Rewrites as -m^a * expm1(a * log1p(-1/m)).  m is
    converted to float once, so it may exceed 2^53 at the usual
    relative-error cost.
    """
    mf = float(m)
    return -(mf ** a) * math.expm1(a * math.log1p(-1.0 / mf))
