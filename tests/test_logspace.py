import math

import numpy as np
import pytest

from mdwindow.logspace import log1mexp, power_gap


def test_log1mexp_matches_direct_in_easy_range():
    for x in [1e-3, 0.1, 0.5, 1.0, 5.0, 30.0]:
        assert log1mexp(x) == pytest.approx(math.log(1.0 - math.exp(-x)), rel=1e-13)


def test_log1mexp_tiny_argument_keeps_precision():
    x = 1e-15
    # 1 - e^-x ~ x, so log should be ~ log(x); the naive route collapses
    assert log1mexp(x) == pytest.approx(math.log(x), abs=1e-12)


def test_log1mexp_rejects_nonpositive():
    with pytest.raises(ValueError):
        log1mexp(0.0)
    with pytest.raises(ValueError):
        log1mexp(np.array([1.0, -2.0]))


def test_log1mexp_array_agrees_with_scalar():
    xs = np.array([1e-12, 1e-3, 0.2, 0.6931, 0.694, 3.0, 50.0])
    out = log1mexp(xs)
    for x, o in zip(xs, out):
        assert o == pytest.approx(log1mexp(float(x)), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
def test_power_gap_small_m_exact(alpha):
    for m in [2, 3, 10, 1000]:
        direct = m ** alpha - (m - 1) ** alpha
        assert power_gap(m, alpha) == pytest.approx(direct, rel=1e-12)


def test_power_gap_huge_m_no_cancellation():
    # m ~ 1e22: the direct difference cancels to zero in float64, while the
    # true gap is ~ alpha * m^(alpha - 1)
    m, alpha = 10 ** 22, 0.3
    gap = power_gap(m, alpha)
    approx = alpha * float(m) ** (alpha - 1.0)
    assert gap > 0.0
    assert gap == pytest.approx(approx, rel=1e-3)


def test_power_gap_vectorized():
    ms = np.array([2, 5, 10 ** 6, 10 ** 12], dtype=np.int64)
    out = power_gap(ms, 0.45)
    for m, o in zip(ms, out):
        assert o == pytest.approx(power_gap(int(m), 0.45), rel=1e-14)
