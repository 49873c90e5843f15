import math

import mpmath
import pytest

from mdwindow import Params
from mdwindow.measure import _level_log_mu, log1mexp, power_gap


def _scalar_log_mu(alpha, n):
    # log mu_n from the scalar helpers, as `measure.log_mu` composes them
    return -(float(n - 1) ** alpha) + log1mexp(power_gap(n, alpha)) - math.log(n - 1)


def test_log1mexp_matches_direct_in_easy_range():
    for x in [1e-3, 0.1, 0.5, 1.0, 5.0, 30.0]:
        assert log1mexp(x) == pytest.approx(math.log(1.0 - math.exp(-x)), rel=1e-13)


def test_log1mexp_tiny_argument_keeps_precision():
    x = 1e-15
    # 1 - e^-x ~ x, so log should be ~ log(x); the naive route collapses
    assert log1mexp(x) == pytest.approx(math.log(x), abs=1e-12)


def test_log1mexp_rejects_nonpositive():
    # the level kernel's own refusal is test_measure's
    # test_kernel_refuses_a_gap_that_is_not_positive
    for x in (0.0, -2.0):
        with pytest.raises(ValueError):
            log1mexp(x)


def test_log1mexp_array_agrees_with_scalar():
    # the array form of log1mexp is the level kernel's log(-expm1(-gap));
    # these levels give gaps from about 1e-12 up to 2^alpha - 1 < ln 2, the
    # only side a level >= 2 reaches (test_measure's
    # test_every_level_gap_lies_below_ln2)
    for alpha in (0.1, 0.3, 0.45):
        for lo in (2, 3, 1000, 10 ** 6, 10 ** 12):
            block = _level_log_mu(Params(alpha, 0.0), lo, lo + 3)
            for n, got in zip(range(lo, lo + 4), block.tolist()):
                assert got == pytest.approx(_scalar_log_mu(alpha, n), rel=1e-14)


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


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("m", [2 ** 53 + 1, 2 ** 62 + 3, 10 ** 19, 10 ** 25])
def test_power_gap_beyond_two_to_the_53_against_mpmath(alpha, m):
    # m is rounded to float64 on entry, a relative shift of at most 2^-53
    # in m and (1 - alpha) 2^-53 in the gap
    with mpmath.workdps(60):
        ref = float(mpmath.mpf(m) ** alpha - mpmath.mpf(m - 1) ** alpha)
    assert power_gap(m, alpha) == pytest.approx(ref, rel=1e-14)


def test_power_gap_vectorized():
    # the array form of power_gap is the level kernel's gap, read off one
    # power per level
    for m in (2, 5, 10 ** 6, 10 ** 12):
        [got] = _level_log_mu(Params(0.45, 0.0), m, m).tolist()
        assert got == pytest.approx(_scalar_log_mu(0.45, m), rel=1e-14)
