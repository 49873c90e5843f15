import hashlib
import inspect
import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdwindow import (
    MEAN_TAU,
    MU0,
    ParameterError,
    Params,
    PrecisionError,
    autocovariance_bound,
    build_measure_table,
    excursion_reward_magnitude,
    log_mu,
    log_p,
    p1,
    params_from_window,
    phi,
    s_double_prime_count,
    s_prime_count,
    sigma,
    stationary_push_l1,
    window_from_params,
)
from mdwindow import measure
from mdwindow.measure import (
    _level_log_mu,
    _level_walk,
    _s_tilde_variance,
    _series_cut,
    level_series,
    small_mass_tail,
)

from conftest import ALPHA_GRID, DEFAULT, SMALL_ALPHA, lag_route


# ---------------------------------------------------------------- parameters

def test_validate_params_accepts_valid_pair():
    p = Params(0.3, 0.05)
    assert (p.alpha, p.beta) == (0.3, 0.05)


@pytest.mark.parametrize(
    "alpha, beta, fragment",
    [
        (0.3, 0.11, "alpha + 2*beta"),   # 0.3 + 0.22 >= 0.5
        (0.0, 0.1, "alpha > 0"),
        (-0.2, 0.1, "alpha > 0"),
        (0.3, -0.01, "beta >= 0"),
        (0.5, 0.0, "alpha + 2*beta"),
    ],
)
def test_validate_params_names_violated_inequality(alpha, beta, fragment):
    with pytest.raises(ParameterError) as err:
        Params(alpha, beta)
    assert fragment in str(err.value)


# ------------------------------------------------------------------- weights

@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_log_mu_origin_is_alpha_independent(alpha):
    # telescoping the defining identity at n = 1 against normalization
    # forces mu_0 = 1 - 1/e regardless of alpha
    assert log_mu(Params(alpha, 0.0), 0) == pytest.approx(
        math.log(-math.expm1(-1.0)), abs=1e-14
    )


def test_log_mu_level_two_high_precision_reference():
    # mu_2 = e^-1 - e^(-2^0.3), evaluated at 50 digits
    with mpmath.workdps(50):
        ref = mpmath.exp(-1) - mpmath.exp(-mpmath.mpf(2) ** mpmath.mpf("0.3"))
        ref = float(mpmath.log(ref))
    assert log_mu(DEFAULT, 2) == pytest.approx(ref, abs=1e-13)
    assert math.exp(log_mu(DEFAULT, 2)) == pytest.approx(0.07592, abs=5e-6)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 18 + 7, 3 ** 40, 10 ** 25])
def test_log_mu_beyond_two_to_the_53_against_mpmath(alpha, n):
    # levels that float64 cannot hold exactly, up to certificate sizes
    # (c_n ~ 1.29e19 at the 1e10 golden) and past int64
    with mpmath.workdps(60):
        a, m = mpmath.mpf(alpha), mpmath.mpf(n)
        mu = (mpmath.exp(-(m - 1) ** a) - mpmath.exp(-m ** a)) / (m - 1)
        ref = float(mpmath.log(mu))
    assert log_mu(Params(alpha, 0.0), n) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_log_mu_rejects_level_one(alpha):
    with pytest.raises(ParameterError, match="^level 1 is not in the state space$"):
        log_mu(Params(alpha, 0.0), 1)


def test_log_mu_rejects_negative_level():
    with pytest.raises(ParameterError, match="^negative level -3$"):
        log_mu(DEFAULT, -3)


# each entry point with one integer argument replaced by the test's value
_INTEGER_ENTRIES = {
    "log_mu": lambda v: log_mu(DEFAULT, v),
    "log_p": lambda v: log_p(DEFAULT, v),
    "phi": lambda v: phi(DEFAULT, v, 3),
    "s_prime_count": lambda v: s_prime_count(v, 3, 10),
    "s_double_prime_count": lambda v: s_double_prime_count(2, 3, v),
    "autocovariance_bound": lambda v: autocovariance_bound(DEFAULT, v),
    "stationary_push_l1": lambda v: stationary_push_l1(DEFAULT, v),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRIES))
def test_a_non_integral_level_or_age_is_refused(entry):
    # int() would read 2.5 as 2 and 1.9 as 1; a NumPy integer is an integer
    call = _INTEGER_ENTRIES[entry]
    for value in (2.5, 1.9, 3.0, "3", None, True):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(value)
    assert call(np.int64(3)) == call(3)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_defining_tail_identity_partial_sums(alpha):
    # sum_{k=n+1}^{N} (k-1) mu_k + exp(-N^alpha) must reproduce exp(-n^alpha)
    p = Params(alpha, 0.0)
    n_max, pad = 1000, 10 ** 4
    table = build_measure_table(p, n_max + pad)
    ks = np.arange(2, n_max + pad + 1)
    sized = (ks - 1) * np.exp(table)
    suffix = np.concatenate((np.cumsum(sized[::-1])[::-1], [0.0]))
    for n in (1, 2, 17, 300, 1000):
        big_n = n + pad
        partial = suffix[n + 1 - 2] - suffix[big_n + 1 - 2]
        resid = abs(partial + math.exp(-float(big_n) ** alpha) - math.exp(-float(n) ** alpha))
        assert resid < 1e-10


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_invariance_mu0_pn_equals_mun(alpha):
    p = Params(alpha, 0.0)
    for n in range(2, 1001):
        lhs = math.log(MU0) + log_p(p, n)
        assert lhs == pytest.approx(log_mu(p, n), abs=1e-14)


def test_mu_values_positive_and_finite():
    table = build_measure_table(DEFAULT, 5000)
    assert np.all(np.isfinite(table))


# ---------------------------------------------------------------- transition

def test_log_p_ratio_for_level_two():
    assert log_p(DEFAULT, 2) == pytest.approx(
        log_mu(DEFAULT, 2) - log_mu(DEFAULT, 0), abs=1e-14
    )


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_p1_exceeds_two_fifths(alpha):
    # sum_{n>=2} mu_n <= e^-1 gives p_1 >= 1 - e^-1/(1 - e^-1) > 0.41
    assert p1(Params(alpha, 0.0)) > 0.4


def test_p1_against_direct_summation():
    # independent route: raw mu_n summed to exhaustion (alpha = 0.45 decays
    # fast enough for plain summation to converge below 1e-14)
    alpha = 0.45
    ns = np.arange(2, 300000, dtype=np.float64)
    mu = (np.exp(-((ns - 1) ** alpha)) - np.exp(-(ns ** alpha))) / (ns - 1)
    direct = 1.0 - mu.sum() / MU0
    assert p1(Params(alpha, 0.0)) == pytest.approx(direct, abs=1e-12)


def _mp_small_mass_tail(alpha, n, extra=50):
    """sum_{k > n} mu_k in mpmath at the working precision: T(n)/n minus
    sum_{k > n} g(k), g(x) = exp(-x^alpha) / (x (x-1)), whose first `extra`
    terms are summed directly and the rest by Euler-Maclaurin to the fifth
    derivative, with the integral by quadrature in t = x^alpha shifted to
    start at 0 (quad loses about 1e-7 relative on the unshifted form at
    large n)."""
    a = mpmath.mpf(alpha)

    def g(x):
        return mpmath.exp(-x ** a) / (x * (x - 1))

    start = mpmath.mpf(n + 1 + extra)
    head = mpmath.fsum(g(mpmath.mpf(k)) for k in range(n + 1, n + 1 + extra))
    t0 = start ** a
    shifted = mpmath.quad(
        lambda u: mpmath.exp(-u) / ((t0 + u) * ((t0 + u) ** (1 / a) - 1)),
        [0, 1, 4, 16, 64, mpmath.inf],
    )
    em = mpmath.exp(-t0) / a * shifted + g(start) / 2
    with mpmath.workdps(mpmath.mp.dps + 40):
        for p in (1, 2, 3):
            em -= mpmath.bernoulli(2 * p) / mpmath.factorial(2 * p) * mpmath.diff(
                g, start, 2 * p - 1
            )
    return mpmath.exp(-mpmath.mpf(n) ** a) / n - head - em


@pytest.mark.parametrize("alpha", [0.05, 0.108, 0.3, 0.45])
@pytest.mark.parametrize("n_trunc", [64, 1 << 10, 1 << 14, 1 << 21])
def test_small_mass_tail_within_bound_of_mpmath(alpha, n_trunc):
    with mpmath.workdps(40):
        ref = _mp_small_mass_tail(alpha, n_trunc)
    tail, err = small_mass_tail(Params(alpha, 0.0), n_trunc)
    assert abs(tail - float(ref)) <= err
    assert err <= 1e-2 * tail  # and the bound is not vacuous


@pytest.mark.parametrize("alpha", [0.09, 0.108, 0.3])
def test_p1_against_fifty_digit_reference(alpha):
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        head = mpmath.fsum(
            (mpmath.exp(-(mpmath.mpf(k) - 1) ** a) - mpmath.exp(-mpmath.mpf(k) ** a))
            / (k - 1)
            for k in range(2, 65)
        )
        mu0 = -mpmath.expm1(-1)
        ref = 1 - (head + _mp_small_mass_tail(alpha, 64)) / mu0
    assert abs(p1(Params(alpha, 0.0)) - float(ref)) <= 1e-13


def test_small_mass_tail_against_direct_summation():
    alpha = 0.45
    p = Params(alpha, 0.0)
    n_trunc = 2000
    ns = np.arange(n_trunc + 1, 500000, dtype=np.float64)
    direct = float(
        ((np.exp(-((ns - 1) ** alpha)) - np.exp(-(ns ** alpha))) / (ns - 1)).sum()
    )
    tail, err = small_mass_tail(p, n_trunc)
    assert tail == pytest.approx(direct, rel=1e-9)
    assert abs(tail - direct) <= err + 1e-15


@pytest.mark.parametrize("alpha", [0.3, 0.45])
def test_p_law_normalizes(alpha):
    p = Params(alpha, 0.0)
    n_max = 200000
    table = build_measure_table(p, n_max)
    mass = math.exp(log_p(p, 1)) + float(np.exp(table - log_mu(p, 0)).sum())
    # remainder of the p-series is below exp(-N^alpha) / (N mu_0)
    rem = math.exp(-float(n_max) ** alpha) / (n_max * MU0)
    assert mass == pytest.approx(1.0, abs=rem + 1e-12)


@pytest.mark.parametrize("m", [0, 1, 2, 300])
def test_p_law_table_matches_log_p(m):
    from mdwindow.measure import _p_law

    p = _p_law(DEFAULT, m)
    assert p.shape == (m + 1,) and p[0] == 0.0
    for k in range(1, m + 1):
        assert p[k] == pytest.approx(math.exp(log_p(DEFAULT, k)), rel=1e-14)


def test_p_values_nonnegative():
    p = DEFAULT
    for n in range(1, 2000):
        assert log_p(p, n) <= 0.0  # finite log-probability, hence p_n > 0


# ------------------------------------------------------------------- moments

@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_mean_tau_universal(alpha):
    # E tau = p_1 + sum_{m>=2} m mu_m / mu_0: levels 2..N walked directly,
    # beyond N the exact size-biased tail plus the small-mass tail
    p = Params(alpha, 0.0)
    n = 1 << 12
    head = _level_walk(p, lambda lo, hi, mu: float((np.arange(lo, hi + 1) * mu).sum()), 2, n)
    beyond = math.exp(-(float(n) ** alpha)) + small_mass_tail(p, n)[0]
    assert p1(p) + (head + beyond) / MU0 == pytest.approx(MEAN_TAU, abs=1e-12)
    assert MEAN_TAU == pytest.approx(math.e / (math.e - 1.0), abs=1e-14)


SERIES = {
    "p1": lambda p: measure._p1_sum(p),
    "second_moment": lambda p: sigma(p, 1e-12).second_moment_jump,
    "autocovariance": lambda p: measure.autocovariance_exact(p, 3),
    "boundary_tail": lambda p: measure.boundary_tail_exact(p, 1000, 5.0),
}


# the series to an absolute tol: each takes only its cut from the rule and
# reads the cached lag table
_CUT_ROUTES = {
    "autocovariance": lambda tol: measure.autocovariance_exact(DEFAULT, 3, tol),
    "second_moment": lambda tol: sigma(DEFAULT, tol).second_moment_jump,
}


def _cut_route(monkeypatch, series, tol):
    # the series at tol through its own route, as (value, remainder bound,
    # n_terms)
    cuts = []

    def spy(*args):
        cuts.append(_series_cut(*args))
        return cuts[-1]

    monkeypatch.setattr(measure, "_series_cut", spy)
    value = _CUT_ROUTES[series](tol)
    (cut, bound), = cuts
    return value, bound, cut - 1


# p_1 sums a fixed range and its closed-form tail, not a level series
@pytest.mark.parametrize("series", sorted(set(SERIES) - {"p1"}))
def test_level_series_remainder_covers_a_tighter_tolerance(monkeypatch, series):
    # the value at tol and at tol/1e4 differ by at most the remainder bound
    # returned at tol
    if series in _CUT_ROUTES:
        # the cleared store makes the lag table walk afresh
        measure._TABLES.clear()
        value, bound, n_terms = _cut_route(monkeypatch, series, 1e-12)
        tight, _, tight_terms = _cut_route(monkeypatch, series, 1e-16)
    else:
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs, level_series(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(measure, "level_series", spy)
        SERIES[series](DEFAULT)
        (args, kwargs, (value, bound, n_terms)), = calls
        bound_args = inspect.signature(level_series).bind(*args, **kwargs)
        bound_args.apply_defaults()
        bound_args.arguments["tol"] /= 1e4
        tight, _, tight_terms = level_series(*bound_args.args, **bound_args.kwargs)
    assert tight_terms > n_terms
    assert 0.0 < bound < 1e-6
    assert abs(tight - value) <= bound


@pytest.mark.parametrize("series", ["boundary_tail", "p1", "second_moment"])
def test_level_series_do_not_depend_on_level_blocks(monkeypatch, series):
    # as test_autocovariance_does_not_depend_on_level_blocks: a block edge
    # splits the levels anywhere (777) or nowhere (2^22)
    ref = SERIES[series](DEFAULT)
    for block in (777, 1 << 22):
        monkeypatch.setattr(measure, "_LEVEL_BLOCK", block)
        measure._TABLES.clear()  # sigma reads a lag table built in these blocks
        got = SERIES[series](DEFAULT)
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_level_series_refuses_beyond_the_cap():
    # the absolute cut rule and the relative series alike
    with pytest.raises(PrecisionError):
        _series_cut(Params(0.1, 0.0), 1e-15, (1.0, 0.0))
    with pytest.raises(PrecisionError):
        level_series(Params(0.1, 0.0), lambda lo, hi, mu: float(mu.sum()), tol=1e-15)


def test_level_series_refuses_an_unreachable_relative_tolerance_at_once():
    # at the first cut the cap's remainder already reaches tol (value +
    # remainder), a bound on the full sum, so no deeper cut is walked
    walked = []

    def block_sum(lo, hi, mu):
        walked.append(hi)
        return float(mu.sum())

    with pytest.raises(PrecisionError):
        level_series(DEFAULT, block_sum, tol=1e-120)
    assert max(walked) == measure._FIRST_CUT


def _reference_cut(alpha, start, tol, growth):
    # the plain doubling from a start level, without the store: every cut
    # max(start, _FIRST_CUT 2^j) tested in turn
    c, e = growth

    def remainder(cut):
        return c * (cut + 1.0) ** e / cut * math.exp(-(float(cut) ** alpha))

    best = remainder(max(start, measure._LEVEL_CAP))
    first = measure._FIRST_CUT
    while True:
        cut = max(start, first)
        rem = remainder(cut)
        if rem < tol:
            return cut, rem
        if cut >= measure._LEVEL_CAP or best >= tol:
            raise PrecisionError(
                f"no cut up to {measure._LEVEL_CAP} levels brings the remainder bound "
                f"{best:.3e} below the tolerance; relax it"
            )
        while first <= cut:
            first <<= 1


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(0.05, 0.49),
    c=st.sampled_from([1.0, 2.0, 1.0 / MU0]),
    e=st.floats(0.0, 1.0),
    tol=st.floats(-16.0, -2.0).map(lambda x: 10.0 ** x),
)
def test_memoized_cut_matches_the_plain_doubling(alpha, c, e, tol):
    # the cut kept per (alpha, tol, growth) is the plain doubling's from
    # level 2, cut and remainder, or its refusal word for word, read cold
    # and then warm (a refusal is not kept and raises again)
    def outcome(rule, *args):
        try:
            return rule(*args)
        except PrecisionError as err:
            return str(err)

    want = outcome(_reference_cut, alpha, 2, tol, (c, e))
    for _ in range(2):
        assert outcome(_series_cut, Params(alpha, 0.0), tol, (c, e)) == want


def test_a_lag_sweep_runs_one_doubling_per_tolerance(monkeypatch):
    # every lag reads the one cut of (alpha, tol, growth), so the doubling
    # runs once per tolerance, to build it
    doublings, doubling = [], measure._doubling_cut

    def spy(*args):
        doublings.append(args)
        return doubling(*args)

    measure._TABLES.clear()
    monkeypatch.setattr(measure, "_doubling_cut", spy)
    for tol in (1e-6, 1e-12):
        for k in range(201):
            measure.autocovariance_exact(DEFAULT, k, tol)
    assert [args[1] for args in doublings] == [1e-6, 1e-12]


_BAD_TOL_CALLS = {
    "second_moment": lambda tol: sigma(DEFAULT, tol).second_moment_jump,
    "autocovariance": lambda tol: measure.autocovariance_exact(DEFAULT, 3, tol),
    "boundary_tail": lambda tol: measure.boundary_tail_exact(DEFAULT, 1000, 3.0, tol),
    "boundary_tail_threshold": lambda x: measure.boundary_tail_exact(DEFAULT, 1000, x),
}


@pytest.mark.parametrize(
    "call, tol",
    [(c, t) for c in sorted(set(_BAD_TOL_CALLS) - {"boundary_tail_threshold"})
     for t in (math.inf, math.nan, 0.0, -1.0)] + [("boundary_tail_threshold", math.nan)],
)
def test_bad_tolerance_is_refused_before_any_level_is_walked(monkeypatch, call, tol):
    # inf would stop at an uncertified cut, nan or tol <= 0 at none (a nan
    # threshold likewise), so each is refused before a level is walked
    walked = []

    def spy(*args):
        walked.append(args)
        return _level_log_mu(*args)

    monkeypatch.setattr(measure, "_level_log_mu", spy)
    with pytest.raises(ParameterError):
        _BAD_TOL_CALLS[call](tol)
    assert walked == []


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_p1_refuses_a_bad_tolerance_before_summing(monkeypatch, tol):
    # p1 keeps level_series' rule: inf and nan would return the value
    # unchecked, tol <= 0 would fail as a PrecisionError
    summed = []
    monkeypatch.setattr(measure, "_p1_sum", lambda p: summed.append(p) or (0.8, 0.0))
    with pytest.raises(ParameterError, match="tol must be positive and finite"):
        p1(Params(0.3, 0.05), tol)
    assert summed == []


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA, Params(0.2, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_s_tilde_variance_against_fifty_digit_sum(params, n):
    # mu_0 p_j = mu_j, and a length-1 excursion earns nothing
    with mpmath.workdps(50):
        a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
        ref = mpmath.fsum(
            (mpmath.exp(-mpmath.mpf(j - 1) ** a) - mpmath.exp(-mpmath.mpf(j) ** a))
            / (j - 1) * (min(math.isqrt(j), j - 1) * mpmath.mpf(j) ** -b) ** 2 * (n - j)
            for j in range(2, n)
        )
    assert _s_tilde_variance(params, n) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_second_moment_brute_force_beta_zero():
    # independent oracle: raw arithmetic, term-by-term to N = 1e5
    alpha = 0.3
    p = Params(alpha, 0.0)
    ns = np.arange(2, 100001, dtype=np.float64)
    mu = (np.exp(-((ns - 1) ** alpha)) - np.exp(-(ns ** alpha))) / (ns - 1)
    counts = np.minimum(np.floor(np.sqrt(ns)), ns - 1)
    brute = float((mu / MU0 * counts ** 2).sum())
    assert sigma(p, 1e-12).second_moment_jump == pytest.approx(brute, abs=1e-10)


def test_second_moment_positive():
    assert sigma(DEFAULT, 1e-10).second_moment_jump > 0.0


def test_second_moment_tolerance_consistency():
    loose = sigma(DEFAULT, 1e-6).second_moment_jump
    tight = sigma(DEFAULT, 1e-13).second_moment_jump
    assert loose == pytest.approx(tight, abs=2e-6)


@pytest.mark.parametrize(
    "params", [DEFAULT, SMALL_ALPHA, Params(0.45, 0.01), Params(0.25, 0.1)], ids=str
)
@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_sigma_is_the_long_run_variance_of_its_lag_table(params, tol):
    # sigma^2 = r(0) + 2 sum_{k >= 1} r(k), the r(k) = R_(k+1) of the lag
    # table sigma reads at its cut, and of the direct walk's table to the
    # same cut within the run bracket's slack; sigma refuses exactly where
    # that cut does
    growth = (1.0 / MU0, 1.0 - 2.0 * params.beta)
    try:
        _series_cut(params, tol, growth)
    except PrecisionError as err:
        with pytest.raises(PrecisionError, match=str(err)):
            sigma(params, tol)
        return
    _, table, direct, slack = lag_route(params, tol, True)
    got = sigma(params, tol).sigma ** 2
    for r, allowed in ((table[1:], 0.0), (direct[1:], slack / MEAN_TAU)):
        long_run = math.fsum([r[0], *(2.0 * r[1:])])
        assert abs(got - long_run) <= allowed + 1e-13 * long_run


def test_second_moment_is_the_level_sum_over_its_cut():
    # a short cut: E X^2 against the plain sum of mu_m isqrt(m)^2 m^(-2 beta)
    # / mu_0 over the levels 2..cut
    p, tol = Params(0.45, 0.01), 1e-4
    cut = _series_cut(p, tol, (1.0 / MU0, 1.0 - 2.0 * p.beta))[0]
    assert cut <= 1 << 12
    terms = [
        math.exp(log_mu(p, m)) * math.isqrt(m) ** 2 * float(m) ** (-2.0 * p.beta) / MU0
        for m in range(2, cut + 1)
    ]
    assert sigma(p, tol).second_moment_jump == pytest.approx(
        math.fsum(terms), rel=1e-13, abs=0.0
    )


# ------------------------------------------------------------ run brackets

def _run_sum_mp(params, lo, hi):
    # sum mu_tau tau^(-2 beta) over the levels lo..hi at 40 digits, mu_tau
    # from the closed form (T(tau - 1) - T(tau)) / (tau - 1)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
        prev, total = mpmath.exp(-mpmath.mpf(lo - 1) ** a), mpmath.mpf(0)
        for tau in range(lo, hi + 1):
            t = mpmath.exp(-mpmath.mpf(tau) ** a)
            total += (prev - t) / (tau - 1) * mpmath.mpf(tau) ** (-2 * b)
            prev = t
        return total


# whole runs at s = 256 and 1000, the cut's last run (1448^2..2^21, part of
# a run) at the small-alpha pair, and a run at the cap's edge at (0.15, 0.3)
@pytest.mark.parametrize("params, cut, s", [
    (SMALL_ALPHA, 1 << 21, 256), (SMALL_ALPHA, 1 << 21, 1000), (SMALL_ALPHA, 1 << 21, 1448),
    (params_from_window(0.15, 0.3), 1 << 26, 8191),
], ids=["small_alpha-256", "small_alpha-1000", "small_alpha-1448", "window_0.15_0.3-8191"])
def test_run_bracket_holds_the_run_sum_at_40_digits(params, cut, s):
    runs = measure._run_bracket(params, cut)
    i = s - math.isqrt(measure._RUN_START)
    mid, hw = runs.mid[i], runs.hw[i]
    exact = _run_sum_mp(params, s * s, min((s + 1) ** 2 - 1, cut))
    assert 0.0 < hw < 0.01 * mid
    assert mid - hw <= exact <= mid + hw


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.09, 0.45),
    beta_share=st.floats(0.0, 0.999),
    s=st.integers(256, 8191),
)
@example(alpha=0.09, beta_share=0.0, s=256)
@example(alpha=0.45, beta_share=0.999, s=8191)
def test_run_bracket_holds_the_level_sum(alpha, beta_share, s):
    # the bracket of run s, the cut's last whole run, contains the sum of
    # the level kernel's weights over the run, to their rounding (1e-12
    # relative, and 1e-300 for subnormal weights)
    params = Params(alpha, beta_share * (0.5 - alpha) / 2.0)
    lo, hi = s * s, (s + 1) ** 2 - 1
    runs = measure._run_bracket(params, hi)
    tau = np.arange(lo, hi + 1, dtype=np.float64)
    direct = math.fsum(np.exp(_level_log_mu(params, lo, hi)) * tau ** (-2.0 * params.beta))
    mid, hw = runs.mid[-1], runs.hw[-1]
    assert abs(direct - mid) <= hw + 1e-12 * mid + 1e-300


# the run route at the small-alpha sigma's tols 1e-4 and 1e-5 (cuts 2^21 and
# 2^26); the direct route where the cut is at most 2^16 ((0.15, 0.3) at
# 1e-4), where the half-width passes tol ((0.25, 0.1) at 1e-12) and where
# the rounding term does ((0.3, 0.05) at 1e-13, cut 2^17)
@pytest.mark.parametrize("params, tol, runs", [
    (SMALL_ALPHA, 1e-4, True), (SMALL_ALPHA, 1e-5, True),
    (params_from_window(0.15, 0.3), 1e-4, False), (Params(0.25, 0.1), 1e-12, False),
    (DEFAULT, 1e-13, False),
], ids=["small_alpha-1e-4", "small_alpha-1e-5", "window_0.15_0.3-1e-4", "(0.25,0.1)-1e-12",
        "default-1e-13"])
def test_second_moment_on_runs_is_within_its_slack_of_the_direct_walk(params, tol, runs):
    # E X^2 from the table sigma reads against E X^2 from the direct walk's
    # table at the same cut: within the slack (half-width + rounding) where
    # the run route is taken, and then remainder + slack < tol; bit for bit
    # where it is not
    cut, _, direct, slack = lag_route(params, tol, True)
    rem = _series_cut(params, tol, (1.0 / MU0, 1.0 - 2.0 * params.beta))[1]
    got = sigma(params, tol).second_moment_jump
    want = float(direct[1] + 2.0 * direct[2:].sum()) / MU0
    fits = (cut > measure._RUN_START
            and rem + measure._run_bracket(params, cut).sigma_slack < tol)
    assert (slack > 0.0) == fits == runs
    assert abs(got - want) <= slack
    if not runs:
        assert got == want


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 0.45),
    beta_share=st.floats(0.0, 0.999),
    tol=st.floats(-14.0, -3.0).map(lambda x: 10.0 ** x),
)
@example(alpha=SMALL_ALPHA.alpha, beta_share=SMALL_ALPHA.beta / ((0.5 - SMALL_ALPHA.alpha) / 2.0),
         tol=1e-6)  # sigma refuses, the lags take the run route
def test_sigma_and_every_lag_refuse_exactly_where_the_cut_does(alpha, beta_share, tol):
    # with the walks stubbed out (no table keeps their zeros: the store is
    # cleared after), sigma and the lags 0 and 300 raise the cut rule's
    # PrecisionError word for word, or nothing, on either route
    params = Params(alpha, beta_share * (0.5 - alpha) / 2.0)
    calls = {True: lambda: sigma(params, tol),
             False: lambda: [measure.autocovariance_exact(params, k, tol) for k in (0, 300)]}
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure, "_level_walk", lambda *args: 0.0)
            for of_sigma, call in calls.items():
                growth = (1.0 / MU0, 1.0 - 2.0 * params.beta) if of_sigma else (
                    2.0, 0.5 - 2.0 * params.beta)
                try:
                    _series_cut(params, tol, growth)
                except PrecisionError as err:
                    with pytest.raises(PrecisionError) as got:
                        call()
                    assert str(got.value) == str(err)
                else:
                    call()
    finally:
        measure._TABLES.clear()


_INT64_MAX = 2 ** 63 - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(st.integers(0, _INT64_MAX), st.integers(_INT64_MAX - (1 << 33) + 1, _INT64_MAX)),
    min_size=1, max_size=16,
))
def test_floor_sqrt_is_isqrt_over_int64(taus):
    got = measure._floor_sqrt(np.array(taus, dtype=np.int64))
    assert got.tolist() == [math.isqrt(t) for t in taus]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.one_of(st.integers(1, 1 << 26), st.integers(1, 1 << 31)), st.integers(-1, 1)),
    min_size=1, max_size=16,
))
@example([((1 << 26) - 1, 1), (1 << 26, -1)])  # 2^52 - 2^27 + 1 and 2^52 - 1: float alone
@example([(1 << 26, 0)])  # 2^52 itself: the corrections run
@example([(94906267, -1), (3, 0)])  # float64 rounds 94906267^2 - 1 up to the square
def test_floor_sqrt_is_isqrt_near_squares(roots):
    # values s^2 - 1, s^2 and s^2 + 1 up to 2^62: an array whose values all
    # lie below 2^52 takes the float square root alone, any other the
    # corrections too, and both read as math.isqrt
    taus = [s * s + d for s, d in roots]
    got = measure._floor_sqrt(np.array(taus, dtype=np.int64))
    assert got.tolist() == [math.isqrt(t) for t in taus]


def test_reward_magnitude_at_the_top_of_int64():
    # isqrt(2^63 - 1) = 3037000499, and (3037000499 + 1)^2 is past int64;
    # the scalar path would warn of the overflow
    p, top = Params(0.3, 0.0), 2 ** 63 - 1
    assert excursion_reward_magnitude(p, np.array([top, 3037000499 ** 2])).tolist() == [
        3037000499.0, 3037000499.0
    ]
    assert excursion_reward_magnitude(p, top) == 3037000499.0


def test_reward_magnitude_past_int64_counts_exactly():
    # a scalar length takes the exact Python-int count: certificate levels
    # pass 2^63 (c_n ~ 1.29e19 at the 1e10 golden).  Below 2^63 a scalar
    # keeps the bits of the int64 route, pinned at 2^62
    p = Params(0.3, 0.05)
    for tau in (2 ** 63, 2 ** 64 + 1, 10 ** 30):
        assert excursion_reward_magnitude(p, tau) == math.isqrt(tau) * float(tau) ** -p.beta
    for tau in (2 ** 62, _INT64_MAX, 3037000499 ** 2, 9, 2, 1):
        want = excursion_reward_magnitude(p, np.array([tau]))
        assert excursion_reward_magnitude(p, tau) == want.item()
    assert repr(excursion_reward_magnitude(p, 2 ** 62)) == "250459136.546227"


@pytest.mark.parametrize("taus", [[2 ** 63], np.array([2 ** 63], dtype=np.uint64), [10 ** 30],
                                  [1, 2 ** 64 + 1]], ids=["list", "uint64", "object", "mixed"])
def test_reward_magnitude_refuses_arrays_past_int64(taus):
    with pytest.raises(ParameterError, match="int64"):
        excursion_reward_magnitude(Params(0.3, 0.05), taus)


def test_reward_magnitude_refuses_non_integral_lengths():
    # 9.9 would otherwise read as length 9 and earn 3.0
    p = Params(0.3, 0.0)
    for tau in (9.9, 9.0, np.float64(9.0), np.array([9.0, 5.0]), [9.5]):
        with pytest.raises(ParameterError, match="integer"):
            excursion_reward_magnitude(p, tau)
    assert excursion_reward_magnitude(p, np.int64(9)) == 3.0
    assert excursion_reward_magnitude(p, np.array([9, 5], dtype=np.uint32)).tolist() == [3.0, 2.0]


def test_sigma_assembly():
    stats = sigma(DEFAULT, 1e-12)
    assert stats.sigma > 0.0
    assert stats.sigma == pytest.approx(
        math.sqrt(stats.second_moment_jump / stats.mean_tau), abs=1e-15
    )
    assert stats.mean_tau == MEAN_TAU


# ------------------------------------------------------------------- windows

def test_window_from_params_example():
    w = window_from_params(DEFAULT)
    assert w.u == pytest.approx(0.25, abs=1e-14)
    assert w.v == pytest.approx(0.40, abs=1e-14)
    assert window_from_params(Params(0.3, 0.05)) is w  # built once per pair


def test_window_brackets_alpha():
    for alpha, beta in [(0.1, 0.0), (0.3, 0.05), (0.45, 0.02), (0.2, 0.14)]:
        p = Params(alpha, beta)
        w = window_from_params(p)
        assert 0.0 < w.u < alpha < w.v <= 0.5


def test_window_beta_zero_reaches_half():
    assert window_from_params(Params(0.3, 0.0)).v == 0.5


def test_params_from_window_example():
    p = params_from_window(0.25, 0.40)
    assert p.alpha == pytest.approx(0.3, abs=1e-14)
    assert p.beta == pytest.approx(0.05, abs=1e-14)


def test_params_from_window_top_edge_gives_beta_zero():
    assert params_from_window(0.3, 0.5).beta == 0.0


def test_params_from_window_rejects_bad_ordering():
    with pytest.raises(ParameterError):
        params_from_window(0.4, 0.25)
    with pytest.raises(ParameterError):
        params_from_window(0.0, 0.3)
    with pytest.raises(ParameterError):
        params_from_window(0.2, 0.51)


# Params cannot hold a pair whose alpha + 2 beta lies within rounding of
# 1/2, that is a window with v - u below about 1e-16: the maps refuse those
# with ParameterError.  Elsewhere they round-trip to the rounding of
# 1/2 - 2 beta, some 1e-16 absolute.  Subnormal exponents are left out: u
# = alpha / (2 (1 - alpha - 2 beta)) underflows to 0 at alpha = 5e-324.
_FLOAT_MARGIN = 1e-15
_EXPONENT = st.floats(0.0, 0.5, exclude_min=True, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(_EXPONENT, _EXPONENT)
def test_window_maps_round_trip(u, v):
    assume(u < v)
    try:
        p = params_from_window(u, v)
        w = window_from_params(p)
    except ParameterError as err:
        assert v - u < _FLOAT_MARGIN
        assert "narrower than float resolution" in str(err)
        return
    assert w.u == pytest.approx(u, rel=1e-12, abs=_FLOAT_MARGIN)
    assert w.v == pytest.approx(v, rel=1e-12, abs=_FLOAT_MARGIN)


@settings(max_examples=300, deadline=None)
@given(_EXPONENT, st.floats(0.0, 0.25))
def test_params_round_trip_through_the_window(alpha, beta):
    assume(alpha + 2.0 * beta < 0.5)
    try:
        w = window_from_params(Params(alpha, beta))
        q = params_from_window(w.u, w.v)
    except ParameterError:
        assert 0.5 - alpha - 2.0 * beta < _FLOAT_MARGIN
        return
    assert q.alpha == pytest.approx(alpha, rel=1e-12, abs=_FLOAT_MARGIN)
    assert q.beta == pytest.approx(beta, rel=1e-12, abs=_FLOAT_MARGIN)


def test_window_below_float_resolution_is_named():
    # 2 beta = 1/2 - v rounds so that alpha + 2 beta reaches 1/2
    with pytest.raises(ParameterError, match="narrower than float resolution"):
        params_from_window(1.1754943508222875e-38, 1.175494351e-38)


def test_window_start_underflow_is_named():
    # the window is cached per pair, a refusal is not: it raises every time
    for _ in range(2):
        with pytest.raises(ParameterError, match="underflows"):
            window_from_params(Params(5e-324, 0.0))


def test_window_maps_are_mutual_inverses():
    us = np.linspace(0.02, 0.48, 12)
    for u in us:
        for v in np.linspace(u + 0.01, 0.5, 8):
            p = params_from_window(u, v)
            w = window_from_params(p)
            assert abs(w.u - u) < 1e-12 and abs(w.v - v) < 1e-12
    for alpha, beta in [(0.05, 0.0), (0.3, 0.05), (0.44, 0.025)]:
        p = Params(alpha, beta)
        w = window_from_params(p)
        q = params_from_window(w.u, w.v)
        assert abs(q.alpha - alpha) < 1e-12 and abs(q.beta - beta) < 1e-12


# --------------------------------------------------------------------- table

def test_measure_table_accessors():
    table = build_measure_table(DEFAULT, 50)
    assert table.shape == (49,)
    assert np.array_equal(table, _level_log_mu(DEFAULT, 2, 50))
    assert table[17 - 2] == pytest.approx(log_mu(DEFAULT, 17), abs=1e-15)
    for n_max in (1, 0, -3, 5.5):  # 5.5 is not read as the levels 2..6
        with pytest.raises(ParameterError):
            build_measure_table(DEFAULT, n_max)


# -------------------------------------------------------------------- kernel

def _md5(*arrays) -> str:
    return hashlib.md5(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _reference_level_log_mu(alpha, lo, hi):
    # the kernel as it once read: three lines over the levels lo..hi, with
    # power_gap's and log1mexp's array branches written out (the gather and
    # scatter included), as (log mu, gaps).  The kernel's bytes are held to it.
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    nm1 = (ns - 1).astype(np.float64)
    mf = ns.astype(np.float64)
    gap = -(mf ** alpha) * np.expm1(alpha * np.log1p(-1.0 / mf))
    if not gap.min() > 0.0:
        return None, gap
    small = gap < math.log(2.0)
    log1mexp = np.empty_like(gap)
    log1mexp[small] = np.log(-np.expm1(-gap[small]))
    log1mexp[~small] = np.log1p(-np.exp(-gap[~small]))
    return -(nm1 ** alpha) + log1mexp - np.log(nm1), gap


# Below about 1e-304 the gap at levels near 2^62 underflows to 0, and the
# kernel refuses it (`test_kernel_refuses_a_gap_that_is_not_positive`).
_KERNEL_ALPHA = st.floats(1e-300, 0.5, exclude_max=True)
_KERNEL_LO = st.integers(2, (1 << 62) - (1 << 13))


@settings(max_examples=300, deadline=None)
@given(_KERNEL_ALPHA, _KERNEL_LO, st.integers(1, 1 << 13))
@example(0.3, 2, 1 << 13)
@example(0.49999999999999994, 2, 1 << 13)
@example(0.10833333333333335, (1 << 62) - (1 << 13), 1 << 13)
@example(0.45, (1 << 53) - 17, 40)
def test_kernel_bytes_match_the_three_line_formula(alpha, lo, width):
    want, _ = _reference_level_log_mu(alpha, lo, lo + width - 1)
    got = _level_log_mu(Params(alpha, 0.0), lo, lo + width - 1)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_KERNEL_ALPHA, _KERNEL_LO, st.integers(1, 1 << 13))
@example(0.49999999999999994, 2, 1)
def test_every_level_gap_lies_below_ln2(alpha, lo, width):
    # m^alpha - (m-1)^alpha falls in m, so at levels >= 2 it is at most
    # 2^alpha - 1 < sqrt(2) - 1 < ln 2: log1mexp's small-argument side is
    # the only one the kernel needs.  Every valid Params has alpha in
    # (0, 1/2), and beta does not enter the gaps.
    _, gap = _reference_level_log_mu(Params(alpha, 0.0).alpha, lo, lo + width - 1)
    assert (gap > 0.0).all() and (gap < math.log(2.0)).all()


@pytest.mark.parametrize("alpha", [0.0, -0.1, math.nan, 1e-306])
def test_kernel_refuses_a_gap_that_is_not_positive(alpha):
    # alpha 0 makes every gap 0, a negative one makes them negative, nan
    # makes them nan, and at 1e-306 the gap near 2^62 underflows to 0: each
    # is refused rather than read as log mu = -inf or nan
    fake = types.SimpleNamespace(alpha=alpha)  # Params would refuse three of them
    lo = (1 << 62) - (1 << 13) if alpha == 1e-306 else 2
    with pytest.raises(ValueError, match="gap"):
        _level_log_mu(fake, lo, lo + 99)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 18 + 7, 2 ** 62 + 3])
def test_kernel_beyond_two_to_the_53_against_mpmath(alpha, n):
    # the levels reach the kernel as int64 and are rounded to float64 once
    with mpmath.workdps(60):
        a, m = mpmath.mpf(alpha), mpmath.mpf(n)
        ref = float(mpmath.log((mpmath.exp(-(m - 1) ** a) - mpmath.exp(-m ** a)) / (m - 1)))
    [got] = _level_log_mu(Params(alpha, 0.0), n, n).tolist()
    assert got == pytest.approx(ref, rel=1e-14)


# md5 of the kernel's bytes on 8192-level blocks from the level `lo` on
_KERNEL_MD5 = {
    "default": {
        2: "e388fedf56635800011a226520122f85",
        8194: "3c5dfee5abd66dd69e404a5cfbc8d6a6",
        1 << 20: "76781400796912085f8f214f8872c4c3",
        1 << 40: "0a193ea054ee454265097a98df7fa9f0",
        (1 << 53) + 1: "c1a11e619e5f8534551b6352fbaec4ac",
    },
    "small_alpha": {
        2: "02eed9c6fafe9bfed565a3909c89334b",
        8194: "f0edfac8bc6e474d3f5d4cedcda68b33",
        1 << 20: "fcfd3dde00dc312bbb96f13452ee38f8",
        1 << 40: "1c41c1ce1ce9f3cf845ec7afdbdf8eca",
        (1 << 53) + 1: "91a304f502af4ad2a7f34cd30b635cb7",
    },
}
_PAIRS = {"default": DEFAULT, "small_alpha": SMALL_ALPHA}


@pytest.mark.parametrize("pair", sorted(_KERNEL_MD5))
@pytest.mark.parametrize("lo", sorted(_KERNEL_MD5["default"]))
def test_kernel_blocks_keep_their_bits(pair, lo):
    assert _md5(_level_log_mu(_PAIRS[pair], lo, lo + 8191)) == _KERNEL_MD5[pair][lo]


# every series the kernel feeds, pinned by repr or md5: sigma with E X^2 and
# the md5 of its lag table, per (pair, tol); p_1 per pair; log P[S''_1000 > x]
_SIGMA_PINS = {
    ("default", 1e-12): ("0.5165869770162923", "0.42216963377583966",
                         "4f64b79093014d80503065e4008e970c"),
    ("small_alpha", 1e-4): ("0.2975871199588762", "0.14009684185803725",
                            "c936eaeaa01ec6a8c6e81e3a6b56108c"),
}
# the direct walk's lag table at the small-alpha sigma's cut, 2^21 levels,
# and the E X^2 it gives: the run route replaced it at tol 1e-4
_DIRECT_TABLE_PIN = ("0.14009683997317174", "a2d8209ef4950cecd1d2d553040be851")
_P1_PINS = {"default": "0.7972140659069855", "small_alpha": "0.9215586427100384"}
_BOUNDARY_TAIL_PINS = {1.0: "-2.215885044843137", 2.2: "-2.6699124478843332",
                       5.0: "-3.875350702431279", 11.0: "-5.820171614559604",
                       23.0: "-9.272756027564146"}


@pytest.mark.parametrize("pair, tol", sorted(_SIGMA_PINS))
def test_sigma_and_its_lag_table_keep_their_bits(pair, tol):
    measure._TABLES.clear()
    stats = sigma(_PAIRS[pair], tol)
    table = measure._lags(_PAIRS[pair], tol, True)
    got = (repr(stats.sigma), repr(stats.second_moment_jump), _md5(table))
    assert got == _SIGMA_PINS[pair, tol]


def test_the_direct_lag_table_keeps_its_bits():
    table = measure._lag_table(SMALL_ALPHA, 1 << 21)
    m2 = float(table[1] + 2.0 * table[2:].sum()) / MU0
    assert (repr(m2), _md5(table)) == _DIRECT_TABLE_PIN


@pytest.mark.parametrize("pair", sorted(_P1_PINS))
def test_p1_keeps_its_bits(pair):
    measure._TABLES.clear()
    assert repr(p1(_PAIRS[pair])) == _P1_PINS[pair]


def test_boundary_tails_keep_their_bits():
    got = {x: repr(measure.boundary_tail_exact(DEFAULT, 1000, x)) for x in _BOUNDARY_TAIL_PINS}
    assert got == _BOUNDARY_TAIL_PINS


# ---------------------------------------------------------------- level walk

def test_lag_sweep_computes_each_mu_once(monkeypatch):
    computed = []
    direct = measure._level_log_mu

    def spy(params, lo, hi):
        computed.append((lo, hi))
        return direct(params, lo, hi)

    measure._TABLES.clear()
    monkeypatch.setattr(measure, "_level_log_mu", spy)
    for k in range(201):
        measure.autocovariance_exact(DEFAULT, k)
    times = np.zeros(max(hi for _, hi in computed) + 1, dtype=np.int64)
    for lo, hi in computed:
        times[lo:hi + 1] += 1
    assert times[:2].sum() == 0 and (times[2:] == 1).all()


# --------------------------------------------------------------- table store

def _store_builds(mp) -> tuple:
    # counts every build the store starts, nested ones included: returns the
    # list of (build function, args) it appends to and the unpatched functions
    from mdwindow import chain, paths

    builds, plain = [], {}
    for owner, name in [(measure, "_doubling_cut"), (measure, "_p1_sum"), (measure, "_window"),
                        (measure, "_lag_table"), (chain, "IntervalAlias"),
                        (paths, "_solve_renewal")]:
        build = plain[name] = getattr(owner, name)
        mp.setattr(owner, name, lambda *a, _b=build, _n=name: builds.append((_n, a)) or _b(*a))
    return builds, plain


def _table_bits(table):
    # the bits of a table of any kind
    if isinstance(table, np.ndarray):
        return table.dtype.str, table.tobytes()
    if hasattr(table, "cut"):  # an IntervalAlias
        return table.p1.hex(), *(getattr(table, a).tobytes()
                                 for a in ("weights", "cut", "value", "reward"))
    return repr(table)


_STORE_PAIRS = (DEFAULT, Params(0.25, 0.1), Params(0.45, 0.01))


def _store_request(kind: str, params: Params, size: int, plain: dict):
    # (read through the store, fresh build by the unpatched function) of one table
    from mdwindow import chain, paths

    growth, cut = (2.0, 0.5 - 2.0 * params.beta), 1 << (8 + size % 9)
    return {
        "renewal": (lambda: paths._renewal_table(params, size),
                    lambda: plain["_solve_renewal"](params, size)),
        "alias": (lambda: chain.interval_alias(params), lambda: plain["IntervalAlias"](params)),
        "lags": (lambda: measure._TABLES.get(("lags", params.alpha, params.beta, cut),
                                             measure._lag_table, params, cut),
                 lambda: plain["_lag_table"](params, cut)),
        "p1": (lambda: p1(params), lambda: plain["_p1_sum"](params)[0]),
        "window": (lambda: window_from_params(params),
                   lambda: plain["_window"](params.alpha, params.beta)),
        "cut": (lambda: _series_cut(params, 1e-12, growth),
                lambda: plain["_doubling_cut"](params.alpha, 1e-12, growth, None)),
    }[kind]


@settings(max_examples=40, deadline=None)
@given(
    budget=st.sampled_from([1 << 12, 1 << 16, 1 << 19, 1 << 20]),
    limit=st.integers(1, 8),
    requests=st.lists(st.tuples(
        st.sampled_from(["renewal", "alias", "lags", "p1", "window", "cut"]),
        st.integers(0, len(_STORE_PAIRS) - 1),
        st.sampled_from([1, 50, 700, 3001, 9000]),
    ), min_size=1, max_size=25),
)
def test_the_store_keeps_tables_exact_within_its_budget(budget, limit, requests):
    # each read is bit-equal to a fresh build, live bytes and the table count
    # stay within the (small) bounds after every request, and the store counts
    # every build as a miss, nested builds (p1 inside an alias) included
    store = measure._TABLES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_TABLE_BUDGET", budget)
        mp.setattr(measure, "_TABLE_LIMIT", limit)
        store.clear()
        builds, plain = _store_builds(mp)
        for kind, i, size in requests:
            read, fresh = _store_request(kind, _STORE_PAIRS[i], size, plain)
            got = read()
            assert store.bytes <= budget and len(store._tables) <= limit
            assert store.bytes == sum(e[2] for e in store._tables.values())
            assert store.misses == len(builds)
            assert _table_bits(got) == _table_bits(fresh())
    store.clear()


def test_the_store_evicts_the_least_recently_read(monkeypatch):
    store = measure._TableStore()
    monkeypatch.setattr(measure, "_TABLE_BUDGET", 3 * 800)
    for key in "abc":
        store.get(key, np.zeros, 100)  # 800 bytes each
    store.get("a", None)  # read: "b" is now the least recently read
    store.get("d", np.zeros, 100)
    assert list(store._tables) == ["a", "c", "d"]
    assert (store.misses, store.bytes) == (4, 2400)
    monkeypatch.setattr(measure, "_TABLE_LIMIT", 1)
    store.get("e", np.zeros, 1)
    assert list(store._tables) == ["e"] and store.bytes == 8


def test_renewal_tables_past_the_budget_stay_within_it(monkeypatch):
    # room for two tables of about 4096 entries: the five built leave the last two
    from mdwindow import paths

    monkeypatch.setattr(measure, "_TABLE_BUDGET", 2 * 4100 * 8)
    measure._TABLES.clear()
    p1(DEFAULT)
    for n in range(4096, 4101):
        want = paths._solve_renewal(DEFAULT, n)
        assert np.array_equal(paths._renewal_table(DEFAULT, n), want)
        assert measure._TABLES.bytes <= measure._TABLE_BUDGET
    kept = [key[-1] for key in measure._TABLES._tables if key[0] == "renewal"]
    assert kept == [4099, 4100]
    measure._TABLES.clear()


def test_a_read_of_a_built_table_takes_no_lock():
    # with its lock replaced by one that refuses, the store still reads what
    # it holds, and only a miss reaches the lock
    class Refusing:
        def __enter__(self):
            raise AssertionError("the lock was taken")

        def __exit__(self, *exc):
            return False

    store = measure._TableStore()
    table = store.get("t", np.ones, 4)
    store._lock = Refusing()
    assert store.get("t", None) is table
    with pytest.raises(AssertionError, match="lock was taken"):
        store.get("u", np.ones, 4)


def test_a_refused_build_keeps_nothing():
    # a refusal raises on every call, and each call is a build
    before = measure._TABLES.misses
    for _ in range(2):
        with pytest.raises(ParameterError, match="underflows"):
            window_from_params(Params(5e-324, 0.0))
    assert measure._TABLES.misses == before + 2


def test_threads_build_p1_and_the_window_once():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    params = Params(0.2875, 0.0375)  # a pair no other test uses
    before = measure._TABLES.misses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: (p1(params), window_from_params(params)), range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert measure._TABLES.misses == before + 2
    assert all(g[0] == got[0][0] and g[1] is got[0][1] for g in got)


def test_a_build_may_read_another_table_on_its_own_thread():
    # the alias table reads p1 and the envelope the renewal table while they
    # build, so a miss inside a build must not wait on the outer one
    store = measure._TableStore()
    outer = store.get("outer", lambda: store.get("inner", np.ones, 2) * 2)
    assert np.array_equal(outer, [2.0, 2.0]) and store.get("outer", None) is outer
    assert store.misses == 2


def test_threads_that_miss_a_refused_key_each_raise_and_keep_nothing():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def refused(_):
        with pytest.raises(ParameterError, match="underflows"):
            window_from_params(Params(5e-324, 0.0))

    before = measure._TABLES.misses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(refused, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert measure._TABLES.misses == before + 8
    assert ("window", 5e-324, 0.0) not in measure._TABLES._tables


def test_a_miss_after_a_refused_build_still_builds():
    store = measure._TableStore()

    def refuse():
        raise ParameterError("refused")

    with pytest.raises(ParameterError, match="refused"):
        store.get("bad", refuse)
    assert np.array_equal(store.get("good", np.ones, 3), np.ones(3))
    assert list(store._tables) == ["good"] and store.misses == 2
