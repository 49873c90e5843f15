import concurrent.futures
import json
import math
import os
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mdwindow import (
    BracketEmptyError,
    ParameterError,
    Params,
    PrecisionError,
    RateQuery,
    RngStream,
    WindowSet,
    autocovariance_bound,
    autocovariance_exact,
    boundary_sum_sup,
    boundary_tail_exact,
    case1_upper,
    case2_certificate,
    gaussian_reference,
    generate_path,
    log_mu,
    mc_tail_curve,
    predicted_rate,
    s_double_prime_count,
    sigma,
    wilson_interval,
    window_from_params,
)
from mdwindow import measure, oracles
from mdwindow.oracles import conditioned_dprime_exceedance

from conftest import DEFAULT, three_se

GOLDEN = Path(__file__).parent / "golden" / "certificates.json"
N_GRID = (10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12)


# ------------------------------------------------------------------ wilson CI

def test_wilson_z_matches_scipy():
    # z comes from the standard library; SciPy's normal quantile is the
    # reference, measured at most 2 ulp away at these confidences
    from statistics import NormalDist

    from scipy.stats import norm

    for conf in (0.95, 0.99, 0.999, 0.9999):
        ref = float(norm.ppf(0.5 + 0.5 * conf))
        assert abs(NormalDist().inv_cdf(0.5 + 0.5 * conf) - ref) <= 2.0 * math.ulp(ref)
        p, n = 0.037, 1000
        denom = 1 + ref * ref / n
        center = (p + ref * ref / (2 * n)) / denom
        spread = ref * math.sqrt((p * (1 - p) + ref * ref / (4 * n)) / n) / denom
        lo, hi = wilson_interval(37, n, conf)
        assert lo == pytest.approx(center - spread, rel=1e-14)
        assert hi == pytest.approx(center + spread, rel=1e-14)


def test_wilson_matches_textbook_value():
    # 5 successes out of 100 at 95%: classic Wilson bounds
    lo, hi = wilson_interval(5, 100, 0.95)
    z = 1.959963984540054
    p, n = 0.05, 100
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    spread = z * math.sqrt((p * (1 - p) + z * z / (4 * n)) / n) / denom
    assert lo == pytest.approx(center - spread, abs=1e-12)
    assert hi == pytest.approx(center + spread, abs=1e-12)


def test_wilson_zero_hits_rule_of_three():
    lo, hi = wilson_interval(0, 1000, 0.95)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.05 ** (1 / 1000), rel=1e-12)
    # the classic 3/n rule emerges for large n
    assert hi == pytest.approx(3.0 / 1000, rel=0.01)


def test_wilson_ordering_invariants():
    for hits, reps in [(0, 10), (3, 10), (10, 10), (50, 1000)]:
        lo, hi = wilson_interval(hits, reps, 0.999)
        p = hits / reps
        assert 0.0 <= lo <= p <= hi <= 1.0
    assert wilson_interval(np.int64(3), np.int64(10), 0.999) == wilson_interval(3, 10, 0.999)


@pytest.mark.parametrize("hits, reps", [(5, 3), (-1, 3), (1, 3.5), (1.0, 3), (1, 0), (True, 3)])
def test_wilson_refuses_counts_that_are_not_hits_of_reps(hits, reps):
    # hits outside [0, reps] once raised a bare math domain error, and a
    # fractional reps passed
    with pytest.raises(ParameterError):
        wilson_interval(hits, reps, 0.9)


# ---------------------------------------------------------------- rate query

def test_rate_query_validation():
    with pytest.raises(ParameterError):
        RateQuery(0, 0.3, 1.0)
    with pytest.raises(ParameterError):
        RateQuery(10, 0.6, 1.0)
    with pytest.raises(ParameterError):
        RateQuery(10, 0.3, 0.0)
    with pytest.raises(ParameterError, match="horizon must be an integer"):
        RateQuery(1e6, 0.32, 1.0)  # refused here, not deep inside a certificate
    q = RateQuery(100, 0.25, 2.0)
    assert q.threshold == pytest.approx(2.0 * 100 ** 0.75, abs=1e-12)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_an_integer(flag):
    # operator.index(True) is 1: each of these once read True as n = 1
    calls = [
        lambda: RateQuery(flag, 0.3, 1.0),
        lambda: measure.log_p(DEFAULT, flag),
        lambda: autocovariance_bound(DEFAULT, flag),
        lambda: measure.excursion_reward_magnitude(DEFAULT, flag),
        lambda: boundary_tail_exact(DEFAULT, flag, 0.5),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be an integer"):
            call()


@pytest.mark.parametrize("n", [10.5, 1000.5, 10.0, True])
def test_path_and_tail_entry_points_refuse_a_non_integral_horizon(n):
    # README promises a ParameterError, not a truncated horizon: 10.5 once
    # gave an 11-point path and 1000.5 a tail between those of 1000 and 1001
    from mdwindow import build_composite, sample_composite_path
    from mdwindow.paths import conditioned_path, iter_sums

    composite = build_composite(WindowSet([(0.25, 0.4)]))
    calls = [
        lambda: generate_path(DEFAULT, n, RngStream(1)),
        lambda: iter_sums(DEFAULT, n, 4, RngStream(1)),  # refused at the call
        lambda: conditioned_path(DEFAULT, n, 2, 3, RngStream(1)),
        lambda: mc_tail_curve(DEFAULT, n, {"dprime": [1.0]}, 10, 0.9, RngStream(1)),
        lambda: boundary_tail_exact(DEFAULT, n, 5.0),
        lambda: boundary_sum_sup(DEFAULT, n),
        lambda: sample_composite_path(composite, n, RngStream(1)),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="horizon|path length"):
            call()


def test_monte_carlo_entry_points_refuse_non_integral_counts():
    from mdwindow.paths import iter_sums

    # refused when iter_sums is called, not at the first chunk
    with pytest.raises(ParameterError, match="reps must be an integer"):
        iter_sums(DEFAULT, 10, 4.5, RngStream(1))
    for chunk in (0, 2.5):  # 0 rows per chunk once looped forever
        with pytest.raises(ParameterError, match="chunk"):
            iter_sums(DEFAULT, 10, 4, RngStream(1), chunk=chunk)
    for reps in (0, 2.5):
        with pytest.raises(ParameterError, match="reps"):
            conditioned_dprime_exceedance(DEFAULT, 100, 5, 30, 1.0, reps, RngStream(1))
    for bad in ({"reps": 2.5}, {"reps": 0}, {"shards": 1.5}, {"shards": 0}):
        args = {"reps": 10, "shards": 1} | bad
        with pytest.raises(ParameterError, match="reps|shards"):
            mc_tail_curve(DEFAULT, 10, {"dprime": [1.0]}, args["reps"], 0.9, RngStream(1),
                          args["shards"])
    n = np.int64(1000)
    assert boundary_tail_exact(DEFAULT, n, 5.0) == boundary_tail_exact(DEFAULT, 1000, 5.0)
    assert len(generate_path(DEFAULT, np.int64(10), RngStream(1)).x) == 10


@pytest.mark.parametrize("n", [-5, 0])
def test_boundary_sum_sup_refuses_an_empty_horizon(n):
    # n = -5 once returned the complex number -4.05+1.32j
    with pytest.raises(ParameterError, match="horizon must be >= 1"):
        boundary_sum_sup(DEFAULT, n)
    assert boundary_sum_sup(DEFAULT, 1) == 1.0


# ------------------------------------------------------------------- mc tail

def test_mc_tilde_at_negligible_threshold_is_at_most_half():
    # the middle term is symmetric with an atom at zero
    query = RateQuery(300, 0.25, 1e-300)
    est = mc_tail_curve(
        DEFAULT, 300, {"tilde": [query.threshold]}, 20000, 0.99, RngStream(801)
    )["tilde"][0]
    assert est.p_hat <= 0.5 + three_se(0.5, 20000)
    assert 0.3 < est.p_hat  # sanity: not degenerate


def test_mc_boundary_above_deterministic_cap_never_hits():
    n = 1000
    thr = float(n) ** (1.0 - 2.0 * DEFAULT.beta)
    # exceeding the per-term cap would need a level beyond ~2e5, whose
    # probability is below 1e-17; with 1e5 paths hits are always zero
    res = mc_tail_curve(
        DEFAULT, n, {"boundary": [thr]}, 10 ** 5, 0.999, RngStream(802), shards=2
    )
    est = res["boundary"][0]
    assert est.hits == 0
    assert est.ci_high == pytest.approx(1.0 - 0.001 ** (1.0 / 10 ** 5), rel=1e-9)


def test_mc_tail_deterministic_across_reruns():
    thr = {"total": [RateQuery(200, 0.3, 0.5).threshold]}
    a = mc_tail_curve(DEFAULT, 200, thr, 30000, 0.99, RngStream(803), shards=3)
    b = mc_tail_curve(DEFAULT, 200, thr, 30000, 0.99, RngStream(803), shards=3)
    assert a == b


@pytest.mark.parametrize("affinity", ["one_cpu", "no_affinity_call"])
def test_mc_tail_on_one_cpu_runs_the_shards_inline(monkeypatch, affinity):
    # three blocks, so three CPUs would start a pool
    reps = 2 * oracles._BLOCK_PATHS + 1
    thr = {"boundary": [2.0, 8.0], "total": [RateQuery(200, 0.3, 0.5).threshold]}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    threaded = mc_tail_curve(DEFAULT, 200, thr, reps, 0.99, RngStream(806), shards=3)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started for one CPU")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    if affinity == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # affinity wins
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert mc_tail_curve(DEFAULT, 200, thr, reps, 0.99, RngStream(806), shards=3) == threaded


_BLOCK_REPS = (3000, 2 * oracles._BLOCK_PATHS + 1, 140_000)


@pytest.mark.parametrize("reps", (1, oracles._BLOCK_PATHS) + _BLOCK_REPS)
def test_block_i_draws_from_shard_i(reps):
    stream = RngStream(11, 2)
    blocks = oracles._run_blocks(reps, stream, 3, lambda r, gen: (r, gen.random(4)))
    sizes = [r for r, _ in blocks]
    assert sum(sizes) == reps and len(blocks) == -(-reps // oracles._BLOCK_PATHS)
    assert set(sizes[:-1]) <= {oracles._BLOCK_PATHS}
    for i, (_, draws) in enumerate(blocks):
        assert np.array_equal(draws, stream.shard(i).random(4))


@pytest.mark.parametrize("reps", _BLOCK_REPS)
def test_mc_tail_does_not_depend_on_the_shard_count(monkeypatch, reps):
    # eight CPUs, so shards 2, 3 and 8 start up to that many threads (one per block)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    thr = {"dprime": [0.5, 2.0], "total": [RateQuery(50, 0.3, 0.5).threshold]}
    runs = [mc_tail_curve(DEFAULT, 50, thr, reps, 0.99, RngStream(807), shards=s)
            for s in (1, 2, 3, 8)]
    assert all(run == runs[0] for run in runs[1:])
    assert runs[0]["total"][0].reps == reps


def test_mc_tail_rejects_unknown_target():
    with pytest.raises(ParameterError):
        mc_tail_curve(DEFAULT, 50, {"bogus": [1.0]}, 10, 0.9, RngStream(1))


def test_a_nan_or_nested_threshold_is_refused():
    # a nan threshold would count no hits, a 2-D list would fail in a
    # NumPy broadcast, and a ragged list or a string in NumPy's conversion;
    # +-inf stay valid thresholds
    for bad in ([1.0, math.nan], math.nan, [[1.0, 2.0]], [[1.0], [2.0, 3.0]], ["a"], "a"):
        with pytest.raises(ParameterError, match="dprime thresholds"):
            mc_tail_curve(DEFAULT, 50, {"dprime": bad}, 10, 0.9, RngStream(1))
    with pytest.raises(ParameterError, match="nan"):
        conditioned_dprime_exceedance(DEFAULT, 100, 5, 30, math.nan, 10, RngStream(1))
    est = mc_tail_curve(DEFAULT, 50, {"dprime": [-math.inf, math.inf]}, 10, 0.9, RngStream(1))
    assert [e.hits for e in est["dprime"]] == [10, 0]
    assert conditioned_dprime_exceedance(DEFAULT, 100, 5, 30, -math.inf, 3, RngStream(1)).hits == 3


def test_mc_symmetry_between_signed_tails():
    # P[component > x] vs P[component < -x] for every target
    n, reps = 300, 10 ** 5
    xs = np.array([1.0, 4.0, 10.0])
    up = mc_tail_curve(
        DEFAULT, n,
        {"total": xs, "tilde": xs, "dprime": xs},
        reps, 0.99, RngStream(804), shards=2,
    )
    # the mirrored events, via the mirrored thresholds of -component:
    # P[comp < -x] = P[-comp > x]; rerun on fresh paths with negated values
    # is equivalent by symmetry to rerunning the same estimator, so compare
    # two independent runs of the two one-sided frequencies
    from mdwindow.paths import iter_sums

    hits_neg = {k: np.zeros(xs.size, dtype=np.int64) for k in ("total", "tilde", "dprime")}
    for chunk in iter_sums(DEFAULT, n, reps, RngStream(805).generator()):
        comp = {
            "total": chunk["s_total"],
            "tilde": chunk["s_tilde"],
            "dprime": chunk["s_dprime"],
        }
        for k, v in comp.items():
            hits_neg[k] += ((-v)[None, :] > xs[:, None]).sum(axis=1)
    for k in ("total", "tilde", "dprime"):
        for i in range(xs.size):
            p_up = up[k][i].p_hat
            p_dn = hits_neg[k][i] / reps
            joint = math.sqrt(
                max(p_up * (1 - p_up), 1e-12) / reps
                + max(p_dn * (1 - p_dn), 1e-12) / reps
            )
            assert abs(p_up - p_dn) < 3.0 * joint + 1e-9


# ------------------------------------------------------- exact boundary tail

def test_boundary_tail_impossible_is_minus_inf():
    n = 100
    cap = float(n) ** (1.0 - 2.0 * DEFAULT.beta)
    assert boundary_tail_exact(DEFAULT, n, cap) == -math.inf
    assert boundary_tail_exact(DEFAULT, n, cap * 2) == -math.inf


def test_boundary_tail_single_level_lower_bound():
    # just below the magnitude of a level-2 end state, at least the (1,1)
    # states contribute: P >= mu_2 / 2
    x = 0.99 * 2.0 ** (-DEFAULT.beta)
    lp = boundary_tail_exact(DEFAULT, 10, x)
    assert lp >= math.log(0.5 * math.exp(log_mu(DEFAULT, 2)))


def test_boundary_tail_resolves_deep_tail_exactly():
    # just below the attained cap, only end states around level n^2 qualify;
    # the enumeration reaches them and returns an astronomically small but
    # exact value no simulation could ever see
    n = 1000
    cap = float(n) ** (1.0 - 2.0 * DEFAULT.beta)
    lp = boundary_tail_exact(DEFAULT, n, cap * 0.999999)
    assert math.isfinite(lp)
    assert lp < -80.0


def test_boundary_tail_unreachable_precision_raises():
    # at n = 1e5 the near-cap states live at level ~1e10, far beyond the
    # enumeration cap, so the result cannot be told apart from the remainder
    n = 10 ** 5
    cap = float(n) ** (1.0 - 2.0 * DEFAULT.beta)
    with pytest.raises(PrecisionError):
        boundary_tail_exact(DEFAULT, n, cap * 0.999999)


def test_boundary_tail_brute_force_small_horizon():
    # enumerate every end state (a, b) with a + b <= N directly: at level
    # tau, S''_n at age a counts the ages j in (max(a - n, 0), a] with
    # j^2 <= tau, a sum of n shifted masks over a = 1..tau-1
    n, x = 7, 1.3
    beta = DEFAULT.beta
    total = 0.0
    for tau in range(2, 4000):
        j = np.arange(1, tau)
        carries = np.concatenate((np.zeros(n - 1, dtype=np.int64), j * j <= tau))
        count = sum(carries[n - 1 - k : n - 1 - k + tau - 1] for k in range(n))
        hits = np.count_nonzero(count * tau ** -beta > x)
        total += hits * math.exp(log_mu(DEFAULT, tau))
    assert boundary_tail_exact(DEFAULT, n, x, rel_tail=1e-9) == pytest.approx(
        math.log(0.5 * total), abs=1e-6
    )


def test_boundary_tail_agrees_with_mc():
    n = 200
    xs = np.array([1.0, 3.0, 7.0])
    res = mc_tail_curve(
        DEFAULT, n, {"dprime": xs}, 5 * 10 ** 5, 0.999, RngStream(806), shards=2
    )
    for x, est in zip(xs, res["dprime"]):
        exact = math.exp(boundary_tail_exact(DEFAULT, n, float(x)))
        assert est.ci_low <= exact <= est.ci_high


# ------------------------------------------------------------ rate transform

def test_rate_transform_examples():
    assert RateQuery(10 ** 4, 0.25, 1.0).rate(-50.0) == pytest.approx(-0.5, abs=1e-14)
    assert RateQuery(123, 0.4, 1.0).rate(0.0) == 0.0
    assert RateQuery(10 ** 4, 0.25, 1.0).rate(-12.5) == pytest.approx(-0.125, abs=1e-14)


def test_gaussian_reference_examples():
    assert gaussian_reference(1.0) == -0.5
    assert gaussian_reference(2.0) == -2.0
    assert gaussian_reference(1e-9) == pytest.approx(0.0, abs=1e-17)
    with pytest.raises(ParameterError):
        gaussian_reference(0.0)


# ------------------------------------------------------------- certificates

def test_case1_formula_against_independent_evaluation():
    q = RateQuery(10 ** 12, 0.15, 1.0)
    cert = case1_upper(DEFAULT, q)
    with mpmath.workdps(40):
        x = mpmath.mpf("0.5") * mpmath.mpf(10) ** mpmath.mpf(12 * 0.65)
        k = int(mpmath.floor(x ** (1 / mpmath.mpf("0.45"))))
        ref = float(mpmath.log(2) - mpmath.mpf(k) ** mpmath.mpf("0.3"))
    assert cert.log_prob == pytest.approx(ref, rel=1e-10)


def test_case1_rates_decrease_without_bound():
    rates = [case1_upper(DEFAULT, RateQuery(n, 0.15, 1.0)).rate for n in N_GRID]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < -20.0


def test_case1_slope_matches_exponent():
    lp = {
        n: case1_upper(DEFAULT, RateQuery(n, 0.15, 1.0)).log_prob
        for n in (10 ** 10, 10 ** 12)
    }
    slope = (math.log(-lp[10 ** 12]) - math.log(-lp[10 ** 10])) / (
        math.log(10 ** 12) - math.log(10 ** 10)
    )
    target = (0.15 + 0.5) * DEFAULT.alpha / (0.5 - DEFAULT.beta)
    assert abs(slope / target - 1.0) < 0.02


def test_case1_requires_gamma_below_window():
    with pytest.raises(ParameterError):
        case1_upper(DEFAULT, RateQuery(10 ** 6, 0.25, 1.0))
    with pytest.raises(ParameterError):
        case1_upper(DEFAULT, RateQuery(10 ** 6, 0.3, 1.0))


def test_case2_construction_validity():
    for n in N_GRID:
        cert = case2_certificate(DEFAULT, RateQuery(n, 0.32, 1.0))
        assert cert.a_n + cert.b_n == cert.c_n
        assert math.isqrt(cert.c_n) < cert.a_n < n
        assert cert.b_n >= 1
        # certified magnitude beats the threshold
        count = s_double_prime_count(cert.a_n, cert.b_n, n)
        log_mag = math.log(count) - DEFAULT.beta * math.log(cert.c_n)
        assert log_mag > math.log(1.0) + 0.82 * math.log(n)
        # bound assembly
        assert cert.log_prob == pytest.approx(
            math.log(0.25) + log_mu(DEFAULT, cert.c_n), abs=1e-12
        )


def test_case2_rates_increase_toward_zero():
    rates = [case2_certificate(DEFAULT, RateQuery(n, 0.32, 1.0)).rate for n in N_GRID]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(r < 0.0 for r in rates)
    assert rates[-1] > -0.2


def test_case2_gamma_guards():
    with pytest.raises(ParameterError):
        case2_certificate(DEFAULT, RateQuery(10 ** 6, 0.25, 1.0))
    with pytest.raises(ParameterError):
        case2_certificate(DEFAULT, RateQuery(10 ** 6, 0.45, 1.0))


def _case2_min_n(gamma, c):
    """The smallest usable horizon, as the error at n = 2 reports it."""
    with pytest.raises(BracketEmptyError) as err:
        case2_certificate(DEFAULT, RateQuery(2, gamma, c))
    return err.value.min_n


def test_case2_bracket_empty_reports_minimal_horizon():
    min_n = _case2_min_n(0.32, 1.0)
    with pytest.raises(BracketEmptyError) as err:
        case2_certificate(DEFAULT, RateQuery(max(min_n // 2, 1), 0.32, 1.0))
    assert err.value.min_n == min_n
    # the reported horizon works, the one below does not
    cert = case2_certificate(DEFAULT, RateQuery(min_n, 0.32, 1.0))
    assert cert.kind == "case2_lower"
    with pytest.raises(BracketEmptyError):
        case2_certificate(DEFAULT, RateQuery(min_n - 1, 0.32, 1.0))


def test_case2_without_usable_horizon_reports_none():
    # 1e-14 below v the level bracket needs a horizon beyond 2^40
    with pytest.raises(BracketEmptyError) as err:
        case2_certificate(DEFAULT, RateQuery(1000, 0.39999999999999, 1.0))
    assert err.value.min_n is None


def test_case1_below_cutoff_reports_minimal_horizon():
    # the cutoff floor((c n^(gamma+1/2) / 2)^(1/(1/2-beta))) is 0 at n = 1000
    with pytest.raises(BracketEmptyError) as err:
        case1_upper(DEFAULT, RateQuery(1000, 0.1, 0.01))
    min_n = err.value.min_n
    assert min_n == math.ceil((2.0 / 0.01) ** (1.0 / 0.6))
    assert case1_upper(DEFAULT, RateQuery(min_n, 0.1, 0.01)).log_prob < math.log(2.0)
    with pytest.raises(BracketEmptyError) as err:
        case1_upper(DEFAULT, RateQuery(min_n - 1, 0.1, 0.01))
    assert err.value.min_n == min_n


@pytest.mark.parametrize("certify, gamma", [(case2_certificate, 0.3), (case1_upper, 0.24)])
def test_certificates_beyond_float_range_raise_precision_error(certify, gamma):
    # c_n ~ n^1.89 (case 2) and the cutoff ~ n^1.64 (case 1) pass 1.8e308
    with pytest.raises(PrecisionError, match="n=1e\\+200"):
        certify(DEFAULT, RateQuery(10 ** 200, gamma, 1.0))
    certify(DEFAULT, RateQuery(10 ** 160, gamma, 1.0))


def test_case2_case3_bracket_switch_continuous_at_alpha():
    # gamma below alpha uses the 2 gamma / alpha cap, above it the square
    lo = case2_certificate(DEFAULT, RateQuery(10 ** 8, DEFAULT.alpha - 1e-9, 1.0))
    hi = case2_certificate(DEFAULT, RateQuery(10 ** 8, DEFAULT.alpha + 1e-9, 1.0))
    assert abs(math.log(lo.c_n) - math.log(hi.c_n)) < 1e-4


@pytest.mark.parametrize("n", [10 ** 10, 10 ** 12])
def test_certificate_levels_beyond_int64_stay_exact(n):
    golden = json.loads(GOLDEN.read_text())
    entry = next(e for e in golden["case2"] if e["n"] == n)
    c_n, a_n, b_n = entry["c_n"], entry["a_n"], entry["b_n"]
    assert c_n > np.iinfo(np.int64).max  # no int64 array can hold the level
    count = s_double_prime_count(a_n, b_n, n)
    # a_n = isqrt(c_n) + 1 < n, so every age up to isqrt(c_n) counts
    assert type(count) is int and count == math.isqrt(c_n)
    cert = case2_certificate(DEFAULT, RateQuery(n, golden["gamma_inside"], 1.0))
    assert (cert.c_n, cert.a_n, cert.b_n) == (c_n, a_n, b_n)
    assert (cert.log_prob, cert.rate) == (entry["log_prob"], entry["rate"])


def test_certificates_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    for entry in golden["case2"]:
        cert = case2_certificate(
            DEFAULT, RateQuery(int(entry["n"]), golden["gamma_inside"], 1.0)
        )
        assert cert.rate == pytest.approx(entry["rate"], rel=1e-12)
        assert cert.log_prob == pytest.approx(entry["log_prob"], rel=1e-12)
        assert cert.c_n == int(entry["c_n"])
    for entry in golden["case1"]:
        cert = case1_upper(
            DEFAULT, RateQuery(int(entry["n"]), golden["gamma_below"], 1.0)
        )
        assert cert.rate == pytest.approx(entry["rate"], rel=1e-12)
        assert cert.log_prob == pytest.approx(entry["log_prob"], rel=1e-12)


def test_conditioned_soundness_of_case2_event():
    # at the smallest usable horizon, impose the certificate's end state on
    # honest sampled paths: the only remaining randomness is the sign
    min_n = _case2_min_n(0.32, 1.0)
    cert = case2_certificate(DEFAULT, RateQuery(min_n, 0.32, 1.0))
    thr = RateQuery(min_n, 0.32, 1.0).threshold
    est = conditioned_dprime_exceedance(
        DEFAULT, min_n, cert.a_n, cert.b_n, thr, reps=4000, rng=RngStream(807)
    )
    assert abs(est.p_hat - 0.5) < three_se(0.5, 4000)


@pytest.mark.parametrize("n, a, b", [(50, 10, 5), (50, 49, 3), (200, 30, 1000), (12, 11, 200)])
def test_conditioned_exceedance_zero_at_the_pinned_magnitude(n, a, b):
    # given (A_n, B_n) = (a, b), |S''_n| is exactly count * (a+b)^(-beta)
    mag = s_double_prime_count(a, b, n) * float(a + b) ** -DEFAULT.beta
    for thr in (mag, 1.5 * mag):
        est = conditioned_dprime_exceedance(DEFAULT, n, a, b, thr, 300, RngStream(809))
        assert est.hits == 0
    below = conditioned_dprime_exceedance(DEFAULT, n, a, b, 0.999 * mag, 300, RngStream(809))
    assert 0 < below.hits < 300  # the sign is a fair coin


@pytest.mark.parametrize("a, b", [(10, 0), (10, -4), (0, 5), (50, 5)])
def test_conditioned_exceedance_rejects_off_space_end_state(a, b):
    # b < 1 is no state; a outside 1..n-1 leaves no renewal at n - a
    with pytest.raises(ParameterError):
        conditioned_dprime_exceedance(Params(0.3, 0.05), 50, a, b, 1.0, 200, RngStream(810))


# -------------------------------------------------------------- boundary sup

def test_boundary_sum_sup_dominates_simulation():
    from mdwindow import iter_sums

    n = 200
    sup = boundary_sum_sup(DEFAULT, n)
    res = next(iter_sums(DEFAULT, n, 50000, RngStream(808).generator()))
    combo = np.abs(res["s_prime"] + res["s_dprime"])
    assert float(combo.max()) <= sup + 1e-9


def test_boundary_sum_sup_single_excursion_cap_attained():
    # the single-excursion branch is exactly n^(1-2 beta), attained at
    # level n^2 with age n
    n = 30
    mag = s_double_prime_count(n, n * n - n, n) * float(n * n) ** -DEFAULT.beta
    assert mag == pytest.approx(float(n) ** (1.0 - 2.0 * DEFAULT.beta), rel=1e-12)
    assert boundary_sum_sup(DEFAULT, n) >= mag


# ------------------------------------------------------------ autocovariance

def test_autocovariance_nonnegative_and_positive_at_zero():
    r0 = autocovariance_exact(DEFAULT, 0)
    assert r0 > 0.0
    for k in range(0, 30):
        assert autocovariance_exact(DEFAULT, k) >= 0.0


def test_autocovariance_dominance_bound():
    for k in list(range(1, 30)) + [50, 100]:
        assert autocovariance_exact(DEFAULT, k) <= autocovariance_bound(DEFAULT, k)


def test_autocovariance_long_run_identity_with_sigma():
    stats = sigma(DEFAULT, 1e-13)
    series = autocovariance_exact(DEFAULT, 0, 1e-13) + 2.0 * sum(
        autocovariance_exact(DEFAULT, k, 1e-13) for k in range(1, 201)
    )
    assert series == pytest.approx(stats.sigma ** 2, abs=1e-8)


def test_autocovariance_does_not_depend_on_level_blocks(monkeypatch):
    # a block edge may split the levels that share one isqrt; 777 splits
    # many of them, 2^22 none (one block per series)
    lags = (0, 1, 3, 60, 90, 150)
    base = [autocovariance_exact(DEFAULT, k) for k in lags]
    for block in (777, 1 << 22):
        monkeypatch.setattr(measure, "_LEVEL_BLOCK", block)
        measure._TABLES.clear()  # rebuild the run sums in these blocks
        for k, ref in zip(lags, base):
            assert autocovariance_exact(DEFAULT, k) == pytest.approx(ref, rel=1e-13)


# the level series pairs: the lag table of (0.45, 0.01) at tol 1e-6 ends at
# lag 32, and (0.25, 0.1) at tol 1e-12 walks 2^18 levels
SWEEP_PAIRS = (DEFAULT, Params(0.45, 0.01), Params(0.25, 0.1))


def _spy_cuts(monkeypatch):
    # records (params, cut) of every cut the autocovariance takes
    cuts, rule = [], measure._series_cut

    def spy(params, *rest):
        cut, rem = rule(params, *rest)
        cuts.append((params, cut))
        return cut, rem

    monkeypatch.setattr(measure, "_series_cut", spy)
    return cuts


def _level_terms(params, k, lo, hi):
    # mu_tau tau^(-2 beta) (isqrt(tau) - k) over the levels lo..hi
    tau = np.arange(lo, hi + 1, dtype=np.int64)
    mu = np.exp(measure._level_log_mu(params, lo, hi))
    return mu * tau.astype(np.float64) ** (-2.0 * params.beta) * (measure._floor_sqrt(tau) - k)


@pytest.mark.parametrize("params", SWEEP_PAIRS)
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_autocovariance_matches_fsum_over_its_levels(monkeypatch, params, tol):
    # r(k) from the lag table against a correctly rounded sum over the same
    # levels (k+1)^2..cut; a lag whose levels all lie past the cut reads
    # 0.0.  At DEFAULT, tol 1e-12, that is lag 200 of these
    cuts, past = _spy_cuts(monkeypatch), []
    for k in (0, 1, 7, 60, 150, 174, 180, 200):
        got = autocovariance_exact(params, k, tol)
        (_, cut), = cuts
        cuts.clear()
        start = max((k + 1) ** 2, 2)
        if start > cut:
            past.append(k)
            assert got == 0.0
        else:
            assert got == pytest.approx(
                math.fsum(_level_terms(params, k, start, cut)), rel=1e-13, abs=0.0
            )
    if (params, tol) == (DEFAULT, 1e-12):
        assert past == [200]


def test_a_deep_lag_table_matches_fsum_and_never_rises(monkeypatch):
    # at (0.2, 0.0), tol 1e-12, every lag cuts at 2^22 and the lags 0..2047
    # read one table over 2,048 runs; the later lags read 0.0
    params, tol, cut = Params(0.2, 0.0), 1e-12, 1 << 22
    cuts = _spy_cuts(monkeypatch)
    values = [autocovariance_exact(params, k, tol) for k in range(2051)]
    assert {c for _, c in cuts} == {cut}
    assert measure._lags(params, tol, False).size == 2049
    assert values[2047] > 0.0 and values[2048:] == [0.0] * 3
    assert all(a >= b for a, b in zip(values, values[1:]))
    for k in (0, 1, 100, 1000, 2046, 2047):
        blocks = range(max((k + 1) ** 2, 2), cut + 1, 1 << 18)
        want = math.fsum(t for lo in blocks
                         for t in _level_terms(params, k, lo, min(lo + (1 << 18) - 1, cut)).tolist())
        assert values[k] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_a_lag_past_int64_reads_zero_or_refuses_with_its_pair():
    # (k+1)^2 passes 2^63 from k = 3,037,000,499.  Such a lag lies past
    # every lag table and reads 0.0, and where the lags cannot be cut (alpha
    # 0.01 at tol 1e-9) it refuses as lag 0 does
    edge = 3_037_000_499
    for k in (edge - 1, edge, 10 ** 10):
        assert autocovariance_exact(DEFAULT, k) == 0.0
    for k in (0, 10 ** 10):
        with pytest.raises(PrecisionError):
            autocovariance_exact(Params(0.01, 0.0), k, 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.2, 0.45),
    beta_share=st.floats(0.0, 0.999),
    tol=st.floats(-12.0, -6.0).map(lambda x: 10.0 ** x),
)
@example(alpha=0.2, beta_share=0.0, tol=1e-12)  # the deepest cut, 2^22
def test_every_lag_keeps_the_certified_contract(alpha, beta_share, tol):
    # every lag 0..table size + 2 lies in [0, autocovariance_bound], never
    # rises, and is within tol of the sum of its levels (k+1)^2..2 cut
    # (twice the cut: at alpha 0.2 the cut reaches 2^22)
    params = Params(alpha, beta_share * (0.5 - alpha) / 2.0)
    cut = measure._series_cut(params, tol, (2.0, 0.5 - 2.0 * params.beta))[0]
    size = measure._lags(params, tol, False).size
    # run weights W_s over the levels 2..2 cut, then sum_{s > k} (s - k) W_s
    runs = np.zeros(math.isqrt(2 * cut) + 1)
    for lo in range(2, 2 * cut + 1, 1 << 18):
        hi = min(lo + (1 << 18) - 1, 2 * cut)
        tau = np.arange(lo, hi + 1, dtype=np.int64)
        w = np.exp(measure._level_log_mu(params, lo, hi)) * tau.astype(np.float64) ** (-2.0 * params.beta)
        runs += np.bincount(measure._floor_sqrt(tau), w, minlength=runs.size)
    s = np.arange(runs.size)
    prev = math.inf
    for k in range(size + 3):
        got = autocovariance_exact(params, k, tol)
        assert 0.0 <= got <= prev
        if k >= 1:
            assert got <= autocovariance_bound(params, k)
        assert abs(got - float(((s - k) * runs)[k + 1:].sum())) <= tol
        prev = got


@pytest.mark.parametrize("lag", [2.0, 1.5, "3", None])
def test_a_non_integral_lag_is_refused(lag):
    with pytest.raises(ParameterError, match="lag must be an integer"):
        autocovariance_exact(DEFAULT, lag)


def test_a_numpy_integer_lag_is_a_lag():
    assert autocovariance_exact(DEFAULT, np.int64(7)) == autocovariance_exact(DEFAULT, 7)


def test_cold_lag_sweep_walks_the_levels_once_per_cut(monkeypatch):
    # every lag reads the run sums of its (pair, cut), walked once over
    # 2..cut: one walk per pair and tolerance
    walks, walk = [], measure._level_walk

    def spy(params, block_sum, lo, hi):
        walks.append((params, lo, hi))
        return walk(params, block_sum, lo, hi)

    monkeypatch.setattr(measure, "_level_walk", spy)
    cuts = _spy_cuts(monkeypatch)
    measure._TABLES.clear()
    for params in SWEEP_PAIRS:
        for tol in (1e-6, 1e-12):
            for k in range(201):
                autocovariance_exact(params, k, tol)
    walked = {(params, 2, cut) for params, cut in cuts}
    assert len(walks) == len(walked) == 6
    assert set(walks) == walked


def test_threads_on_a_cold_run_sum_cache_agree():
    # eight threads sweep the lags on a cold store: as many builds as a
    # serial sweep (one cut memo, one lag table), and every thread gets the
    # bits of a serial sweep
    def sweep(_):
        return [autocovariance_exact(DEFAULT, k).hex() for k in range(201)]

    measure._TABLES.clear()
    serial = sweep(0)
    assert measure._TABLES.misses == 2
    measure._TABLES.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(sweep, range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [serial] * 8
    assert measure._TABLES.misses == 2


def test_autocovariance_matches_empirical():
    path = generate_path(DEFAULT, 5 * 10 ** 5, RngStream(809))
    x = path.x
    for k in (0, 1, 2, 5):
        prods = x[: x.size - k] * x[k:]
        batches = np.array_split(prods, 100)
        means = np.array([b.mean() for b in batches])
        se = float(means.std(ddof=1) / math.sqrt(100))
        assert abs(float(prods.mean()) - autocovariance_exact(DEFAULT, k)) < 3 * se


def test_autocovariance_brute_force_state_sum():
    # independent enumeration over states: pairs (age a, age a+k) inside one
    # excursion of level tau, both reward-carrying
    k = 3
    total = 0.0
    for tau in range(2, 20000):
        mu = math.exp(log_mu(DEFAULT, tau))
        count = sum(
            1
            for a in range(1, math.isqrt(tau) + 1)
            if a + k <= tau - 1 and (a + k) * (a + k) <= tau
        )
        total += mu * tau ** (-2 * DEFAULT.beta) * count
    # the enumeration stops at 2e4; the neglected mass is ~3e-9
    assert autocovariance_exact(DEFAULT, k, 1e-10) == pytest.approx(
        total, abs=1e-7
    )


# ------------------------------------------------------------ predicted rate

def test_predicted_rate_piecewise():
    ws = WindowSet([(0.25, 0.4)])
    assert predicted_rate(ws, 0.3, 1.0) == 0.0
    assert predicted_rate(ws, 0.1, 2.0) == -2.0
    assert predicted_rate(ws, 0.45, 1.0) == -0.5


def test_predicted_rate_boundary_error():
    ws = WindowSet([(0.25, 0.4)])
    for gamma in (0.25, 0.4):
        assert predicted_rate(ws, gamma, 1.0) is None


def _raises_parameter_error(certify, params, query) -> bool:
    """Whether the certificate refuses the query's regime; a missing
    certificate or a level past float range is an answer, not a refusal."""
    try:
        certify(params, query)
    except ParameterError:
        return True
    except (BracketEmptyError, PrecisionError):
        pass
    return False


@settings(max_examples=150, deadline=None)
@given(
    st.floats(1e-3, 0.49), st.floats(0.0, 0.245),
    st.lists(st.floats(1e-3, 0.5), min_size=4, max_size=4, unique=True),
    st.integers(1, 10 ** 12), st.floats(1e-3, 10.0),
    st.lists(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True), max_size=3),
)
@example(0.3, 0.05, [0.1, 0.15, 0.25, 0.4], 10 ** 6, 1.0, [0.2])
def test_one_regime_rule(alpha, beta, ends, n, c, extra):
    # the certificates' guards and the claimed rate all follow
    # WindowSet.locate, on every endpoint, its float neighbours and between
    assume(alpha + 2.0 * beta < 0.5)
    params = Params(alpha, beta)
    pair, union = window_from_params(params), WindowSet(np.reshape(sorted(ends), (2, 2)))
    for windows in (pair, union):
        edges = [x for w in windows.windows for x in w]
        gammas = [*edges, *(math.nextafter(x, 0.0) for x in edges),
                  *(math.nextafter(x, 1.0) for x in edges), *extra]
        for gamma in (g for g in gammas if 0.0 < g < 0.5):
            where = windows.locate(gamma)
            assert (where == "boundary") == (gamma in edges)
            predicted = predicted_rate(windows, gamma, c)
            assert (predicted is None) == (where == "boundary")
            assert (predicted == 0.0) == (where == "inside")
            assert predicted in (None, 0.0, gaussian_reference(c))
            if windows is pair:
                q = RateQuery(n, gamma, c)
                assert _raises_parameter_error(case2_certificate, params, q) \
                    == (where != "inside")
                assert _raises_parameter_error(case1_upper, params, q) == (where != "below")


def test_predicted_rate_domain_guard():
    ws = WindowSet([(0.25, 0.4)])
    with pytest.raises(ParameterError):
        predicted_rate(ws, 0.6, 1.0)
    with pytest.raises(ParameterError):
        predicted_rate(ws, 0.3, -1.0)
