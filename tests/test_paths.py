import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdwindow import (
    ParameterError,
    Params,
    RngStream,
    decompose,
    excursion_reward_magnitude,
    generate_path,
    iter_sums,
    phi,
    s_double_prime_count,
    s_prime_count,
)

from mdwindow.measure import MU0, _s_tilde_variance
from mdwindow.paths import _s_double_prime_count_arr, _s_prime_count_arr, conditioned_path

from conftest import DEFAULT, SMALL_ALPHA, three_se


# ----------------------------------------------------------------------- phi

def test_phi_examples():
    assert phi(Params(0.3, 0.05), 1, 1) == pytest.approx(2 ** -0.05, abs=1e-14)
    assert phi(DEFAULT, 3, 4) == 0.0          # 9 > 7
    assert phi(Params(0.3, 0.0), 2, 2) == 1.0  # boundary k^2 = k+l included
    assert phi(DEFAULT, 0, 0) == 0.0


def test_phi_rejects_half_origin():
    with pytest.raises(ParameterError):
        phi(DEFAULT, 0, 3)


def test_phi_bounded_by_one():
    for k in range(1, 40):
        for l in range(1, 40):
            assert abs(phi(DEFAULT, k, l)) <= 1.0


# ------------------------------------------------------------------- rewards

def _brute_reward(params, tau):
    return sum(
        phi(params, k, tau - k) for k in range(1, tau)
    )


def test_reward_magnitude_examples():
    p0 = Params(0.3, 0.0)
    assert excursion_reward_magnitude(p0, 9) == 3.0   # ages 1, 2, 3
    assert excursion_reward_magnitude(p0, 5) == 2.0   # ages 1, 2
    assert excursion_reward_magnitude(p0, 1) == 0.0   # empty excursion


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.18])
def test_reward_magnitude_brute_force(beta):
    params = Params(0.1, beta)
    for tau in list(range(1, 60)) + [121, 122, 143, 144, 145, 1000]:
        assert excursion_reward_magnitude(params, tau) == pytest.approx(
            _brute_reward(params, tau), rel=1e-12, abs=1e-12
        )


def test_second_moment_matches_mc_over_excursions():
    # empirical mean of squared per-excursion rewards vs the exact series
    from mdwindow import second_moment_jump
    from mdwindow.chain import interval_alias

    draws = interval_alias(DEFAULT).draw(RngStream(620), 10 ** 6)
    sq = excursion_reward_magnitude(DEFAULT, draws) ** 2
    se = float(sq.std(ddof=1)) / math.sqrt(sq.size)
    assert abs(float(sq.mean()) - second_moment_jump(DEFAULT, 1e-12)) < 3.0 * se


# ------------------------------------------------------------ boundary counts

def _brute_s_prime_count(a, b, n):
    # ages along times 1..b are a, a+1, ..., a+b-1; time 1+b is the renewal
    if 1 + b > n:
        return 0
    tau = a + b
    return sum(1 for j in range(a, a + b) if j * j <= tau)


def _brute_s_double_prime_count(a, b, n):
    # ages along times max(1, n-a+1)..n are max(1, a-n+1)..a
    tau = a + b
    return sum(1 for j in range(max(1, a - n + 1), a + 1) if j * j <= tau)


def test_s_prime_count_examples():
    assert s_prime_count(1, 8, 9) == 3
    assert s_prime_count(4, 5, 6) == 0
    assert s_prime_count(1, 8, 8) == 0  # excursion ends past the horizon


def test_s_double_prime_count_examples():
    assert s_double_prime_count(4, 12, 4) == 4
    assert s_double_prime_count(4, 12, 100) == 4
    assert s_double_prime_count(10, 2, 3) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
def test_boundary_counts_brute_force(n):
    for a in range(1, 30):
        for b in range(1, 30):
            assert s_prime_count(a, b, n) == _brute_s_prime_count(a, b, n)
            assert s_double_prime_count(a, b, n) == _brute_s_double_prime_count(a, b, n)


@st.composite
def _states(draw):
    # (a, b) with a + b <= 2^62 + 1, the level often a perfect square or
    # next to one, where the floor square root turns
    if draw(st.booleans()):
        s = draw(st.integers(1, 1 << 31))
        tau = max(s * s + draw(st.integers(-1, 1)), 2)
        a = draw(st.integers(1, tau - 1))
        return a, tau - a
    level = st.one_of(st.integers(1, 64), st.integers(1, 1 << 61))
    return draw(level), draw(level)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_states(), st.integers(1, 1 << 40), st.integers(0, 1 << 40)),
                min_size=1, max_size=32))
def test_array_counts_match_scalar(rows):
    # S''_n counts at any horizon; S'_n counts where the excursion ends in
    # the window, 1 + b <= n, the only rows `_start_chunk` passes them
    a = np.array([ab[0] for ab, _, _ in rows], dtype=np.int64)
    b = np.array([ab[1] for ab, _, _ in rows], dtype=np.int64)
    n = np.array([n for _, n, _ in rows], dtype=np.int64)
    n_prime = b + 1 + np.array([d for _, _, d in rows], dtype=np.int64)
    assert _s_double_prime_count_arr(a, b, n).tolist() == [
        s_double_prime_count(ai, bi, ni) for ai, bi, ni in zip(a.tolist(), b.tolist(), n.tolist())]
    assert _s_prime_count_arr(a, b, n_prime).tolist() == [
        s_prime_count(ai, bi, ni) for ai, bi, ni in zip(a.tolist(), b.tolist(), n_prime.tolist())]


def test_boundary_count_magnitude_bounds():
    beta = DEFAULT.beta
    for n in (5, 50, 400):
        for a in range(1, 60):
            for b in range(1, 60):
                tau = a + b
                lead = s_prime_count(a, b, n) * tau ** -beta
                trail = s_double_prime_count(a, b, n) * tau ** -beta
                assert lead <= tau ** (0.5 - beta) + 1e-12
                assert trail <= min(tau ** (0.5 - beta), n * tau ** -beta) + 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("n", [1, 10, 1000])
def test_scalar_minimum_bound(beta, n):
    # x^-beta min(n, sqrt(x)) <= n^(1-2 beta) over a wide grid
    xs = np.unique(
        np.concatenate(
            [np.arange(1, 2000), np.geomspace(2000, 10 ** 6, 500).astype(np.int64)]
        )
    ).astype(np.float64)
    vals = xs ** -beta * np.minimum(n, np.sqrt(xs))
    assert float(vals.max()) <= n ** (1.0 - 2.0 * beta) + 1e-9


# -------------------------------------------------------------- signed paths

def test_generate_path_values_bounded():
    path = generate_path(DEFAULT, 2000, RngStream(501))
    assert np.all(np.abs(path.x) <= 1.0)
    assert np.all((path.ages == 0) == (path.residuals == 0))


def test_generate_path_single_sign_per_excursion():
    path = generate_path(DEFAULT, 3000, RngStream(502))
    ages, x = path.ages, path.x
    inside = np.flatnonzero(ages > 0)
    for t0 in inside:
        start = int(t0 + 1 - ages[t0])  # excursion key: t - A_t
        assert start in path.signs
        if x[t0] != 0.0:
            assert np.sign(x[t0]) == path.signs[start]


def test_generate_path_straddler_key_nonpositive():
    # find a path whose first state is mid-excursion: its key is 1 - A_1 <= 0
    for seed in range(40):
        path = generate_path(DEFAULT, 50, RngStream(600 + seed))
        if path.ages[0] > 1:
            assert int(1 - path.ages[0]) in path.signs
            return
    pytest.fail("no straddling first excursion found in 40 seeds")


def test_generate_path_mean_zero():
    gen = RngStream(503).generator()
    tot, cnt = 0.0, 0
    sq = 0.0
    for _ in range(60):
        x = generate_path(DEFAULT, 10 ** 4, gen).x
        tot += float(x.sum())
        sq += float((x ** 2).sum())
        cnt += x.size
    mean = tot / cnt
    # X_t are dependent within excursions; excursion count scales the SE
    se = math.sqrt(sq / cnt) / math.sqrt(cnt / 3.0)
    assert abs(mean) < 4.0 * se


def test_generate_path_value_symmetry():
    x = generate_path(DEFAULT, 2 * 10 ** 5, RngStream(504)).x
    for q in (0.2, 0.5, 0.9):
        plus = float((x >= q).mean())
        minus = float((x <= -q).mean())
        assert abs(plus - minus) < 3.0 * math.sqrt(
            (plus + minus) / x.size + 1e-12
        ) + 5e-4


def test_generate_path_determinism():
    a = generate_path(DEFAULT, 500, RngStream(505, 3))
    b = generate_path(DEFAULT, 500, RngStream(505, 3))
    assert np.array_equal(a.x, b.x) and a.signs == b.signs


def _assert_chain_path(path):
    # per-time states follow the step rules, every excursion's key (the
    # renewal opening it, t - A_t) is in the sign map, and X_t is that
    # excursion's sign times phi
    ages, res = path.ages.tolist(), path.residuals.tolist()
    for t in range(path.n - 1):
        if res[t] > 1:
            assert (ages[t + 1], res[t + 1]) == (ages[t] + 1, res[t] - 1), t
        elif res[t] == 1:
            assert (ages[t + 1], res[t + 1]) == (0, 0), t
        else:
            assert ages[t] == 0 and ages[t + 1] in (0, 1), t
    for t in range(path.n):
        if ages[t] == 0:
            assert res[t] == 0 and path.x[t] == 0.0
            if t < path.n - 1:  # a renewal before n opens an excursion
                assert t + 1 in path.signs
        else:
            sign = path.signs[t + 1 - ages[t]]
            want = sign * phi(path.params, ages[t], res[t])
            assert path.x[t] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_generate_path_follows_the_chain():
    for seed in range(5):
        _assert_chain_path(generate_path(DEFAULT, 400, RngStream(506, seed)))


@pytest.mark.parametrize(
    "n, a, b", [(50, 10, 5), (50, 49, 3), (200, 1, 1), (200, 30, 1000), (12, 11, 200)]
)
def test_conditioned_path_pins_the_end_state(n, a, b):
    for seed in range(20):
        path = conditioned_path(DEFAULT, n, a, b, RngStream(509, seed))
        assert path.ages[n - a - 1] == 0  # renewal at n - a
        assert (path.ages[-1], path.residuals[-1]) == (a, b)
        assert path.signs.keys() >= {n - a}
        _assert_chain_path(path)


def test_conditioned_path_draws_only_signs_without_a_prefix():
    # n - a = 1: the renewal at time 1 needs no backward prefix, so the one
    # draw is the final excursion's sign
    gen, ref = (np.random.default_rng(510) for _ in range(2))
    path = conditioned_path(DEFAULT, 30, 29, 4, gen)
    ref.random(1)
    assert gen.random() == ref.random()
    assert list(path.signs) == [1]


def test_conditioned_path_first_renewal_law():
    # given a renewal at r, the first renewal in [1, r] sits at j with
    # probability u(r - j) P[tau >= j] (the backward roll from r last
    # renews at j, and the interval opened there reaches back past 1)
    from scipy.stats import chisquare

    from mdwindow.measure import _p_law
    from mdwindow.paths import _renewal_table

    n, a, reps = 30, 6, 20000
    r = n - a
    gen = RngStream(511).generator()
    first = np.array(
        [int(np.argmax(conditioned_path(DEFAULT, n, a, 2, gen).ages == 0)) + 1
         for _ in range(reps)]
    )
    u = _renewal_table(DEFAULT, r)
    at_least = 1.0 - np.concatenate(([0.0], np.cumsum(_p_law(DEFAULT, r)[1:])))
    j = np.arange(1, r + 1)
    law = u[r - j] * at_least[j - 1]
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    seen = np.bincount(first, minlength=r + 1)[1:]
    cells = np.minimum(j, 12) - 1  # first renewals past 12 pooled
    seen = np.bincount(cells, weights=seen)
    expected = np.bincount(cells, weights=law) * reps
    assert expected.min() > 20
    stat = chisquare(seen, expected * (reps / expected.sum()))
    assert stat.pvalue > 1e-3, stat


# ------------------------------------------------------------- decomposition

def test_decompose_identity_on_random_paths():
    gen = RngStream(506).generator()
    for _ in range(300):
        d = decompose(generate_path(DEFAULT, 300, gen))
        lhs = d.s_prime + d.s_tilde + d.s_double_prime
        assert lhs == pytest.approx(d.s_total, rel=1e-9, abs=1e-9)


def test_decompose_no_renewal_case():
    # short horizons often sit inside one excursion
    found = False
    gen = RngStream(507).generator()
    for _ in range(500):
        path = generate_path(DEFAULT, 4, gen)
        d = decompose(path)
        if not d.interior_renewal:
            found = True
            assert d.s_prime == 0.0 and d.s_tilde == 0.0
            assert d.s_double_prime == d.s_total
            assert np.all(path.ages > 0)
    assert found


def test_decompose_origin_endpoints():
    gen = RngStream(508).generator()
    checked = 0
    for _ in range(400):
        path = generate_path(DEFAULT, 30, gen)
        d = decompose(path)
        if path.ages[0] == 0:
            assert d.s_prime == 0.0
        if path.ages[-1] == 0:
            assert d.s_double_prime == 0.0
            checked += 1
    assert checked > 0


def test_decompose_boundary_magnitudes_match_counts():
    gen = RngStream(509).generator()
    beta = DEFAULT.beta
    for _ in range(300):
        path = generate_path(DEFAULT, 60, gen)
        d = decompose(path)
        if not d.interior_renewal:
            continue
        a1, b1 = int(path.ages[0]), int(path.residuals[0])
        an, bn = int(path.ages[-1]), int(path.residuals[-1])
        n = path.n
        if a1 >= 1:
            expect = s_prime_count(a1, b1, n) * (a1 + b1) ** -beta
            assert abs(d.s_prime) == pytest.approx(expect, abs=1e-12)
        else:
            assert d.s_prime == 0.0
        if an >= 1:
            expect = s_double_prime_count(an, bn, n) * (an + bn) ** -beta
            assert abs(d.s_double_prime) == pytest.approx(expect, abs=1e-12)
        else:
            assert d.s_double_prime == 0.0


def test_decompose_case4_deterministic_bounds():
    gen = RngStream(510).generator()
    n = 200
    cap = n ** (1.0 - 2.0 * DEFAULT.beta)
    for _ in range(400):
        d = decompose(generate_path(DEFAULT, n, gen))
        assert abs(d.s_prime) <= cap + 1e-9
        assert abs(d.s_double_prime) <= cap + 1e-9


# ----------------------------------------------------------- batched engine

def test_iter_sums_deterministic():
    a = next(iter_sums(DEFAULT, 100, 5000, RngStream(601).generator()))
    b = next(iter_sums(DEFAULT, 100, 5000, RngStream(601).generator()))
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_iter_sums_identity_and_flags():
    ch = next(iter_sums(DEFAULT, 100, 20000, RngStream(602).generator()))
    assert np.allclose(
        ch["s_total"], ch["s_prime"] + ch["s_tilde"] + ch["s_dprime"]
    )
    no_renew = ~ch["interior"]
    assert np.all(ch["s_prime"][no_renew] == 0.0)
    assert np.all(ch["s_tilde"][no_renew] == 0.0)
    # trailing end state is stationary: levels 0 with weight mu_0
    lev = ch["an"] + ch["bn"]
    assert np.all((lev == 0) | (lev >= 2))


def test_iter_sums_end_state_marginal_is_stationary():
    ch = next(iter_sums(DEFAULT, 200, 10 ** 5, RngStream(603).generator()))
    lev = ch["an"] + ch["bn"]
    reps = lev.size
    for k in (1, 5, 20):
        exact = math.exp(-(float(k) ** DEFAULT.alpha))
        emp = float((lev > k).mean())
        assert abs(emp - exact) < three_se(exact, reps)


def test_iter_sums_matches_path_based_decomposition():
    # same distributions from the excursion-level engine and from the
    # materialized-path route; compare first/second moments
    gen = RngStream(604).generator()
    n, reps = 150, 3000
    cols = {"s_prime": [], "s_tilde": [], "s_dprime": []}
    for _ in range(reps):
        d = decompose(generate_path(DEFAULT, n, gen))
        cols["s_prime"].append(d.s_prime)
        cols["s_tilde"].append(d.s_tilde)
        cols["s_dprime"].append(d.s_double_prime)
    eng = next(iter_sums(DEFAULT, n, 30000, RngStream(605).generator()))
    for key, vals in cols.items():
        a = np.asarray(vals)
        b = eng[key if key != "s_dprime" else "s_dprime"]
        se = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 4.0 * se
        # variances agree within a generous band
        ratio = a.var() / b.var()
        assert 0.8 < ratio < 1.25


def test_iter_sums_boundary_sign_symmetry_and_independence():
    ch = next(iter_sums(DEFAULT, 100, 10 ** 5, RngStream(606).generator()))
    both = ch["interior"] & (ch["s_prime"] != 0.0) & (ch["s_dprime"] != 0.0)
    sp = np.sign(ch["s_prime"][both])
    sd = np.sign(ch["s_dprime"][both])
    m = int(both.sum())
    assert m > 1000
    assert abs(float(sp.mean())) < 3.0 / math.sqrt(m)
    assert abs(float((sp * sd).mean())) < 3.0 / math.sqrt(m)


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA], ids=["default", "small_alpha"])
@pytest.mark.parametrize("n", [3, 37, 1000])
def test_rolled_paths_end_at_the_origin_with_weight_mu0(params, n):
    # a path whose horizon falls on a self-loop renewal ends at the origin;
    # a wrong sign or an off-by-one there moves P[(A_n, B_n) = 0] off mu_0
    reps = 1 << 16
    ch = next(iter_sums(params, n, reps, RngStream(614, n).generator(), chunk=reps))
    origin = ch["an"] == 0
    assert np.array_equal(origin, ch["bn"] == 0)
    se = math.sqrt(MU0 * (1.0 - MU0) / reps)
    assert abs(float(origin.mean()) - MU0) < 5.0 * se


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA], ids=["default", "small_alpha"])
def test_rolled_middle_term_has_the_exact_variance(params):
    n, reps = 1000, 1 << 18
    x = np.concatenate(
        [c["s_tilde"] for c in iter_sums(params, n, reps, RngStream(615).generator())]
    )
    var = float(x.var())
    m4 = float(np.mean((x - x.mean()) ** 4))
    se = math.sqrt((m4 - var * var) / reps)
    assert abs(var - _s_tilde_variance(params, n)) < 5.0 * se


def test_iter_sums_without_rewards_skips_middle_term():
    ch = next(
        iter_sums(DEFAULT, 100, 1000, RngStream(607).generator(), with_rewards=False)
    )
    assert "s_tilde" not in ch and "s_total" not in ch
    assert "s_prime" in ch and "s_dprime" in ch


def test_iter_sums_fixed_chunking_is_reproducible():
    # the draw layout depends on the chunk size (vectorized consumption),
    # so reproducibility is stated per fixed chunking
    runs = [
        np.concatenate(
            [p["s_total"] for p in iter_sums(DEFAULT, 80, 4000, RngStream(608).generator(), chunk=1000)]
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0], runs[1])
    other = np.concatenate(
        [p["s_total"] for p in iter_sums(DEFAULT, 80, 4000, RngStream(608).generator(), chunk=4000)]
    )
    assert other.shape == runs[0].shape


# ---------------------------------------------------- boundary-only sampler

@pytest.mark.parametrize("n", [1000, 5000])
def test_renewal_table_last_renewal_identity(n):
    # sum_{k<=j} u(k) P[tau > j-k] = 1: the last renewal at or before j is
    # at some k and the interval opened there outlasts j.  The identity
    # holds for the truncated law p_1..p_(n-1) the table uses, so the tails
    # are summed exactly in rationals.  n = 5000 spans several FFT levels.
    from fractions import Fraction
    from itertools import accumulate

    from mdwindow.measure import _p_law
    from mdwindow.paths import _renewal_table

    for params in (DEFAULT, Params(0.1, 0.0), Params(0.45, 0.0)):
        u = _renewal_table(params, n)
        assert u.size == n and u[0] == 1.0
        p = _p_law(params, n - 1)
        tail = np.array([float(1 - f) for f in accumulate(map(Fraction, p))])
        resid = np.abs(np.convolve(u, tail)[:n] - 1.0)
        assert float(resid.max()) < 1e-12, f"alpha={params.alpha}"


def test_renewal_table_matches_mpmath_recursion():
    # 50-digit recursion from the closed-form level weights; p_1 enters as
    # the certified float from p1
    import mpmath

    from mdwindow import p1
    from mdwindow.paths import _renewal_table

    jmax = 200
    with mpmath.workdps(50):
        a = mpmath.mpf(DEFAULT.alpha)
        mu0 = 1 - mpmath.exp(-1)
        p = [mpmath.mpf(0), mpmath.mpf(p1(DEFAULT))] + [
            (mpmath.exp(-((k - 1) ** a)) - mpmath.exp(-(k ** a))) / ((k - 1) * mu0)
            for k in range(2, jmax + 1)
        ]
        ref = [mpmath.mpf(1)]
        for j in range(1, jmax + 1):
            ref.append(mpmath.fsum(p[k] * ref[j - k] for k in range(1, j + 1)))
        ref = np.array([float(v) for v in ref])
    u = _renewal_table(DEFAULT, jmax + 1)
    assert np.allclose(u, ref, rtol=1e-13, atol=0.0)


def _build_under_threads(get, args):
    # eight threads miss a cold cache together; returns the number of
    # builds and whether all threads received the same object
    import sys
    from concurrent.futures import ThreadPoolExecutor

    before = get.cache_info().misses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: get(*args), range(8)))
    finally:
        sys.setswitchinterval(interval)
    return get.cache_info().misses - before, all(g is got[0] for g in got)


def test_renewal_table_built_once_under_threads():
    from mdwindow.paths import _renewal_table

    # a horizon no other test tabulates
    assert _build_under_threads(_renewal_table, (DEFAULT, 3001)) == (1, True)


def test_engine_tables_built_once_under_threads():
    from mdwindow.chain import interval_alias
    from mdwindow.paths import _signed_rewards

    params = Params(0.3125, 0.0625)  # a pair no other test uses
    assert _build_under_threads(interval_alias, (params,)) == (1, True)
    assert _build_under_threads(_signed_rewards, (params,)) == (1, True)


def test_mc_tail_curve_shards_share_one_alias_table():
    # the two shard threads of a rewards curve once built the table twice
    from mdwindow.chain import interval_alias
    from mdwindow.oracles import mc_tail_curve

    params = Params(0.31, 0.05)
    before = interval_alias.cache_info().misses
    mc_tail_curve(params, 200, {"total": [1.0]}, 4000, 0.95, RngStream(3), shards=2)
    assert interval_alias.cache_info().misses == before + 1


def test_renewal_table_refuses_beyond_cap():
    from mdwindow import PrecisionError
    from mdwindow.paths import _RENEWAL_CAP, _renewal_table

    with pytest.raises(PrecisionError):
        _renewal_table(DEFAULT, _RENEWAL_CAP + 1)


def _joint_cells(ch, n):
    # (interior, A_1, B_1, A_n, A_n + B_n, sign of S'') with the unbounded
    # coordinates binned on a log scale, plus the time between the first
    # and the last renewal, n - 1 - B_1 - A_n, binned finely: the renewal
    # weight u acts on it
    gap = np.where(ch["interior"], n - 1 - ch["b1"] - ch["an"], -1)
    b1_edges = [1 << k for k in range(n.bit_length()) if 1 << k < n] + [n]
    cols = (
        ch["interior"].astype(np.int64),
        np.searchsorted([1, 2, 4, 16], ch["a1"], side="right"),
        np.searchsorted(b1_edges, ch["b1"], side="right"),
        np.searchsorted([1, 2, 4, 16, 64], ch["an"], side="right"),
        np.searchsorted([2, 8, 32, 128, 512], ch["an"] + ch["bn"], side="right"),
        np.sign(ch["s_dprime"]).astype(np.int64) + 1,
        np.searchsorted([0, 1, 2, 3, 8], gap, side="right"),
    )
    key = np.zeros(ch["a1"].size, dtype=np.int64)
    for col in cols:
        key = key * 16 + col
    return key


@pytest.mark.parametrize("n", [6, 40])
def test_boundary_sampler_matches_rolled_engine_joint_law(n):
    # the rewards engine rolls every excursion, an independent route to
    # the same joint law of start state, end state and trailing sign; at
    # n = 6 the renewal weights u(0..5) differ most from their limit mu_0
    from scipy.stats import chi2

    reps = 300_000
    keys = [
        _joint_cells(next(iter_sums(DEFAULT, n, reps, RngStream(seed, n).generator(),
                                    with_rewards=rewards, chunk=reps)), n)
        for seed, rewards in ((611, False), (612, True))
    ]
    cells, inv = np.unique(np.concatenate(keys), return_inverse=True)
    x = np.bincount(inv[:reps], minlength=cells.size)
    y = np.bincount(inv[reps:], minlength=cells.size)
    sparse = x + y < 20  # pooled into one cell
    x = np.append(x[~sparse], x[sparse].sum())
    y = np.append(y[~sparse], y[sparse].sum())
    keep = x + y > 0
    x, y = x[keep], y[keep]
    stat = float(((x - y) ** 2 / (x + y)).sum())
    dof = x.size - 1
    assert dof > 50
    assert chi2.sf(stat, dof) > 1e-3, f"chi2={stat:.1f} on {dof} dof"
