import functools
import hashlib
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from mdwindow.measure import MU0, _p_law, _reward_ages, _s_tilde_variance
from mdwindow.chain import raw_words, sample_stationary_levels
from mdwindow.paths import _materialize, conditioned_path

from conftest import DEFAULT, SMALL_ALPHA, alias_mass, three_se

_PAIRS = {"default": DEFAULT, "small_alpha": SMALL_ALPHA}


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
    from mdwindow import sigma
    from mdwindow.chain import interval_alias

    draws = interval_alias(DEFAULT).draw(RngStream(620), 10 ** 6)
    sq = excursion_reward_magnitude(DEFAULT, draws) ** 2
    se = float(sq.std(ddof=1)) / math.sqrt(sq.size)
    assert abs(float(sq.mean()) - sigma(DEFAULT, 1e-12).second_moment_jump) < 3.0 * se


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


def _check_reward_ages(tau, first, last, count):
    # j^2 <= tau holds on an initial run of the ages, so the count is right
    # when the ages first..first+count-1 carry reward and the next one does
    # not or lies past last; short ranges are enumerated as well
    top = first + count  # first age not counted
    assert count >= 0
    assert count == 0 or ((top - 1) ** 2 <= tau and top - 1 <= last)
    assert top > last or top * top > tau
    if last - first < 4096:
        assert count == sum(1 for j in range(first, last + 1) if j * j <= tau)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_states(), st.integers(1, 1 << 40)), min_size=1, max_size=32))
def test_array_counts_match_scalar(rows):
    # _reward_ages on int64 arrays against Python ints and the definition,
    # over the ages of S'_n (a..tau-1, used where 1 + b <= n), of S''_n
    # (max(a-n, 0)+1..a) and of a full excursion (1..tau-1)
    a = np.array([ab[0] for ab, _ in rows], dtype=np.int64)
    b = np.array([ab[1] for ab, _ in rows], dtype=np.int64)
    n = np.array([n for _, n in rows], dtype=np.int64)
    tau = a + b
    for first, last in ((a, tau - 1), (np.maximum(a - n, 0) + 1, a), (1, tau - 1)):
        got = _reward_ages(tau, first, last)
        assert got.dtype == np.int64
        firsts = np.broadcast_to(first, tau.shape).tolist()
        for t, f, l, count in zip(tau.tolist(), firsts, last.tolist(), got.tolist()):
            assert _reward_ages(t, f, l) == count
            _check_reward_ages(t, f, l, count)


@st.composite
def _big_ages(draw):
    # a level beyond int64, often next to a perfect square, and an age
    # range starting below or above the last reward-carrying age
    if draw(st.booleans()):
        s = draw(st.integers(1 << 32, 1 << 80))
        tau = s * s + draw(st.integers(-1, 1))
    else:
        tau = draw(st.integers(1 << 63, 1 << 200))
    first = draw(st.integers(1, 2 * math.isqrt(tau) + 2))
    return tau, first, draw(st.integers(first - 1, tau - 1))


@settings(max_examples=300, deadline=None)
@given(_big_ages())
def test_reward_ages_beyond_int64(args):
    count = _reward_ages(*args)
    assert type(count) is int
    _check_reward_ages(*args, count)


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


@st.composite
def _excursion_tables(draw):
    # an excursion table covering 1..n: the first excursion holds time 1 at
    # age a (a = 0: it opens there) with b more steps, the lengths after it
    # are often 1, and the table stops at the first excursion ending past n
    n = draw(st.integers(1, 60))
    a, b = draw(st.integers(0, 30)), draw(st.integers(1, 30))
    starts, taus = [1 - a], [a + b]
    while starts[-1] + taus[-1] <= n:
        starts.append(starts[-1] + taus[-1])
        taus.append(draw(st.one_of(st.just(1), st.integers(1, 40))))
    return n, starts, taus


@settings(max_examples=300, deadline=None)
@given(_excursion_tables(), st.integers(0, 2 ** 32))
@example((1, [1], [1]), 0)        # n = 1 at a renewal
@example((1, [-4], [9]), 0)       # n = 1 inside a straddler
@example((6, [1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 1, 3]), 1)
def test_materialize_matches_a_per_time_walk_of_the_table(table, seed):
    # time t lies in the excursion (s, tau) with s < t < s + tau, at age
    # t - s, residual s + tau - t and value sign * phi; other times are
    # renewals.  The signs are one draw per excursion, in table order.
    n, starts, taus = table
    path = _materialize(
        DEFAULT, n, np.random.default_rng(seed), np.array(starts), np.array(taus)
    )
    u = np.random.default_rng(seed).random(len(starts)).tolist()
    signs = {s: 1 if v < 0.5 else -1 for s, v in zip(starts, u)}
    ages, residuals, x = [0] * n, [0] * n, [0.0] * n
    for t in range(1, n + 1):
        for s, tau in zip(starts, taus):
            if s < t < s + tau:
                ages[t - 1], residuals[t - 1] = t - s, s + tau - t
                x[t - 1] = signs[s] * phi(DEFAULT, t - s, s + tau - t)
    assert path.ages.tolist() == ages and path.residuals.tolist() == residuals
    assert path.x.tolist() == pytest.approx(x, rel=1e-15, abs=0.0)
    assert list(path.signs.items()) == list(signs.items())
    assert all(type(v) is int for v in path.signs.values())
    d = decompose(path)
    scale = float(np.abs(path.x).sum()) + 1.0
    assert d.s_prime + d.s_tilde + d.s_double_prime == pytest.approx(
        d.s_total, rel=0.0, abs=1e-14 * scale
    )


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


def _bulk_cases(pairs, horizons):
    # (params, n, bulk) per pair and horizon, each as it runs (bulk None,
    # id "n-pair") and with paths._BULK = 0 (id "n-pair-bulk"): then every
    # round is a bulk round and every crossing draws its runs' composition
    return [pytest.param(_PAIRS[pair], n, bulk, id=f"{n}-{pair}" + ("-bulk" if bulk == 0 else ""))
            for bulk in (None, 0) for n in horizons for pair in pairs]


def _set_bulk(monkeypatch, bulk):
    if bulk is not None:
        from mdwindow import paths

        monkeypatch.setattr(paths, "_BULK", bulk)


@pytest.mark.parametrize("params, n, bulk", _bulk_cases(("default", "small_alpha"), (3, 37, 1000)))
def test_rolled_paths_end_at_the_origin_with_weight_mu0(monkeypatch, params, n, bulk):
    # a path whose horizon falls on a self-loop renewal ends at the origin;
    # a wrong sign or an off-by-one there moves P[(A_n, B_n) = 0] off mu_0
    _set_bulk(monkeypatch, bulk)
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


def _pooled_chi2(got, want):
    # chi-square statistic and degrees of freedom of counts against their
    # expectations, the cells expecting fewer than 5 pooled into one
    # (dropped if it expects none)
    sparse = want < 5.0
    got = np.append(got[~sparse], got[sparse].sum())
    want = np.append(want[~sparse], want[sparse].sum())
    got, want = got[want > 0], want[want > 0]
    return float(((got - want) ** 2 / want).sum()), got.size - 1


def _s_tilde_law(params, n):
    # P[S~_n = s] by a pass over renewal times, as {excursion counts: mass}:
    # S~_n is sum_tau c_tau R(tau) with c the signed count of complete
    # excursions of length tau.  The first renewal 1 + B_1 takes mu_0 at
    # the origin (B_1 = 0) and sum_(tau > b) mu_tau = mu_0 T(b) at residual
    # b, T(b) = P[tau > b]; from a renewal at t a length tau <= n - t moves
    # mass p_tau to t + tau with +-R(tau), and the rest, T(n - t), crosses
    # n.  The paths with B_1 >= n hold sum_(tau > n) (tau - n) mu_tau =
    # exp(-n^alpha) - (n - 1) mu_0 T(n), as (tau - 1) mu_tau sums to
    # exp(-n^alpha) past n, so the total mass checks p and mu_0 too
    p = _p_law(params, n)
    tail = 1.0 - np.cumsum(p)
    zero = (0,) * n
    law = {zero: math.exp(-(n ** params.alpha)) - (n - 1) * MU0 * tail[n]}
    at = [{} for _ in range(n + 1)]  # the renewals at time t, by their counts
    at[1][zero] = MU0
    for b in range(1, n):
        at[1 + b][zero] = MU0 * tail[b]
    for t in range(1, n + 1):
        for key, mass in at[t].items():
            law[key] = law.get(key, 0.0) + mass * tail[n - t]
            for tau in range(1, n - t + 1):
                for sign in (1, -1):  # R(1) = 0: a self-loop keeps the counts
                    step = key if tau == 1 else key[:tau] + (key[tau] + sign,) + key[tau + 1 :]
                    at[t + tau][step] = at[t + tau].get(step, 0.0) + 0.5 * mass * p[tau]
    return law


@functools.cache
def _s_tilde_atoms(params, n):
    # the exact law of S~_n as its atoms (within 1e-9 merged), ascending,
    # and their masses; the law's mass is 1 and its variance the closed form's
    law = _s_tilde_law(params, n)
    r = np.zeros(n)
    r[1:] = excursion_reward_magnitude(params, np.arange(1, n))
    atoms = np.array([float(np.dot(key, r)) for key in law])
    mass = np.array(list(law.values()))
    assert abs(mass.sum() - 1.0) < 1e-12
    var = float(mass @ atoms**2 - (mass @ atoms) ** 2)
    assert var == pytest.approx(_s_tilde_variance(params, n), rel=1e-9, abs=0.0)
    order = np.argsort(atoms)
    atoms, mass = atoms[order], mass[order]
    cell = np.concatenate(([0], np.cumsum(np.diff(atoms) > 1e-9)))
    return atoms[np.flatnonzero(np.diff(cell, prepend=-1))], np.bincount(cell, mass)


def _s_tilde_pvalue(params, n, values, mass, cut):
    # chi-square of 2^17 rolled S~_n against the exact law, in cells split
    # halfway between the atoms at indices cut, sparse cells pooled
    from scipy.stats import chi2

    edges = 0.5 * (values[cut + 1] + values[cut])
    reps = 1 << 17
    x = next(iter_sums(params, n, reps, RngStream(760, n).generator(), chunk=reps))["s_tilde"]
    got = np.bincount(np.searchsorted(edges, x), minlength=edges.size + 1).astype(np.float64)
    want = reps * np.add.reduceat(mass, np.append(0, cut + 1))
    stat, dof = _pooled_chi2(got, want)
    return chi2.sf(stat, max(dof, 1)), stat, dof


@pytest.mark.parametrize("params, n, bulk", _bulk_cases(("default", "small_alpha"), (2, 5, 12)))
def test_rolled_middle_term_has_the_exact_small_horizon_law(monkeypatch, params, n, bulk):
    # one cell per atom
    _set_bulk(monkeypatch, bulk)
    values, mass = _s_tilde_atoms(params, n)
    p, stat, dof = _s_tilde_pvalue(params, n, values, mass, np.arange(values.size - 1))
    assert p > 1e-4, f"chi2={stat:.1f} on {dof} cells"


@pytest.mark.parametrize("params, n, bulk", _bulk_cases(("default", "small_alpha"), (30,)))
def test_rolled_middle_term_has_the_exact_law_at_n30(monkeypatch, params, n, bulk):
    # 50,925 atoms: 64 cells of about equal mass, each split after the atom
    # where the cumulative mass first reaches i/64 (28 cells at the
    # small-alpha pair, where the atoms near 0 hold more).  With paths._BULK = 0
    # every round is a bulk round, so the folded length-2 draw and the
    # crossing rows' rebuild meet the whole law
    _set_bulk(monkeypatch, bulk)
    values, mass = _s_tilde_atoms(params, n)
    cut = np.unique(np.searchsorted(np.cumsum(mass), np.arange(1, 64) / 64.0))
    cut = cut[cut < values.size - 1]
    assert cut.size > (40 if params is DEFAULT else 25)
    p, stat, dof = _s_tilde_pvalue(params, n, values, mass, cut)
    assert p > 1e-4, f"chi2={stat:.1f} on {dof} cells"


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
    # eight threads miss a cold table together; returns the number of
    # builds and whether all threads received the same object.  The pair's
    # p1, which both tables read, is built first
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from mdwindow.measure import _TABLES, p1

    p1(args[0])
    before = _TABLES.misses
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: get(*args), range(8)))
    finally:
        sys.setswitchinterval(interval)
    return _TABLES.misses - before, all(g is got[0] for g in got)


def test_renewal_table_built_once_under_threads():
    from mdwindow.paths import _renewal_table

    # a horizon no other test tabulates
    assert _build_under_threads(_renewal_table, (DEFAULT, 3001)) == (1, True)


def test_engine_tables_built_once_under_threads():
    # the alias table holds the engine's signed rewards too
    from mdwindow.chain import interval_alias

    params = Params(0.3125, 0.0625)  # a pair no other test uses
    assert _build_under_threads(interval_alias, (params,)) == (1, True)


def test_mc_tail_curve_shards_share_one_alias_table(monkeypatch):
    # the two shard threads of a rewards curve once built the table twice
    from mdwindow.measure import _TABLES, p1
    from mdwindow.oracles import _BLOCK_PATHS, mc_tail_curve

    params = Params(0.31, 0.05)
    p1(params)  # the one other table the run reads
    before = _TABLES.misses
    # three blocks on two threads, as two CPUs run them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    mc_tail_curve(params, 200, {"total": [1.0]}, 2 * _BLOCK_PATHS + 1, 0.95, RngStream(3),
                  shards=2)
    assert _TABLES.misses == before + 1


def test_renewal_table_refuses_beyond_cap():
    from mdwindow import PrecisionError
    from mdwindow.paths import _RENEWAL_CAP, _renewal_table

    with pytest.raises(PrecisionError):
        _renewal_table(DEFAULT, _RENEWAL_CAP + 1)


@pytest.mark.parametrize("rewards", [False, True])
def test_both_routes_refuse_clamped_draws_past_the_level_table_at_the_call(rewards):
    # at alpha = 0.085 a stationary draw passes the tau cap check, but a
    # draw of p beyond 8191 would be clamped at 2^62 too often: the rewards
    # route's alias table and the boundary route's envelope both reach past
    # that level, and both refuse before a chunk is drawn
    from mdwindow import PrecisionError

    params = Params(0.085, 0.0)
    sample_stationary_levels(params, RngStream(1).generator(), 10)
    with pytest.raises(PrecisionError, match="clamped"):
        iter_sums(params, 10, 10, RngStream(1), with_rewards=rewards)


def _chunk_md5(params, n, reps, seed, with_rewards, chunk):
    # md5 over every chunk iter_sums yields: each key in sorted order, then
    # its array's bytes; a change to any draw, its order or its arithmetic
    # moves it
    h = hashlib.md5()
    gen = RngStream(seed).generator()
    for ch in iter_sums(params, n, reps, gen, with_rewards=with_rewards, chunk=chunk):
        for key in sorted(ch):
            h.update(key.encode())
            h.update(np.ascontiguousarray(ch[key]).tobytes())
    return h.hexdigest()


# boundary-only chunks of one row, of seven (the last chunk short) and of
# 4096 (as a `boundary_mc` op), each pinned bit for bit: (chunk, reps) and
# the md5 of each, per pair and horizon.  Every interior row draws the
# uniform that decides whether it peels, one-row chunks included
_CHUNKS = ((1, 64), (7, 100), (4096, 10000))
_BOUNDARY_MD5 = {
    ("default", 1): ("1874884db4070550c6c1be8c5ce77151", "577d7636df4b6365a3d073e4c7179528",
                     "57685e8a729fd1366852b1fb972868b2"),
    ("default", 2): ("908f10458db7582b07ecc9d85228f2c8", "24182603bdef1033de906a11891f0eb3",
                     "705a306d1c7eb804318bf4eea0a952dc"),
    ("default", 40): ("dd309fbff857834411acf326df7a91ee", "e9d2bbd49bd33ffeb90584658032ba1d",
                      "3556ccdbc0f2498dd9a677a0faa3d1d6"),
    ("default", 1000): ("991b5819ecd3572535ba2bf6ab83bdc0", "c275605465221a38a22f9ca51a333a5f",
                        "9aee35ebc19bc99aaf1a8944c7f77e02"),
    ("default", 20000): ("991b5819ecd3572535ba2bf6ab83bdc0", "c275605465221a38a22f9ca51a333a5f",
                         "31abcb95adde65e805353d7d4a7ecb92"),
    ("small_alpha", 1): ("1c2dd3dc391ddc4d8c70f73586a16023", "5300be3dbae3d5b7daf3dddd5a239974",
                         "87dd8ea034aa24c9bcf409285d309365"),
    ("small_alpha", 2): ("534eb815060d2e3fcbbf35ae11412164", "03a908a5b34b92f89fa1a09067e185bb",
                         "4ae0a37c04208cb2daa3f5d9f54962d8"),
    ("small_alpha", 40): ("71de5f84a128a50890629b7794f2081d", "7c0176f4b6a5ffd8f7eec2160ba6a793",
                          "cde0e7480e5ec07ff3de44d838118b52"),
    ("small_alpha", 1000): ("2c189d0c281bc651c933d579b62e9b2e", "a3c05ed5dc6c50ba1179c50c2d4b86fb",
                            "f69a261418493c08b8086bd34e2c9047"),
    ("small_alpha", 20000): ("57e5d524cc98964c5dac8a8365fd332c", "9ca560b7295c629de759d6f0b6d2f556",
                             "9946e7ac8aca605c08ab9768671cef3e"),
}


@pytest.mark.parametrize("pair, n", sorted(_BOUNDARY_MD5))
def test_boundary_chunks_are_pinned(pair, n):
    got = [_chunk_md5(_PAIRS[pair], n, reps, 700, False, chunk) for chunk, reps in _CHUNKS]
    assert tuple(got) == _BOUNDARY_MD5[pair, n]


def test_rewards_chunks_are_pinned():
    assert _chunk_md5(DEFAULT, 1000, 1000, 730, True, 256) == "d5010da305a6b23bcd51882659be9f64"


def test_small_alpha_rewards_chunks_are_pinned():
    # this run sends five draws to the tail bucket, so `_tail_draw` is pinned
    want = "20f085b4e3bef476d5764d6084a48623"
    assert _chunk_md5(SMALL_ALPHA, 1000, 1000, 731, True, 256) == want


@pytest.mark.parametrize("size, want", [
    (0, "d0ea6bb38b7eaad2256ca079ed942680"),
    (1, "f44e56e292b8499a1799caf2e573e9e0"),
    (4096, "4f5a51807afe16fd85cd63b3c0d37811"),
])
def test_stationary_draws_are_pinned(size, want):
    # the levels, the ages, and the stream's next words, which show how many
    # uniforms the draw consumed (none at size 0)
    gen = RngStream(720).generator()
    tau, age = sample_stationary_levels(DEFAULT, gen, size)
    got = hashlib.md5(tau.tobytes() + age.tobytes() + raw_words(gen, 4).tobytes())
    assert got.hexdigest() == want


def _start_chunk_whole(params, n, gen, c):
    # the first chunk start, kept as the reference: signs over every row,
    # boolean masks, and the no-renewal end states written at once
    tau1, a1 = sample_stationary_levels(params, gen, c)
    b1 = tau1 - a1
    sign0 = np.where(gen.random(c) < 0.5, 1.0, -1.0)
    no_renew = b1 >= n
    out = {
        "s_prime": np.zeros(c),
        "s_dprime": np.zeros(c),
        "a1": a1,
        "b1": b1,
        "an": np.zeros(c, dtype=np.int64),
        "bn": np.zeros(c, dtype=np.int64),
        "interior": ~no_renew,
    }
    a, b = a1[no_renew] + (n - 1), b1[no_renew] - (n - 1)
    _write_end_states(out, n, no_renew, a, b, sign0[no_renew], params.beta)
    lead = (tau1 > 0) & ~no_renew
    tau, a = tau1[lead], a1[lead]
    cnt = _reward_ages(tau, a, tau - 1)
    out["s_prime"][lead] = sign0[lead] * cnt * tau.astype(np.float64) ** (-params.beta)
    return out


def _write_end_states(out, n, rows, a, b, sign, beta):
    # the first end-state writer: end state (a, b) and its S''_n on `rows`
    cnt = _reward_ages(a + b, np.maximum(a - n, 0) + 1, a)
    out["s_dprime"][rows] = sign * cnt * (a + b).astype(np.float64) ** (-beta)
    out["an"][rows] = a
    out["bn"][rows] = b


def _boundary_chunk_per_round(params, n, gen, u_tab, c):
    # the first boundary sampler's loop, kept as the reference: each round
    # writes the end states it accepts as soon as it draws their signs
    out = _start_chunk_whole(params, n, gen, c)
    idx = np.flatnonzero(out["interior"])
    m = n - 1 - out["b1"][idx]
    while idx.size:
        lev, age = sample_stationary_levels(params, gen, idx.size)
        lag = m - age
        keep = (lag >= 0) & (gen.random(idx.size) < u_tab[np.maximum(lag, 0)])
        ended = keep & (age > 0)
        if np.any(ended):
            rows = idx[ended]
            a = age[ended]
            sign = np.where(gen.random(rows.size) < 0.5, 1.0, -1.0)
            _write_end_states(out, n, rows, a, lev[ended] - a, sign, params.beta)
        idx, m = idx[~keep], m[~keep]
    return out


def _assert_same_chunk(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key


@st.composite
def _boundary_runs(draw):
    alpha = draw(st.floats(0.15, 0.45))
    beta = draw(st.floats(0.0, 1.0)) * (0.5 - alpha) / 2.0 * 0.999
    return Params(alpha, beta), draw(st.integers(1, 3000)), draw(st.integers(1, 600))


_AGE_EDGES = list(range(16)) + [1 << k for k in range(4, 13)]  # bins [a_i, a_(i+1))


@functools.lru_cache
def _end_age_law(alpha):
    # P[A_n in each bin of _AGE_EDGES, the last one open] for the stationary
    # chain: P[A >= a] = 1 at a = 0 and, summing P[A = a'] = sum_(m > a')
    # mu_m by parts, e^(-a^alpha) / a + (a - 1) R(a) for a >= 1, with
    # R(a) = sum_(m > a) e^(-m^alpha) / (m (m - 1)), summed to m = 2^22;
    # the levels beyond move P[A >= 4096] by under 1e-7
    m = np.arange(2, (1 << 22) + 1, dtype=np.float64)
    tail = np.cumsum((np.exp(-m ** alpha) / (m * (m - 1.0)))[::-1])[::-1]
    a = np.array(_AGE_EDGES[1:], dtype=np.float64)
    surv = np.exp(-a ** alpha) / a + (a - 1.0) * tail[a.astype(np.int64) - 1]
    return -np.diff(np.concatenate(([1.0], surv, [0.0])))


def _end_age_pvalue(params, n, reps, rows, seed):
    # chi-square fit of the boundary engine's A_n to its stationary law
    gen = RngStream(seed, n).generator()
    an = np.concatenate([ch["an"] for ch in iter_sums(params, n, reps, gen,
                                                      with_rewards=False, chunk=rows)])
    return _end_age_fit(params, an)


def _end_age_fit(params, an):
    # chi-square p-value of end ages an against their stationary law
    from scipy.stats import chi2

    reps = an.size
    got = np.bincount(np.searchsorted(_AGE_EDGES, an, side="right") - 1,
                      minlength=len(_AGE_EDGES)).astype(np.float64)
    want = reps * _end_age_law(params.alpha)
    return chi2.sf(*_pooled_chi2(got, want))


_LAW_RUNS = [(pair, n, rows) for pair in sorted(_PAIRS) for n in (1, 2, 40, 1000)
             for rows in (7, 4096)]


@pytest.mark.parametrize("pair, n, rows", _LAW_RUNS)
def test_boundary_end_age_has_the_stationary_law(pair, n, rows):
    # a row takes the first accepted of its k proposals, an exact draw, so
    # A_n keeps the law P[A = 0] = mu_0, P[A = a] = sum_(m > a) mu_m
    reps = 50 * 4096 if rows == 4096 else 1500 * rows
    assert _end_age_pvalue(_PAIRS[pair], n, reps, rows, 751) > 1e-4


@pytest.mark.parametrize("pair, n", [run[:2] for run in _LAW_RUNS if run[2] == 4096])
def test_boundary_end_age_law_with_the_k_rule_on_every_round(monkeypatch, pair, n):
    # with the cap past the chunk size, min(c, _PROPOSALS) = c: every round
    # after the first spreads c proposals over its pending rows, k >= 2
    # (7-row chunks already run so, the cap of 1024 not binding there)
    from mdwindow import paths

    monkeypatch.setattr(paths, "_PROPOSALS", 1 << 30)
    assert _end_age_pvalue(_PAIRS[pair], n, 50 * 4096, 4096, 752) > 1e-4


def _start_end_law(params, n):
    # P[(B_1, A_n) = (b, a)] = mu_0 T(b) T(a) u(n - 1 - b - a) for
    # b + a <= n - 1, T(a) = P[tau > a] = 1 - sum_(k <= a) p_k: the start
    # sits at residual b with mass mu_0 T(b), and the end at age a after a
    # renewal at n - a with weight u(m - a) T(a), m = n - 1 - b
    from mdwindow.paths import _renewal_table

    tail = 1.0 - np.cumsum(_p_law(params, n - 1))
    b, a = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    inside = b + a <= n - 1
    u = _renewal_table(params, n).take(np.where(inside, n - 1 - b - a, 0))
    return np.where(inside, MU0 * tail[b] * tail[a] * u, 0.0)


_JOINT_RUNS = [(pair, n, rows) for pair in sorted(_PAIRS) for n in (1, 2, 6, 17, 40)
               for rows in (7, 4096)]


@pytest.mark.parametrize("pair, n, rows", _JOINT_RUNS)
def test_boundary_start_and_end_fit_the_closed_form(pair, n, rows):
    # one-sample chi-square of (B_1, A_n) over its cells b + a <= n - 1,
    # plus one cell for the paths with no renewal in the window; at
    # n <= _PEEL no lag reaches the envelope, U = 0, and every row peels,
    # and at n = 17 the rows with B_1 >= 1 have m < _PEEL: they peel often
    # and the rest meet the rounds, so both parts of the mixture show
    from scipy.stats import chi2

    params = _PAIRS[pair]
    reps = 50 * 4096 if rows == 4096 else 3000 * rows
    gen = RngStream(757, n).generator()
    chunks = list(iter_sums(params, n, reps, gen, with_rewards=False, chunk=rows))
    inside = np.concatenate([ch["interior"] for ch in chunks])
    b1 = np.concatenate([ch["b1"] for ch in chunks])[inside]
    an = np.concatenate([ch["an"] for ch in chunks])[inside]
    assert np.all(b1 + an <= n - 1)
    law = _start_end_law(params, n)
    got = np.append(np.bincount(b1 * n + an, minlength=n * n), reps - inside.sum())
    want = reps * np.append(law.ravel(), 1.0 - law.sum())
    cells = want > 0
    got, want = got[cells].astype(np.float64), want[cells]
    stat, dof = _pooled_chi2(got, want)
    assert chi2.sf(stat, max(dof, 1)) > 1e-4, f"chi2={stat:.1f} on {dof} cells"


def _envelope(params, n):
    from mdwindow import paths

    return paths._TABLES.get(("peel", params.alpha, params.beta, n), paths._solve_peel, params, n)


@pytest.mark.parametrize("pair", sorted(_PAIRS))
@pytest.mark.parametrize("n", [1, 2, 16, 17, 40, 1000, 1025])
def test_envelope_splits_the_renewal_identity(pair, n):
    # sum_(j <= m) u(j) T(m - j) = 1 splits into the peeled mass Z(m) and
    # the envelope's, sum_j min(u(j), U) T(m - j); Z(m) is the last of the
    # running sums the engine forms, to the bit
    from mdwindow import paths

    params = _PAIRS[pair]
    env, u = _envelope(params, n), paths._renewal_table(params, n)
    lags = min(n, paths._PEEL)
    assert env.top == (u[paths._PEEL:].max() if n > paths._PEEL else 0.0)
    assert env.excess.tolist() == np.maximum(u[:lags] - env.top, 0.0).tolist()
    assert env.cdf.size == max(n, paths._LEVELS) and env.cdf[0] == 0.0
    assert np.all(np.diff(env.cdf) >= 0.0) and env.cdf[-1] <= 1.0
    m = np.arange(n)[:, None]
    at = m - np.arange(lags)
    tail = np.where(at >= 0, 1.0 - env.cdf.take(np.maximum(at, 0)), 0.0)  # T(-1) = 0
    run = np.cumsum(env.excess * tail, axis=1)
    assert run[:, -1].tobytes() == env.z.tobytes()
    envelope = [np.minimum(u[: j + 1], env.top) @ (1.0 - env.cdf[j::-1]) for j in range(n)]
    # F is a running sum of p, so T = 1 - F drifts by some ulps per level
    np.testing.assert_allclose(env.z + envelope, 1.0, rtol=0.0, atol=1e-11)
    if env.top:
        assert env.z.max() < 1.0


def test_boundary_chunk_law_matches_the_per_round_reference(monkeypatch):
    # the joint law of start state, end state and trailing sign, against
    # the first sampler's loop (one proposal a round), with the k rule on
    # every round after the first
    from mdwindow import paths

    monkeypatch.setattr(paths, "_PROPOSALS", 1 << 30)
    n, rows, chunks = 40, 4096, 40
    u_tab = paths._renewal_table(DEFAULT, n)
    env = _envelope(DEFAULT, n)
    keys = []
    for engine, seed in ((paths._boundary_chunk, 753), (_boundary_chunk_per_round, 754)):
        gen = RngStream(seed).generator()
        tabs = (u_tab, env) if engine is paths._boundary_chunk else (u_tab,)
        keys.append(np.concatenate([_joint_cells(engine(DEFAULT, n, gen, *tabs, rows), n)
                                    for _ in range(chunks)]))
    _assert_same_cell_law(*keys)


def test_a_row_takes_its_first_accepted_proposal(monkeypatch):
    # every proposal is an excursion state whose age alone decides it:
    # u(100 - age) is 1 for an even age and 0 for an odd one, and the
    # envelope U = 1 with nothing peeled (Z = 0) leaves every row to the
    # rounds, accepting with probability u(lag) / U = u(lag).  Round 1
    # leaves rows 61-63 pending, round 2 gives them 64 // 3 = 21 proposals
    # each (row 63 none accepted), round 3 gives row 63 all 64; every
    # accepting block holds several even ages, all distinct
    from mdwindow import paths

    c, n = 64, 101
    rounds = [np.full(c, 2), np.arange(3, 3 + 63),
              np.concatenate((np.arange(1, 19, 2), np.arange(40, 150, 2)))[:64]]
    rounds[0][61:] = 1
    rounds[1][42:] = np.arange(1, 1 + 2 * 21, 2)  # row 63: odd ages only
    sizes = []

    def proposals(alpha, gen, size):
        ages = rounds[len(sizes)].astype(np.int64)
        sizes.append(size)
        assert ages.size == size
        return np.arange(size), ages + 5, ages

    def start(params, n, gen, c):
        zero = np.zeros(c, dtype=np.int64)
        out = {"s_prime": np.zeros(c), "s_dprime": np.zeros(c), "a1": zero, "b1": zero,
               "an": zero.copy(), "bn": zero.copy(), "interior": np.ones(c, dtype=bool)}
        return out, [(zero[:0], zero[:0], zero[:0], np.zeros(0))]

    monkeypatch.setattr(paths, "_stationary_excursions", proposals)
    monkeypatch.setattr(paths, "_start_chunk", start)
    u_tab = np.where(np.arange(n) % 2 == 0, 1.0, 0.0)  # lag 100 - age: even age, even lag
    env = SimpleNamespace(top=1.0, z=np.zeros(n))  # Z = 0: no row peels
    out = paths._boundary_chunk(DEFAULT, n, RngStream(755).generator(), u_tab, env, c)
    assert sizes == [64, 63, 64]
    want = [2] * 61 + [4, 24, 40]  # first even age of rows 61 (3..23) and 62 (24..44)
    assert out["an"].tolist() == want
    assert np.all(out["bn"] == 5)


def test_boundary_chunks_take_few_rounds(monkeypatch):
    # the k rule on the peeled envelope ends a 4096-row chunk at
    # (0.3, 0.05), n = 1e3, in about two rounds: a proposal is kept with
    # probability about mu_0 / u(16) = 0.95; on the envelope 1 it took
    # 4.8 rounds, and with one proposal a round 9.4
    from mdwindow import paths

    calls = []

    def spy(alpha, gen, size):
        calls.append(size)
        return kernel(alpha, gen, size)

    kernel = paths._stationary_excursions
    monkeypatch.setattr(paths, "_stationary_excursions", spy)
    gen = RngStream(756).generator()
    for _ in iter_sums(DEFAULT, 1000, 50 * 4096, gen, with_rewards=False, chunk=4096):
        pass
    assert len(calls) / 50 <= 3.0


@settings(max_examples=60, deadline=None)
@given(_boundary_runs(), st.integers(0, 2 ** 32))
@example((DEFAULT, 1, 50), 0)  # at n = 1 only the origin starts renew inside
def test_start_chunk_equals_the_whole_row_start(run, seed):
    # the start gathers by index and returns the no-renewal end records;
    # written, they give the reference's bits, and the stream left behind
    # is the same
    from mdwindow.paths import _set_end_excursion, _start_chunk

    params, n, rows = run
    gens = [RngStream(seed).generator() for _ in range(2)]
    want = _start_chunk_whole(params, n, gens[0], rows)
    got, ends = _start_chunk(params, n, gens[1], rows)
    assert len(ends) == 1
    assert ends[0][0].tolist() == np.flatnonzero(~want["interior"]).tolist()
    _set_end_excursion(got, n, ends, params.beta)
    _assert_same_chunk(got, want)
    assert gens[0].bit_generator.state == gens[1].bit_generator.state


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


@pytest.mark.parametrize("n, bulk", [pytest.param(n, bulk, id=f"{n}" + ("-bulk" if bulk == 0 else ""))
                                     for bulk in (None, 0) for n in (6, 40)])
def test_boundary_sampler_matches_rolled_engine_joint_law(monkeypatch, n, bulk):
    # the rewards engine rolls every excursion, an independent route to
    # the same joint law of start state, end state and trailing sign; at
    # n = 6 the renewal weights u(0..5) differ most from their limit mu_0
    _set_bulk(monkeypatch, bulk)
    reps = 300_000
    keys = [
        _joint_cells(next(iter_sums(DEFAULT, n, reps, RngStream(seed, n).generator(),
                                    with_rewards=rewards, chunk=reps)), n)
        for seed, rewards in ((611, False), (612, True))
    ]
    _assert_same_cell_law(*keys)


def _assert_same_cell_law(x_keys, y_keys):
    # two-sample chi-square over the cells of two equal-sized samples, cells
    # with fewer than 20 draws in all pooled into one
    from scipy.stats import chi2

    cells, inv = np.unique(np.concatenate((x_keys, y_keys)), return_inverse=True)
    x = np.bincount(inv[: x_keys.size], minlength=cells.size)
    y = np.bincount(inv[x_keys.size :], minlength=cells.size)
    sparse = x + y < 20  # pooled into one cell
    x = np.append(x[~sparse], x[sparse].sum())
    y = np.append(y[~sparse], y[sparse].sum())
    keep = x + y > 0
    x, y = x[keep], y[keep]
    stat = float(((x - y) ** 2 / (x + y)).sum())
    dof = x.size - 1
    assert dof > 50
    assert chi2.sf(stat, dof) > 1e-3, f"chi2={stat:.1f} on {dof} dof"


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA], ids=["default", "small_alpha"])
def test_bulk_rounds_keep_the_end_age_and_the_variance_at_n_1e4(params):
    # n = 1e4 is 8.9 and 3.4 times the bulk reach (3 expected round spans)
    # at the two pairs, so rounds far from n are bulk rounds (the run-sum
    # table gets built) and rounds near n are not: A_n fits its stationary
    # law by chi-square and Var(S~_n) the closed form within 5 se
    from mdwindow import paths

    n, reps = 10_000, 1 << 16
    chunks = list(iter_sums(params, n, reps, RngStream(763).generator(), chunk=256))
    assert ("run sums", params.alpha) in paths._TABLES._tables
    assert _end_age_fit(params, np.concatenate([c["an"] for c in chunks])) > 1e-4
    x = np.concatenate([c["s_tilde"] for c in chunks])
    var = float(x.var())
    se = math.sqrt((float(np.mean((x - x.mean()) ** 4)) - var * var) / reps)
    assert abs(var - _s_tilde_variance(params, n)) < 5.0 * se


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA], ids=["default", "small_alpha"])
def test_run_sum_table_holds_the_negative_binomial_law(params):
    # rebuilt in exact integers from its thresholds, the table's law is
    # C(s + 47, s) p1^s (1 - p1)^48 on s = 0..k-1 within 1e-15 (mpmath),
    # and the mass it drops past k - 1 is below 2^-53; k is 1024 and 2048
    import mpmath

    from mdwindow import paths
    from mdwindow.chain import interval_alias

    alias = interval_alias(params)
    table = paths._solve_run_sums(alias)
    k = table.cut.size // 2
    assert k == (1024 if params is DEFAULT else 2048)
    mass = alias_mass(table, k)
    assert sum(mass) == 1 << 64
    with mpmath.workdps(40):
        p1 = mpmath.mpf(alias.p1)
        law = [mpmath.binomial(s + 47, s) * p1**s * (1 - p1) ** 48 for s in range(k)]
        assert max(abs(mpmath.mpf(m) / 2**64 - w) for m, w in zip(mass, law)) < 1e-15
        assert 1 - mpmath.fsum(law) < mpmath.mpf(2) ** -53


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA], ids=["default", "small_alpha"])
def test_pair_count_table_holds_the_binomial_law(params):
    # rebuilt in exact integers from its thresholds, atom (k2 << 6) + p has
    # C(48, k2) w2^k2 (1 - w2)^(48 - k2) C(k2, p) 2^-k2 within 1e-15
    # (mpmath), w2 = P[tau = 2 | tau >= 2]; exactly the 1,225 atoms p <= k2
    # <= 48 hold mass, so none is truncated
    import mpmath

    from mdwindow import paths
    from mdwindow.chain import interval_alias

    alias = interval_alias(params)
    mass = alias_mass(paths._solve_pair_counts(alias), 1 << 12)
    assert sum(mass) == 1 << 64
    atoms = [(k2 << 6) + p for k2 in range(49) for p in range(k2 + 1)]
    assert len(atoms) == 1225 and [a for a, m in enumerate(mass) if m] == atoms
    with mpmath.workdps(40):
        w2 = mpmath.mpf(float(alias.weights[1]))
        law = {(k2 << 6) + p: mpmath.binomial(48, k2) * w2**k2 * (1 - w2) ** (48 - k2)
               * mpmath.binomial(k2, p) / 2**k2 for k2 in range(49) for p in range(k2 + 1)}
        assert max(abs(mpmath.mpf(mass[a]) / 2**64 - law[a]) for a in atoms) < 1e-15


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA], ids=["default", "small_alpha"])
def test_long_excursion_table_holds_the_conditional_law(params):
    # rebuilt in exact integers from its thresholds, slot tau - 1 holds
    # p_tau / (1 - p1 - p2) for tau >= 3, and the tail bucket the mass past
    # 8191 over the same, within 1e-15; tau = 1 and 2 hold none, and the
    # reward magnitudes are the interval table's own.  1 - p1 - p2 is the
    # sum of the p_tau it divides, not a difference: it is 0.078 at the
    # small-alpha pair, so a difference of rounded terms loses a digit
    from mdwindow import paths
    from mdwindow.chain import interval_alias

    alias = interval_alias(params)
    long = paths._solve_long_excursions(alias)
    k = alias.K
    mass = alias_mass(long, k, 1)
    assert sum(mass) == 1 << 64 and mass[0] == mass[1] == 0
    law = np.append(_p_law(params, k - 1)[1:], 0.0)  # slot j: p_(j+1)
    law[-1] = 1.0 - law[:-1].sum()
    want = law[2:] / law[2:].sum()
    assert float(np.abs(np.array([m / 2.0**64 for m in mass[2:]]) - want).max()) < 1e-15
    assert np.array_equal(long.mag, alias.mag) and long.K == k


def test_run_sum_table_refuses_a_heavy_tail_past_8191():
    # near alpha = 0.0855, the smallest the alias table's tau cap check
    # admits, p1 = 0.938 and 2048 columns leave under 2^-53; at
    # p1 = 0.99 the mean run sum is 4752, five standard deviations below
    # 8191, and the bound is 2^-16
    from mdwindow import PrecisionError, paths
    from mdwindow.chain import interval_alias

    alias = interval_alias(Params(0.0855, 0.0))
    assert 0.93 < alias.p1 < 0.94
    assert paths._solve_run_sums(alias).cut.size == 2 * 2048
    with pytest.raises(PrecisionError, match="run sums"):
        paths._solve_run_sums(SimpleNamespace(p1=0.99, K=alias.K))


def test_compositions_are_uniform():
    # stars and bars: the 15 compositions of 4 into 3 parts equally often,
    # drawn among rows of other sums, each row summing to its own
    from scipy.stats import chisquare

    from mdwindow.paths import _compositions

    s = RngStream(764).generator().choice([0, 4, 9], size=60_000)
    parts = _compositions(RngStream(765).generator(), s, 3)
    assert parts.shape == (s.size, 3) and int(parts.min()) == 0
    assert np.array_equal(parts.sum(axis=1), s)
    four = parts[s == 4]
    counts = np.bincount(four[:, 0] * 5 + four[:, 1], minlength=25)
    cells = [a * 5 + b for a in range(5) for b in range(5 - a)]
    assert counts.sum() == counts[cells].sum() and len(cells) == 15
    assert chisquare(counts[cells]).pvalue > 1e-4


def test_runs_at_n_1000_never_build_the_run_sum_table(monkeypatch):
    # a row starts at most n - 2 steps from n, and 1000 is less than 3
    # expected round spans at both pairs (1,123 and 2,904 steps): every
    # pinned run and the cold `simulate` stay near n, and their bits too.
    # No bulk table is built (run sums, pair counts, long excursions); the
    # guards fire at n = 1e4
    from mdwindow import measure, paths

    builders = ("_solve_run_sums", "_solve_pair_counts", "_solve_long_excursions")
    real = {name: getattr(paths, name) for name in builders}

    def refuse(name):
        def build(alias):
            raise AssertionError(f"{name} built")
        return build

    monkeypatch.setattr(paths, "_TABLES", measure._TableStore())
    for name in builders:
        monkeypatch.setattr(paths, name, refuse(name))
    for params in (DEFAULT, SMALL_ALPHA):
        for ch in iter_sums(params, 1000, 512, RngStream(766).generator(), chunk=256):
            assert ch["s_tilde"].size == 256
    for name in builders:
        monkeypatch.setattr(paths, "_TABLES", measure._TableStore())
        for other in builders:
            monkeypatch.setattr(paths, other, refuse(other) if other == name else real[other])
        with pytest.raises(AssertionError, match=f"{name} built"):
            next(iter_sums(DEFAULT, 10_000, 256, RngStream(766).generator()))


def _forced_bulk_tables(monkeypatch, pairs):
    # a fresh table store with every round a bulk round, the run sums all
    # at S = 0, and the pair counts of `pairs`, {(k2, p): weight}
    from mdwindow import measure, paths
    from mdwindow.chain import _AliasTable

    weights = np.zeros(1 << 12)
    for (k2, p), w in pairs.items():
        weights[(k2 << 6) + p] = w
    monkeypatch.setattr(paths, "_TABLES", measure._TableStore())
    monkeypatch.setattr(paths, "_BULK", 0)
    monkeypatch.setattr(paths, "_solve_run_sums", lambda alias: _AliasTable(np.array([1.0, 0.0])))
    monkeypatch.setattr(paths, "_solve_pair_counts",
                        lambda alias: _AliasTable(weights / weights.sum()))
    return paths


def test_rows_of_only_length_2_excursions_renew_every_second_step(monkeypatch):
    # a count table with all its mass at k2 = 48 (about 1e-11 in a real
    # round) and no self-loops: from its first renewal a path renews every
    # second step, so S~_n is R(2) times a sum of floor(L / 2) signs, L = n -
    # 1 - B_1, and the path ends at the origin for even L, else at (1, 1)
    from math import comb

    _forced_bulk_tables(monkeypatch, {(48, p): comb(48, p) for p in range(49)})
    n = 500
    ch = next(iter_sums(DEFAULT, n, 2048, RngStream(767).generator(), chunk=2048))
    rows = ch["b1"] <= n - 1
    steps = n - 1 - ch["b1"][rows]
    net = ch["s_tilde"][rows] / excursion_reward_magnitude(DEFAULT, 2)
    assert float(np.abs(net - np.round(net)).max()) < 1e-9 and int(rows.sum()) > 1500
    net = np.round(net).astype(np.int64)
    assert np.all(np.abs(net) <= steps // 2) and np.all((net - steps // 2) % 2 == 0)
    assert np.array_equal(ch["an"][rows], steps % 2) and np.array_equal(ch["bn"][rows], steps % 2)
    assert 0.3 < float((net > 0).mean()) < 0.7


def test_bulk_rows_without_long_excursions_read_zero(monkeypatch):
    # half the rows draw k2 = 48 length-2 excursions, all plus, and half k2
    # = 0, so empty runs of long excursions sit first, last and between full
    # ones: an empty row spans exactly 96 steps and gains 48 R(2), and the
    # full rows hold every long excursion drawn, each once
    from mdwindow.chain import interval_alias

    paths = _forced_bulk_tables(monkeypatch, {(48, 48): 1.0, (0, 0): 1.0})
    alias = interval_alias(DEFAULT)
    long = paths._solve_long_excursions(alias)
    r2 = excursion_reward_magnitude(DEFAULT, 2)
    first = last = between = 0  # rounds with an empty row there
    for seed in range(40):
        t = np.zeros(16, dtype=np.int64)
        gen = RngStream(768, seed).generator()
        end, gain, (rows, *_) = paths._bulk_round(DEFAULT, 1 << 40, gen, alias, t)
        empty = end == 96
        assert rows.size == 0 and np.array_equal(gain[empty], np.full(int(empty.sum()), 48 * r2))
        first, last = first + empty[0], last + empty[-1]
        between += bool(np.any(empty[1:-1] & ~empty[:-2] & ~empty[2:]))
        gen = RngStream(768, seed).generator()  # the same draws again
        raw_words(gen, 2 * t.size)
        tau, q, reward = long.excursions(gen, raw_words(gen, 48 * int((~empty).sum())))
        assert int(end[~empty].sum()) == int(tau.sum()) and int(tau.min()) >= 3
        assert abs(float(gain[~empty].sum() - reward.sum())) < 1e-9
    assert min(first, last, between) > 0


@pytest.mark.parametrize("bits", ["MT19937", "PCG64", "Philox", "SFC64"])
def test_generators_of_32_bit_words_are_refused_at_the_call(bits):
    # raw_words reads 64-bit words; MT19937's are 32-bit, so every alias
    # column would be 0 and the interval law wrong
    from mdwindow.chain import interval_alias

    calls = (lambda g: next(iter_sums(DEFAULT, 100, 10, g)), lambda g: generate_path(DEFAULT, 50, g),
             lambda g: conditioned_path(DEFAULT, 50, 10, 3, g),
             lambda g: interval_alias(DEFAULT).draw(g, 10_000))
    for call in calls:
        gen = np.random.Generator(getattr(np.random, bits)(5))
        if bits == "MT19937":
            with pytest.raises(ParameterError, match="MT19937"):
                call(gen)
        else:
            call(gen)
    if bits != "MT19937":
        tau = interval_alias(DEFAULT).draw(np.random.Generator(getattr(np.random, bits)(5)), 10_000)
        assert np.unique(tau).size > 20
