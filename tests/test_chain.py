import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from mdwindow import (
    MEAN_TAU,
    MU0,
    ChainState,
    ORIGIN,
    ParameterError,
    Params,
    PrecisionError,
    RngStream,
    excursion_reward_magnitude,
    generate_path,
    log_mu,
    log_p,
    stationary_push_l1,
    step,
)
from mdwindow.chain import (
    IntervalAlias,
    _interval_tail_reject,
    _vose_tables,
    interval_alias,
    raw_words,
    sample_stationary_levels,
)
from mdwindow.measure import _p_law, p1, small_mass_tail

from conftest import DEFAULT, SMALL_ALPHA, three_se


# --------------------------------------------------------------------- state

def test_chain_state_validation():
    assert ORIGIN.is_origin
    s = ChainState(2, 5)
    assert not s.is_origin and s.level == 7
    with pytest.raises(ParameterError):
        ChainState(0, 3)
    with pytest.raises(ParameterError):
        ChainState(3, 0)
    with pytest.raises(ParameterError):
        ChainState(-1, -1)


# ------------------------------------------------------------------- streams

def test_rng_stream_reproducible_and_distinct():
    a = RngStream(123, 4).generator().random(8)
    b = RngStream(123, 4).generator().random(8)
    c = RngStream(123, 5).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_shards_distinct():
    s = RngStream(9)
    assert not np.array_equal(s.shard(0).random(4), s.shard(1).random(4))


def test_rng_stream_draws_are_pinned():
    # raw words of plain streams and shards, recorded before child streams
    # moved to spawn-key tuples; CLI and benchmark outputs depend on them
    g = RngStream(42_007, 3).generator()
    assert g.bit_generator.random_raw(3).tolist() == [
        17575700725659016436, 12875186270722910310, 3408792656636117186]
    assert RngStream(42_007, 3).shard(5).bit_generator.random_raw(3).tolist() == [
        2622883764046653511, 10574162455268030762, 12484854167183614900]
    assert RngStream(7).generator().bit_generator.random_raw(2).tolist() == [
        14717904226557406096, 979409276310299390]


def test_substreams_are_disjoint():
    master = RngStream(42)
    draws = [master.substream(i).generator().random(4) for i in range(3)]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])


def test_substreams_do_not_collide():
    # the child of stream 0 once drew exactly what stream 1 draws
    root = RngStream(5, 0)
    draws = [root.substream(0).generator().random(4)]
    draws += [RngStream(5, k).generator().random(4) for k in range(4)]
    draws += [root.shard(k).random(4) for k in range(4)]
    draws += [root.substream(k).shard(0).random(4) for k in range(3)]
    draws += [root.substream(0).substream(0).generator().random(4)]
    assert len({d.tobytes() for d in draws}) == len(draws)
    assert root.substream(1) == RngStream(5, 0).substream(1)


# -------------------------------------------------------------- stationarity

def test_stationary_origin_fraction():
    tau, _ = sample_stationary_levels(DEFAULT, RngStream(101), 10 ** 6)
    frac = float((tau == 0).mean())
    assert abs(frac - MU0) < three_se(MU0, 10 ** 6)


def test_stationary_interval_tail_matches_closed_form():
    tau, _ = sample_stationary_levels(DEFAULT, RngStream(102), 10 ** 6)
    for k in (1, 5, 20):
        exact = math.exp(-(float(k) ** DEFAULT.alpha))
        emp = float((tau > k).mean())
        assert abs(emp - exact) < three_se(exact, 10 ** 6)


def test_stationary_size_biased_conditional_tail_to_k50():
    tau, _ = sample_stationary_levels(DEFAULT, RngStream(103), 10 ** 6)
    exc = tau[tau > 0]
    n_exc = exc.size
    for k in range(2, 51, 8):
        exact = math.exp(-(float(k) ** DEFAULT.alpha)) / math.exp(-1.0)
        emp = float((exc > k).mean())
        assert abs(emp - exact) < three_se(exact, n_exc)


def test_stationary_age_uniform_given_level():
    tau, age = sample_stationary_levels(DEFAULT, RngStream(104), 5 * 10 ** 5)
    pick = tau == 6  # five possible ages
    ages = age[pick]
    counts = np.bincount(ages, minlength=6)[1:6]
    assert counts.sum() == pick.sum()
    stat = chisquare(counts)
    assert stat.pvalue > 0.001


# ----------------------------------------------------------------- p sampler

def test_p_sampler_frequency_of_self_loop():
    draws = interval_alias(DEFAULT).draw(RngStream(201), 10 ** 6)
    expect = p1(DEFAULT)
    assert abs(float((draws == 1).mean()) - expect) < three_se(expect, 10 ** 6)


def test_p_sampler_mean_interval():
    draws = interval_alias(DEFAULT).draw(RngStream(202), 10 ** 6)
    se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    assert abs(float(draws.mean()) - MEAN_TAU) < 3.0 * se


def test_p_sampler_support():
    draws = interval_alias(DEFAULT).draw(RngStream(203), 10 ** 5)
    assert int(draws.min()) >= 1


def _expected_counts(params, reps, levels):
    probs = [math.exp(log_p(params, k)) for k in levels]
    rest = 1.0 - sum(probs)
    return np.array(probs + [rest]) * reps


def _observed_counts(draws, levels):
    obs = [int((draws == k).sum()) for k in levels]
    obs.append(int((draws > levels[-1]).sum()))
    return np.array(obs)


@pytest.mark.parametrize("sampler_kind", ["alias", "scalar"])
def test_interval_samplers_match_exact_law(sampler_kind):
    levels = list(range(1, 13))
    if sampler_kind == "alias":
        reps = 10 ** 6
        draws = interval_alias(DEFAULT).draw(RngStream(205), reps)
    else:  # step from the origin: tau is the level, or 1 for the self-loop
        reps = 4 * 10 ** 4
        gen = RngStream(209).generator()
        draws = np.array([step(DEFAULT, ORIGIN, gen).level or 1 for _ in range(reps)])
    stat = chisquare(_observed_counts(draws, levels), _expected_counts(DEFAULT, reps, levels))
    assert stat.pvalue > 0.001


def test_tail_rejection_sampler_matches_conditional_law():
    gen = RngStream(206).generator()
    draws = _interval_tail_reject(DEFAULT, gen, 200000, 64)
    assert int(draws.min()) >= 65
    # conditional weights mu_k / sum_{j>64} mu_j
    total, _ = small_mass_tail(DEFAULT, 64)
    obs, exp = [], []
    for k in range(65, 81):
        obs.append(int((draws == k).sum()))
        exp.append(math.exp(log_mu(DEFAULT, k)) / total * draws.size)
    obs.append(int((draws > 80).sum()))
    exp.append(draws.size - sum(exp))
    stat = chisquare(np.array(obs), np.array(exp))
    assert stat.pvalue > 0.001


class _TinyAlias(IntervalAlias):
    K = 4  # the low 2 of the 13 column bits: still exactly uniform


def test_sampler_beyond_table_via_public_draw():
    # a 4-slot table sends about 5% of the draws (every level from 4 on)
    # through the exact tail step; the mean and the law must not notice
    reps = 10 ** 5
    draws = _TinyAlias(DEFAULT).draw(RngStream(207), reps)
    assert int(draws.min()) >= 1
    assert int((draws >= 4).sum()) > 4000
    se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    assert abs(float(draws.mean()) - MEAN_TAU) < 3.0 * se
    levels = list(range(1, 21))
    stat = chisquare(_observed_counts(draws, levels), _expected_counts(DEFAULT, reps, levels))
    assert stat.pvalue > 0.001


# ------------------------------------------------------------ word decoding

def test_alias_thresholds_rebuild_the_input_law():
    # column col keeps its slot with probability thr/2^50 and otherwise
    # sends the draw to its alias; summed in exact integers
    alias = interval_alias(DEFAULT)
    k, cap = alias.K, 1 << 50
    assert np.array_equal(alias.pair[1::2], np.arange(k))
    assert np.all((alias.thr >= 0) & (alias.thr <= cap))
    mass = [0] * k
    for col, (thr, other) in enumerate(zip(alias.thr.tolist(), alias.pair[0::2].tolist())):
        mass[col] += thr
        mass[other] += cap - thr
    assert sum(mass) == k * cap
    rebuilt = np.array([m / (k * cap) for m in mass])
    assert float(np.abs(rebuilt - alias.weights).max()) < 1e-15


@pytest.mark.parametrize(
    "params", [DEFAULT, SMALL_ALPHA, Params(0.09, 0.0), Params(0.2, 0.1), Params(0.45, 0.01)]
)
def test_alias_table_never_draws_a_self_loop(params):
    # self-loops come only from the runs: rebuilt in exact integers, the
    # table's tau = 1 slot has mass exactly 0, and with p1 the table gives
    # back the normalized full law
    alias = IntervalAlias(params)
    k, cap = alias.K, 1 << 50
    mass = [0] * k
    for col, (thr, other) in enumerate(zip(alias.thr.tolist(), alias.pair[0::2].tolist())):
        mass[col] += thr
        mass[other] += cap - thr
    assert mass[0] == 0
    full = np.append(alias.p1, (1.0 - alias.p1) * alias.weights[1:])
    law = np.append(_p_law(params, k - 1)[1:], 0.0)
    law[-1] = 1.0 - law[:-1].sum()
    assert float(np.abs(full - law).max()) < 1e-15
    assert abs(alias.p1 - p1(params)) < 1e-15


@pytest.mark.parametrize("params", [DEFAULT, SMALL_ALPHA])
def test_self_loop_runs_are_geometric(params):
    # P[G = g] = p1^g (1 - p1), the longest runs pooled into one cell
    alias = interval_alias(params)
    reps = 400_000
    g = alias.runs(RngStream(212).generator().random(reps))
    q = alias.p1
    top = int(math.log(10.0 / reps) / math.log(q))  # about 10 expected beyond
    obs = np.bincount(np.minimum(g, top), minlength=top + 1)
    exp = q ** np.arange(top + 1) * (1.0 - q) * reps
    exp[top] = q ** top * reps
    assert chisquare(obs, exp).pvalue > 0.001


def test_self_loop_run_of_a_zero_uniform_is_finite():
    alias = interval_alias(DEFAULT)
    g = alias.runs(np.array([0.0, 5e-324, 1.0 - 2.0 ** -53]))
    assert g[0] == g[1] > 3000 and g[2] == 0  # log(5e-324) / log(0.797)


@pytest.mark.parametrize("size", [0, 1, 2, 17, 40_000])
def test_draw_returns_the_requested_size(size):
    draws = interval_alias(SMALL_ALPHA).draw(RngStream(213), size)
    assert draws.shape == (size,) and draws.dtype == np.int64
    assert size == 0 or int(draws.min()) >= 1


_ALIAS = interval_alias(DEFAULT)
_ACCEPT, _ALIAS_OF = _vose_tables(_ALIAS.weights)


@st.composite
def _threshold_words(draw):
    # words whose fraction sits at the column's threshold or next to it
    col = draw(st.integers(0, _ALIAS.K - 1))
    sign = draw(st.integers(0, 1))
    thr = int(_ALIAS.thr[col])
    frac = draw(st.sampled_from([max(thr - 1, 0), min(thr, (1 << 50) - 1)]))
    word = (col << 51) | (sign << 50) | frac
    return word - (1 << 64) if word >= 1 << 63 else word


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-(1 << 63), (1 << 63) - 1), _threshold_words()),
                min_size=1, max_size=64))
def test_decode_matches_vose_rule(words):
    slot, sign = _ALIAS.decode(np.array(words, dtype=np.int64))
    for w, s, b in zip(words, slot.tolist(), sign.tolist()):
        u = w % (1 << 64)  # the word's bits as an unsigned integer
        col, frac = u >> 51, u & ((1 << 50) - 1)
        assert s == (col if frac * 2.0 ** -50 < _ACCEPT[col] else int(_ALIAS_OF[col]))
        assert b == (u >> 50) & 1


@pytest.mark.parametrize(
    "alias", [_TinyAlias(DEFAULT), interval_alias(SMALL_ALPHA)], ids=["tiny", "small_alpha"]
)
def test_excursion_rewards_match_their_lengths(alias):
    # every table draw carries (-1)^sign times the reward magnitude of its
    # own length, the draws the tail bucket resolves included
    gen = RngStream(214).generator()
    tau, sign, reward = alias.excursions(gen, raw_words(gen, 1 << 17))
    assert int(tau.min()) >= 2 and bool((tau >= alias.K).any())
    assert np.array_equal(reward, (1 - 2 * sign) * excursion_reward_magnitude(alias.params, tau))


# ------------------------------------------------------------ clamp refusal

@pytest.mark.parametrize("alpha", [0.02, 0.05])
def test_draws_refuse_mass_clamped_at_cap(alpha):
    # 9.4% (alpha = 0.02) and 1.8e-4 (0.05) of stationary draws would sit
    # at the 2^62 clamp
    params = Params(alpha, 0.0)
    gen = RngStream(210).generator()
    with pytest.raises(PrecisionError):
        sample_stationary_levels(params, gen, 10)
    with pytest.raises(PrecisionError):
        _interval_tail_reject(params, gen, 10, IntervalAlias.K - 1)
    with pytest.raises(PrecisionError):
        IntervalAlias(params)
    assert 0.0 < p1(params) < 1.0  # the exact oracles take any alpha


def test_draws_at_alpha_one_tenth_sample():
    params = Params(0.1, 0.0)
    gen = RngStream(211).generator()
    tau, _ = sample_stationary_levels(params, gen, 1000)
    assert int(tau.min()) >= 0
    assert int(_interval_tail_reject(params, gen, 100, IntervalAlias.K - 1).min()) >= IntervalAlias.K


# --------------------------------------------------------------------- steps

def test_step_deterministic_inside_excursion():
    gen = RngStream(301).generator()
    assert step(DEFAULT, ChainState(2, 5), gen) == ChainState(3, 4)
    assert step(DEFAULT, ChainState(3, 1), gen) == ORIGIN


def test_step_from_origin_self_loop_frequency():
    gen = RngStream(302).generator()
    reps = 20000
    loops = sum(step(DEFAULT, ORIGIN, gen).is_origin for _ in range(reps))
    expect = p1(DEFAULT)
    assert abs(loops / reps - expect) < three_se(expect, reps)


def test_step_from_origin_starts_at_age_one():
    gen = RngStream(303).generator()
    for _ in range(200):
        nxt = step(DEFAULT, ORIGIN, gen)
        assert nxt.is_origin or nxt.age == 1


# --------------------------------------------------------------------- paths

def test_path_terminal_marginal_matches_invariant_measure():
    # chi-square over binned levels of the state at time 5
    reps, horizon = 20000, 5
    levels = []
    for i in range(reps):
        path = generate_path(DEFAULT, horizon, RngStream(404, i))
        levels.append(int(path.ages[-1] + path.residuals[-1]))
    levels = np.array(levels)
    bins = [0, 2, 3, 4, 5, 6]
    obs = [int((levels == b).sum()) for b in bins]
    exp = [MU0 * reps]
    exp += [(b - 1) * math.exp(log_mu(DEFAULT, b)) * reps for b in bins[1:]]
    obs.append(reps - sum(obs))
    exp.append(reps - sum(exp))
    stat = chisquare(np.array(obs), np.array(exp))
    assert stat.pvalue > 0.001


def test_path_origin_frequency_ergodic():
    path = generate_path(DEFAULT, 30000, RngStream(405))
    frac = float((path.ages == 0).mean())
    # renewal-count fluctuations: sd ~ 1.81 / sqrt(n) for these exponents
    assert abs(frac - MU0) < 3.0 * 1.81 / math.sqrt(30000)


# -------------------------------------------------------------- kernel check

def test_one_step_l1_small_truncation_against_dense_kernel():
    # brute-force push of the truncated measure through the full kernel on
    # an explicit state list, levels <= 40
    n_max = 40
    mu = {0: MU0}
    pvec = {m: math.exp(log_p(DEFAULT, m)) for m in range(1, n_max + 1)}
    for m in range(2, n_max + 1):
        mu[m] = math.exp(log_mu(DEFAULT, m))
    states = [(0, 0)] + [
        (k, m - k) for m in range(2, n_max + 1) for k in range(1, m)
    ]
    weight = {s: (mu[0] if s == (0, 0) else mu[s[0] + s[1]]) for s in states}
    pushed = {s: 0.0 for s in states}
    for (k, l), w in weight.items():
        if k == 0:
            pushed[(0, 0)] += w * pvec[1]
            for m in range(2, n_max + 1):
                pushed[(1, m - 1)] += w * pvec[m]
            # pushes to levels beyond the truncation are dropped
        elif l > 1:
            pushed[(k + 1, l - 1)] += w
        else:
            pushed[(0, 0)] += w
    dense_l1 = sum(abs(pushed[s] - weight[s]) for s in states)
    res = stationary_push_l1(DEFAULT, n_max)
    assert res["exact_part"] == pytest.approx(dense_l1, abs=1e-13)
    assert res["tail_mass"] == math.exp(-(float(n_max) ** DEFAULT.alpha))


def test_one_step_l1_refuses_a_level_below_one():
    # a level below 1 is refused before NumPy sees it
    for n_max in (0, -3):
        with pytest.raises(ParameterError, match="n_max must be >= 1"):
            stationary_push_l1(DEFAULT, n_max)


def test_one_step_l1_is_tail_sized():
    res = stationary_push_l1(DEFAULT, 2000)
    tail = math.exp(-(2000.0 ** DEFAULT.alpha))
    assert res["l1_upper"] < 2.0 * tail + 1e-10
    # the exactly computable part is only the origin deficit, about tail/N
    assert res["exact_part"] < 2.0 * tail / 2000 + 1e-12
