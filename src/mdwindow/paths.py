"""Signed reward paths and their boundary decomposition.

A path carries X_t = s * phi(A_t, B_t) where phi(k, l) = (k+l)^(-beta) for
k^2 <= k+l (zero otherwise, zero at the origin) and s is a random sign
chosen once per excursion.  The running sum splits at the first and last
renewal inside [1, n] into

    S_n = S'_n + S~_n + S''_n,

with the two primed terms owned by the incomplete excursions overhanging
the window.  Because phi vanishes at renewals the three segments overlap
only in zeros and the identity is exact.

Everything about an excursion's contribution reduces to integer counts of
reward-carrying ages; one exact count (`measure._reward_ages`, integer
floor square roots) serves every term, and the roughly-sqrt(tau) size of a
full excursion's reward falls out of it rather than being assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .chain import RngLike, as_generator, interval_alias, raw_words, sample_stationary_levels
from .chain import _AliasTable, _Excursions, _check_tau_cap, _interval_tail_reject
from .chain import _stationary_excursions
from .errors import ParameterError, PrecisionError
from .measure import _TABLES, MEAN_TAU, Params, _integer, _p_law, _reward_ages


def phi(params: Params, k: int, l: int) -> float:
    """Reward shape (k+l)^(-beta) on the early ages k^2 <= k+l, else 0."""
    k, l = _integer(k, "age"), _integer(l, "residual")
    if k == 0 and l == 0:
        return 0.0
    if k < 1 or l < 1:
        raise ParameterError(f"invalid state ({k}, {l})")
    level = k + l
    if k * k <= level:
        return float(level) ** (-params.beta)
    return 0.0


def s_prime_count(a: int, b: int, n: int) -> int:
    """Nonzero terms of the leading boundary sum given (A_1, B_1) = (a, b).

    Counts the reward-carrying ages a..a+b-1, provided the excursion ends
    inside the window (1 + b <= n); otherwise the whole window sits inside
    one excursion and the sum is reassigned to the trailing term.
    """
    a, b, n = _integer(a, "age", 1), _integer(b, "residual", 1), _integer(n, "horizon")
    if 1 + b > n:
        return 0
    return _reward_ages(a + b, a, a + b - 1)


def s_double_prime_count(a: int, b: int, n: int) -> int:
    """Nonzero terms of the trailing boundary sum given (A_n, B_n) = (a, b).

    Counts the reward-carrying ages max(1, a-n+1)..a; the lower end handles
    windows lying entirely inside one excursion (a >= n).
    """
    a, b, n = _integer(a, "age", 1), _integer(b, "residual", 1), _integer(n, "horizon")
    return _reward_ages(a + b, max(a - n, 0) + 1, a)


@dataclass
class SignedPath:
    """Materialized path on times 1..n, with the excursion table behind it.

    ages/residuals are the state components per time (both zero at
    renewals).  starts holds the renewal opening each excursion, in time
    order (the first possibly <= 0, for the excursion straddling time 1),
    and sign its +-1; `signs` builds the start -> sign dict when read.
    """

    params: Params
    n: int
    ages: np.ndarray
    residuals: np.ndarray
    x: np.ndarray
    starts: np.ndarray
    sign: np.ndarray

    @property
    def signs(self) -> dict:
        return dict(zip(self.starts.tolist(), self.sign.tolist()))


@dataclass(frozen=True)
class SumDecomposition:
    """Split of S_n at the first/last renewal inside the window."""

    s_prime: float
    s_tilde: float
    s_double_prime: float
    s_total: float
    interior_renewal: bool


def _draw_taus_until(params, gen, needed: int) -> np.ndarray:
    """Interval draws whose cumulative sum first reaches `needed`; as many
    draws as steps always suffice, since each interval is at least 1."""
    taus = interval_alias(params).draw(gen, needed)
    return taus[: int(np.searchsorted(np.cumsum(taus), needed)) + 1]


def generate_path(params: Params, n: int, rng: RngLike) -> SignedPath:
    """Sample a signed path: stationary chain states plus one fresh
    equiprobable sign per excursion (including the one covering time 1)."""
    n = _integer(n, "path length", 1)
    gen = as_generator(rng)

    tau0, age0 = sample_stationary_levels(params, gen, 1)
    tau0, age0 = int(tau0[0]), int(age0[0])
    first_renewal = 1 if tau0 == 0 else 1 + (tau0 - age0)  # 1 + B_1

    taus = _draw_taus_until(params, gen, max(n + 1 - first_renewal, 0))
    starts = first_renewal + np.cumsum(taus) - taus
    if tau0:  # the excursion straddling time 1 opens the table
        starts = np.concatenate(([1 - age0], starts))
        taus = np.concatenate(([tau0], taus))
    return _materialize(params, n, gen, starts, taus)


def conditioned_path(params: Params, n: int, a: int, b: int, rng: RngLike) -> SignedPath:
    """Sample a signed path conditioned on the end state (A_n, B_n) = (a, b).

    Direct rejection on the end state has probability mu_(a+b), hopeless
    for certificate-sized levels, so the conditioning is structural: the
    final excursion, of length a + b, is imposed from the renewal at n - a,
    and the prefix before that renewal is generated backward from it.
    Reversing time maps the chain onto itself with age and residual
    swapped, and the invariant measure is symmetric under that swap, so the
    backward prefix is again a plain interval roll until the intervals
    cover time 1.
    """
    n, a, b = _integer(n, "horizon"), _integer(a, "age"), _integer(b, "residual", 1)
    if not 1 <= a <= n - 1:
        raise ParameterError(f"need 1 <= a <= n - 1 for a renewal at n - a, got a={a}")
    gen = as_generator(rng)
    r = n - a
    taus = _draw_taus_until(params, gen, r - 1)
    starts = r - np.cumsum(taus)  # opening renewals, backward from r
    starts, taus = np.append(starts[::-1], r), np.append(taus[::-1], a + b)
    return _materialize(params, n, gen, starts, taus)


def _materialize(params: Params, n: int, gen, starts, taus) -> SignedPath:
    """SignedPath on times 1..n from an excursion table: the renewal opening
    each excursion (possibly <= 0) and its length, in time order, covering
    1..n.  Draws one fair sign per excursion.  Time t lies in the last
    excursion opened before it, at age t - start; it is a renewal (age 0)
    when no excursion opens before it or the age reaches the length tau,
    and otherwise X_t = sign * tau^(-beta) where age^2 <= tau."""
    sign = np.where(gen.random(starts.size) < 0.5, 1, -1)
    t = np.arange(1, n + 1)
    e = np.searchsorted(starts, t) - 1
    levels = taus[e]
    ages = t - starts[e]
    inside = (e >= 0) & (ages < levels)
    ages = np.where(inside, ages, 0)
    residuals = np.where(inside, levels - ages, 0)
    weight = sign * taus.astype(np.float64) ** (-params.beta)
    x = np.where(inside & (ages * ages <= levels), weight[e], 0.0)
    return SignedPath(params, n, ages, residuals, x, starts, sign)


def decompose(path: SignedPath) -> SumDecomposition:
    """Split the path sum at its first and last renewal.

    The total is an independent direct summation of the per-time values;
    with no renewal in the window everything is assigned to the trailing
    term, and a single renewal leaves the middle term empty.
    """
    x = path.x
    s_total = float(x.sum())
    renewal_pos = np.flatnonzero(path.ages == 0)
    if renewal_pos.size == 0:
        return SumDecomposition(0.0, 0.0, s_total, s_total, False)
    t1 = int(renewal_pos[0]) + 1
    t2 = int(renewal_pos[-1]) + 1
    s_prime = float(x[:t1].sum())
    s_tilde = float(x[t1 - 1 : t2].sum())
    s_double_prime = float(x[t2 - 1 :].sum())
    return SumDecomposition(s_prime, s_tilde, s_double_prime, s_total, True)


def iter_sums(
    params: Params,
    n: int,
    reps: int,
    rng: RngLike,
    with_rewards: bool = True,
    chunk: int = 1 << 16,
) -> Iterator[dict]:
    """Stream excursion-level path statistics for `reps` stationary paths.

    Yields dict chunks with the decomposition terms and end states; the
    per-time values are never materialized.  With rewards every excursion
    is rolled in blocks of a self-loop run and one excursion; far from n a
    row draws only its runs' sum and its count of length-2 excursions
    (`_roll_chunk`), about 2.8e10 chain steps per minute on one CPU as
    README measures it.
    With with_rewards=False the middle term is skipped and no excursion is
    rolled (`_boundary_chunk`): an end state is drawn directly below a lag
    of 16 or as the first kept of stationary proposals, O(1) per path at
    any horizon the renewal table covers.  The draw layout is a pure
    function of (generator state, n, reps, with_rewards, chunk), which
    callers wanting bit-reproducibility must hold fixed, as the front ends
    do.  Arguments are checked, and the tables read, at the call.
    """
    n, reps = _integer(n, "horizon", 1), _integer(reps, "reps", 0)
    chunk = _integer(chunk, "chunk", 1)  # a chunk of 0 rows would never finish
    gen = as_generator(rng)
    if with_rewards:
        draw = partial(_roll_chunk, params, n, gen, interval_alias(params))
    else:
        env = _TABLES.get(("peel", params.alpha, params.beta, n), _solve_peel, params, n)
        draw = partial(_boundary_chunk, params, n, gen, _renewal_table(params, n), env)
    return (draw(min(chunk, reps - done)) for done in range(0, reps, chunk))


def _start_chunk(params, n, gen, c) -> tuple[dict, list]:
    """Stationary start states of `c` paths with their leading terms.

    Fills S'_n and returns the chunk's dict with a list of end records,
    (rows, ages, levels, sign uniforms) of the paths whose first renewal
    1 + B_1 lies past n (no renewal in the window); the caller ends the
    others (rows marked `interior`) and writes all records with one
    `_set_end_excursion` call.  Draw order: the stationary states, then
    one sign uniform per path, read only where it is used.
    """
    tau1, a1 = sample_stationary_levels(params, gen, c)
    b1 = tau1 - a1  # 0 at the origin
    u = gen.random(c)
    interior = b1 < n
    out = {"s_prime": np.zeros(c), "s_dprime": np.zeros(c), "a1": a1, "b1": b1,
           "an": np.zeros(c, dtype=np.int64), "bn": np.zeros(c, dtype=np.int64),
           "interior": interior}
    lead = (interior & (b1 > 0)).nonzero()[0]  # tau_1 > 0 exactly when b_1 > 0
    tau, a = tau1.take(lead), a1.take(lead)
    cnt = _reward_ages(tau, a, tau - 1)
    sign = np.where(u.take(lead) < 0.5, 1.0, -1.0)
    out["s_prime"][lead] = sign * cnt * tau.astype(np.float64) ** (-params.beta)
    rows = (~interior).nonzero()[0]
    return out, [(rows, a1.take(rows) + (n - 1), tau1.take(rows), u.take(rows))]


def _set_end_excursion(out, n, ends, beta):
    """Record the end states of `ends`, a list of (rows, ages a >= 1, levels,
    sign uniforms) records, and their S''_n, one write per array; a sign
    uniform below 1/2 means +1, and a sign bit (0 or 1) reads the same."""
    rows, a, lev, u = map(np.concatenate, zip(*ends))
    cnt = _reward_ages(lev, np.maximum(a - n, 0) + 1, a)
    sign = np.where(u < 0.5, 1.0, -1.0)
    out["s_dprime"][rows] = sign * cnt * lev.astype(np.float64) ** (-beta)
    out["an"][rows] = a
    out["bn"][rows] = lev - a


_RENEWAL_BLOCK = 128  # times per directly solved block of the renewal table
_RENEWAL_CAP = 1 << 24  # longest renewal table (128 MiB of float64)


def _renewal_table(params: Params, n: int) -> np.ndarray:
    return _TABLES.get(("renewal", params.alpha, params.beta, n), _solve_renewal, params, n)


def _solve_renewal(params: Params, n: int) -> np.ndarray:
    """Renewal function u(j) = P[renewal at time j | renewal at time 0]
    for j = 0..n-1, from u(0) = 1, u(j) = sum_{k=1..j} p_k u(j-k).

    Only p_1..p_(n-1) enter, so nothing is truncated.  The first block of
    _RENEWAL_BLOCK times is solved term by term.  Later blocks receive the
    contributions of all earlier times by FFT convolution, in the order of
    a divide-and-conquer recursion (O(n log^2 n) overall) run as one loop
    over the blocks, and then solve their own recursion u = f + L u, with L
    the strictly lower Toeplitz matrix of p, as u = T f: since U(z) =
    1/(1 - P(z)), the inverse of I - L is the lower Toeplitz matrix T of
    u(0..block-1).  Rounding adds up along the table: the FFT blocks leave
    about 1e-16 per entry, and u(n-1) strays from its limit mu_0 by about
    1e-11 at n = 1e6.
    """
    if n < 1:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    if n > _RENEWAL_CAP:
        raise PrecisionError(f"horizon n={n} needs a renewal table beyond {_RENEWAL_CAP} terms")
    p = _p_law(params, n - 1)
    u = np.zeros(n)  # a block holds the contributions of earlier times until solved
    u[0] = 1.0
    blk = min(n, _RENEWAL_BLOCK)
    for j in range(1, blk):
        u[j] = p[1 : j + 1] @ u[j - 1 :: -1]
    lag = np.subtract.outer(np.arange(blk), np.arange(blk))
    toeplitz = np.where(lag >= 0, u[np.maximum(lag, 0)], 0.0)
    p_hat = {}  # the spectrum of p per convolution size
    for lo in range(0, n, blk):
        top = min(lo + blk, n)
        if lo:
            u[lo:top] = toeplitz[: top - lo, : top - lo] @ u[lo:top]
        if top == n:
            break
        # the split at top: u[top - half:top] passes its contributions to the
        # next half times, half the largest power of two blocks dividing top
        half = blk * ((top // blk) & -(top // blk))
        size = 2 * half
        if size not in p_hat:
            p_hat[size] = np.fft.rfft(p[:size], size)
        conv = np.fft.irfft(np.fft.rfft(u[top - half : top], size) * p_hat[size], size)
        end = min(top + half, n)
        u[top:end] += conv[half : half + end - top]  # circular wrap hits only [0, half)
    u.setflags(write=False)
    return u


def _solve_peel(params: Params, n: int) -> SimpleNamespace:
    """`_boundary_chunk`'s envelope: `top` U = max u(j) over j >= _PEEL (0 if
    none), `excess` e_j = (u(j) - U)^+ below, `cdf` F(k) = P[tau <= k] to
    max(n, _LEVELS) and `z` Z(m) = sum_(j <= m) e_j T(m - j), T = 1 - F, each
    sum added in the order of j as `_boundary_chunk`'s running sums are."""
    u = _renewal_table(params, n)
    top = float(u[_PEEL:].max(initial=0.0))
    excess = np.maximum(u[:_PEEL] - top, 0.0)
    cdf = np.minimum(np.cumsum(_p_law(params, max(n, _LEVELS) - 1)), 1.0)
    _check_tau_cap(params.alpha, cdf.size - 1)  # as the rejection step past F will
    tail = 1.0 - cdf
    z = np.zeros(n)
    for j in range(excess.size):
        z[j:] += excess[j] * tail[: n - j]
    return SimpleNamespace(top=top, excess=excess, cdf=cdf, z=z)


def _boundary_chunk(params, n, gen, u_tab, env, c):
    """Boundary terms of `c` paths without rolling any excursion.

    With m = n - 1 - B_1 steps after the first renewal, the end state has law
    pi(a, b) h(a) / mu_0, pi the invariant measure (mu_0 p_(a+b), mu_0 at the
    origin) and h(a) = u(m - a), zero past m; `env` splits h as min(h, U) +
    e_(m - a).  After `_start_chunk`'s draws a row draws a uniform v.  Below
    Z(m) (always if U = 0) it ends at age m - j, j the first lag whose
    running sum of e_i T(m - i) passes v, summed in the order `_solve_peel`
    sums Z(m), with T = 0 past m: at the origin, or at a level of p above
    the age (a uniform per row inverts F, `_interval_tail_reject` past it),
    then a sign uniform each.  Other rows take the first stationary
    proposal kept with probability min(h, U) / U, drawing k = max(1,
    min(c, _PROPOSALS) // p) for each of a round's p pending rows, row by
    row, a uniform each, and a sign uniform per row whose first kept one
    ends in an excursion.
    """
    out, ends = _start_chunk(params, n, gen, c)
    idx = out["interior"].nonzero()[0]
    m = n - 1 - out["b1"].take(idx)
    v = gen.random(idx.size)
    peel = v < env.z.take(m) if env.top else np.ones(idx.size, bool)  # Z = 1 if U = 0
    rows = peel.nonzero()[0]
    if rows.size:
        a, vp = m.take(rows), v.take(rows)
        back = a[:, None] - np.arange(env.excess.size)  # m - j per lag j
        tail = np.where(back >= 0, 1.0 - env.cdf.take(back, mode="clip"), 0.0)  # T = 0 past m
        lag = (np.cumsum(env.excess * tail, axis=1) <= vp[:, None]).sum(1)
        a -= np.minimum(lag, a)  # a v past a rounded Z(m) = 1 takes the last lag
        floor = a.take(exc := a.nonzero()[0])
        at = env.cdf.take(floor)  # levels past the table take the rejection step
        lev = np.searchsorted(env.cdf, at + gen.random(exc.size) * (1.0 - at), "right")
        past = (lev == env.cdf.size).nonzero()[0]
        lev[past] = _interval_tail_reject(params, gen, past.size, env.cdf.size - 1)
        ends.append((idx.take(rows.take(exc)), floor, lev, gen.random(exc.size)))
        idx, m = idx.compress(~peel), m.compress(~peel)
    while idx.size:
        k = max(1, min(c, _PROPOSALS) // idx.size)  # a one-row chunk: always 1
        exc, lev, age = _stationary_excursions(params.alpha, gen, idx.size * k)
        lag = m.repeat(k) if k > 1 else m.copy()  # origin proposals wait all m steps
        lag[exc] -= age
        keep = gen.random(lag.size) * env.top < u_tab.take(lag, mode="clip")
        keep &= lag >= 0  # a clipped read of u(0) for a negative lag is refused
        took, row = keep, exc  # proposal j belongs to row j // k
        if k > 1:  # each row takes its first accepted proposal, if any
            first = keep.reshape(-1, k).argmax(axis=1) + np.arange(0, keep.size, k)
            took, keep, row = keep.take(first), np.zeros(keep.size, bool), exc // k
            keep[first] = took
        ended = keep.take(exc).nonzero()[0]  # origin proposals leave the zero end state
        ends.append((idx.take(row.take(ended)), age.take(ended), lev.take(ended),
                     gen.random(ended.size)))
        pending = (~took).nonzero()[0]
        idx, m = idx.take(pending), m.take(pending)
    _set_end_excursion(out, n, ends, params.beta)
    return out


_PEEL = 16  # lags j < _PEEL whose weight over the envelope U a boundary row draws directly
_LEVELS = 1 << 13  # fewest levels of F; a level past them takes the rejection step
_PROPOSALS = 1024  # most proposals a boundary round spreads over its pending rows
_BLOCK = 48  # blocks (a self-loop run and one excursion) drawn per path per round
_TILE = 512  # rows rolled together
_BULK = 3  # expected round spans from n past which a round is a bulk round
_PAIR_BITS = 6  # a pair-count atom is (k2 << _PAIR_BITS) + p, p <= k2 <= _BLOCK < 64


def _roll_chunk(params, n, gen, alias, c):
    """All decomposition terms of `c` paths, every excursion rolled.

    A path advances in blocks: a run of G self-loops (`alias.runs`, one
    uniform double), then one excursion of length tau >= 2 with a fair sign
    and its signed reward (`alias.excursions`, one 64-bit word), so a block
    spans G + tau steps.  A round draws the words of _BLOCK blocks for each
    live row of a tile, then their run uniforms, then any tail-bucket
    draws.  Row sums of the rewards go to S~_n, and only rows whose
    renewals cross n take a cumulative sum, to find the block straddling n.
    If n falls in its self-loop run the path ends at the origin, otherwise
    inside its excursion.  Tiles of _TILE rows keep a round's temporaries
    (192 KiB each) near the size of an L2 cache.  `_set_end_excursion`
    writes the end records once (sign bits read as sign uniforms).

    While the tile's most advanced row is more than _BULK expected round
    spans, _BLOCK MEAN_TAU / (1 - p1), from n, a round is a bulk round (a
    tile once near n stays near), drawn by `_bulk_round`.  Rounds nearer n
    keep the draws above.
    """
    out, ends = _start_chunk(params, n, gen, c)
    s_tilde = np.zeros(c)
    first = 1 + out["b1"]  # first renewal
    todo = np.flatnonzero(first <= n - 1)
    reach = _BULK * _BLOCK * MEAN_TAU / (1.0 - alias.p1)  # a block holds 1 / (1 - p1) intervals
    for lo in range(0, todo.size, _TILE):
        idx = todo[lo : lo + _TILE]
        t, bulk = first[idx], True
        while idx.size:
            if bulk := bulk and n - t.max() > reach:
                end, gain, (rows, span, tau, reward, sign) = _bulk_round(params, n, gen, alias, t)
            else:
                words = raw_words(gen, (idx.size, _BLOCK))
                span = alias.runs(gen.random(words.shape))
                tau, q, reward = alias.excursions(gen, words)
                span += tau  # the blocks' spans
                end = t + span.sum(axis=1)
                gain = reward.sum(axis=1)
                rows = np.flatnonzero(end > n)  # renewals cross n
                span, tau, reward = span[rows], tau[rows], reward[rows]
                sign = (q[rows] >> 1) & 1
            if rows.size:
                pos = np.cumsum(span, axis=1)
                pos += t[rows, None]
                kstar = (pos > n).argmax(axis=1)  # the block straddling n
                before = np.arange(_BLOCK) < kstar[:, None]
                gain[rows] = (reward * before).sum(axis=1)
                at = np.arange(rows.size)
                level = tau[at, kstar]
                ac = n - (pos[at, kstar] - level)
                e = np.flatnonzero(ac > 0)  # ac <= 0: n falls on a self-loop renewal
                ends.append((idx[rows[e]], ac[e], level[e], sign[e, kstar[e]]))
            s_tilde[idx] += gain
            alive = end <= n - 1
            idx, t = idx[alive], end[alive]

    _set_end_excursion(out, n, ends, params.beta)
    out["s_tilde"] = s_tilde
    out["s_total"] = out["s_prime"] + s_tilde + out["s_dprime"]
    return out


def _bulk_round(params, n, gen, alias, t):
    """One bulk round of rows at `t`: their ends and gains, and the blocks
    (spans, lengths, rewards, sign bits) of the rows whose renewals cross n.

    A row needs only the sum S of its _BLOCK runs, NegBin(_BLOCK, 1 - p1),
    and the count k2 ~ Bin(_BLOCK, w2) of its excursions of length 2 (w2 =
    P[tau = 2 | tau >= 2]) with the number p ~ Bin(k2, 1/2) of them plus:
    one word each, decoded by `_solve_run_sums`' and `_solve_pair_counts`'
    tables.  Its other _BLOCK - k2 excursions are decoded by
    `_solve_long_excursions`' table over lengths >= 3, so it spans S + 2 k2 +
    their lengths and gains R(2) (2 p - k2) + their rewards.  The tables are
    built at the first bulk round; the run sums drop their mass past their
    last column, under 2^-53 or refused.  Given its draws a crossing row's
    blocks are exchangeable: its length-2 excursions sit at the k2 lowest
    ranks of _BLOCK uniforms, the p lowest of them plus, its other
    excursions fill the other blocks in draw order, and given S its runs
    are uniform over the compositions of S into _BLOCK parts
    (`_compositions`).  Draw order:
    the S words, the (k2, p) words, the other excursions' words row by row,
    their tail-bucket draws, then the crossing rows' rank uniforms and
    their composition uniforms, row by row.
    """
    sums = _TABLES.get(("run sums", params.alpha), _solve_run_sums, alias)
    pairs = _TABLES.get(("pair counts", params.alpha), _solve_pair_counts, alias)
    long = _TABLES.get(("long excursions", params.alpha, params.beta),
                       _solve_long_excursions, alias)
    words = raw_words(gen, 2 * t.size)
    s = sums.value.take(sums.decode(words[: t.size]))
    atom = pairs.value.take(pairs.decode(words[t.size :]))
    k2, plus = atom >> _PAIR_BITS, atom & ((1 << _PAIR_BITS) - 1)
    count = _BLOCK - k2  # excursions of lengths >= 3
    tau, q, reward = long.excursions(gen, raw_words(gen, int(count.sum())))
    end = t + s + 2 * k2 + _segment_sums(tau, count)
    gain = alias.mag[1] * (2 * plus - k2) + _segment_sums(reward, count)
    rows = np.flatnonzero(end > n)  # renewals cross n
    if not rows.size:
        return end, gain, (rows, None, None, None, None)
    rank = np.argsort(np.argsort(gen.random((rows.size, _BLOCK)), axis=1), axis=1)
    other = rank >= k2[rows, None]
    sign = (rank >= plus[rows, None]).astype(np.int64)  # the length-2 blocks' sign bits
    block_tau = np.full(rank.shape, 2)
    block_reward = np.where(sign, -alias.mag[1], alias.mag[1])
    mine = np.repeat(end > n, count)  # the crossing rows' other excursions, in draw order
    block_tau[other], block_reward[other] = tau[mine], reward[mine]
    sign[other] = (q[mine] >> 1) & 1
    span = _compositions(gen, s[rows].astype(np.int64), _BLOCK) + block_tau
    return end, gain, (rows, span, block_tau, block_reward, sign)


def _segment_sums(x, count):
    """Sums of the consecutive runs of `x` of lengths `count`, 0 for an empty
    run, in int64 for integers."""
    full = count.nonzero()[0]
    out = np.zeros(count.size, np.result_type(x.dtype, np.int64))
    if full.size:
        at = np.cumsum(count) - count  # where each run starts
        out[full] = np.add.reduceat(x, at.take(full), dtype=out.dtype)
    return out


def _solve_run_sums(alias) -> _AliasTable:
    """Alias table of the sum of _BLOCK self-loop runs, P[S = s] = C(s + _BLOCK
    - 1, s) p1^s (1 - p1)^_BLOCK on s < k, from the ratios r(s) = p1 (s +
    _BLOCK) / (s + 1) of successive terms.  They fall in s, so the mass past
    k - 1 is below P[S = k - 1] r / (1 - r), r = r(k - 1) < 1; k is the
    fewest columns, a power of two up to K = 8192, that leave under 2^-53
    there, and more is refused."""
    p1, k = alias.p1, alias.K
    ratio = p1 * (np.arange(k) + _BLOCK) / (np.arange(k) + 1.0)
    pmf = np.cumprod(np.append((1.0 - p1) ** _BLOCK, ratio[:-1]))
    last = (1 << np.arange(1, k.bit_length())) - 1  # the last s of each power of two
    r = ratio.take(last)
    fits = (r < 1.0) & (pmf.take(last) * r < 2.0**-53 * (1.0 - r))
    if not fits.any():
        raise PrecisionError(f"p1={p1:g}: over 2^-53 of the run sums lie past {k - 1}")
    pmf = pmf[: int(last[fits.argmax()]) + 1]
    return _AliasTable(pmf / pmf.sum())


def _solve_pair_counts(alias) -> _AliasTable:
    """Alias table of a bulk row's (k2, p), atom (k2 << _PAIR_BITS) + p of
    4096: P = C(_BLOCK, k2) w2^k2 (1 - w2)^(_BLOCK - k2) C(k2, p) 2^-k2, w2
    = P[tau = 2 | tau >= 2], on all 1,225 atoms p <= k2 <= _BLOCK."""
    w2 = float(alias.weights[1])
    law = np.zeros((1 << _PAIR_BITS, 1 << _PAIR_BITS))
    for k2 in range(_BLOCK + 1):
        k2_law = math.comb(_BLOCK, k2) * w2**k2 * (1.0 - w2) ** (_BLOCK - k2) * 0.5**k2
        law[k2, : k2 + 1] = [k2_law * math.comb(k2, p) for p in range(k2 + 1)]
    return _AliasTable(law.ravel() / law.sum())


def _solve_long_excursions(alias) -> _Excursions:
    """The excursions of `alias` given tau >= 3: its weights without tau = 2,
    renormalized, with the same reward magnitudes and tail bucket."""
    weights = alias.weights.copy()
    weights[1] = 0.0  # slot 1 holds tau = 2
    return _Excursions(alias.params, weights / weights.sum(), alias.mag)


def _compositions(gen, s, k):
    """Uniform compositions of each s into k parts >= 0 (stars and bars: the
    k - 1 bars sit at the smallest of s + k - 1 uniforms, drawn row by row)."""
    slots = s + (k - 1)
    keys = np.full((s.size, int(slots.max())), 2.0)
    keys[np.arange(keys.shape[1]) < slots[:, None]] = gen.random(int(slots.sum()))
    bars = np.sort(np.argpartition(keys, k - 2, axis=1)[:, : k - 1], axis=1)
    return np.diff(bars, axis=1, prepend=-1, append=slots[:, None]) - 1
