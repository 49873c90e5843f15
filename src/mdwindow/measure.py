"""Closed-form invariant measure and moments of the renewal chain.

The chain lives on the origin plus the integer pairs (k, l), k, l >= 1.
Its invariant measure puts a common weight mu_n on every state at "level"
n = k + l, and the levels are pinned down by the size-biased tail identity

    sum_{m > n} (m - 1) mu_m = exp(-n^alpha)        for n = 1, 2, ...

Differencing gives the closed form

    mu_n = (exp(-(n-1)^alpha) - exp(-n^alpha)) / (n - 1),   n >= 2,

and the identity at n = 1 plus normalization forces mu_0 = 1 - 1/e and a
mean return interval of e/(e-1), independent of alpha.  Transition weights
follow from mu_0 * p_n = mu_n.  Everything here is a pure function of the
exponent pair.

Every series over the levels (sigma^2, the autocovariances r(k), the tail
of S''_n) takes its cut from one rule, `_series_cut`.  For a weight with
0 <= w(m) <= C m^e, e <= 1, the ratio m^e / (m - 1) falls in m, so the
identity above bounds the levels beyond a cut N by

    sum_{m > N} mu_m w(m) <= C (N+1)^e / N * exp(-N^alpha).

The rule doubles N until that remainder is below the tolerance (or past
2^26 levels refuses with PrecisionError).  In absolute mode the doubling
from the lowest start is memoized per (alpha, tol, growth), so a later
start costs a lookup and at most one remainder of its own.  The kernel
`level_series` then walks the levels in blocks of _LEVEL_BLOCK; r(k)
instead reads entry k + 1 of a per-cut lag table, sum_{s > k} (s - k) W_s
over the runs of levels that share one isqrt s, which `oracles` builds
with one such walk and caches, so a sweep over the lags walks the levels
once and a warm lag is one cut lookup and one array read.  Walks read mu
from a 1 MiB cache of read-only granules of 8192 levels per parameter
pair, so the series at one pair (p_1, sigma, r(k)) compute each mu_n once
while its granule stays cached, and get the same bits as from computing it
afresh.  Where direct summation cannot reach float resolution (p_1 at
small alpha) the mass beyond the cut has a closed form, `small_mass_tail`,
built from incomplete gamma functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, PrecisionError, StateIndexError
from .logspace import log1mexp, power_gap

# Constants forced by the tail identity at n = 1 plus normalization; they
# do not depend on the exponents.
MU0 = -math.expm1(-1.0)        # 1 - 1/e, weight of the origin
LOG_MU0 = math.log(MU0)
MEAN_TAU = 1.0 / MU0           # e/(e-1), mean return interval

# Levels per block of a level series.  At 64 KiB the temporaries are
# recycled from malloc's heap.  Larger ones are mapped and unmapped, or
# trimmed, on every call or not at all, as glibc's adaptive thresholds happen
# to stand in the process, so a call's cost changed from one process to the
# next (a lag-0 autocovariance took 1.0x or 1.6x).
_LEVEL_BLOCK = 1 << 13
_FIRST_CUT = 1 << 10           # first truncation level a series tries
_LEVEL_CAP = 1 << 26           # deepest truncation level; beyond it, refuse
_P1_CUT = 1 << 14              # p_1 sums this far and adds the closed-form tail
_GAMMA_TERMS = 8               # powers x^-2 .. x^-8 of 1/(x(x-1)) in the tail
# Levels per cached run of mu (a granule), fixed whatever _LEVEL_BLOCK is,
# and the bytes all cached granules may hold: the 16 granules cover the
# levels 2..2^17, all that a series at tol 1e-12 walks for alpha above about
# 0.28.  Only these head granules are cached; deeper levels are computed
# afresh, so a longer walk cannot evict its own head.
_MU_GRANULE = 1 << 13
_MU_CACHE_BYTES = 1 << 20
_MU_GRANULES = _MU_CACHE_BYTES // (8 * _MU_GRANULE)
_MU_DEPTH = 1 + _MU_GRANULES * _MU_GRANULE  # deepest cached level


@dataclass(frozen=True)
class Params:
    """Exponent pair: alpha sets the stretched-exponential interval tail
    exp(-n^alpha), beta the reward damping (k+l)^(-beta).

    Constraints: alpha > 0, beta >= 0, alpha + 2*beta < 1/2.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha > 0 violated: alpha = {self.alpha}")
        if not self.beta >= 0.0:
            raise ParameterError(f"beta >= 0 violated: beta = {self.beta}")
        if not self.alpha + 2.0 * self.beta < 0.5:
            raise ParameterError(
                "alpha + 2*beta < 1/2 violated: "
                f"{self.alpha} + 2*{self.beta} = {self.alpha + 2.0 * self.beta}"
            )


@dataclass(frozen=True)
class WindowSet:
    """Finite union of disjoint open scale windows, strictly interleaved:
    0 < u_1 < v_1 < u_2 < ... <= 0.5.  u and v are the first start and the
    last end, the window itself when there is one."""

    windows: tuple

    def __init__(self, windows):
        pairs = tuple([(float(u), float(v)) for u, v in windows])
        flat = [0.0, *[x for pair in pairs for x in pair]]
        if not (pairs and flat[-1] <= 0.5 and all(map(float.__lt__, flat, flat[1:]))):
            raise ParameterError(
                f"windows need 0 < u_1 < v_1 < u_2 < ... <= 0.5, got {pairs}"
            )
        object.__setattr__(self, "windows", pairs)

    @property
    def u(self) -> float:
        return self.windows[0][0]

    @property
    def v(self) -> float:
        return self.windows[-1][1]

    def locate(self, gamma: float) -> str:
        """'inside' a window, 'boundary' on an endpoint, 'below' every
        window, or 'outside' (in a later gap or above the last window).
        The one comparison of a scale exponent with the windows."""
        for u, v in self.windows:
            if gamma == u or gamma == v:
                return "boundary"
            if u < gamma < v:
                return "inside"
        return "below" if gamma < self.u else "outside"


@dataclass(frozen=True)
class ProcessStats:
    """Normalizing constants of the reward process."""

    mean_tau: float               # expected return interval
    second_moment_jump: float     # E X^2 of the per-excursion reward
    sigma: float                  # sqrt(E X^2 / E tau)


def log_mu(params: Params, n: int) -> float:
    """Log weight of one state at level n, n in {0} u {2, 3, ...}.

    Level 1 does not exist (an excursion of length 1 never leaves the
    origin) and asking for it is an error rather than -inf.
    """
    n = int(n)
    if n == 0:
        return LOG_MU0
    if n == 1:
        raise StateIndexError("level 1 is not in the state space")
    if n < 0:
        raise StateIndexError(f"negative level {n}")
    a = params.alpha
    return -(float(n - 1) ** a) + log1mexp(power_gap(n, a)) - math.log(n - 1)


def _level_log_mu(params: Params, lo: int, hi: int) -> np.ndarray:
    """Vectorized log mu_n for n = lo..hi (inclusive), lo >= 2."""
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    nm1 = (ns - 1).astype(np.float64)
    return -(nm1 ** params.alpha) + log1mexp(power_gap(ns, params.alpha)) - np.log(nm1)


@lru_cache(maxsize=_MU_GRANULES)
def _mu_granule(params: Params, g: int) -> np.ndarray:
    """Read-only mu_n for the levels n = 2 + g G .. 1 + (g + 1) G, G = _MU_GRANULE.

    exp and log act on each level alone, so a level gets the same bits here
    as from a direct evaluation over any other range."""
    lo = 2 + g * _MU_GRANULE
    mu = np.exp(_level_log_mu(params, lo, lo + _MU_GRANULE - 1))
    mu.setflags(write=False)
    return mu


def _mu_levels(params: Params, lo: int, hi: int) -> np.ndarray:
    """mu_n for n = lo..hi, 2 <= lo <= hi: a slice of one cached granule, or
    a copy of the slices of several; levels past _MU_DEPTH are computed
    afresh."""
    if lo > _MU_DEPTH:
        return np.exp(_level_log_mu(params, lo, hi))
    if hi > _MU_DEPTH:
        head = _mu_levels(params, lo, _MU_DEPTH)
        return np.concatenate((head, _mu_levels(params, _MU_DEPTH + 1, hi)))
    g0, first = divmod(lo - 2, _MU_GRANULE)
    g1, last = divmod(hi - 2, _MU_GRANULE)
    if g0 == g1:
        return _mu_granule(params, g0)[first:last + 1]
    parts = [_mu_granule(params, g) for g in range(g0, g1 + 1)]
    parts[0], parts[-1] = parts[0][first:], parts[-1][:last + 1]
    return np.concatenate(parts)


def log_interval_tail(params: Params, k: int) -> float:
    """Exact log of the stationary tail P[A + B > k], k >= 1: just -k^alpha."""
    k = int(k)
    if k < 1:
        raise ParameterError(f"tail index must be >= 1, got {k}")
    return -(float(k) ** params.alpha)


def _level_walk(params: Params, block_sum, lo: int, hi: int) -> float:
    """sum_{m=lo..hi} mu_m w(m), block_sum taken over blocks of _LEVEL_BLOCK."""
    total = 0.0
    for b in range(lo, hi + 1, _LEVEL_BLOCK):
        top = min(b + _LEVEL_BLOCK - 1, hi)
        total += block_sum(b, top, _mu_levels(params, b, top))
    return total


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:  # inf passes any error bound, nan turns the checks arbitrary
        raise ParameterError(f"tol must be positive and finite, got {tol}")


def _cut_remainder(alpha: float, growth: tuple, cut: int) -> float:
    """C (N+1)^e / N exp(-N^alpha), growth = (C, e): the bound on the levels
    beyond the cut N."""
    c, e = growth
    return c * (cut + 1.0) ** e / cut * math.exp(-(float(cut) ** alpha))


@lru_cache(maxsize=256)
def _lowest_cut(alpha: float, tol: float, growth: tuple):
    """(N*, remainder) of the absolute doubling from the lowest start, or
    None where it refuses."""
    try:
        return _doubling_cut(alpha, _FIRST_CUT, tol, growth, None)
    except PrecisionError:
        return None


def _series_cut(params: Params, start: int, tol: float, growth: tuple, walked=None):
    """Cut N of a level series from `start` and its remainder bound, as
    (N, remainder): the first of max(start, _FIRST_CUT 2^j), j = 0, 1, ...,
    whose remainder C (N+1)^e / N exp(-N^alpha), growth = (C, e), is below
    tol.  With walked, the relative test: walked(N) returns the sum over the
    levels start..N and the remainder must be below tol times it.
    PrecisionError is raised once no cut up to _LEVEL_CAP can pass: the
    cap's remainder reaches tol, or in relative mode tol (sum + remainder),
    a bound on tol * full sum.

    In absolute mode the doublings from start depend on start only through
    max(start, 2^j), so the doubling from _FIRST_CUT is memoized per
    (alpha, tol, growth) as its first passing cut N*.  A start above
    _FIRST_CUT first tests its own remainder.  A start that does not pass
    there and lies at or below N* takes N*: the doublings past it are
    those of the memo.  Any other start, or a memo that refuses, runs the
    doubling itself, so every refusal reads as it would without the memo."""
    _check_tol(tol)
    if walked is None:
        lowest = _lowest_cut(params.alpha, tol, growth)
        if start > _FIRST_CUT:
            rem = _cut_remainder(params.alpha, growth, start)
            if rem < tol:
                return start, rem
        if lowest is not None and start <= lowest[0]:
            return lowest
    return _doubling_cut(params.alpha, start, tol, growth, walked)


def _doubling_cut(alpha: float, start: int, tol: float, growth: tuple, walked):
    """The doubling of `_series_cut`, tested cut by cut."""
    # the remainder at the last cut, the doubling's first at or past the cap
    first = _FIRST_CUT
    last = max(start, first << ((_LEVEL_CAP - 1) // first).bit_length())
    best = _cut_remainder(alpha, growth, last)
    while True:
        cut = max(start, first)
        rem = _cut_remainder(alpha, growth, cut)
        value = 1.0 if walked is None else walked(cut)
        if rem < tol * value:
            return cut, rem
        # the full sum is at most value + rem, so no later cut can certify
        if cut >= _LEVEL_CAP or best >= tol * (1.0 if walked is None else value + rem):
            raise PrecisionError(
                f"no cut up to {_LEVEL_CAP} levels brings the remainder bound "
                f"{best:.3e} below the tolerance; relax it"
            )
        while first <= cut:  # a doubling below start would test start again
            first <<= 1


def level_series(
    params: Params,
    block_sum,
    start: int = 2,
    tol: float = 1e-12,
    growth: tuple = (1.0, 0.0),
    relative: bool = False,
) -> tuple[float, float, int]:
    """Certified sum_{m >= start} mu_m w(m) as (value, remainder_bound, n_terms).

    growth = (C, e) bounds the weight, 0 <= w(m) <= C m^e with e <= 1, and
    block_sum(lo, hi, mu) returns sum_{m=lo..hi} mu_m w(m) given the array
    mu = (mu_lo, ..., mu_hi), which it must not write to.  `_series_cut`
    picks the cut N or refuses with PrecisionError, and the levels start..N
    are walked in blocks of _LEVEL_BLOCK.  With relative=True the test is remainder < tol * value,
    and each doubling of the cut adds only its new levels to the value.

    mu comes from the cache of granules (_MU_GRANULE levels each, at most
    _MU_CACHE_BYTES in all, least recently used dropped first), so repeated
    series at one pair compute each mu_n up to _MU_DEPTH once while its
    granule is cached.
    """
    if not relative:
        cut, rem = _series_cut(params, start, tol, growth)
        return _level_walk(params, block_sum, start, cut), rem, cut - start + 1
    value, done = 0.0, start - 1

    def walked(cut: int) -> float:
        nonlocal value, done
        value += _level_walk(params, block_sum, done + 1, cut)
        done = cut
        return value

    cut, rem = _series_cut(params, start, tol, growth, walked)
    return value, rem, cut - start + 1


def _upper_gamma(s: float, t: float) -> float:
    """Gamma(s, t) for s < 0 < t from Legendre's continued fraction

        e^-t t^s / (t + 1 - s - 1 (1 - s) / (t + 3 - s - 2 (2 - s) / ...)),

    evaluated by the modified Lentz method (under 50 terms in the tail)."""
    tiny = 1e-300
    b = t + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 200):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return math.exp(s * math.log(t) - t) * h
    raise PrecisionError(f"Gamma({s}, {t}): continued fraction did not converge")


def small_mass_tail(params: Params, n_trunc: int) -> tuple[float, float]:
    """sum_{k > N} mu_k with a rigorous error bound.

    Abel summation against the exact size-biased tail T(n) = exp(-n^alpha)
    turns the sum into

        T(N)/N - sum_{k > N} g(k),    g(x) = T(x) / (x (x-1)),

    and Euler-Maclaurin turns the correction series into the integral of g
    over [N+1, inf) plus g(N+1)/2 - g'(N+1)/12, with |g'(N+1)|/6 bounding
    the rest.  Since 1/(x(x-1)) = sum_{j>=2} x^-j, the integral is
    sum_j Gamma((1-j)/alpha, (N+1)^alpha) / alpha; the powers j > 8 add at
    most (N+1)^-7 / (1 - 1/(N+1)) times the j = 2 term.  The bound also
    covers rounding: exp(-t) carries about t ulps of relative error.  Direct
    summation to float resolution is hopeless for small alpha.
    """
    a = params.alpha
    N = int(n_trunc)
    x = N + 1.0
    t = x ** a
    terms = [_upper_gamma((1.0 - j) / a, t) / a for j in range(2, _GAMMA_TERMS + 1)]
    beyond = terms[0] * x ** (1 - _GAMMA_TERMS) / (1.0 - 1.0 / x)
    g = math.exp(-t) / (x * (x - 1.0))
    gp = -g * (a * x ** (a - 1.0) + 1.0 / x + 1.0 / (x - 1.0))  # g'(N+1)
    head = math.exp(-(float(N) ** a)) / N
    tail = head - (math.fsum(terms) + 0.5 * g - gp / 12.0)
    return tail, abs(gp) / 6.0 + beyond + 4e-16 * (1.0 + t) * head


@lru_cache(maxsize=64)
def _p1_cached(params: Params) -> tuple[float, float]:
    """(p1, error bound): the self-loop weight 1 - sum_{k>=2} mu_k / mu_0,
    summed directly to _P1_CUT and in closed form beyond."""
    head = _level_walk(params, lambda lo, hi, mu: float(mu.sum()), 2, _P1_CUT)
    tail, tail_err = small_mass_tail(params, _P1_CUT)
    return 1.0 - (head + tail) / MU0, (tail_err + 1e-15) / MU0


def p1(params: Params, tol: float = 1e-12) -> float:
    """Self-loop transition weight p_1, certified to absolute error < tol."""
    _check_tol(tol)
    value, err = _p1_cached(params)
    if err >= tol:
        raise PrecisionError(
            f"p1 error bound {err:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return value


def _p_law(params: Params, m: int) -> np.ndarray:
    """Transition weights (p_0, ..., p_m) with p_0 = 0: p_1 from `p1`, and
    p_k = mu_k / mu_0 for k >= 2."""
    p = np.zeros(m + 1)
    if m >= 1:
        p[1] = p1(params)
    if m >= 2:
        p[2:] = np.exp(_level_log_mu(params, 2, m) - LOG_MU0)
    return p


def log_p(params: Params, n: int) -> float:
    """Log transition weight from the origin to an excursion of length n.

    For n >= 2 this is log(mu_n / mu_0); p_1 absorbs the rest of the mass.
    """
    n = int(n)
    if n < 1:
        raise ParameterError(f"interval length must be >= 1, got {n}")
    if n == 1:
        return math.log(p1(params))
    return log_mu(params, n) - LOG_MU0


def _floor_sqrt(arr: np.ndarray) -> np.ndarray:
    """Exact floor square root of an int64 array (float sqrt, corrected)."""
    s = np.sqrt(arr.astype(np.float64)).astype(np.int64)
    s -= s * s > arr
    s += (s + 1) * (s + 1) <= arr
    return s


def _reward_ages(tau, first, last):
    """#{j : first <= j <= last, j^2 <= tau}: the reward-carrying ages
    first..last of an excursion of length tau, that is
    (min(last, isqrt(tau)) - first + 1)^+.  Exact for Python ints of any
    size (certificate levels pass 2^63) and for int64 arrays."""
    if isinstance(tau, np.ndarray):
        return np.maximum(np.minimum(last, _floor_sqrt(tau)) - first + 1, 0)
    return max(0, min(last, math.isqrt(tau)) - first + 1)


def excursion_reward_magnitude(params: Params, tau):
    """Total |reward| of full excursions of lengths tau >= 1 (int or array):
    the reward-carrying ages 1..tau-1 times tau^(-beta).  A length-1
    excursion never leaves the origin and earns nothing.
    """
    tau = np.asarray(tau, dtype=np.int64)
    if np.any(tau < 1):
        raise ParameterError("interval lengths must be >= 1")
    return _reward_ages(tau, 1, tau - 1) * tau.astype(np.float64) ** (-params.beta)


def _s_tilde_variance(params: Params, n: int) -> float:
    """Exact Var(S~_n) = mu_0 sum_{j<n} p_j R(j)^2 (n - j), R the reward
    magnitude of a length-j excursion: signs are independent and fair, so
    the variance is the expected sum of R^2 over the complete excursions in
    the window, and one of length j opens at each of the n - j times
    1..n-j with probability mu_0 p_j.  R(1) = 0, so p_1 never enters."""
    j = np.arange(n)
    r2 = np.zeros(n)
    r2[1:] = excursion_reward_magnitude(params, j[1:]) ** 2
    return MU0 * float(_p_law(params, n - 1) @ (r2 * (n - j)))


def second_moment_jump(params: Params, tol: float = 1e-12) -> float:
    """E X^2 of the per-excursion reward, absolute error < tol.

    E X^2 = sum_{m >= 2} mu_m |reward(m)|^2 / mu_0, and the weight
    count(m)^2 m^(-2 beta) / mu_0 is at most m^(1 - 2 beta) / mu_0, so the
    levels beyond a cut N add at most exp(-N^alpha) (N+1)^(1-2 beta) / (N mu_0).
    """

    def block_sum(lo, hi, mu):
        mag = excursion_reward_magnitude(params, np.arange(lo, hi + 1))
        return float((mu * mag * mag).sum()) / MU0

    growth = (1.0 / MU0, 1.0 - 2.0 * params.beta)
    return level_series(params, block_sum, tol=tol, growth=growth)[0]


def sigma(params: Params, tol: float = 1e-12) -> ProcessStats:
    """Normalizing constant sqrt(E X^2 / E tau) with its ingredients."""
    m2 = second_moment_jump(params, tol)
    return ProcessStats(
        mean_tau=MEAN_TAU,
        second_moment_jump=m2,
        sigma=math.sqrt(m2 / MEAN_TAU),
    )


@lru_cache(maxsize=64)
def window_from_params(params: Params) -> WindowSet:
    """Anomalous scale window (u, v) generated by the exponent pair, as a
    one-window set: u = alpha / (2 (1 - alpha - 2 beta)), v = 1/2 - 2 beta.

    The parameter constraints force 0 < u < alpha < v <= 1/2; the window
    constructor revalidates the ordering.  u underflows to 0 for alpha
    below about 1e-323, and such a pair is refused on every call.  The set
    is cached per pair (both are immutable), so a certificate does not
    rebuild it.
    """
    a, b = params.alpha, params.beta
    u = a / (2.0 * (1.0 - a - 2.0 * b))
    if u == 0.0:
        raise ParameterError(
            f"window start u = alpha / (2 (1 - alpha - 2 beta)) underflows to 0 at alpha = {a}"
        )
    v = 0.5 - 2.0 * b
    return WindowSet([(u, v)])


def params_from_window(u: float, v: float) -> Params:
    """Exponent pair realizing a prescribed window (u, v).

    beta = (1 - 2v)/4 and alpha = u (1 + 2v)/(1 + 2u); this inverts
    window_from_params on 0 < u < v <= 0.5 up to rounding, some 1e-16.  A
    window with v - u below that has no float pair (alpha + 2 beta rounds
    to 1/2) and is refused with ParameterError.
    """
    window = WindowSet([(u, v)])  # validates the ordering
    beta = 0.25 * (1.0 - 2.0 * window.v)
    alpha = (1.0 + 2.0 * window.v) / (1.0 + 2.0 * window.u) * window.u
    if not alpha + 2.0 * beta < 0.5:
        raise ParameterError(
            f"window ({window.u}, {window.v}) is narrower than float resolution: "
            "no float pair realizes it"
        )
    return Params(alpha, beta)


@lru_cache(maxsize=16)
def build_measure_table(params: Params, n_max: int) -> np.ndarray:
    """Read-only log mu_n for n = 2..n_max, entry i at level i + 2 (cached
    per parameter pair)."""
    if n_max < 2:
        raise ParameterError(f"n_max must be >= 2, got {n_max}")
    levels = _level_log_mu(params, 2, n_max)
    levels.setflags(write=False)
    return levels
