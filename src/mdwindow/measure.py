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

The rule doubles N from 2^10 until that remainder is below the tolerance
(or past 2^26 levels refuses with PrecisionError).  In absolute mode the
cut depends only on (alpha, tol, growth) and is kept, and sigma and every
r(k) read the lag table of their cut, `_lags`, built with one walk over
the levels.  The one relative series, the tail of S''_n, walks its levels
through `level_series`.  A walk computes mu per block of levels where it
reads them; exp and log act on each level alone, so a level gets the same
bits in any block.  Where direct summation cannot reach float resolution
(p_1 at small alpha) the mass beyond the cut has a closed form,
`small_mass_tail`, built from incomplete gamma functions.

Every per-pair table of the package (the cuts, p_1, the window, the
lag tables, and the alias and renewal tables that `chain` and `paths` hand
it their own build functions for) lives in one store, `_TABLES`.  A read
of a built table is one dict lookup and a recency stamp, with no lock.  A
miss builds its key once, however many threads miss it together, and
never waits on another key's build; a build that raises keeps nothing.
All tables share one byte budget, the least recently read evicted first;
`clear` empties the store for tests.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import ParameterError, PrecisionError
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


# Byte budget of the table store (two renewal tables at their 2^24 cap) and
# its most tables; past either, the least recently read go.
_TABLE_BUDGET = 1 << 28
_TABLE_LIMIT = 128


class _TableStore:
    """The store of the module docstring, keyed by plain floats and ints (a
    `Params` hash costs more than a read).  A miss claims its key under the
    lock and builds outside it.  `misses` counts builds, `bytes` array bytes."""

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            # key -> [last read, table, bytes]; key -> Event set when its build ends
            self._tables, self._pending = {}, {}
            self._clock = itertools.count()
            self.misses = self.bytes = 0

    def get(self, key, build, *args):
        """The table under `key`, built as build(*args) on a miss."""
        try:
            entry = self._tables[key]
        except KeyError:
            return self._build(key, build, args)
        entry[0] = next(self._clock)
        return entry[1]

    def _build(self, key, build, args):
        with self._lock:
            done = self._pending.get(key)
            if claimed := done is None and key not in self._tables:
                done = self._pending[key] = threading.Event()
                self.misses += 1
        if not claimed:  # read the table built meanwhile, or build it if that build raised
            if done is not None:
                done.wait()
            return self.get(key, build, *args)
        try:
            table = build(*args)
            # the bytes of the table's arrays: itself, or its attributes
            parts = getattr(table, "__dict__", {}).values()
            size = sum(x.nbytes for x in (table, *parts) if isinstance(x, np.ndarray))
            with self._lock:
                self._tables[key] = [next(self._clock), table, size]
                self.bytes += size
                while self.bytes > _TABLE_BUDGET or len(self._tables) > _TABLE_LIMIT:
                    oldest = min(self._tables, key=lambda k: self._tables[k][0])
                    self.bytes -= self._tables.pop(oldest)[2]
        finally:
            with self._lock:
                self._pending.pop(key, None)
            done.set()
        return table


_TABLES = _TableStore()


def _integer(value, what: str, low: int | None = None) -> int:
    """value as an int, NumPy integers included; a bool, a float or any
    other non-integral value is refused rather than truncated, and so is a
    value below `low` when that is given."""
    try:
        if value is True or value is False:  # index(True) would read it as 1
            raise TypeError
        value = index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ParameterError(f"{what} must be >= {low}, got {value}")
    return value


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
            raise ParameterError(f"windows need 0 < u_1 < v_1 < u_2 < ... <= 0.5, got {pairs}")
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
    """Normalizing constants of the reward process, as `sigma` returns
    them.  sigma^2 is the long-run variance r(0) + 2 sum_{k >= 1} r(k) of
    the per-time values, so S_n / (sigma sqrt(n)) is the normalized sum."""

    mean_tau: float               # expected return interval
    second_moment_jump: float     # E X^2 of the per-excursion reward
    sigma: float                  # sqrt(E X^2 / E tau)


def log_mu(params: Params, n: int) -> float:
    """Log weight of one state at level n, n in {0} u {2, 3, ...}.

    Level 1 does not exist (an excursion of length 1 never leaves the
    origin) and asking for it is an error rather than -inf.
    """
    n = _integer(n, "level")
    if n == 0:
        return LOG_MU0
    if n == 1:
        raise ParameterError("level 1 is not in the state space")
    if n < 0:
        raise ParameterError(f"negative level {n}")
    a = params.alpha
    return -(float(n - 1) ** a) + log1mexp(power_gap(n, a)) - math.log(n - 1)


def _level_log_mu(params: Params, lo: int, hi: int) -> np.ndarray:
    """Vectorized log mu_n for n = lo..hi (inclusive), lo >= 2."""
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    nm1 = (ns - 1).astype(np.float64)
    return -(nm1 ** params.alpha) + log1mexp(power_gap(ns, params.alpha)) - np.log(nm1)


def log_interval_tail(params: Params, k: int) -> float:
    """Exact log of the stationary tail P[A + B > k], k >= 1: just -k^alpha."""
    k = _integer(k, "tail index", 1)
    return -(float(k) ** params.alpha)


def _level_walk(params: Params, block_sum, lo: int, hi: int) -> float:
    """sum_{m=lo..hi} mu_m w(m), block_sum taken over blocks of _LEVEL_BLOCK,
    each handed a fresh array of its mu."""
    total = 0.0
    for b in range(lo, hi + 1, _LEVEL_BLOCK):
        top = min(b + _LEVEL_BLOCK - 1, hi)
        total += block_sum(b, top, np.exp(_level_log_mu(params, b, top)))
    return total


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:  # inf passes any error bound, nan turns the checks arbitrary
        raise ParameterError(f"tol must be positive and finite, got {tol}")


def _cut_remainder(alpha: float, growth: tuple, cut: int) -> float:
    """C (N+1)^e / N exp(-N^alpha), growth = (C, e): the bound on the levels
    beyond the cut N."""
    c, e = growth
    return c * (cut + 1.0) ** e / cut * math.exp(-(float(cut) ** alpha))


def _series_cut(params: Params, tol: float, growth: tuple, walked=None):
    """Cut N of a level series and its remainder bound, as (N, remainder):
    the first of the cuts _FIRST_CUT 2^j, the last one _LEVEL_CAP, whose
    remainder C (N+1)^e / N exp(-N^alpha), growth = (C, e), is below tol.
    With walked, the relative test: walked(N) returns the sum over the
    levels 2..N and the remainder must be below tol times it.
    PrecisionError is raised once no cut can pass: the cap's remainder
    reaches tol, or in relative mode tol (sum + remainder), a bound on
    tol * full sum.  In absolute mode the cut depends only on (alpha, tol,
    growth) and is kept in the table store; a refusal keeps nothing."""
    if walked is None:
        key = ("cut", params.alpha, tol, growth)
        return _TABLES.get(key, _doubling_cut, params.alpha, tol, growth, None)
    return _doubling_cut(params.alpha, tol, growth, walked)


def _doubling_cut(alpha: float, tol: float, growth: tuple, walked):
    """The doubling of `_series_cut`, tested cut by cut."""
    _check_tol(tol)
    best = _cut_remainder(alpha, growth, _LEVEL_CAP)  # the remainder at the last cut
    cut = _FIRST_CUT
    while True:
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
        cut <<= 1


def level_series(
    params: Params, block_sum, tol: float = 1e-12, growth: tuple = (1.0, 0.0)
) -> tuple[float, float, int]:
    """Certified sum_{m >= 2} mu_m w(m) to relative error tol, as
    (value, remainder_bound, n_terms).

    growth = (C, e) bounds the weight, 0 <= w(m) <= C m^e with e <= 1, and
    block_sum(lo, hi, mu) returns sum_{m=lo..hi} mu_m w(m) given a fresh
    array mu = (mu_lo, ..., mu_hi), which it may write to.  `_series_cut`
    picks the first cut N whose remainder is below tol times the value, or
    refuses with PrecisionError; each doubling of the cut walks only its new
    levels, in blocks of _LEVEL_BLOCK.  (sigma and r(k), the series to an
    absolute tol, take only a cut and read a lag table through `_lags`.)
    """
    value, done = 0.0, 1

    def walked(cut: int) -> float:
        nonlocal value, done
        value += _level_walk(params, block_sum, done + 1, cut)
        done = cut
        return value

    cut, rem = _series_cut(params, tol, growth, walked)
    return value, rem, cut - 1


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


def _p1_sum(params: Params) -> tuple[float, float]:
    """(p1, error bound): the self-loop weight 1 - sum_{k>=2} mu_k / mu_0,
    summed directly to _P1_CUT and in closed form beyond."""
    head = _level_walk(params, lambda lo, hi, mu: float(mu.sum()), 2, _P1_CUT)
    tail, tail_err = small_mass_tail(params, _P1_CUT)
    return 1.0 - (head + tail) / MU0, (tail_err + 1e-15) / MU0


def p1(params: Params, tol: float = 1e-12) -> float:
    """Self-loop transition weight p_1, certified to absolute error < tol."""
    _check_tol(tol)
    value, err = _TABLES.get(("p1", params.alpha, params.beta), _p1_sum, params)
    if err >= tol:
        raise PrecisionError(f"p1 error bound {err:.3e} exceeds requested tolerance {tol:.3e}")
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
    n = _integer(n, "interval length", 1)
    if n == 1:
        return math.log(p1(params))
    return log_mu(params, n) - LOG_MU0


def _floor_sqrt(arr: np.ndarray) -> np.ndarray:
    """Exact floor square root of an int64 array (float sqrt, corrected)."""
    s = np.sqrt(arr.astype(np.float64)).astype(np.int64)
    s -= s * s > arr
    # (s + 1)^2 <= arr, tested without forming (s + 1)^2: past 3037000499^2
    # that square wraps around in int64
    s += 2 * s < arr - s * s
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
    excursion never leaves the origin and earns nothing.  A length must be
    an integer: a float scalar or an array of a non-integer dtype is
    refused rather than truncated.
    """
    if np.ndim(tau) == 0:
        tau = _integer(tau, "interval length")
    elif (dtype := np.asarray(tau).dtype).kind not in "iu":
        raise ParameterError(f"interval lengths must be integers, got dtype {dtype}")
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


def _lag_table(params: Params, cut: int) -> np.ndarray:
    """Read-only lag table R of one cut: entry j is
    sum_{s >= j} (s - j + 1) W_s, W_s = sum mu_tau tau^(-2 beta) over the
    levels tau in [s^2, (s+1)^2) n [2, cut], s = 0..isqrt(cut) (W_0 = 0).
    One walk over the levels 2..cut gives W, and two reverse cumulative
    sums turn it into R, at most 64 KiB at the cap."""
    runs = np.zeros(math.isqrt(cut) + 1)
    b = params.beta

    def block_sum(lo, hi, mu):
        w = mu * np.arange(lo, hi + 1, dtype=np.float64) ** (-2.0 * b)
        s0, s1 = math.isqrt(lo), math.isqrt(hi)
        s = np.arange(s0, s1 + 1, dtype=np.int64)
        # a block edge may split a run: both parts add to its entry
        runs[s0:s1 + 1] += np.add.reduceat(w, np.maximum(s * s - lo, 0))
        return 0.0

    _level_walk(params, block_sum, 2, cut)
    table = np.cumsum(np.cumsum(runs[::-1]))[::-1]
    table.setflags(write=False)
    return table


def _lags(params: Params, tol: float, of_sigma: bool) -> np.ndarray:
    """The lag table of the cut of tol for sigma's series or the lags', from
    the table store.  A series' weight w(m) <= C m^e sets its growth (C, e):
    sigma's, isqrt(m)^2 m^(-2 beta) / mu_0, is at most m^(1 - 2 beta) / mu_0,
    and a lag's, (isqrt(tau) - k)^+ tau^(-2 beta), at most tau^(1/2 - 2 beta),
    taken with C = 2 although 1 would do: C sets the cut, and so a change of
    it would move every lag.  The two cuts may differ (at (0.3, 0.05), tol
    1e-12, sigma's is 2^16 and the lags' 2^15), and each reads its own table."""
    b = params.beta
    growth = (1.0 / MU0, 1.0 - 2.0 * b) if of_sigma else (2.0, 0.5 - 2.0 * b)
    cut = _series_cut(params, tol, growth)[0]
    return _TABLES.get(("lags", params.alpha, b, cut), _lag_table, params, cut)


def sigma(params: Params, tol: float = 1e-12) -> ProcessStats:
    """Normalizing constant sqrt(E X^2 / E tau) with its ingredients, E X^2
    to absolute error < tol.

    A level m carries isqrt(m) rewards of size m^(-beta), so on its lag
    table R, E X^2 = sum_s s^2 W_s / mu_0 = (R_1 + 2 sum_{j>=2} R_j) / mu_0:
    sigma^2 is r(0) + 2 sum_{k>=1} r(k), read from one table."""
    table = _lags(params, tol, True)
    m2 = float(table[1] + 2.0 * table[2:].sum()) / MU0
    return ProcessStats(mean_tau=MEAN_TAU, second_moment_jump=m2, sigma=math.sqrt(m2 / MEAN_TAU))


def autocovariance_exact(params: Params, k: int, tol: float = 1e-12) -> float:
    """Exact lag-k autocovariance of the per-time values.

    Cross-excursion pairs vanish by sign independence; within one excursion
    at level tau both ages must carry reward, leaving
    (isqrt(tau) - k)^+ admissible ages, each of stationary weight mu_tau:

        r(k) = sum_tau mu_tau tau^(-2 beta) (isqrt(tau) - k)^+
             = sum_{s > k} (s - k) W_s,

    entry k + 1 of the lag table of the lags' cut (`_lags`).  One cut serves
    every lag, since a lag's levels all lie at or above (k+1)^2, so a warm
    lag is one cut lookup and one array read.  A lag past the table has all
    its levels beyond the cut and reads 0.0.  The table's terms are
    nonnegative, so r(k) never rises with k.  k must be an integer >= 0.
    """
    if type(k) is not int or k < 0:  # the common case skips the call
        k = _integer(k, "lag", 0)
    table = _lags(params, tol, False)
    return table.item(k + 1) if k + 1 < table.size else 0.0


def autocovariance_bound(params: Params, k: int) -> float:
    """Stretched-exponential dominance bound for k >= 1.

    Any contributing level needs tau >= (k+1)^2; bounding the count by
    tau - 1 leaves the exact interval tail exp(-((k+1)^2 - 1)^alpha).
    """
    k = _integer(k, "lag", 1)  # the bound holds for lags >= 1
    return math.exp(-(float((k + 1) * (k + 1) - 1) ** params.alpha))


def boundary_tail_exact(params: Params, n: int, x: float, rel_tail: float = 1e-6) -> float:
    """log P[S''_n > x] by exact enumeration over end states.

    Given (A_n, B_n) = (a, b) the magnitude of S''_n is
    count(a, b, n) * (a+b)^(-beta) and the sign is a fair coin, so

        P[|S''_n| > x] = sum_tau mu_tau * #{(a, b) : a+b = tau, count > x tau^beta}

    and the signed tail is half of that.  The count is unimodal in the age,
    so the qualifying ages per level form one interval and each level is
    O(1).  At most tau - 1 pairs qualify, so the level series stops once its
    remainder bound is below rel_tail times the accumulated sum; if no cut
    certifies that, the requested point is unreachable.
    """
    if not x > 0.0:
        raise ParameterError(f"threshold must be > 0, got {x}")
    n = _integer(n, "horizon", 1)
    beta = params.beta
    # attained maximum of |S''| is n^(1-2 beta) (at tau = n^2, age n)
    if x >= float(n) ** (1.0 - 2.0 * beta):
        return -math.inf

    def block_sum(lo, hi, mu):
        taus = np.arange(lo, hi + 1, dtype=np.int64)
        s = _floor_sqrt(taus)
        q = x * taus.astype(np.float64) ** beta
        qf = np.floor(q).astype(np.int64)
        hi_age = np.minimum(taus - 1, n + s - qf - 1)  # ages from qf + 1
        pairs = np.where(np.minimum(s, n) > q, np.maximum(hi_age - qf, 0), 0)
        return float((mu * pairs).sum())

    try:
        if x >= float(_LEVEL_CAP) ** (0.5 - beta):  # |S''| <= tau^(1/2 - beta) at level tau
            raise PrecisionError(f"no level up to {_LEVEL_CAP} reaches {x}")
        total = level_series(params, block_sum, tol=rel_tail, growth=(1.0, 1.0))[0]
    except PrecisionError as err:
        raise PrecisionError(
            f"P[S'' > {x}] at n={n} is below the best rigorous remainder "
            "bound; the point is unreachable"
        ) from err
    return math.log(0.5 * total)


def window_from_params(params: Params) -> WindowSet:
    """Anomalous scale window (u, v) generated by the exponent pair, as a
    one-window set: u = alpha / (2 (1 - alpha - 2 beta)), v = 1/2 - 2 beta.

    The parameter constraints force 0 < u < alpha < v <= 1/2; the window
    constructor revalidates the ordering.  u underflows to 0 for alpha
    below about 1e-323, and such a pair is refused on every call.  The set
    is kept in the table store, so a certificate does not rebuild it.
    """
    return _TABLES.get(("window", params.alpha, params.beta), _window, params.alpha, params.beta)


def _window(a: float, b: float) -> WindowSet:
    u = a / (2.0 * (1.0 - a - 2.0 * b))
    if u == 0.0:
        raise ParameterError(
            f"window start u = alpha / (2 (1 - alpha - 2 beta)) underflows to 0 at alpha = {a}"
        )
    return WindowSet([(u, 0.5 - 2.0 * b)])


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


def build_measure_table(params: Params, n_max: int) -> np.ndarray:
    """log mu_n for n = 2..n_max, entry i at level i + 2, computed afresh on
    every call; n_max must be an integer >= 2."""
    n_max = _integer(n_max, "n_max", 2)
    return _level_log_mu(params, 2, n_max)
