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
exponent pair; heavy truncations pick their length from the exact
size-biased tail so every truncation error carries a rigorous bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError, PrecisionError, StateIndexError
from .logspace import log1mexp, power_gap

# Constants forced by the tail identity at n = 1 plus normalization; they
# do not depend on the exponents.
MU0 = -math.expm1(-1.0)        # 1 - 1/e, weight of the origin
LOG_MU0 = math.log(MU0)
MEAN_TAU = 1.0 / MU0           # e/(e-1), mean return interval

_SERIES_CAP = 1 << 26          # hard cap on direct summation length
_CHUNK = 1 << 22


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
class ScaleWindow:
    """Open interval (u, v) of scale exponents with anomalous deviations."""

    u: float
    v: float

    def __post_init__(self):
        if not (0.0 < self.u < self.v <= 0.5):
            raise ParameterError(
                f"scale window needs 0 < u < v <= 0.5, got ({self.u}, {self.v})"
            )


@dataclass(frozen=True)
class ProcessStats:
    """Normalizing constants of the reward process."""

    mean_tau: float               # expected return interval
    second_moment_jump: float     # E X^2 of the per-excursion reward
    sigma: float                  # sqrt(E X^2 / E tau)


def validate_params(alpha: float, beta: float) -> Params:
    """Check the exponent constraints and return the validated pair."""
    return Params(float(alpha), float(beta))


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


def log_interval_tail(params: Params, k: int) -> float:
    """Exact log of the stationary tail P[A + B > k], k >= 1: just -k^alpha."""
    k = int(k)
    if k < 1:
        raise ParameterError(f"tail index must be >= 1, got {k}")
    return -(float(k) ** params.alpha)


def mean_tau(params: Params) -> float:
    """Expected return interval; e/(e-1) regardless of the exponents."""
    return MEAN_TAU


def _tail_g(x: float, alpha: float) -> float:
    # summand of the correction series in the small-mass tail identity
    return math.exp(-(x ** alpha)) / (x * (x - 1.0))


def small_mass_tail(params: Params, n_trunc: int) -> tuple[float, float]:
    """sum_{k > N} mu_k with an error estimate.

    Abel summation against the exact size-biased tail T(n) = exp(-n^alpha)
    turns the sum into

        T(N)/N - sum_{k > N} T(k) / (k (k-1)),

    and the correction series is handled by Euler-Maclaurin plus an
    integral in the t = x^alpha variable, where the integrand decays like
    e^-t.  The returned error bound covers quadrature error and the first
    neglected Euler-Maclaurin term; it is tiny compared to T(N)/N even for
    small alpha, where direct summation to float resolution is hopeless.
    """
    a = params.alpha
    N = int(n_trunc)
    t0 = float(N + 1) ** a

    def integrand(t):
        x = t ** (1.0 / a)
        return math.exp(-t) / (a * t * (x - 1.0))

    integral, quad_err = quad(
        integrand, t0, np.inf, limit=400, epsabs=1e-16, epsrel=1e-13
    )
    g1 = _tail_g(N + 1.0, a)
    # g'(N+1), analytic: g * (-(a x^(a-1)) - 1/x - 1/(x-1))
    x = N + 1.0
    gp = g1 * (-(a * x ** (a - 1.0)) - 1.0 / x - 1.0 / (x - 1.0))
    correction = integral + 0.5 * g1 - gp / 12.0
    tail = math.exp(-(float(N) ** a)) / N - correction
    err = quad_err + abs(gp) / 6.0 + 1e-16 * correction
    return tail, err


@lru_cache(maxsize=64)
def _p1_cached(params: Params) -> tuple[float, float]:
    """(p1, error bound): the self-loop weight 1 - sum_{k>=2} mu_k / mu_0."""
    # Direct sum far enough that the analytic tail estimate takes over.
    N = 1 << 14
    while math.exp(-(float(N) ** params.alpha)) / N > 1e-18 and N < (1 << 21):
        N <<= 1
    total = 0.0
    for lo in range(2, N + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, N)
        total += float(np.exp(_level_log_mu(params, lo, hi)).sum())
    tail, tail_err = small_mass_tail(params, N)
    s = total + tail
    err = (tail_err + 1e-15) / MU0
    return 1.0 - s / MU0, err


def p1(params: Params, tol: float = 1e-12) -> float:
    """Self-loop transition weight p_1, certified to absolute error < tol."""
    value, err = _p1_cached(params)
    if err >= tol:
        raise PrecisionError(
            f"p1 error bound {err:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return value


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


def _reward_count(ns: np.ndarray) -> np.ndarray:
    """Number of reward-carrying ages in an excursion of length n (array).

    Exact integer count #{k : 1 <= k <= n-1, k^2 <= n} = min(isqrt(n), n-1),
    with the float sqrt corrected to a true floor.
    """
    s = np.sqrt(ns.astype(np.float64)).astype(np.int64)
    s -= s * s > ns
    s += (s + 1) * (s + 1) <= ns
    return np.minimum(s, ns - 1)


def second_moment_jump(params: Params, tol: float = 1e-12) -> float:
    """E X^2 of the per-excursion reward, absolute error < tol.

    The reward of an excursion of length tau has magnitude
    count(tau) * tau^(-beta); the series over the return law {p_n} is
    truncated at N with the remainder bounded through the exact size-biased
    tail:  count^2 tau^(-2 beta) / (tau - 1) is decreasing, so the mass
    beyond N is at most exp(-N^alpha) * (N+1)^(1-2 beta) / (N * mu_0).
    """
    if tol <= 0.0:
        raise ParameterError("tol must be positive")
    a, b = params.alpha, params.beta
    N = 1 << 10

    def rem(N):
        return (
            math.exp(-(float(N) ** a))
            * (N + 1.0) ** (1.0 - 2.0 * b)
            / (N * MU0)
        )

    while rem(N) >= tol:
        N <<= 1
        if N > _SERIES_CAP:
            raise PrecisionError(
                f"second moment needs > {_SERIES_CAP} terms for tol={tol:.1e}; "
                "relax the tolerance"
            )
    total = 0.0
    for lo in range(2, N + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, N)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        weights = np.exp(_level_log_mu(params, lo, hi) - LOG_MU0)
        counts = _reward_count(ns).astype(np.float64)
        total += float((weights * counts ** 2 * ns.astype(np.float64) ** (-2.0 * b)).sum())
    return total


def sigma(params: Params, tol: float = 1e-12) -> ProcessStats:
    """Normalizing constant sqrt(E X^2 / E tau) with its ingredients."""
    m2 = second_moment_jump(params, tol)
    return ProcessStats(
        mean_tau=MEAN_TAU,
        second_moment_jump=m2,
        sigma=math.sqrt(m2 / MEAN_TAU),
    )


def window_from_params(params: Params) -> ScaleWindow:
    """Anomalous scale window (u, v) generated by the exponent pair:
    u = alpha / (2 (1 - alpha - 2 beta)), v = 1/2 - 2 beta.

    The parameter constraints force 0 < u < alpha < v <= 1/2; the window
    constructor revalidates the ordering.
    """
    a, b = params.alpha, params.beta
    u = a / (2.0 * (1.0 - a - 2.0 * b))
    v = 0.5 - 2.0 * b
    return ScaleWindow(u, v)


def params_from_window(u: float, v: float) -> Params:
    """Exponent pair realizing a prescribed window (u, v).

    beta = (1 - 2v)/4 and alpha = u (1 + 2v)/(1 + 2u); this inverts
    window_from_params exactly on 0 < u < v <= 0.5.
    """
    window = ScaleWindow(float(u), float(v))  # validates the ordering
    beta = 0.25 * (1.0 - 2.0 * window.v)
    alpha = (1.0 + 2.0 * window.v) / (1.0 + 2.0 * window.u) * window.u
    return Params(alpha, beta)


@dataclass(frozen=True, eq=False)
class MeasureTable:
    """Tabulated log level weights with the exact mass bound beyond them.

    log_mu_levels[i] is log mu_(i+2); log_tail is the log of the exact
    size-biased mass sum_{k > n_max} (k-1) mu_k = exp(-n_max^alpha).
    """

    params: Params
    n_max: int
    log_mu0: float
    log_mu_levels: np.ndarray
    log_tail: float

    def log_mu(self, n: int) -> float:
        if n == 0:
            return self.log_mu0
        if n == 1:
            raise StateIndexError("level 1 is not in the state space")
        return float(self.log_mu_levels[n - 2])


@lru_cache(maxsize=16)
def build_measure_table(params: Params, n_max: int) -> MeasureTable:
    """Tabulate log mu_n for n = 2..n_max (cached per parameter pair)."""
    if n_max < 2:
        raise ParameterError(f"n_max must be >= 2, got {n_max}")
    levels = _level_log_mu(params, 2, n_max)
    levels.setflags(write=False)
    return MeasureTable(
        params=params,
        n_max=n_max,
        log_mu0=LOG_MU0,
        log_mu_levels=levels,
        log_tail=-(float(n_max) ** params.alpha),
    )
