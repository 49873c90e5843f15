"""Two evaluation routes for tail probabilities and deviation rates, beside
the exact level sums of `measure` (sigma, r(k) and the law of S''_n).

* Monte Carlo with Wilson confidence intervals, for probabilities the
  sampler can actually resolve.
* Closed-form log-domain certificates for horizons up to 1e12 and beyond,
  where the dichotomy between scale exponents inside and outside the
  anomalous window actually shows: a lower bound pinning one rare end
  state, and an upper bound from the exact interval tail.

Only log-scale magnitudes are ever manipulated, so astronomically small
probabilities stay exact to float precision.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from operator import itemgetter
from statistics import NormalDist
from typing import Optional

import numpy as np

from .chain import RngLike, RngStream, as_generator
from .errors import BracketEmptyError, ParameterError, PrecisionError
from .measure import Params, WindowSet, _integer, log_mu, window_from_params
# re-exported only because the benchmark patches and calls them as oracles.*
from .measure import autocovariance_bound, autocovariance_exact, boundary_tail_exact  # noqa: F401
from .paths import conditioned_path, decompose, iter_sums, s_double_prime_count

# column getters of an `iter_sums` chunk, by mc_tail_curve target
_TARGETS = {
    "total": itemgetter("s_total"),
    "tilde": itemgetter("s_tilde"),
    "boundary": lambda chunk: chunk["s_prime"] + chunk["s_dprime"],
    "dprime": itemgetter("s_dprime"),
}


@dataclass(frozen=True)
class RateQuery:
    """Deviation event at horizon n: the chosen component of the sum,
    divided by sqrt(n), exceeding c * n^gamma (threshold c * n^(gamma+1/2)
    in plain sum units)."""

    n: int
    gamma: float
    c: float

    def __post_init__(self):
        _integer(self.n, "horizon", 1)
        if not 0.0 < self.gamma < 0.5:
            raise ParameterError(f"gamma must lie in (0, 0.5), got {self.gamma}")
        if not self.c > 0.0:
            raise ParameterError(f"threshold coefficient must be > 0, got {self.c}")

    @property
    def threshold(self) -> float:
        return self.c * float(self.n) ** (self.gamma + 0.5)

    def rate(self, log_p: float) -> float:
        """Normalized rate log P / n^(2 gamma)."""
        return log_p / float(self.n) ** (2.0 * self.gamma)


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with a two-sided Wilson interval."""

    p_hat: float
    ci_low: float
    ci_high: float
    reps: int
    hits: int
    confidence: float

    @classmethod
    def from_hits(cls, hits: int, reps: int, confidence: float) -> "TailEstimate":
        """hits / reps with its Wilson interval at `confidence`."""
        lo, hi = wilson_interval(hits, reps, confidence)
        return cls(hits / reps, lo, hi, reps, hits, confidence)


@dataclass(frozen=True)
class RateCertificate:
    """Exact log-probability bound at one (n, gamma, c) and its rate.

    kind "case2_lower": the event {A_n = a_n, B_n = b_n} with
    a_n + b_n = c_n forces |S''_n| above the threshold, so
    log P[S_n > x] >= log(1/4) + log mu_(c_n) at x = c n^(gamma+1/2).
    kind "case1_upper": both boundary terms are dominated by the exact
    interval tail, log P[S'_n + S''_n > x] <= log 2 - k^alpha (not P[S_n > x]).
    """

    kind: str
    n: int
    gamma: float
    c: float
    log_prob: float
    rate: float
    c_n: Optional[int] = None
    a_n: Optional[int] = None
    b_n: Optional[int] = None


def wilson_interval(hits: int, reps: int, confidence: float) -> tuple[float, float]:
    """Two-sided Wilson score interval; at zero hits the upper end is the
    exact one-sided bound 1 - (1-confidence)^(1/reps) (rule of three,
    generalized to the stated confidence)."""
    hits, reps = _integer(hits, "hits", 0), _integer(reps, "reps", 1)
    if hits > reps:
        raise ParameterError(f"hits must be <= reps, got {hits} of {reps}")
    if not 0.0 < confidence < 1.0:
        raise ParameterError("confidence must lie in (0, 1)")
    if hits == 0:
        return 0.0, 1.0 - (1.0 - confidence) ** (1.0 / reps)
    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    p = hits / reps
    denom = 1.0 + z * z / reps
    center = (p + z * z / (2.0 * reps)) / denom
    spread = z * math.sqrt((p * (1.0 - p) + z * z / (4.0 * reps)) / reps) / denom
    return max(0.0, center - spread), min(1.0, center + spread)


# paths per Monte Carlo block: iter_sums' default chunk, so a block is one chunk
_BLOCK_PATHS = 1 << 16


def _run_blocks(reps: int, rng: RngStream, shards: int, per_block) -> list:
    """[per_block(paths, generator), ...] over the fixed blocks of `reps`
    paths, in block order.  Block i holds _BLOCK_PATHS paths (the last one
    the rest) and draws from rng.shard(i), so the results do not depend on
    `shards`, which sets only the worker count.  Threads overlap only where
    numpy releases the GIL, and only on CPUs this process may run on; on one
    CPU they would just take turns, so the blocks then run inline in order.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    sizes = [min(_BLOCK_PATHS, reps - start) for start in range(0, reps, _BLOCK_PATHS)]
    gens = map(rng.shard, range(len(sizes)))
    workers = min(shards, cpus, len(sizes))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(per_block, sizes, gens))
    return list(map(per_block, sizes, gens))


def mc_tail_curve(
    params: Params,
    n: int,
    thresholds: dict,
    reps: int,
    confidence: float,
    rng: RngStream,
    shards: int = 1,
) -> dict:
    """Exceedance estimates for several targets and thresholds from one
    shared set of simulated paths.

    thresholds maps target name -> array of sum-unit thresholds.  The paths
    come in fixed blocks (`_run_blocks`) run on up to `shards` threads, and
    the hit counts merge in block order, so the result is a pure function
    of (seed, stream_id): the worker count never changes it.
    """
    xs = {}
    for target, v in thresholds.items():  # a nan threshold would count no hits; +-inf are valid
        if target not in _TARGETS:
            raise ParameterError(f"unknown target {target!r}")
        try:
            x = xs[target] = np.atleast_1d(np.asarray(v, dtype=np.float64))
        except (TypeError, ValueError):  # a ragged list or a string
            x = None
        if x is None or x.ndim > 1 or np.isnan(x).any():
            raise ParameterError(f"{target} thresholds must be flat, numeric and not nan: {v!r}")
    n, reps = _integer(n, "horizon", 1), _integer(reps, "reps", 1)
    shards = _integer(shards, "shards", 1)
    with_rewards = any(t in ("total", "tilde") for t in thresholds)

    def block_hits(r: int, gen) -> dict:
        local = {t: np.zeros(v.size, dtype=np.int64) for t, v in xs.items()}
        for chunk in iter_sums(params, n, r, gen, with_rewards=with_rewards):
            for target, v in xs.items():
                comp = _TARGETS[target](chunk)
                local[target] += (comp[None, :] > v[:, None]).sum(axis=1)
        return local

    block_counts = _run_blocks(reps, rng, shards, block_hits)
    hits = {t: sum(local[t] for local in block_counts) for t in xs}
    return {
        target: [TailEstimate.from_hits(int(h), reps, confidence) for h in counts]
        for target, counts in hits.items()
    }


def boundary_sum_sup(params: Params, n: int) -> float:
    """Deterministic supremum of |S'_n + S''_n| over every configuration.

    Within one excursion |sum| <= min(n, sqrt(tau)) tau^(-beta) <= n^(1-2b)
    (the scalar bound below).  When both boundary terms are present the
    window contains a renewal, so the two overhang lengths satisfy
    B_1 + A_n <= n - 1 and |S'| + |S''| <= B_1^(1-2b) + A_n^(1-2b), which
    is maximized at the even split.  The overall sup is the larger of the
    two regimes.
    """
    n = _integer(n, "horizon", 1)
    b = params.beta
    single = float(n) ** (1.0 - 2.0 * b)
    if n < 2:
        return single
    split = 2.0 ** (2.0 * b) * float(n - 1) ** (1.0 - 2.0 * b)
    return max(single, split)


def gaussian_reference(c: float) -> float:
    """Normal-approximation rate -c^2/2 that holds outside the windows."""
    if not c > 0.0:
        raise ParameterError(f"threshold coefficient must be > 0, got {c}")
    return -0.5 * c * c


def case1_upper(params: Params, query: RateQuery) -> RateCertificate:
    """Closed-form upper certificate for gamma below the window on the
    boundary terms: it bounds P[S'_n + S''_n > c n^(gamma+1/2)], not the
    tail of S_n, whose normal half S~_n is ROADMAP item 2.

    Both boundary terms are bounded by (A+B)^(1/2-beta) of their own
    excursion, so the union bound plus the exact interval tail gives
    log P <= log 2 - floor(x^(1/(1/2-beta)))^alpha at x = c n^(gamma+1/2)/2.
    The rate sinks to -infinity along growing n: the exponent
    (gamma+1/2) alpha/(1/2-beta) beats 2 gamma exactly when gamma < u.
    No certificate exists while that cutoff is below 1 (BracketEmptyError).
    """
    window = window_from_params(params)
    if window.locate(query.gamma) != "below":
        raise ParameterError(f"gamma={query.gamma} is not below the window start u={window.u}")
    x = 0.5 * query.threshold
    if x < 1.0:  # the cutoff is at least 1 exactly when x is
        raise _bracket_empty("case1_upper", query, lambda q: q.threshold >= 2.0)
    try:
        k = math.floor(x ** (1.0 / (0.5 - params.beta)))
    except OverflowError:
        raise PrecisionError(f"tail cutoff at n={query.n:.6g} is beyond float range") from None
    log_prob = math.log(2.0) - float(k) ** params.alpha
    return RateCertificate(kind="case1_upper", n=query.n, gamma=query.gamma, c=query.c,
                           log_prob=log_prob, rate=query.rate(log_prob))


def _bracket_empty(kind: str, query: RateQuery, exists) -> BracketEmptyError:
    """No `kind` certificate at query.n.  The error carries the smallest
    horizon m with exists(RateQuery(m, gamma, c)), found by doubling from 2
    and bisection (neither certificate exists at n = 1), so the certificate
    exists at m and not at m - 1; or None when no m up to 2^40 works."""
    lo, hi = 1, 2
    while not exists(RateQuery(hi, query.gamma, query.c)):
        lo, hi = hi, 2 * hi
        if hi > 1 << 40:
            return BracketEmptyError(f"{kind}: no usable horizon up to 2^40", None)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if exists(RateQuery(mid, query.gamma, query.c)) else (mid, hi)
    return BracketEmptyError(f"{kind}: n={query.n} is below the minimal usable n={hi}", hi)


def _case2_construction(params: Params, query: RateQuery):
    """Level and split for the lower certificate, or None if n is too small.

    The level bracket is n^((gamma+1/2)/(1/2-beta)) << c_n << n^(2 gamma /
    alpha) for gamma below alpha and << n^2 above; c_n sits at the
    log-space midpoint.  The split a_n = ceil(sqrt(c_n)) + 1 is the
    smallest age making sqrt(a_n + b_n) < a_n true.  A level past float
    range (near n = 1e163 at (0.3, 0.05), gamma = 0.3) raises PrecisionError.
    """
    a, b = params.alpha, params.beta
    lo_exp = (query.gamma + 0.5) / (0.5 - b)
    hi_exp = min(2.0 * query.gamma / a, 2.0)
    log_n = math.log(float(query.n))
    try:
        c_n = round(math.exp(0.5 * (lo_exp + hi_exp) * log_n))
    except OverflowError:
        raise PrecisionError(f"level c_n at n={query.n:.6g} is beyond float range") from None
    if c_n < 4:
        return None
    # smallest age with sqrt(a_n + b_n) < a_n: isqrt(c_n) + 1 squares past c_n
    a_n = math.isqrt(c_n) + 1
    b_n = c_n - a_n
    if b_n < 1 or not a_n < query.n:
        return None
    count = s_double_prime_count(a_n, b_n, query.n)
    if count < 1:
        return None
    # certified magnitude must beat the threshold; compare in log domain
    log_mag = math.log(count) - b * math.log(c_n)
    log_thr = math.log(query.c) + (query.gamma + 0.5) * log_n
    if not log_mag > log_thr:
        return None
    return c_n, a_n, b_n


def case2_certificate(params: Params, query: RateQuery) -> RateCertificate:
    """Closed-form lower certificate for gamma strictly inside the window.

    Pins the end state (A_n, B_n) = (a_n, b_n): conditionally the trailing
    boundary magnitude is deterministic and above the threshold, the sign
    is a fair coin, and the leading term is conditionally independent and
    symmetric, so P >= mu_(c_n) / 4.  The rate climbs to 0 along n.  No
    certificate exists while the level bracket is empty (BracketEmptyError).
    """
    window = window_from_params(params)
    if window.locate(query.gamma) != "inside":
        raise ParameterError(
            f"gamma={query.gamma} is not strictly inside the window "
            f"({window.u}, {window.v})"
        )
    built = _case2_construction(params, query)
    if built is None:
        raise _bracket_empty(
            "case2_lower", query, lambda q: _case2_construction(params, q) is not None
        )
    c_n, a_n, b_n = built
    log_prob = math.log(0.25) + log_mu(params, c_n)
    return RateCertificate(kind="case2_lower", n=query.n, gamma=query.gamma, c=query.c,
                           log_prob=log_prob, rate=query.rate(log_prob),
                           c_n=c_n, a_n=a_n, b_n=b_n)


def predicted_rate(windows: WindowSet, gamma: float, c: float) -> Optional[float]:
    """Limit rate claimed for the process built from `windows`: 0 inside
    any window, -c^2/2 in the interior of the complement, and None exactly
    on a window endpoint, where the dichotomy (stated on open sets) claims
    nothing."""
    reference = gaussian_reference(c)
    if not 0.0 < gamma < 0.5:
        raise ParameterError(f"gamma must lie in (0, 0.5), got {gamma}")
    where = windows.locate(gamma)
    if where == "boundary":
        return None
    return 0.0 if where == "inside" else reference


def conditioned_dprime_exceedance(
    params: Params,
    n: int,
    a: int,
    b: int,
    threshold: float,
    reps: int,
    rng: RngLike,
) -> TailEstimate:
    """Empirical P[S''_n > threshold] given (A_n, B_n) = (a, b).

    The paths come from `conditioned_path` (the final excursion imposed,
    the prefix rolled backward from the renewal at n - a) and are pushed
    through the standard decomposition, making this an end-to-end check of
    the certificate's event rather than a restatement of the count formula.
    """
    if math.isnan(threshold):  # it would count no hits
        raise ParameterError("threshold must not be nan")
    reps, gen = _integer(reps, "reps", 1), as_generator(rng)
    hits = sum(1 for _ in range(reps)
               if decompose(conditioned_path(params, n, a, b, gen)).s_double_prime > threshold)
    return TailEstimate.from_hits(hits, reps, 0.99)
