"""Exact stationary and interval sampling of the age/residual-life chain.

The chain state is either the origin or a pair (age, residual) of positive
integers; inside an excursion the only move is (k, l) -> (k+1, l-1), and at
the origin a fresh interval length is drawn from the return law {p_n}.
`step` is that transition for one state, the reference kernel; paths are
sampled in bulk from the same draws by `mdwindow.paths`.

Stationary draws invert the closed-form size-biased tail exp(-k^alpha), so
they carry no truncation bias even though the support is unbounded.  Draws
from {p_n} itself split at the self-loop: a run of self-loops is one
geometric inversion, and each non-trivial interval comes from one alias
table over k >= 2, with an exact size-biased rejection step for the rare
mass beyond the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError, PrecisionError
from .measure import (
    MU0, _TABLES, Params, _integer, _level_log_mu, _p_law, excursion_reward_magnitude,
)

# Interval lengths are clamped here, so they fit int64.  The stationary mass
# beyond the cap, exp(-2^(62 alpha)), is 9.4% at alpha = 0.02 and 1.8e-4 at
# 0.05, so draws are refused below alpha ~ 0.084 (_check_tau_cap).
_TAU_CAP = 1 << 62


def _check_tau_cap(alpha: float, n_min: int = 0) -> None:
    """Refuse size-biased tail draws beyond n_min (0: the stationary law)
    whose mass beyond _TAU_CAP, exp(n_min^alpha - _TAU_CAP^alpha), exceeds
    2^-53.  The rejection step accepts a capped proposal least often, so
    this mass also bounds the clamped share of its draws."""
    if float(n_min) ** alpha - float(_TAU_CAP) ** alpha > -53.0 * math.log(2.0):
        raise PrecisionError(
            f"alpha={alpha:g}: over 2^-53 of the interval draws would be clamped at 2^62"
        )


@dataclass(frozen=True)
class ChainState:
    """Origin (0, 0) or a point (age, residual) with both parts >= 1."""

    age: int
    residual: int

    def __post_init__(self):
        ok = (self.age == 0 and self.residual == 0) or (self.age >= 1 and self.residual >= 1)
        if not ok:
            raise ParameterError(f"invalid state ({self.age}, {self.residual}): exactly one zero")

    @property
    def is_origin(self) -> bool:
        return self.age == 0

    @property
    def level(self) -> int:
        return self.age + self.residual


ORIGIN = ChainState(0, 0)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream_id) pins the draw sequence,
    distinct stream ids give statistically independent streams.  A child
    stream's id is a tuple, its SeedSequence spawn key: substream() extends
    the key by two entries and shard() by one, so stream keys have odd
    length, shard keys even, and no two reachable generators share one."""

    seed: int
    stream_id: Union[int, tuple] = 0

    @property
    def _key(self) -> tuple:
        sid = self.stream_id
        return sid if isinstance(sid, tuple) else (sid,)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        )

    def shard(self, index: int) -> np.random.Generator:
        """Independent child generator for Monte Carlo block `index`."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._key + (index,))
        )

    def substream(self, index: int) -> "RngStream":
        """Child stream addressable by further sharding."""
        return RngStream(seed=self.seed, stream_id=self._key + (index, 0))


RngLike = Union[RngStream, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Accept either a stream descriptor or a live generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def _size_biased_level(v: np.ndarray, alpha: float, floor: int) -> np.ndarray:
    """Invert the size-biased tail: the level m with exp(-m^alpha) <= v <
    exp(-(m-1)^alpha), i.e. ceil((-log v)^(1/alpha)), clamped to
    [floor, _TAU_CAP]."""
    v = np.maximum(v, 5e-324)  # guard the measure-zero endpoint
    m = np.maximum(np.ceil((-np.log(v)) ** (1.0 / alpha)), float(floor))
    return np.minimum(m, float(_TAU_CAP)).astype(np.int64)


def sample_stationary_levels(
    params: Params, rng: RngLike, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vector of stationary states as (level, age) arrays; level 0 = origin.

    A uniform u gives the origin with probability mu_0; otherwise u - mu_0
    is uniform on (0, 1/e) and the level is the unique m with
    exp(-m^alpha) <= u - mu_0 < exp(-(m-1)^alpha), i.e.
    m = ceil((-log(u - mu_0))^(1/alpha)).  The age is uniform on 1..m-1.
    Draw order: `size` uniforms for the states, then one uniform per
    excursion state, in order, for its age (none when all are origins).
    """
    _check_tau_cap(params.alpha)
    gen = as_generator(rng)
    u = gen.random(size)
    tau = np.zeros(size, dtype=np.int64)
    age = np.zeros(size, dtype=np.int64)
    exc = np.flatnonzero(u >= MU0)
    if exc.size:  # all origins, as in 63% of single draws: nothing more to draw
        tau[exc] = lev = _size_biased_level(u[exc] - MU0, params.alpha, 2)
        a = np.floor(gen.random(exc.size) * (lev - 1)).astype(np.int64)
        age[exc] = np.minimum(a + 1, lev - 1)
    return tau, age


def _interval_tail_reject(
    params: Params, gen: np.random.Generator, count: int, n_min: int
) -> np.ndarray:
    """Exact draw from {p_k} conditional on k > n_min.

    Proposes from the closed-form size-biased tail (weights (k-1) mu_k,
    inverted exactly as in the stationary sampler) and accepts with
    probability n_min/(k-1), which is the p-law/size-biased likelihood
    ratio normalized by its supremum on the tail.
    """
    a = params.alpha
    _check_tau_cap(a, n_min)
    tail = math.exp(-(float(n_min) ** a))
    out = np.empty(count, dtype=np.int64)
    need = np.arange(count)
    while need.size:
        k = _size_biased_level(tail * gen.random(need.size), a, n_min + 1)
        accept = gen.random(need.size) < n_min / (k - 1).astype(np.float64)
        out[need[accept]] = k[accept]
        need = need[~accept]
    return out


_FRAC_BITS = 50
_FRAC_MASK = (1 << _FRAC_BITS) - 1


def raw_words(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform 64-bit words from the generator's bit stream, as int64."""
    return gen.bit_generator.random_raw(shape).view(np.int64)


class IntervalAlias:
    """Draws from {p_n}: self-loop runs and one alias table (Vose, IEEE TSE
    1991) over the non-trivial law p_k / (1 - p_1), k >= 2.

    A run of G self-loops, P[G >= g] = p_1^g (`runs`, one uniform double),
    then one table draw (`excursions`, one 64-bit word) make a block of
    {p_n}.  Slot tau - 1 holds tau: slot 0 has mass exactly 0, and the last
    slot is a bucket for the mass beyond K-1, resolved by the exact
    size-biased rejection step (`_tail_draw`).  p1 is the self-loop weight
    of the same normalized law, and signed[2 slot + sign] the signed reward
    of a table draw below the bucket.
    """

    K = 8192  # 2^13 columns, so 13 bits of a word pick one uniformly
    _TILE = 1 << 14  # most blocks per `draw` round

    def __init__(self, params: Params):
        k = self.K
        _check_tau_cap(params.alpha, k - 1)
        self.params = params
        probs = np.append(_p_law(params, k - 1)[1:], 0.0)  # slot j: p_(j+1)
        probs[k - 1] = max(1.0 - probs[: k - 1].sum(), 0.0)  # tail bucket
        probs /= probs.sum()
        self.p1 = float(probs[0])
        probs[0] = 0.0
        self.weights = probs / probs.sum()
        accept, alias = _vose_tables(self.weights)
        # for an integer f, f < ceil(x) exactly when f < x
        self.thr = np.ceil(np.ldexp(accept, _FRAC_BITS)).astype(np.int64)
        # pair[2 col + take]: the alias when the accept test fails, else col
        self.pair = np.column_stack((alias, np.arange(k))).ravel()
        # the bucket's two entries are 0: its draws take their own reward
        mag = np.append(excursion_reward_magnitude(params, np.arange(1, k)), 0.0)
        self.signed = np.column_stack((mag, -mag)).ravel()

    def decode(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot (tau - 1) and sign bit of each int64 word: the top 13 bits
        pick the column, bit 50 is the sign, and the low 50 bits f keep the
        column's own slot when f < thr[col], i.e. f * 2^-50 < accept[col]."""
        col = (words >> 51) & (self.K - 1)
        take = (words & _FRAC_MASK) < self.thr.take(col)
        col <<= 1
        col |= take
        return self.pair.take(col), (words >> _FRAC_BITS) & 1

    def excursions(self, gen: np.random.Generator, words: np.ndarray):
        """(tau, sign bit, signed reward) of one table draw per int64 word,
        the reward (-1)^sign times the excursion's reward magnitude."""
        slot, sign = self.decode(words)
        reward = self.signed.take((slot << 1) | sign)
        tau, bucket, big = self._lengths(gen, slot)
        if bucket is not None:
            reward[bucket] = (1 - 2 * sign[bucket]) * excursion_reward_magnitude(self.params, big)
        return tau, sign, reward

    def _lengths(self, gen: np.random.Generator, slot: np.ndarray):
        """Lengths tau = slot + 1 of table draws, written over `slot`, with
        the tail bucket's mask and its lengths (both None when no draw landed
        there).  Only bucket draws read `gen`: `_tail_draw` gives them their
        tau."""
        tau = slot
        tau += 1
        if tau.max() < self.K:
            return tau, None, None
        bucket = tau == self.K
        tau[bucket] = big = self._tail_draw(gen, int(bucket.sum()))
        return tau, bucket, big

    def runs(self, u: np.ndarray) -> np.ndarray:
        """Self-loop run lengths floor(log u / log p_1) of uniforms u, so
        P[G >= g] = P[u <= p_1^g] = p_1^g; u = 0 is guarded as in
        `_size_biased_level`."""
        return (np.log(np.maximum(u, 5e-324)) / math.log(self.p1)).astype(np.int64)

    def _tail_draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return _interval_tail_reject(self.params, gen, count, self.K - 1)

    def draw(self, rng: RngLike, size: int) -> np.ndarray:
        """`size` intervals from {p_n}: blocks laid end to end, cut to
        `size`.  A round draws the runs of at most _TILE blocks, enough to
        cover the rest with high probability, then words for the table draws
        that land inside."""
        gen = as_generator(rng)
        tau = np.ones(size, dtype=np.int64)
        at = 0
        while at < size:
            left = size - at
            m = min(self._TILE, int(left * (1.0 - self.p1) + 3.0 * math.sqrt(left)) + 1)
            pos = np.cumsum(self.runs(gen.random(m)) + 1) + (at - 1)  # table draws
            kept = int(np.searchsorted(pos, size))
            if kept:
                slot = self.decode(raw_words(gen, kept))[0]
                tau[pos[:kept]] = self._lengths(gen, slot)[0]
            at = int(pos[-1]) + 1
        return tau


def _vose_tables(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias construction; w must sum to 1."""
    k = w.size
    scaled = w * k
    accept = np.ones(k)
    alias = np.arange(k, dtype=np.int64)
    small = np.flatnonzero((scaled > 0.0) & (scaled < 1.0)).tolist()
    small += np.flatnonzero(scaled == 0.0).tolist()  # popped first: leftovers get accept 1
    large = np.flatnonzero(scaled >= 1.0).tolist()
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] - (1.0 - scaled[s])
        (small if scaled[g] < 1.0 else large).append(g)
    for i in small + large:
        accept[i] = 1.0
    return accept, alias


def interval_alias(params: Params) -> IntervalAlias:
    return _TABLES.get(("alias", params.alpha, params.beta), IntervalAlias, params)


def step(params: Params, state: ChainState, rng: RngLike) -> ChainState:
    """One transition of the chain.

    Inside an excursion the move is deterministic: (k, l) -> (k+1, l-1) if
    l > 1, else back to the origin.  From the origin an interval length tau
    is drawn; tau = 1 is the self-loop, otherwise the excursion starts at
    (1, tau - 1).
    """
    if not state.is_origin:
        if state.residual > 1:
            return ChainState(state.age + 1, state.residual - 1)
        return ORIGIN
    tau = int(interval_alias(params).draw(rng, 1)[0])
    if tau == 1:
        return ORIGIN
    return ChainState(1, tau - 1)


def stationary_push_l1(params: Params, n_max: int) -> dict:
    """One exact kernel step applied to the invariant measure truncated at
    level n_max, and the L1 distance back to the full measure.

    The truncated measure is uniform within each level, and a single step
    keeps it so except at age 1 (refilled from the origin as mu_0 * p_m)
    and at the origin (refilled by the self-loop and by every age-(m-1)
    state).  The distance therefore reduces to

        |mu_0 p_1 + sum_{m<=N} mu_m - mu_0|   (origin deficit)
      + sum_{m<=N} |mu_0 p_m - mu_m|          (age-1 entries)
      + exp(-N^alpha)                         (levels beyond the truncation)

    (mass the step pushes from the origin to levels beyond N is dropped,
    which only enlarges the level term already counted above; the origin
    deficit itself equals the dropped mass and is bounded by
    exp(-N^alpha)/N).  Returns the exactly computable part and a rigorous
    upper bound on the total.
    """
    n_max = _integer(n_max, "n_max", 1)
    mu = np.exp(_level_log_mu(params, 2, n_max))
    p = _p_law(params, n_max)
    origin_new = MU0 * float(p[1]) + float(mu.sum())
    exact = abs(origin_new - MU0) + float(np.abs(MU0 * p[2:] - mu).sum())
    tail = math.exp(-(float(n_max) ** params.alpha))
    return {"exact_part": exact, "tail_mass": tail, "l1_upper": exact + tail}
