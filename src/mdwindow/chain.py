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


RngLike = Union[RngStream, "np.random.Generator"]  # a string: numpy.random loads on first use


def as_generator(rng: RngLike) -> np.random.Generator:
    """Accept either a stream descriptor or a live generator; refuse one of
    32-bit raw words (MT19937), whose words `raw_words` would misread."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ParameterError("rng: MT19937 gives 32-bit raw words; use PCG64, Philox or SFC64")
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
    """Vector of stationary states as (level, age) arrays; level 0 = origin:
    `_stationary_excursions` scattered, once the tau cap is checked."""
    _check_tau_cap(params.alpha)
    exc, lev, age = _stationary_excursions(params.alpha, as_generator(rng), size)
    tau, ages = np.zeros((2, size), dtype=np.int64)
    tau[exc], ages[exc] = lev, age
    return tau, ages


def _stationary_excursions(alpha: float, gen: np.random.Generator, size: int):
    """(positions, levels, ages) of the excursion states among `size`
    stationary draws, the rest origins; the tau cap is not checked.  A
    uniform u >= mu_0 gives the level m with exp(-m^alpha) <= u - mu_0 <
    exp(-(m-1)^alpha) and an age uniform on 1..m-1.  Draw order: `size`
    state uniforms, then one age uniform per excursion state, in order (none
    when all are origins)."""
    u = gen.random(size)
    exc = (u >= MU0).nonzero()[0]
    lev = _size_biased_level(u.take(exc) - MU0, alpha, 2)
    age = (gen.random(exc.size) * (lev - 1)).astype(np.int64)  # floor: the product is >= 0
    return exc, lev, np.minimum(age + 1, lev - 1)


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


def raw_words(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform 64-bit words from the generator's bit stream, as int64."""
    return gen.bit_generator.random_raw(shape).view(np.int64)


class _AliasTable:
    """Alias table (Vose, IEEE TSE 1991) over `weights`, 2^b entries (b <=
    13) summing to 1, drawn by `decode` from 64-bit words.

    A word's top b + 1 bits h hold its column (the top b) and its sign bit;
    its low 63 - b bits f (50 for 8192 columns) keep the column's own slot
    when f < thr = ceil(accept 2^(63 - b)), as for an integer f, f < ceil(x)
    exactly when f < x.  A column with thr = 2^(63 - b) always keeps it, so
    it is stored as its own alias with thr 0.  With cut[h] = h 2^(63 - b) +
    thr, the word read unsigned is below cut[h] exactly when f < thr, and
    `value` holds values[slot] (int16; the slot itself by default) of the
    slot drawn at q = 2 h + kept.
    """

    def __init__(self, weights: np.ndarray, values: np.ndarray | None = None):
        accept, alias = _vose_tables(weights)
        self.shift = 64 - weights.size.bit_length()  # 63 - b
        thr = np.ceil(np.ldexp(accept, self.shift)).astype(np.uint64)
        full = (thr >> self.shift).astype(bool)
        thr[full], alias[full] = 0, full.nonzero()[0]
        self.cut = np.arange(2 * weights.size, dtype=np.uint64)
        self.cut <<= self.shift
        self.cut += thr.repeat(2)
        slot = np.column_stack((alias, np.arange(weights.size))).astype(np.int16)
        slot = slot.repeat(2, axis=0).ravel()
        self.value = slot if values is None else values.astype(np.int16).take(slot)

    def decode(self, words: np.ndarray) -> np.ndarray:
        """The column index q = 2 h + kept of each int64 word, so value[q]
        is its draw and bit 1 of q its sign bit."""
        u = words.view(np.uint64)
        q = (u >> self.shift).view(np.int64)
        kept = u < self.cut.take(q)
        q <<= 1
        q |= kept
        return q


class _Excursions(_AliasTable):
    """Excursions from an alias table over interval lengths: slot tau - 1
    holds tau >= 2, and the last slot, K - 1, is a bucket for the lengths
    past it, resolved by the exact size-biased rejection step
    (`_tail_draw`).  Per column index q, `value` holds tau (K in the
    bucket) and `reward` the signed reward (-1)^sign mag[tau - 1], mag the
    reward magnitude of each slot's length (0 in the bucket, whose draws
    take their own), so a word's excursion is two reads of q."""

    def __init__(self, params: Params, weights: np.ndarray, mag: np.ndarray):
        self.params, self.K = params, weights.size
        super().__init__(weights, np.arange(1, self.K + 1))
        self.reward = mag.take(self.value - 1)
        np.negative(self.reward[2::4], out=self.reward[2::4])  # q = 4 slot + 2 sign + kept
        np.negative(self.reward[3::4], out=self.reward[3::4])

    @property
    def mag(self) -> np.ndarray:
        """Reward magnitude of each slot's length (0 in the bucket): a kept
        draw of sign bit 0, at q = 4 slot + 1."""
        return self.reward[1::4]

    def excursions(self, gen: np.random.Generator, words: np.ndarray):
        """(tau, column index q, signed reward) of one table draw per int64
        word: the reward is (-1)^sign times the excursion's reward
        magnitude, with the word's sign bit, bit 1 of q."""
        q = self.decode(words)
        tau, bucket, big = self._lengths(gen, q)
        reward = self.reward.take(q)
        if bucket is not None:
            sign = (q[bucket] >> 1) & 1
            reward[bucket] = (1 - 2 * sign) * excursion_reward_magnitude(self.params, big)
        return tau, q, reward

    def _lengths(self, gen: np.random.Generator, q: np.ndarray):
        """Lengths tau of table draws by column index (int16 unless a draw
        landed in the bucket), with the bucket's mask and its lengths (both
        None when none did).  Only bucket draws read `gen`: `_tail_draw`
        gives them their tau."""
        tau = self.value.take(q)
        if tau.max(initial=0) < self.K:
            return tau, None, None
        bucket = tau == self.K
        tau = tau.astype(np.int64)
        tau[bucket] = big = self._tail_draw(gen, int(bucket.sum()))
        return tau, bucket, big

    def _tail_draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return _interval_tail_reject(self.params, gen, count, self.K - 1)


class IntervalAlias(_Excursions):
    """Draws from {p_n}: self-loop runs and one alias table over the
    non-trivial law p_k / (1 - p_1), k >= 2.

    A run of G self-loops, P[G >= g] = p_1^g (`runs`, one uniform double),
    then one table draw (`excursions`, one 64-bit word) make a block of
    {p_n}.  Slot 0 (tau = 1) has mass exactly 0, and the last slot is the
    tail bucket.  p1 is the self-loop weight of the same normalized law.
    """

    K = 8192  # 2^13 columns, so 13 bits of a word pick one uniformly
    _TILE = 1 << 14  # most blocks per `draw` round
    _tail_draw = _Excursions._tail_draw  # its own entry, which bench/layers.py traces

    def __init__(self, params: Params):
        k = self.K
        _check_tau_cap(params.alpha, k - 1)
        probs = np.append(_p_law(params, k - 1)[1:], 0.0)  # slot j: p_(j+1)
        probs[k - 1] = max(1.0 - probs[: k - 1].sum(), 0.0)  # tail bucket
        probs /= probs.sum()
        self.p1 = float(probs[0])
        probs[0] = 0.0
        self.weights = probs / probs.sum()
        mag = np.append(excursion_reward_magnitude(params, np.arange(1, k)), 0.0)
        super().__init__(params, self.weights, mag)

    def runs(self, u: np.ndarray) -> np.ndarray:
        """Self-loop run lengths floor(log u / log p_1) of uniforms u, so
        P[G >= g] = P[u <= p_1^g] = p_1^g; u = 0 is guarded as in
        `_size_biased_level`."""
        return (np.log(np.maximum(u, 5e-324)) / math.log(self.p1)).astype(np.int64)

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
                tau[pos[:kept]] = self._lengths(gen, self.decode(raw_words(gen, kept)))[0]
            at = int(pos[-1]) + 1
        return tau


def _vose_tables(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias construction; w must sum to 1, and an unpaired column
    keeps accept 1.  The stack pairing (pop a small and a large column, give
    the small one's deficit 1 - w_s k to the large one, push that back on the
    stack its new weight names) runs one large column at a time, last first:
    it absorbs the last large column to fall below 1, then the next smalls in
    pop order until its own weight falls below 1.  One cumulative sum per
    large column takes that run, from the same doubles in the same order as
    the stack's subtractions, so the tables keep their bits."""
    k = w.size
    scaled = w * k
    small = np.concatenate((np.flatnonzero((scaled > 0.0) & (scaled < 1.0)),
                            np.flatnonzero(scaled == 0.0)))[::-1]  # pop order: zeros first
    deficit = 1.0 - scaled.take(small)
    ahead = np.cumsum(deficit)  # where each run ends, up to rounding
    accept, alias = np.ones(k), np.arange(k)
    at, retired = 0, None  # the next small, and the large column that fell below 1
    for g in np.flatnonzero(scaled >= 1.0)[::-1].tolist():
        v = float(scaled[g])
        if retired is not None:
            r, rv = retired
            accept[r], alias[r] = rv, g
            v = v - (1.0 - rv)
            if v < 1.0:
                retired = (g, v)
                continue
        if at == small.size:
            break
        # the run ends where the deficits first exceed v - 1; compute it from
        # a little past the estimate, and from all the rest if it ends later
        reach = int(np.searchsorted(ahead, (ahead[at - 1] if at else 0.0) + (v - 1.0)))
        for end in (min(reach + 3, small.size), small.size):
            run = np.cumsum(np.append(v, -deficit[at:end]))
            below = np.flatnonzero(run < 1.0)
            if below.size or end == small.size:
                break
        n = int(below[0]) if below.size else run.size - 1
        s = small[at:at + n]
        accept[s], alias[s] = scaled.take(s), g
        at += n
        if not below.size:  # the smalls ran out first: g keeps accept 1
            break
        retired = (g, float(run[n]))
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
