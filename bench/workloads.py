"""The workloads: generated inputs, timed ops and their checks.

Every input comes from the run's seed through ``rng_for(seed, workload,
index)``: parameter pairs, thresholds and ``RngStream`` seeds.  The program
sees only those inputs.  An op is one timed call into the package and has
a check; checks that need the whole run (pooled Monte Carlo tests and the
reproducibility op) run in ``finish`` after timing ends.  The pooled tests
use a fixed number of ops, so their power does not depend on how many ops a
run manages; ``pooled()`` tells the runner when that many have run.

Calls go through module attributes (``oracles.mc_tail_curve``) so that the
traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

from mdwindow import chain, measure, oracles, paths

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "certificates.json").read_text())
DEFAULT = measure.Params(0.3, 0.05)
WINDOWS = ((0.1, 0.15), (0.25, 0.4))
SMALL_ALPHA = measure.params_from_window(*WINDOWS[0])
# At alpha ~0.108 a sigma tolerance below ~1e-5 needs more than the 2^26
# series terms second_moment_jump allows; 1e-4 is 7e-4 relative on E X^2.
SMALL_ALPHA_TOL = 1e-4
N_GRID = (10**6, 10**8, 10**10, 10**12)
Z = 5.0  # standard errors allowed by the pooled statistical checks

_KEYS = {"boundary_mc": 1, "reward_mc": 2, "exact_cli": 4, "probe": 5}


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """Input generator for one round of one workload."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, _KEYS[workload], index]))


def stream_seed(g: np.random.Generator) -> int:
    return int(g.integers(1 << 62))


def child_env() -> dict:
    """Environment for subprocesses: the checkout's sources come first."""
    env = {k: v for k, v in os.environ.items() if k != "MDWINDOW_SEED"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def run_child(cmd: list, env: dict) -> tuple:
    """Run one subprocess to completion: (exit code, stdout, stderr)."""
    res = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=60)
    return res.returncode, res.stdout, res.stderr


# ``python -m mdwindow.cli`` that also reports its peak resident memory.
# getrusage would not do: a child's ru_maxrss includes the parent's
# high-water mark from before exec.
_CLI = """\
import runpy, sys
sys.argv[0] = "mdwindow"
try:
    runpy.run_module("mdwindow.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    sys.stderr.write(f"\\nVmHWM_kB {hwm[0]}\\n")
"""


def run_cli(rt, name: str, args: list) -> dict:
    """One cold ``mdwindow`` command, traced as span `name`."""
    with rt.tracer.span(name) as span:
        rc, out, err = run_child([sys.executable, "-c", _CLI, *args], rt.env)
        rss = int(err.split()[-1]) / 1024.0
        if span is not None:
            span.attrs["rss_mb"] = rss
    rt.child_peak_mb = max(rt.child_peak_mb, rss)
    return {"rc": rc, "out": out, "rss_mb": rss}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class BoundaryMC:
    """Boundary-only Monte Carlo: one op is one mc_tail_curve call.

    mc_tail_curve runs each shard's 2048 paths as one engine chunk, where
    criteria 7/9 use 65536-row chunks; boundary-only steps cost within 7%
    of each other at the two sizes (bench/README.md)."""

    name = "boundary_mc"
    N = 1000
    REPS = 4096
    SHARDS = 2
    OPS_PER_ROUND = 2
    POOL_OPS = 128  # ops pooled for the Wilson check: 524288 paths

    def __init__(self, seed: int):
        self.seed = seed
        self.xs = np.array([float(x) for x in GOLDEN["dprime_tail_n1000"]])
        self.thr_above = oracles.RateQuery(self.N, 0.45, 1.0).threshold
        self.hits = np.zeros(self.xs.size, dtype=np.int64)
        self.reps = 0
        self.pooled_ops = 0
        self.first = None

    @staticmethod
    def tables():
        chain.interval_alias(DEFAULT)
        measure.p1(DEFAULT)
        measure.sigma(DEFAULT)

    def inputs(self, r: int) -> dict:
        g = rng_for(self.seed, self.name, r)
        return {"streams": [stream_seed(g) for _ in range(self.OPS_PER_ROUND)]}

    def _curve(self, seed: int, reps: int = REPS):
        return oracles.mc_tail_curve(
            DEFAULT, self.N,
            {"dprime": self.xs, "boundary": np.array([self.thr_above])},
            reps, 0.999, chain.RngStream(seed), shards=self.SHARDS)

    def warm(self, rt):
        self.tables()
        self.exact = np.exp([
            oracles.boundary_tail_exact(DEFAULT, self.N, float(x))
            for x in self.xs])
        self._curve(0, 1024)

    def round(self, rt, r: int):
        for s in self.inputs(r)["streams"]:
            rt.op("mc_tail_curve", lambda: self._curve(s), self._check,
                  paths=self.REPS, steps=self.REPS * self.N)

    def pooled(self) -> bool:
        return self.pooled_ops >= self.POOL_OPS

    def _check(self, res) -> bool:
        hits = np.array([e.hits for e in res["dprime"]])
        if self.first is None:
            self.first = hits
        if not self.pooled():
            self.hits += hits
            self.reps += self.REPS
            self.pooled_ops += 1
        # thresholds ascend, so exceedance counts cannot rise
        return res["boundary"][0].hits == 0 and bool(np.all(np.diff(hits) <= 0))

    def finish(self, rt):
        # Bonferroni over the thresholds: the family holds at 0.999
        conf = 1.0 - 0.001 / self.xs.size
        for x, h, exact in zip(self.xs, self.hits, self.exact):
            lo, hi = oracles.wilson_interval(int(h), self.reps, conf)
            rt.check(f"pooled P[S''>{x}] covers the exact tail",
                     lambda: lo <= exact <= hi,
                     f"exact {exact:.4e} outside [{lo:.4e}, {hi:.4e}]")
        rt.check("threshold above the window exceeds the deterministic sup",
                 lambda: self.thr_above >= oracles.boundary_sum_sup(DEFAULT, self.N))
        s0 = self.inputs(0)["streams"][0]
        rt.check("repro: first op again gives identical hits", lambda: np.array_equal(
            [e.hits for e in self._curve(s0)["dprime"]], self.first))


class RewardMC:
    """Reward Monte Carlo at n=1e4: one op is one engine chunk.  A round is
    three chunks of the default pair and one of the small-alpha component,
    whose chunks take longer: p50 then falls inside the default pair's
    chunk times instead of in the gap between the two.

    Chunks have 256 rows so that a 25 s run has a few hundred ops; criterion
    6 uses iter_sums' default 65536 rows, whose temporaries outgrow the L3
    cache.  Steps cost the same from 256 to 16384 rows but about 1.4-1.6x
    more at 65536 (bench/README.md); the traced run measures that size as
    ``paths.iter_sums_rewards_ns_per_step_65536``."""

    name = "reward_mc"
    N = 10_000
    CHUNK = 256
    POOL_CHUNKS = 64  # chunks per pair pooled for the variance and tail checks
    PARAMS = {"default": (DEFAULT, 1e-12), "small_alpha": (SMALL_ALPHA, SMALL_ALPHA_TOL)}
    ROUND = ("default", "default", "default", "small_alpha")

    def __init__(self, seed: int):
        self.seed = seed
        self.s_tilde = {k: [] for k in self.PARAMS}
        self.first = None

    def pooled(self) -> bool:
        return all(len(v) >= self.POOL_CHUNKS for v in self.s_tilde.values())

    @classmethod
    def tables(cls):
        return {k: (chain.interval_alias(p), measure.p1(p), measure.sigma(p, tol))[2]
                for k, (p, tol) in cls.PARAMS.items()}

    def inputs(self, r: int) -> dict:
        # one long stream per pair; every round continues it
        g = rng_for(self.seed, self.name, 0)
        return {"streams": {k: stream_seed(g) for k in self.PARAMS}}

    def _iter(self, key: str, seed: int):
        return paths.iter_sums(self.PARAMS[key][0], self.N, 1 << 50,
                               chain.RngStream(seed).generator(), chunk=self.CHUNK)

    def warm(self, rt):
        self.sigma2 = {k: s.sigma ** 2 for k, s in self.tables().items()}
        for key in self.PARAMS:
            next(self._iter(key, 0))
        streams = self.inputs(0)["streams"]
        self.iters = {k: self._iter(k, s) for k, s in streams.items()}

    def _next(self, rt, key: str) -> dict:
        with rt.tracer.span("paths.iter_sums.next", paths=self.CHUNK, n=self.N,
                            rewards=True):
            return next(self.iters[key])

    def round(self, rt, r: int):
        for key in self.ROUND:
            rt.op(f"chunk.{key}", lambda: self._next(rt, key),
                  lambda c: self._check(key, c),
                  paths=self.CHUNK, steps=self.CHUNK * self.N)

    def _check(self, key: str, c: dict) -> bool:
        if self.first is None:
            self.first = c
        if len(self.s_tilde[key]) < self.POOL_CHUNKS:
            self.s_tilde[key].append(c["s_tilde"])
        cap = float(self.N) ** (1.0 - 2.0 * self.PARAMS[key][0].beta) + 1e-9
        parts = c["s_prime"] + c["s_tilde"] + c["s_dprime"]
        return (c["s_tilde"].size == self.CHUNK
                and bool(np.all(np.isfinite(c["s_total"])))
                and float(np.abs(c["s_prime"]).max()) <= cap
                and float(np.abs(c["s_dprime"]).max()) <= cap
                and np.array_equal(parts, c["s_total"]))

    def finish(self, rt):
        for key in self.PARAMS:
            x = np.concatenate(self.s_tilde[key])
            scale = self.N * self.sigma2[key]
            var = float(x.var())
            m4 = float(np.mean((x - x.mean()) ** 4))
            se = math.sqrt(max(m4 - var * var, 0.0) / x.size) / scale
            ratio = var / scale
            # Var(S~_n) <= n sigma^2 holds exactly (S~ sums the complete
            # excursions, a subset of those starting in the window).  At
            # alpha ~0.108 the finite-n deficit is ~4% at n=1e4, so only the
            # upper side is tested there.
            lower = -Z * se if key == "default" else -math.inf
            rt.check(f"{key}: Var(S~)/(n sigma^2) within {Z:g} SE of 1",
                     lambda: lower <= ratio - 1.0 <= Z * se,
                     f"ratio {ratio:.4f}, SE {se:.4f}, paths {x.size}")
            sd = math.sqrt(scale)
            for q in (0.5, 1.0, 1.5, 2.0, 2.5):
                up = int((x > q * sd).sum())
                dn = int((x < -q * sd).sum())
                # given up + dn exceedances, up is Binomial(up + dn, 1/2)
                rt.check(f"{key}: S~ tails symmetric at {q} sigma sqrt(n)",
                         lambda: abs(up - dn) <= Z * math.sqrt(up + dn),
                         f"up {up}, down {dn}")
        again = next(self._iter("default", self.inputs(0)["streams"]["default"]))
        rt.check("repro: first chunk again gives identical sums", lambda: all(
            np.array_equal(again[k], self.first[k]) for k in self.first))


class ExactCLI:
    """Deterministic route on distinct seed-drawn pairs plus cold CLI runs.

    A round is four pairs, each with p1, sigma, autocovariances at lags
    0..200, boundary_tail_exact on five thresholds and eight certificates;
    then the eight golden certificates and one cold ``params``, ``rates``
    and ``simulate`` run.  The pairs are a four-point grid in alpha in
    [0.305, 0.32] with a seed-drawn jitter of at most 2e-4: the jitter keeps
    every pair distinct, so the lru caches miss as in a window sweep, and is
    too small to change any series length, so every seed costs the same.
    All four pairs sum the autocovariances to the same level, so p50 falls
    among autocovariance lags that do real vector work.
    """

    name = "exact_cli"
    GRID = ((0.305, 0.045), (0.31, 0.025), (0.315, 0.055), (0.32, 0.035))
    JITTER = 2e-4
    LAGS = 201
    X_GRID = (1.0, 2.2, 5.0, 11.0, 23.0)
    N_TAIL = 1000
    SIM_N, SIM_REPS = 1000, 2000

    def __init__(self, seed: int):
        self.seed = seed
        self.results = {}

    def pooled(self) -> bool:
        return True

    @staticmethod
    def tables():
        pass

    def inputs(self, r: int) -> dict:
        g = rng_for(self.seed, self.name, r)
        pairs = []
        for a0, b0 in self.GRID:
            a, b = a0 + g.uniform(-1, 1) * self.JITTER, b0 + g.uniform(-1, 1) * self.JITTER
            u, v = a / (2.0 * (1.0 - a - 2.0 * b)), 0.5 - 2.0 * b
            pairs.append({
                "alpha": a,
                "beta": b,
                "gamma_inside": u + g.uniform(0.55, 0.65) * (v - u),
                "gamma_below": u * g.uniform(0.75, 0.85),
                "thresholds": [x * g.uniform(0.98, 1.02) for x in self.X_GRID],
            })
        return {"pairs": pairs, "cli_seed": int(g.integers(1 << 31))}

    def warm(self, rt):
        oracles.case1_upper(DEFAULT, oracles.RateQuery(10**6, 0.15, 1.0))
        self._log_mu_mp(0.3, 10**6)

    def round(self, rt, r: int):
        inp = self.inputs(r)
        for pr in inp["pairs"]:
            self._pair(rt, pr)
        self._golden(rt)
        self._cli(rt, inp["pairs"][0], inp["cli_seed"])

    def _pair(self, rt, pr: dict):
        P = measure.Params(pr["alpha"], pr["beta"])
        res = self.results[P] = {}
        res["p1"] = rt.op("p1", lambda: measure.p1(P), lambda v: 0.4 < v < 1.0)
        res["sigma"] = rt.op("sigma", lambda: measure.sigma(P), lambda s: s.sigma > 0.0)

        acov = {}

        def check_lag(k, v):
            acov[k] = v
            if not v >= 0.0:
                return False
            return k == 0 or (v <= acov.get(k - 1, math.inf)
                              and v <= oracles.autocovariance_bound(P, k))

        for k in range(self.LAGS):
            rt.op("autocov", lambda k=k: oracles.autocovariance_exact(P, k),
                  lambda v, k=k: check_lag(k, v))

        def series_gap_ok():
            # sigma^2 = r(0) + 2 sum_{k>=1} r(k) exactly, and every r(k) for
            # k >= 1 lies in [0, exp(-((k+1)^2 - 1)^alpha)]
            series = acov[0] + 2.0 * sum(acov[k] for k in range(1, self.LAGS))
            tail, k = 0.0, self.LAGS
            while True:
                term = math.exp(-(float((k + 1) ** 2 - 1) ** P.alpha))
                tail += 2.0 * term
                if term < 1e-30:
                    break
                k += 1
            gap = res["sigma"].sigma ** 2 - series
            return -1e-9 <= gap <= tail + 1e-9

        rt.check("sigma^2 against the autocovariance series", series_gap_ok)

        prev = [0.0]

        def check_tail(v):
            # P[S'' > x] <= 1/2 by symmetry and falls as x rises
            ok = v <= min(prev[0], -math.log(2.0))
            prev[0] = v
            return ok

        for x in pr["thresholds"]:
            rt.op("boundary_tail",
                  lambda x=x: oracles.boundary_tail_exact(P, self.N_TAIL, x),
                  check_tail)

        rates = {"case2": [], "case1": []}
        for n in N_GRID:
            q = oracles.RateQuery(n, pr["gamma_inside"], 1.0)
            rt.op("certificate", lambda q=q: oracles.case2_certificate(P, q),
                  lambda c: self._check_case2(P, c, rates["case2"]))
            q = oracles.RateQuery(n, pr["gamma_below"], 1.0)
            rt.op("certificate", lambda q=q: oracles.case1_upper(P, q),
                  lambda c: self._check_case1(c, rates["case1"]))
        res["certs"] = rates
        rt.check("case2 rates rise toward 0 along n", lambda: (
            len(rates["case2"]) == len(N_GRID)
            and all(c.rate < 0.0 for c in rates["case2"])
            and all(a.rate < b.rate for a, b in zip(rates["case2"], rates["case2"][1:]))))
        rt.check("case1 rates fall along n", lambda: (
            len(rates["case1"]) == len(N_GRID)
            and all(c.rate < 0.0 for c in rates["case1"])
            and all(a.rate > b.rate for a, b in zip(rates["case1"], rates["case1"][1:]))))

    @staticmethod
    def _log_mu_mp(alpha: float, level: int) -> float:
        """log mu_level from the closed form at 60 digits."""
        with mpmath.workdps(60):
            a, m = mpmath.mpf(alpha), mpmath.mpf(level)
            d = mpmath.exp(-(m - 1) ** a) - mpmath.exp(-(m ** a))
            return float(mpmath.log(d) - mpmath.log(m - 1))

    def _check_case2(self, P, c, out: list) -> bool:
        out.append(c)
        expect = math.log(0.25) + self._log_mu_mp(P.alpha, c.c_n)
        return (c.a_n + c.b_n == c.c_n and c.a_n >= 1
                and _rel(c.log_prob, expect) <= 1e-12
                and _rel(c.rate, c.log_prob / float(c.n) ** (2.0 * c.gamma)) <= 1e-12)

    @staticmethod
    def _check_case1(c, out: list) -> bool:
        out.append(c)
        return (c.log_prob <= math.log(2.0)
                and _rel(c.rate, c.log_prob / float(c.n) ** (2.0 * c.gamma)) <= 1e-12)

    def _golden(self, rt):
        P = measure.Params(GOLDEN["params"]["alpha"], GOLDEN["params"]["beta"])
        for kind, gamma, fn in (("case2", GOLDEN["gamma_inside"], "case2_certificate"),
                                ("case1", GOLDEN["gamma_below"], "case1_upper")):
            for entry in GOLDEN[kind]:
                q = oracles.RateQuery(entry["n"], gamma, GOLDEN["c"])
                rt.op("certificate",
                      lambda fn=fn, q=q: getattr(oracles, fn)(P, q),
                      lambda c, e=entry: (
                          _rel(c.log_prob, e["log_prob"]) <= 1e-12
                          and _rel(c.rate, e["rate"]) <= 1e-12
                          and c.c_n == e.get("c_n")))

    def _cli(self, rt, pr: dict, seed: int):
        P = measure.Params(pr["alpha"], pr["beta"])
        pair = ["--alpha", repr(pr["alpha"]), "--beta", repr(pr["beta"])]
        rt.op("cli.params", lambda: run_cli(rt, "cli.params", ["params", *pair]),
              lambda out: self._check_params(P, out))
        rates = ["rates", *pair,
                 "--n-grid", ",".join(str(n) for n in N_GRID),
                 "--gamma-grid", f"{pr['gamma_below']!r},{pr['gamma_inside']!r}",
                 "--reps", "0"]
        rt.op("cli.rates", lambda: run_cli(rt, "cli.rates", rates),
              lambda out: self._check_rates(P, out))
        simulate = ["simulate", *pair, "--n", str(self.SIM_N),
                    "--reps", str(self.SIM_REPS), "--seed", str(seed), "--shards", "2"]
        rt.op("cli.simulate", lambda: run_cli(rt, "cli.simulate", simulate),
              self._check_simulate)

    @staticmethod
    def _rows(out: dict) -> list:
        return list(csv.DictReader(io.StringIO(out["out"])))

    def _check_params(self, P, out: dict) -> bool:
        res = self.results[P]
        rows = self._rows(out)
        return (out["rc"] == 0 and len(rows) == 1
                and _rel(float(rows[0]["p1"]), res["p1"]) <= 1e-10
                and _rel(float(rows[0]["sigma"]), res["sigma"].sigma) <= 1e-8)

    def _check_rates(self, P, out: dict) -> bool:
        # one gamma per kind; the CSV prints gamma to 12 digits only
        expect = {(c.n, c.kind): c.log_prob
                  for certs in self.results[P]["certs"].values() for c in certs}
        got = {(int(row["n"]), row["kind"]): float(row["log_prob"])
               for row in self._rows(out) if row["kind"] in ("case1_upper", "case2_lower")}
        return (out["rc"] == 0 and got.keys() == expect.keys()
                and all(_rel(got[k], expect[k]) <= 1e-10 for k in expect))

    def finish(self, rt):
        pass

    def _check_simulate(self, out: dict) -> bool:
        rows = self._rows(out)
        if out["rc"] != 0 or len(rows) != self.SIM_REPS:
            return False
        for row in rows:
            parts = [float(row[k]) for k in ("s_prime", "s_tilde", "s_dprime")]
            if abs(sum(parts) - float(row["s_total"])) > 1e-9 * (1.0 + sum(map(abs, parts))):
                return False
        return True


WORKLOADS = {w.name: w for w in (BoundaryMC, RewardMC, ExactCLI)}
