"""Acceptance suite: one test per criterion, at the stated scale and
tolerance.  A conftest hook prints one pass/fail line per criterion.

The two seven-figure Monte Carlo criteria (exact-oracle agreement and the
impossibility of boundary exceedances above the window) share one set of
1e7 simulated paths through a session fixture.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mdwindow import (
    MEAN_TAU,
    Params,
    RateQuery,
    RngStream,
    WindowSet,
    autocovariance_exact,
    boundary_sum_sup,
    boundary_tail_exact,
    build_composite,
    build_measure_table,
    case1_upper,
    case2_certificate,
    decompose,
    generate_path,
    iter_sums,
    log_mu,
    mc_tail_curve,
    p1,
    predicted_rate,
    sigma,
    stationary_push_l1,
    window_from_params,
)
from mdwindow.measure import _s_tilde_variance

ALPHAS = (0.1, 0.3, 0.45)
DEFAULT = Params(0.3, 0.05)
GOLDEN = json.loads((Path(__file__).parent / "golden" / "certificates.json").read_text())
N_GRID = (10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12)


# --------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def decomposition_batch():
    """1e5 materialized paths at n = 1e3 (criteria 4 and 5)."""
    n, reps = 1000, 10 ** 5
    beta = DEFAULT.beta
    gen = RngStream(42_004).generator()
    worst_rel = 0.0
    max_abs_x = 0.0
    bound_ok = True
    s_tilde = np.empty(reps)
    t0 = time.perf_counter()
    for i in range(reps):
        path = generate_path(DEFAULT, n, gen)
        d = decompose(path)
        parts = d.s_prime + d.s_tilde + d.s_double_prime
        scale = max(abs(d.s_total), 1e-12)
        worst_rel = max(worst_rel, abs(parts - d.s_total) / scale)
        max_abs_x = max(max_abs_x, float(np.abs(path.x).max()))
        a1, b1 = int(path.ages[0]), int(path.residuals[0])
        an, bn = int(path.ages[-1]), int(path.residuals[-1])
        cap = float(n) ** (1.0 - 2.0 * beta)
        if a1 >= 1:
            lim = min((a1 + b1) ** (0.5 - beta), cap)
            if abs(d.s_prime) > lim + 1e-9:
                bound_ok = False
        if an >= 1:
            lim = min((an + bn) ** (0.5 - beta), cap)
            if abs(d.s_double_prime) > lim + 1e-9:
                bound_ok = False
        s_tilde[i] = d.s_tilde
    elapsed = time.perf_counter() - t0
    return {
        "worst_rel": worst_rel,
        "max_abs_x": max_abs_x,
        "bound_ok": bound_ok,
        "s_tilde": s_tilde,
        "elapsed": elapsed,
        "n": n,
    }


@pytest.fixture(scope="module")
def boundary_mc_run():
    """1e7 paths at n = 1e3 shared by criteria 7 and 9."""
    n, reps = 1000, 10 ** 7
    xs = np.array([float(x) for x in GOLDEN["dprime_tail_n1000"]])
    thr_above_window = RateQuery(n, 0.45, 1.0).threshold
    res = mc_tail_curve(
        DEFAULT,
        n,
        {"dprime": xs, "boundary": np.array([thr_above_window])},
        reps=reps,
        confidence=0.999,
        rng=RngStream(42_007),
        shards=8,
    )
    return {"xs": xs, "res": res, "n": n, "reps": reps,
            "thr_above_window": thr_above_window}


# --------------------------------------------------------------- criteria

def test_criterion_01_measure_identity():
    t0 = time.perf_counter()
    pad = 10 ** 4
    for alpha in ALPHAS:
        params = Params(alpha, 0.0)
        top = 1000 + pad
        table = build_measure_table(params, top)
        ks = np.arange(2, top + 1, dtype=np.float64)
        sized = (ks - 1.0) * np.exp(table.log_mu_levels)
        suffix = np.concatenate((np.cumsum(sized[::-1])[::-1], [0.0]))
        ns = np.arange(1, 1001)
        partial = suffix[ns + 1 - 2] - suffix[ns + pad + 1 - 2]
        resid = np.abs(
            partial
            + np.exp(-((ns + pad).astype(np.float64) ** alpha))
            - np.exp(-(ns.astype(np.float64) ** alpha))
        )
        assert float(resid.max()) < 1e-10, f"alpha={alpha}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_02_universal_constants():
    assert abs(MEAN_TAU - math.e / (math.e - 1.0)) < 1e-12
    for alpha in ALPHAS:
        params = Params(alpha, 0.0)
        assert abs(math.exp(log_mu(params, 0)) - (1.0 - math.exp(-1.0))) < 1e-12
        assert p1(params) > 0.4


def test_criterion_03_stationarity_kernel_step():
    t0 = time.perf_counter()
    n_max = 10 ** 4
    for alpha in ALPHAS:
        params = Params(alpha, 0.0)
        res = stationary_push_l1(params, n_max)
        cap = 2.0 * math.exp(-(float(n_max) ** alpha)) + 1e-10
        assert res["l1_upper"] < cap, f"alpha={alpha}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_04_decomposition(decomposition_batch):
    b = decomposition_batch
    assert b["worst_rel"] < 1e-9
    assert b["max_abs_x"] <= 1.0
    assert b["bound_ok"]
    assert b["elapsed"] < 60.0, f"runtime {b['elapsed']:.1f}s exceeds 60s"


def test_criterion_05_symmetry(decomposition_batch):
    s = decomposition_batch["s_tilde"]
    reps = s.size
    scale = sigma(DEFAULT, 1e-10).sigma * math.sqrt(decomposition_batch["n"])
    for q in (0.5, 1.0, 1.5, 2.0, 2.5):
        x = q * scale
        p_up = float((s > x).mean())
        p_dn = float((s < -x).mean())
        joint = math.sqrt(
            max(p_up * (1 - p_up), 1e-12) / reps
            + max(p_dn * (1 - p_dn), 1e-12) / reps
        )
        assert abs(p_up - p_dn) <= 3.0 * joint, f"x={x}"


def test_criterion_06_variance_constant():
    n, reps = 10 ** 4, 2 * 10 ** 5
    stats = sigma(DEFAULT, 1e-12)

    # split over two independent substreams; merge plain sums
    from concurrent.futures import ThreadPoolExecutor

    def run(idx):
        gen = RngStream(42_006).shard(idx)
        tot = sq = 0.0
        cnt = 0
        for chunk in iter_sums(DEFAULT, n, reps // 2, gen):
            v = chunk["s_tilde"]
            tot += float(v.sum())
            sq += float((v * v).sum())
            cnt += v.size
        return tot, sq, cnt

    with ThreadPoolExecutor(max_workers=2) as pool:
        parts = list(pool.map(run, range(2)))
    tot = sum(p[0] for p in parts)
    sq = sum(p[1] for p in parts)
    cnt = sum(p[2] for p in parts)
    var = sq / cnt - (tot / cnt) ** 2
    # the exact finite-n variance, 0.998 n sigma^2 here
    ratio = var / _s_tilde_variance(DEFAULT, n)
    assert abs(ratio - 1.0) < 0.05, f"Var(S~) off the exact value by {ratio - 1.0:+.3%}"

    # independent identity: long-run variance from the exact autocovariances
    series = autocovariance_exact(DEFAULT, 0, 1e-12) + 2.0 * sum(
        autocovariance_exact(DEFAULT, k, 1e-12) for k in range(1, 201)
    )
    tail_bound = 2.0 * sum(
        math.exp(-(((k + 1) ** 2 - 1) ** DEFAULT.alpha)) for k in range(201, 400)
    )
    assert abs(series - stats.sigma ** 2) < 0.01 * stats.sigma ** 2 + tail_bound


def test_criterion_07_oracle_agreement(boundary_mc_run):
    run = boundary_mc_run
    for x, est in zip(run["xs"], run["res"]["dprime"]):
        exact = math.exp(boundary_tail_exact(DEFAULT, run["n"], float(x)))
        assert est.ci_low <= exact <= est.ci_high, (
            f"x={x}: exact {exact:.3e} outside "
            f"[{est.ci_low:.3e}, {est.ci_high:.3e}] (hits={est.hits})"
        )


def test_criterion_08_dichotomy_certificates():
    t0 = time.perf_counter()
    inside = [case2_certificate(DEFAULT, RateQuery(n, 0.32, 1.0)) for n in N_GRID]
    rates = [c.rate for c in inside]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(r < 0.0 for r in rates)
    for cert, entry in zip(inside, GOLDEN["case2"]):
        assert cert.rate == pytest.approx(entry["rate"], rel=1e-12)

    below = [case1_upper(DEFAULT, RateQuery(n, 0.15, 1.0)) for n in N_GRID]
    urates = [c.rate for c in below]
    assert all(a > b for a, b in zip(urates, urates[1:]))
    assert urates[-1] < urates[0] * 2  # unboundedly negative trend
    for cert, entry in zip(below, GOLDEN["case1"]):
        assert cert.rate == pytest.approx(entry["rate"], rel=1e-12)
    # measured slope of ln|log_prob| against ln n at the top of the grid
    slope = (
        math.log(-below[-1].log_prob) - math.log(-below[-2].log_prob)
    ) / (math.log(N_GRID[-1]) - math.log(N_GRID[-2]))
    target = (0.15 + 0.5) * DEFAULT.alpha / (0.5 - DEFAULT.beta)
    assert abs(slope / target - 1.0) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_09_case4_impossibility(boundary_mc_run):
    run = boundary_mc_run
    est = run["res"]["boundary"][0]
    assert est.hits == 0, f"{est.hits} exceedances observed"
    # the deterministic bound proves the probability is exactly zero
    assert run["thr_above_window"] >= boundary_sum_sup(DEFAULT, run["n"])


def test_criterion_10_superposition():
    windows = WindowSet([(0.1, 0.15), (0.25, 0.4)])
    comp = build_composite(windows, tol=1e-5)

    # round-tripped component exponents
    for (params, _), (u, v) in zip(comp.components, windows.windows):
        w = window_from_params(params)
        assert abs(w.u - u) < 1e-12 and abs(w.v - v) < 1e-12

    # combined normalizer is the exact quadrature
    var = sum(stats.sigma ** 2 for _, stats in comp.components)
    assert abs(comp.combined_sigma ** 2 - var) < 1e-12 * var

    # per-component versions of criteria 4 and 5 on composite-path samples
    n = 1000
    for idx, (params, _) in enumerate(comp.components):
        beta = params.beta
        cap = float(n) ** (1.0 - 2.0 * beta)
        gen = RngStream(42_010, idx).generator()
        for _ in range(2000):
            d = decompose(generate_path(params, n, gen))
            parts = d.s_prime + d.s_tilde + d.s_double_prime
            assert abs(parts - d.s_total) <= 1e-9 * max(abs(d.s_total), 1e-3)
        engine_gen = RngStream(42_011, idx).generator()
        tildes, sp, sd = [], [], []
        for chunk in iter_sums(params, n, 10 ** 5, engine_gen):
            tildes.append(chunk["s_tilde"])
            sp.append(chunk["s_prime"])
            sd.append(chunk["s_dprime"])
        tildes = np.concatenate(tildes)
        sp = np.concatenate(sp)
        sd = np.concatenate(sd)
        assert float(np.abs(sp).max()) <= cap + 1e-9
        assert float(np.abs(sd).max()) <= cap + 1e-9
        reps = tildes.size
        for x in (0.5, 2.0):
            p_up = float((tildes > x).mean())
            p_dn = float((tildes < -x).mean())
            joint = math.sqrt(
                max(p_up * (1 - p_up), 1e-12) / reps
                + max(p_dn * (1 - p_dn), 1e-12) / reps
            )
            assert abs(p_up - p_dn) <= 3.0 * joint

    # piecewise predicted rate on a grid that avoids endpoints
    for gamma, expect in [
        (0.05, -0.5), (0.12, 0.0), (0.2, -0.5), (0.3, 0.0), (0.45, -0.5),
    ]:
        assert predicted_rate(windows, gamma, 1.0) == expect


def test_criterion_11_cli_determinism(tmp_path):
    def run(args):
        res = subprocess.run(
            [sys.executable, "-m", "mdwindow.cli"] + args,
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    sim_args = [
        "simulate", "--alpha", "0.3", "--beta", "0.05",
        "--n", "500", "--reps", "2000", "--seed", "33", "--shards", "4",
    ]
    assert run(sim_args) == run(sim_args)

    rate_args = [
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "400", "--gamma-grid", "0.15,0.32", "--c", "0.5",
        "--reps", "20000", "--seed", "34", "--shards", "4",
    ]
    assert run(rate_args) == run(rate_args)
