"""Per-layer metrics of the traced run.

Each metric is computed from spans.  It uses the spans of the workload's
own ops when the workload calls that layer, and otherwise the spans of a
short probe that the traced run ends with, so every traced run reports
every metric.  ``install`` wraps the names one module imports from another
so that nesting across modules is visible; ``Patches.restore`` undoes it.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

from mdwindow import chain, composite, measure, oracles, paths
from spans import Patches, Tracer, covered_ns, self_times, traced, traced_generator
from workloads import (DEFAULT, N_GRID, SMALL_ALPHA, SMALL_ALPHA_TOL, WINDOWS,
                       BoundaryMC, ExactCLI, rng_for, run_child, run_cli, stream_seed)

# iter_sums' default chunk, as criteria 6, 7 and 9 run it.  Its temporaries
# outgrow the L3 cache, unlike the workloads' smaller chunks.
DEFAULT_CHUNK = 1 << 16

# Figures measured on a 2-core machine when the roadmap was re-anchored,
# printed next to the traced-run numbers they correspond to.
REFERENCE = {
    "chain.alias_draw_ns": "58 ns/draw",
    "chain.stationary_draw_ns": "62 ns/draw",
    "paths.iter_sums_rewards_ns_per_step": "34.5 (3.45 s per 1e5 paths, n=1e3)",
    "paths.iter_sums_boundary_ns_per_step": "22.7 (2.27 s per 1e5 paths, n=1e3)",
    "paths.generate_path_us": "430 for generate_path+decompose, n=1e3",
    "oracles.autocov_ms_per_lag": "1.07 (216 ms for lags 0..200 at (0.3,0.05))",
    "cli.import_s": "1.49 s (0.70 s scipy.integrate, 0.66 s scipy.stats)",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(patches: Patches, tracer: Tracer) -> None:
    """Wrap the package names the workloads and probe reach."""

    def chunk_attrs(a, k, item):
        return {"paths": len(item["s_prime"]), "n": _arg(a, k, 1, "n"),
                "rewards": k.get("with_rewards", a[4] if len(a) > 4 else True)}

    for mod in (paths, oracles):
        patches.replace(mod, "iter_sums", traced_generator(
            tracer, "paths.iter_sums.next", vars(mod)["iter_sums"], chunk_attrs))
    for mod in (chain, paths):
        patches.replace(mod, "sample_stationary_levels", traced(
            tracer, "chain.sample_stationary_levels",
            vars(mod)["sample_stationary_levels"],
            lambda a, k, out: {"size": _arg(a, k, 2, "size")}))
    alias = chain.IntervalAlias
    patches.replace(alias, "draw", traced(
        tracer, "chain.IntervalAlias.draw", vars(alias)["draw"],
        lambda a, k, out: {"size": _arg(a, k, 2, "size")}))
    patches.replace(alias, "_tail_draw", traced(
        tracer, "chain.IntervalAlias._tail_draw", vars(alias)["_tail_draw"],
        lambda a, k, out: {"count": _arg(a, k, 2, "count")}))
    patches.replace(paths, "generate_path", traced(
        tracer, "paths.generate_path", vars(paths)["generate_path"],
        lambda a, k, out: {"excursions": len(out.signs)}))
    patches.replace(paths, "decompose", traced(
        tracer, "paths.decompose", vars(paths)["decompose"]))
    for fn in ("power_gap", "log1mexp"):
        patches.replace(measure, fn, traced(
            tracer, f"logspace.{fn}", vars(measure)[fn],
            lambda a, k, out: {"elements": int(np.size(a[0]))}))
    for fn in ("p1", "sigma", "build_measure_table"):
        patches.replace(measure, fn, traced(tracer, f"measure.{fn}", vars(measure)[fn]))
    for fn in ("mc_tail_curve", "autocovariance_exact", "boundary_tail_exact",
               "case1_upper", "case2_certificate"):
        patches.replace(oracles, fn, traced(tracer, f"oracles.{fn}", vars(oracles)[fn]))
    patches.replace(composite, "sample_composite_path", traced(
        tracer, "composite.sample_composite_path",
        vars(composite)["sample_composite_path"]))


# ---------------------------------------------------------------- metrics

def _per(key, scale=1.0):
    """Total span time per unit of attrs[key], in ns times `scale`."""
    def f(sel, _all):
        units = sum(s.attrs[key] for s in sel)
        return scale * sum(s.duration for s in sel) / units if units else None
    return f


def _median(scale):
    return lambda sel, _all: scale * statistics.median(s.duration for s in sel)


def _mean(scale):
    return lambda sel, _all: scale * statistics.fmean(s.duration for s in sel)


def _attr(key, how):
    return lambda sel, _all: how(s.attrs[key] for s in sel)


def _per_step(sel, _all):
    """Time the chunks cover per chain step.  The union, not the sum: the
    two shards' chunks interleave on the one CPU the run is pinned to."""
    start = min(s.start for s in sel)
    end = max(s.end for s in sel)
    covered = covered_ns(((s.start, s.end) for s in sel), start, end)
    return covered / sum(s.attrs["paths"] * s.attrs["n"] for s in sel)


def _tail_share(sel, all_spans):
    draws = {s.sid for s in sel}
    tail = sum(s.attrs["count"] for s in all_spans
               if s.name == "chain.IntervalAlias._tail_draw" and s.parent in draws)
    return tail / sum(s.attrs["size"] for s in sel)


def _self_share(sel, all_spans):
    ids = {s.sid for s in sel}
    family = [s for s in all_spans if s.sid in ids or s.parent in ids]
    own = self_times(family)
    return sum(own[s.sid] for s in sel) / sum(s.duration for s in sel)


def _names(*names):
    return names, lambda s: True


def _chunks(rewards=None, default_size=False):
    """iter_sums chunks, with or without rewards, of the default size or
    smaller."""
    return ("paths.iter_sums.next",), lambda s: (
        (rewards is None or s.attrs["rewards"] == rewards)
        and (s.attrs["paths"] == DEFAULT_CHUNK) == default_size)


MS, US, S = 1e-6, 1e-3, 1e-9

# metric -> ((span names, predicate), value from (selected spans, all spans))
METRICS = {
    "chain.stationary_draw_ns": (_names("chain.sample_stationary_levels"), _per("size")),
    "chain.alias_draw_ns": (_names("chain.IntervalAlias.draw"), _per("size")),
    "chain.alias_build_ms": (_names("chain.IntervalAlias"), _median(MS)),
    "chain.tail_bucket_share": (_names("chain.IntervalAlias.draw"), _tail_share),
    "chain.tail_bucket_base": (_names("chain.IntervalAlias.draw"), _attr("size", sum)),
    "chain.step_ns": (_names("chain.step"), _per("steps")),
    "paths.iter_sums_boundary_ns_per_step": (_chunks(rewards=False), _per_step),
    "paths.iter_sums_rewards_ns_per_step": (_chunks(rewards=True), _per_step),
    "paths.iter_sums_rewards_ns_per_step_65536": (
        _chunks(rewards=True, default_size=True), _per_step),
    "paths.chunk_ms": (_chunks(), _median(MS)),
    "paths.generate_path_us": (_names("paths.generate_path"), _median(US)),
    "paths.decompose_us": (_names("paths.decompose"), _median(US)),
    "paths.excursions_per_path": (_names("paths.generate_path"),
                                  _attr("excursions", statistics.fmean)),
    "composite.sample_composite_path_ms": (_names("composite.sample_composite_path"),
                                           _median(MS)),
    "measure.p1_ms": (_names("measure.p1"), _median(MS)),
    "measure.sigma_ms": (_names("measure.sigma"), _median(MS)),
    "measure.build_measure_table_ms": (_names("measure.build_measure_table"), _median(MS)),
    "logspace.power_gap_ns": (_names("logspace.power_gap"), _per("elements")),
    "logspace.log1mexp_ns": (_names("logspace.log1mexp"), _per("elements")),
    "oracles.autocov_ms_per_lag": (_names("oracles.autocovariance_exact"), _mean(MS)),
    "oracles.boundary_tail_exact_ms": (_names("oracles.boundary_tail_exact"), _median(MS)),
    "oracles.certificate_us": (_names("oracles.case1_upper", "oracles.case2_certificate"),
                               _median(US)),
    "oracles.mc_tail_curve_self_share": (_names("oracles.mc_tail_curve"), _self_share),
    "cli.import_s": (_names("cli.import"), _attr("import_s", statistics.median)),
    "cli.import_scipy_ms": (_names("cli.import"), _attr("scipy_ms", statistics.median)),
    "cli.params_s": (_names("cli.params"), _median(S)),
    "cli.rates_s": (_names("cli.rates"), _median(S)),
    "cli.simulate_s": (_names("cli.simulate"), _median(S)),
    "cli.simulate_peak_rss_mb": (_names("cli.simulate"), _attr("rss_mb", max)),
}


def _is_probe(span) -> bool:
    return span.op is not None and span.op.startswith("probe")


def _select(spans, metric, probe: bool) -> list:
    names, pred = METRICS[metric][0]
    return [s for s in spans
            if s.name in names and _is_probe(s) == probe and pred(s)]


def missing(spans) -> set:
    """Metrics the workload's own spans do not cover."""
    return {m for m in METRICS if not _select(spans, m, probe=False)}


def compute(spans) -> dict:
    """metric -> (value, source); source is 'workload' or 'probe'."""
    out = {}
    for metric, (_sel, fn) in METRICS.items():
        sel = _select(spans, metric, probe=False)
        source = "workload"
        if not sel:
            sel, source = _select(spans, metric, probe=True), "probe"
        value = fn(sel, spans) if sel else None
        out[metric] = (value, source)
    return out


# ---------------------------------------------------------------- probe

def _probe_draws(rt, g):
    # about 3e-6 of the small-alpha component's draws land in the tail
    # bucket (below 1e-9 at the default pair), hence 2^22 draws
    gen = chain.RngStream(stream_seed(g)).generator()
    for params in (DEFAULT, SMALL_ALPHA):
        alias = chain.interval_alias(params)
        for _ in range(4):
            alias.draw(gen, 1 << 20)
    for _ in range(4):
        chain.sample_stationary_levels(DEFAULT, gen, 1 << 16)


def _probe_alias_build(rt, g):
    for _ in range(3):
        with rt.tracer.span("chain.IntervalAlias"):
            chain.IntervalAlias(DEFAULT)


def _probe_step(rt, g):
    gen = chain.RngStream(stream_seed(g)).generator()
    steps = 5000
    for _ in range(3):
        state = chain.ORIGIN
        with rt.tracer.span("chain.step", steps=steps):
            for _ in range(steps):
                state = chain.step(DEFAULT, state, gen)


def _probe_engine(rt, g):
    for rewards in (False, True):
        gen = chain.RngStream(stream_seed(g)).generator()
        for _ in paths.iter_sums(DEFAULT, 1000, 8192, gen, with_rewards=rewards,
                                 chunk=2048):
            pass


def _probe_default_chunk(rt, g):
    # one chunk of the default size, with rewards, at n=1e3: about 3 s
    gen = chain.RngStream(stream_seed(g)).generator()
    for _ in paths.iter_sums(DEFAULT, 1000, DEFAULT_CHUNK, gen):
        pass


def _probe_paths(rt, g):
    gen = chain.RngStream(stream_seed(g)).generator()
    for _ in range(100):
        paths.decompose(paths.generate_path(DEFAULT, 1000, gen))


def _probe_composite(rt, g):
    rt.tracer.enabled = False
    comp = composite.build_composite(composite.WindowSet(WINDOWS), tol=SMALL_ALPHA_TOL)
    for params, _ in comp.components:
        chain.interval_alias(params)
    rt.tracer.enabled = True
    for _ in range(20):
        composite.sample_composite_path(comp, 1000, chain.RngStream(stream_seed(g)))


def _probe_measure(rt, g):
    for pr in ExactCLI(stream_seed(g)).inputs(0)["pairs"][:2]:
        P = measure.Params(pr["alpha"], pr["beta"])
        measure.p1(P)
        measure.sigma(P)
        measure.build_measure_table(P, 1 << 16)


def _probe_oracles(rt, g):
    for k in range(201):
        oracles.autocovariance_exact(DEFAULT, k)
    for x in (1.0, 5.0, 23.0):
        oracles.boundary_tail_exact(DEFAULT, 1000, x)
    for n in N_GRID:
        oracles.case2_certificate(DEFAULT, oracles.RateQuery(n, 0.32, 1.0))
        oracles.case1_upper(DEFAULT, oracles.RateQuery(n, 0.15, 1.0))


def _probe_mc(rt, g):
    wl = BoundaryMC(0)
    for _ in range(2):
        wl._curve(stream_seed(g))


def parse_importtime(text: str) -> tuple:
    """(seconds importing mdwindow at top level, ms spent in scipy's own
    modules) from ``python -X importtime`` output."""
    top_us = scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|", 2)
        if not own.strip().isdigit():
            continue  # the header line
        name = name[1:]
        module = name.strip()
        if name == module and module.split(".")[0] == "mdwindow":
            top_us += int(cumulative)
        if module.split(".")[0] == "scipy":
            scipy_us += int(own)
    return top_us * 1e-6, scipy_us * 1e-3


def _probe_import(rt, g):
    cmd = [sys.executable, "-X", "importtime", "-c", "import mdwindow.cli"]
    with rt.tracer.span("cli.import") as span:
        rc, _, text = run_child(cmd, rt.env)
        span.attrs["import_s"], span.attrs["scipy_ms"] = parse_importtime(text)
    rt.check("probe: importing mdwindow.cli exits 0", lambda: rc == 0)


def _probe_cli(rt, g):
    pr = ExactCLI(stream_seed(g)).inputs(0)["pairs"][0]
    pair = ["--alpha", repr(pr["alpha"]), "--beta", repr(pr["beta"])]
    for name, args in (
            ("cli.params", ["params", *pair]),
            ("cli.rates", ["rates", *pair, "--n-grid", "1000000,1000000000000",
                           "--gamma-grid", f"{pr['gamma_below']!r},{pr['gamma_inside']!r}",
                           "--reps", "0"]),
            ("cli.simulate", ["simulate", *pair, "--n", "1000", "--reps", "2000",
                              "--seed", "1", "--shards", "2"])):
        out = run_cli(rt, name, args)
        rt.check(f"probe: mdwindow {args[0]} exits 0", lambda: out["rc"] == 0)


PROBES = (
    (("chain.stationary_draw_ns", "chain.alias_draw_ns", "chain.tail_bucket_share",
      "chain.tail_bucket_base"), _probe_draws),
    (("chain.alias_build_ms",), _probe_alias_build),
    (("chain.step_ns",), _probe_step),
    (("paths.iter_sums_boundary_ns_per_step", "paths.iter_sums_rewards_ns_per_step",
      "paths.chunk_ms"), _probe_engine),
    (("paths.iter_sums_rewards_ns_per_step_65536",), _probe_default_chunk),
    (("paths.generate_path_us", "paths.decompose_us", "paths.excursions_per_path"),
     _probe_paths),
    (("composite.sample_composite_path_ms",), _probe_composite),
    (("measure.p1_ms", "measure.sigma_ms", "measure.build_measure_table_ms",
      "logspace.power_gap_ns", "logspace.log1mexp_ns"), _probe_measure),
    (("oracles.autocov_ms_per_lag", "oracles.boundary_tail_exact_ms",
      "oracles.certificate_us"), _probe_oracles),
    (("oracles.mc_tail_curve_self_share",), _probe_mc),
    (("cli.import_s", "cli.import_scipy_ms"), _probe_import),
    (("cli.params_s", "cli.rates_s", "cli.simulate_s", "cli.simulate_peak_rss_mb"),
     _probe_cli),
)


def run_probe(rt, seed: int, needed: set) -> None:
    """Run, traced, each probe group that feeds a metric in `needed`."""
    for i, (metrics, fn) in enumerate(PROBES):
        if needed.isdisjoint(metrics):
            continue
        rt.tracer.op = f"probe:{fn.__name__}"
        fn(rt, rng_for(seed, "probe", i))
