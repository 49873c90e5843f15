"""mdwindow benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src``.
Workloads are in ``workloads.py``; their names, the metrics and their units
are read from ``BENCHMARK.json`` at the root of the checkout.  The untraced
run (``--trace 0``) reports the end-to-end metrics; the traced run reports
the per-layer ones.  Each run prints a readable report and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run is closed-loop: one op at a time, each started when the
previous one ends.

The run is pinned to one CPU.  End-to-end times are scaled to a reference
machine speed measured by a calibration op in the same run (see
CAL_REF_MS); the report also prints the times as measured.  On one CPU the
two shards of a Monte Carlo call take turns, so thread scaling and GIL
contention are not part of any figure.  The traced run
alternates untraced and traced rounds, reports their difference as
``trace.overhead_share`` and writes every span to
``.bench_spans/<workload>-<seed>.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
MIN_OPS = 110  # p90 needs at least ten samples beyond it
MAX_FAILURE_LINES = 20

# The shared 2-core machine drifts by +-15% within seconds and by more over
# an hour.  A fixed calibration op, run every CAL_EVERY_S between ops,
# measures that drift in the same run; each timed interval is reported at
# the speed where that op takes CAL_REF_MS, judged by the median of the
# CAL_NEAR calibration ops nearest to it in time.
CAL_REF_MS = 2.5
CAL_EVERY_S = 0.1
CAL_NEAR = 4
# 1024 doubles: with its temporaries the op's data stays within L1 and L2,
# and an untimed pass loads it before the timed one, so the op's time does
# not depend on what the op before it left in the caches.
_CAL_DATA = np.random.default_rng(0).random(1 << 10)


def _calibration_work() -> int:
    acc = 0
    for _ in range(40):
        x = np.sqrt(np.cumsum(_CAL_DATA)) * np.sort(_CAL_DATA)
        acc += int(x.size)
    for i in range(15000):
        acc += i * i % 7
    return acc


def calibration_op() -> float:
    """Fixed work that uses no package code: NumPy passes over an 8 KiB
    array and an interpreter loop, timed after an untimed pass of the same
    work.  Returns its time in ms."""
    _calibration_work()
    t0 = time.perf_counter_ns()
    _calibration_work()
    return (time.perf_counter_ns() - t0) / 1e6


class Runner:
    """Times ops, runs their checks and counts failures."""

    def __init__(self, tracer, env: dict):
        self.tracer = tracer
        self.env = env
        self.latencies: list[int] = []
        self.kinds: list[str] = []
        self.paths = 0
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.round_ns = 0
        self.child_peak_mb = 0.0
        self.op_mid: list[int] = []
        self.cal: list[tuple[int, float]] = []  # (perf_counter_ns, ms)
        self._ids = itertools.count()

    def calibrate(self) -> None:
        self.cal.append((time.perf_counter_ns(), calibration_op()))

    def calibrate_if_due(self) -> None:
        if time.perf_counter_ns() - self.cal[-1][0] >= CAL_EVERY_S * 1e9:
            self.calibrate()

    def scales(self, at_ns) -> np.ndarray:
        """CAL_REF_MS over the median of the CAL_NEAR calibration ops
        nearest in time to each instant of at_ns."""
        t = np.array([c[0] for c in self.cal])
        ms = np.array([c[1] for c in self.cal])
        return np.array([CAL_REF_MS / np.median(ms[np.argsort(np.abs(t - x))[:CAL_NEAR]])
                         for x in at_ns])

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= MAX_FAILURE_LINES:
            print(f"# FAILED {what}: {detail}", file=sys.stderr)

    def op(self, kind: str, fn, check, paths: int = 0, steps: int = 0):
        """Time fn(); then run check(result) untimed.  Returns the result,
        or None if fn raised."""
        self.attempted += 1
        self.tracer.op = f"{kind}#{next(self._ids)}"
        span = self.tracer.start("op." + kind)
        t0 = time.perf_counter_ns()
        try:
            out = fn()
        except Exception as exc:  # a failing op is counted, the run goes on
            self.tracer.finish(span)
            self.tracer.op = None
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter_ns() - t0
        self.tracer.finish(span)
        self.tracer.op = None
        self.latencies.append(dt)
        self.op_mid.append(t0 + dt // 2)
        self.kinds.append(kind)
        self.round_ns += dt
        self.paths += paths
        self.steps += steps
        self.check(kind, lambda: check(out), "check failed")
        self.calibrate_if_due()
        return out

    def check(self, name: str, fn, detail: str = "") -> None:
        """A correctness check that is not timed; counts as one op."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self._fail(name, detail)


def machine() -> dict:
    """What a result depends on; bench/README.md adds the CPU model and
    cache sizes of the machine the bounds were set on."""
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(np.random.default_rng().bit_generator).__name__,
        "commit": commit,
    }


def measure_setup(workload: str, rt: Runner) -> tuple:
    """Median set-up time over fresh processes, one at a time, with
    calibration ops before and after each: (scaled, as measured)."""
    from workloads import run_child

    times, mids = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            rt.calibrate()
        t0 = time.perf_counter_ns()
        rc, out, _err = run_child([sys.executable, str(BENCH / "fresh.py"), workload],
                                  rt.env)
        if rc != 0:
            raise RuntimeError(f"set-up process for {workload} exited with {rc}")
        mids.append((t0 + time.perf_counter_ns()) // 2)
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    for _ in range(5):
        rt.calibrate()
    return (float(np.median(np.array(times) * rt.scales(mids))),
            statistics.median(times))


def run(args) -> int:
    src = ROOT / "src"
    if not (src / "mdwindow" / "__init__.py").is_file():
        print(f"error: no mdwindow package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mdwindow

    if Path(mdwindow.__file__).resolve().parent != (src / "mdwindow").resolve():
        print(f"error: mdwindow imported from {mdwindow.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import layers
    from spans import Patches, Tracer, self_times
    from workloads import WORKLOADS, child_env

    # One CPU for the whole run, children included.  With both vCPUs in use
    # a disturbance of either one stalls the sharded Monte Carlo ops: over
    # six interleaved runs the quartile spread of boundary_mc's op_p50_ms
    # was 0.38 on two CPUs and 0.03 on one.  It also keeps the calibration
    # op on the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracing = bool(args.trace)
    tracer = Tracer()
    rt = Runner(tracer, child_env())
    for _ in range(5):
        calibration_op()  # warm-up, not kept
    setup_s = None if tracing else measure_setup(args.workload, rt)
    rt.calibrate()
    wl = WORKLOADS[args.workload](args.seed)
    wl.warm(rt)

    patches = Patches()
    rounds = {False: [], True: []}
    start = time.perf_counter()
    for r in itertools.count():
        traced = tracing and r % 2 == 1
        if traced:
            layers.install(patches, tracer)
            tracer.enabled = True
        rt.round_ns = 0
        try:
            wl.round(rt, r)
        finally:
            tracer.enabled = False
            patches.restore()
        rounds[traced].append(rt.round_ns)
        elapsed = time.perf_counter() - start
        enough = (len(rt.latencies) >= MIN_OPS and wl.pooled()
                  and (not tracing or rounds[True]))
        if (elapsed >= args.seconds and enough) or elapsed >= 2 * args.seconds + 30:
            break
    wl.finish(rt)

    lat_ms = np.array(rt.latencies) / 1e6
    busy_s = lat_ms.sum() / 1e3
    report = [
        f"# mdwindow benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        "# machine " + json.dumps(machine()),
        f"# rounds untraced={len(rounds[False])} traced={len(rounds[True])}, "
        f"ops timed={lat_ms.size}, wall {elapsed:.2f} s",
    ]
    cal = statistics.median(c[1] for c in rt.cal)
    report.append(f"# calibration op: median {cal:.4f} ms over {len(rt.cal)}; "
                  f"end-to-end times are scaled to the reference speed "
                  f"({CAL_REF_MS} ms) by the {CAL_NEAR} calibration ops nearest to each")
    for kind in dict.fromkeys(rt.kinds):
        sel = lat_ms[np.array(rt.kinds) == kind]
        report.append(f"#   op {kind:<15} n={sel.size:<6} p50 {np.median(sel):.4f} ms")
    report.append(f"failed_op_ratio {rt.failed / rt.attempted:.6g} "
                  f"(base: {rt.failed} failed of {rt.attempted} attempted ops and checks)")
    if rt.paths:
        per_s = rt.steps / busy_s
        report.append(f"paths_per_s {rt.paths / busy_s:.6g} 1/s (base: {rt.paths} paths)")
        report.append(f"chain_steps_per_s {per_s:.6g} 1/s "
                      f"(= {per_s * 60:.4g} chain steps per minute)")

    metrics = {}
    if tracing:
        spans = tracer.spans
        needed = layers.missing(spans)
        if needed:
            layers.install(patches, tracer)
            tracer.enabled = True
            try:
                layers.run_probe(rt, args.seed, needed)
            finally:
                tracer.enabled = False
                patches.restore()
        write_spans(tracer.spans, ROOT / ".bench_spans" / f"{args.workload}-{args.seed}.jsonl")
        values = layers.compute(tracer.spans)
        overhead = (statistics.median(rounds[True]) / statistics.median(rounds[False])
                    - 1.0)
        values["trace.overhead_share"] = (overhead, "traced vs untraced rounds")
        values["machine.calibration_ms"] = (cal, "calibration ops")
        report.append(f"# spans recorded: {len(tracer.spans)}; largest self times:")
        own = self_times(tracer.spans)
        by_name = {}
        for span in tracer.spans:
            by_name[span.name] = by_name.get(span.name, 0) + own[span.sid]
        for name, ns in sorted(by_name.items(), key=lambda kv: -kv[1])[:8]:
            report.append(f"#   {name:<40} {ns / 1e9:9.3f} s")
        for entry in SPEC["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            value, source = values[name]
            if value is None:
                print(f"error: no spans for per-layer metric {name}", file=sys.stderr)
                return 1
            metrics[name] = {"value": float(value), "unit": unit}
            ref = layers.REFERENCE.get(name)
            report.append(f"{name} {value:.6g} {unit} (from {source})"
                          + (f" [re-anchor: {ref}]" if ref else ""))
    else:
        def times(lat, setup):
            return {"setup_s": setup,
                    "wall_s": lat.sum() / 1e3 / len(rounds[False]),
                    "op_p50_ms": float(np.percentile(lat, 50)),
                    "op_p90_ms": float(np.percentile(lat, 90))}

        raw = times(lat_ms, setup_s[1])
        values = times(lat_ms * rt.scales(rt.op_mid), setup_s[0])
        # the CLI runs of exact_cli add the largest child, as they run one
        # at a time; the set-up processes are not the workload's
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                                 + rt.child_peak_mb)
        for entry in SPEC["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            metrics[name] = {"value": float(values[name]), "unit": unit}
            extra = f" (n={lat_ms.size} ops)" if name.startswith("op_p") else ""
            if name in raw:
                extra += f" (measured {raw[name]:.6g} {unit})"
            report.append(f"{name} {values[name]:.6g} {unit}{extra}")

    print("\n".join(report))
    print(json.dumps({"correct": rt.failed == 0, "attempted": rt.attempted,
                      "failed": rt.failed, "metrics": metrics}))
    return 0


def write_spans(spans, path: Path) -> None:
    """All spans of the traced run as JSON lines, with their self times."""
    from spans import self_times

    own = self_times(spans)
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "parent": s.parent, "name": s.name, "op": s.op,
                "start_ns": s.start, "end_ns": s.end, "self_ns": own[s.sid],
                "attrs": s.attrs}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
