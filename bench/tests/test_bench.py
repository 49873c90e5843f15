"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
from spans import Patches, Span, Tracer, covered_ns, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_generates_identical_inputs(name):
    cls = WORKLOADS[name]
    first = [cls(7).inputs(r) for r in range(3)]
    again = [cls(7).inputs(r) for r in range(3)]
    other = [cls(8).inputs(r) for r in range(3)]
    assert _same(first, again)
    assert not _same(first, other)


def test_benchmark_json_names_only_what_the_runner_provides():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= WORKLOADS.keys()
    computed = set(layers.METRICS) | {"trace.overhead_share", "machine.calibration_ms"}
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_each_interval_is_scaled_by_the_calibration_ops_nearest_to_it():
    import run

    rt = run.Runner(Tracer(), {})
    slow = run.CAL_REF_MS * 2
    rt.cal = [(t * 10**9, run.CAL_REF_MS) for t in range(4)]
    rt.cal += [(t * 10**9, slow) for t in range(10, 14)]
    assert rt.scales([1.5e9, 11.5e9, 6.5e9]) == pytest.approx([1.0, 0.5, 2 / 3])


def test_exact_cli_pairs_are_distinct_and_valid():
    wl = WORKLOADS["exact_cli"](3)
    pairs = [p for r in range(5) for p in wl.inputs(r)["pairs"]]
    assert len({(p["alpha"], p["beta"]) for p in pairs}) == len(pairs)
    for p in pairs:
        a, b = p["alpha"], p["beta"]
        u, v = a / (2 * (1 - a - 2 * b)), 0.5 - 2 * b
        assert a + 2 * b < 0.5
        assert p["gamma_below"] < u < p["gamma_inside"] < v
        assert p["thresholds"] == sorted(p["thresholds"])


def _span(sid, parent, start, end):
    return Span(sid, parent, f"s{sid}", None, start, end)


def test_covered_ns_merges_and_clips():
    assert covered_ns([(10, 40), (30, 60), (90, 120)], 0, 100) == 60
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(5, 8), (150, 160)], 10, 100) == 0


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),    # overlaps span 3: the union is charged once
        _span(3, 1, 30, 60),
        _span(4, 2, 15, 20),
        _span(5, 1, 90, 120),   # runs past its parent: clipped at 100
        _span(6, None, 200, 210),
    ]
    own = self_times(spans)
    assert own == {1: 40, 2: 25, 3: 30, 4: 5, 5: 30, 6: 10}


def test_spans_on_worker_threads_nest_under_the_open_main_span():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer") as outer:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda i: tracer.finish(tracer.start(f"inner{i}")), range(4)))
    inner = [s for s in tracer.spans if s.name.startswith("inner")]
    assert len(inner) == 4 and all(s.parent == outer.sid for s in inner)


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("x") as span:
        assert span is None
    assert tracer.finish(tracer.start("y")) is None
    assert tracer.spans == []


def _snapshot() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "mdwindow" or name.startswith("mdwindow."):
            snap[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(value))
    return snap


def test_trace_wrappers_leave_every_mdwindow_attribute_as_it_was():
    import mdwindow.cli  # noqa: F401  (every module of the package)

    before = _snapshot()
    patches = Patches()
    layers.install(patches, Tracer())
    during = _snapshot()
    assert during["mdwindow.oracles"]["iter_sums"] is not before["mdwindow.oracles"]["iter_sums"]
    assert (during["mdwindow.chain.IntervalAlias"]["draw"]
            is not before["mdwindow.chain.IntervalAlias"]["draw"])
    patches.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        changed = [a for a in attrs if after[key][a] is not attrs[a]]
        assert not changed, f"{key}: {changed}"


def test_traced_run_gives_the_same_results_and_records_counts():
    from mdwindow import chain, paths
    from workloads import DEFAULT

    plain = paths.generate_path(DEFAULT, 300, chain.RngStream(5))
    chunk = next(paths.iter_sums(DEFAULT, 300, 64, chain.RngStream(6).generator(),
                                 with_rewards=False))
    tracer, patches = Tracer(), Patches()
    tracer.enabled = True
    layers.install(patches, tracer)
    try:
        path = paths.generate_path(DEFAULT, 300, chain.RngStream(5))
        again = next(paths.iter_sums(DEFAULT, 300, 64, chain.RngStream(6).generator(),
                                     with_rewards=False))
    finally:
        patches.restore()
    assert np.array_equal(plain.x, path.x) and plain.signs == path.signs
    assert all(np.array_equal(chunk[k], again[k]) for k in chunk)
    names = {s.name for s in tracer.spans}
    assert {"paths.generate_path", "chain.sample_stationary_levels",
            "chain.IntervalAlias.draw", "paths.iter_sums.next"} <= names
    [nxt] = [s for s in tracer.spans if s.name == "paths.iter_sums.next"]
    assert nxt.attrs == {"paths": 64, "n": 300, "rewards": False}
    [gen] = [s for s in tracer.spans if s.name == "paths.generate_path"]
    assert gen.attrs == {"excursions": len(plain.signs)}


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       400 |        500 |     scipy",
        "import time:        50 |        550 |   mdwindow.measure",
        "import time:        20 |       1400 | mdwindow",
        "import time:        10 |       1410 | mdwindow.cli",
        "import time:         5 |          5 | encodings",
    ])
    top_s, scipy_ms = layers.parse_importtime(text)
    assert top_s == pytest.approx(2810e-6)
    assert scipy_ms == pytest.approx(0.5)
