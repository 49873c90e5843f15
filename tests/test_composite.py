import math

import numpy as np
import pytest

from mdwindow import (
    ParameterError,
    RateQuery,
    RngStream,
    WindowBoundaryError,
    WindowSet,
    boundary_sum_sup,
    build_composite,
    case1_upper,
    case2_certificate,
    generate_path,
    iter_sums,
    predicted_rate,
    sample_composite_path,
    window_from_params,
)

WINDOWS = WindowSet([(0.1, 0.15), (0.25, 0.4)])


# ----------------------------------------------------------------- windows

def test_window_set_validation():
    with pytest.raises(ParameterError):
        WindowSet([])
    with pytest.raises(ParameterError):
        WindowSet([(0.2, 0.2)])
    with pytest.raises(ParameterError):
        WindowSet([(0.1, 0.3), (0.2, 0.4)])  # overlap
    with pytest.raises(ParameterError):
        WindowSet([(0.1, 0.2), (0.2, 0.3)])  # touching
    with pytest.raises(ParameterError):
        WindowSet([(0.0, 0.2)])
    with pytest.raises(ParameterError):
        WindowSet([(0.2, 0.55)])
    ws = WindowSet([(0.1, 0.2), (0.3, 0.5)])
    assert ws.windows == ((0.1, 0.2), (0.3, 0.5))


def test_window_set_locate():
    assert WINDOWS.locate(0.12) == "inside"
    assert WINDOWS.locate(0.3) == "inside"
    assert WINDOWS.locate(0.2) == "outside"
    assert WINDOWS.locate(0.45) == "outside"
    assert WINDOWS.locate(0.15) == "boundary"
    assert WINDOWS.locate(0.25) == "boundary"


# ----------------------------------------------------------------- building

def test_build_composite_single_window_params():
    comp = build_composite(WindowSet([(0.25, 0.40)]), tol=1e-10)
    (params, stats), = comp.components
    assert params.alpha == pytest.approx(0.3, abs=1e-12)
    assert params.beta == pytest.approx(0.05, abs=1e-12)
    assert comp.combined_sigma == stats.sigma


def test_build_composite_percomponent_roundtrip():
    comp = build_composite(WINDOWS, tol=1e-5)
    for (params, _), (u, v) in zip(comp.components, WINDOWS.windows):
        w = window_from_params(params)
        assert abs(w.u - u) < 1e-12 and abs(w.v - v) < 1e-12


def test_build_composite_sigma_quadrature():
    comp = build_composite(WINDOWS, tol=1e-5)
    var = sum(stats.sigma ** 2 for _, stats in comp.components)
    assert comp.combined_sigma ** 2 == pytest.approx(var, rel=1e-12)


# ----------------------------------------------------------------- sampling

def test_sample_composite_path_deterministic_and_bounded():
    comp = build_composite(WINDOWS, tol=1e-4)
    a = sample_composite_path(comp, 500, RngStream(7))
    b = sample_composite_path(comp, 500, RngStream(7))
    assert np.array_equal(a, b)
    cap = len(comp.components) / comp.combined_sigma
    assert np.all(np.abs(a) <= cap + 1e-12)


def test_component_paths_uncorrelated():
    comp = build_composite(WINDOWS, tol=1e-4)
    streams = [RngStream(11).substream(i) for i in range(2)]
    n = 20000
    x1 = generate_path(comp.components[0][0], n, streams[0]).x
    x2 = generate_path(comp.components[1][0], n, streams[1]).x
    cross = float((x1 * x2).mean())
    se = float(np.std(x1 * x2, ddof=1)) / math.sqrt(n)
    assert abs(cross) < 3.0 * se + 1e-9
    # and the composite is their scaled sum
    total = sample_composite_path(comp, n, RngStream(11))
    assert np.allclose(total, (x1 + x2) / comp.combined_sigma)


def test_normalized_middle_sums_have_unit_variance_rate():
    # Var(sum of component middle terms) / (n sigma_c^2) -> 1
    windows = WindowSet([(0.2, 0.3), (0.35, 0.45)])  # fast-decaying components
    comp = build_composite(windows, tol=1e-8)
    n, reps = 10 ** 4, 20000
    var = 0.0
    for i, (params, _) in enumerate(comp.components):
        gen = RngStream(13, 100 + i).generator()
        tildes = np.concatenate(
            [ch["s_tilde"] for ch in iter_sums(params, n, reps, gen)]
        )
        var += float(tildes.var())
    ratio = var / (n * comp.combined_sigma ** 2)
    assert abs(ratio - 1.0) < 0.05


# ------------------------------------------------------------------- rates

def test_composite_predicted_rate_piecewise():
    assert predicted_rate(WINDOWS, 0.3, 1.0) == 0.0
    assert predicted_rate(WINDOWS, 0.12, 1.0) == 0.0
    assert predicted_rate(WINDOWS, 0.2, 1.0) == -0.5  # gap
    assert predicted_rate(WINDOWS, 0.05, 2.0) == -2.0
    assert predicted_rate(WINDOWS, 0.45, 1.0) == -0.5


def test_composite_predicted_rate_boundary_error():
    with pytest.raises(WindowBoundaryError):
        predicted_rate(WINDOWS, 0.15, 1.0)


def test_per_component_certificates_and_negligibility():
    comp = build_composite(WINDOWS, tol=1e-4)
    (p1_, _), (p2_, _) = comp.components
    ns = (10 ** 8, 10 ** 10, 10 ** 12)

    # gamma inside the second window: its certificate rates climb to zero,
    # while the first component is in its impossible regime (gamma > v_1)
    gamma = 0.3
    rates = [case2_certificate(p2_, RateQuery(n, gamma, 1.0)).rate for n in ns]
    assert all(a < b for a, b in zip(rates, rates[1:])) and rates[-1] > -1.0
    for n in ns:
        threshold = RateQuery(n, gamma, 1.0).threshold
        assert threshold > boundary_sum_sup(p1_, n)  # probability exactly 0

    # gamma inside the first window: certificate from component one, while
    # component two sits below its window and its upper bound dives
    gamma = 0.12
    rates = [case2_certificate(p1_, RateQuery(n, gamma, 1.0)).rate for n in ns]
    assert all(a < b for a, b in zip(rates, rates[1:])) and rates[-1] > -1.0
    upper = [case1_upper(p2_, RateQuery(n, gamma, 1.0)).rate for n in ns]
    assert all(a > b for a, b in zip(upper, upper[1:]))
    assert upper[-1] < -50.0
