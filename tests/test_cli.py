import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

BASE = [sys.executable, "-m", "mdwindow.cli"]


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    env.pop("MDWINDOW_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_cli_import_loads_no_scipy():
    # SciPy is a test dependency only; the package must not pull it in
    code = "import sys, mdwindow.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# -------------------------------------------------------------------- params

def test_params_basic_output():
    res = run_cli("params", "--alpha", "0.3", "--beta", "0.05")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header[:5] == ["component", "alpha", "beta", "u", "v"]
    row = dict(zip(header, rows[0]))
    assert float(row["u"]) == pytest.approx(0.25, abs=1e-12)
    assert float(row["v"]) == pytest.approx(0.40, abs=1e-12)
    assert float(row["mu_origin"]) == pytest.approx(1 - math.exp(-1), rel=1e-11)
    assert float(row["mean_interval"]) == pytest.approx(
        math.e / (math.e - 1), rel=1e-11
    )
    assert float(row["p1"]) > 0.4
    assert float(row["sigma"]) > 0.0


def test_params_from_windows_inverts_map():
    res = run_cli("params", "--windows", "0.25:0.4")
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    row = dict(zip(header, rows[0]))
    assert float(row["alpha"]) == pytest.approx(0.3, abs=1e-11)
    assert float(row["beta"]) == pytest.approx(0.05, abs=1e-11)


def test_params_invalid_exponents_exit_2():
    res = run_cli("params", "--alpha", "0.6", "--beta", "0.0")
    assert res.returncode == 2
    assert "alpha" in res.stderr


def test_params_requires_exactly_one_input_style():
    res = run_cli("params", "--alpha", "0.3", "--beta", "0.05", "--windows", "0.25:0.4")
    assert res.returncode == 2
    res = run_cli("params")
    assert res.returncode == 2
    res = run_cli("params", "--alpha", "0.3")
    assert res.returncode == 2
    assert "both" in res.stderr


def test_params_unreachable_tolerance_exit_3():
    # a small tail exponent cannot certify sigma to 1e-12 by summation
    res = run_cli("params", "--windows", "0.1:0.15", "--tol", "1e-12")
    assert res.returncode == 3
    assert "precision" in res.stderr.lower()


def test_params_tolerance_below_the_p1_bound_exit_3():
    # p1's error bound at (0.3, 0.05) is 1.58e-15: sigma certifies 1e-16,
    # p1 refuses it, and so does the command rather than clamp p1's tol
    res = run_cli("params", "--alpha", "0.3", "--beta", "0.05", "--tol", "1e-16")
    assert res.returncode == 3
    assert "p1 error bound" in res.stderr


def test_params_json_format():
    res = run_cli("params", "--alpha", "0.3", "--beta", "0.05", "--format", "json")
    doc = json.loads(res.stdout)
    assert set(doc) == {"config", "results"}
    assert doc["config"]["alpha"] == 0.3
    assert doc["results"][0]["u"] == pytest.approx(0.25, abs=1e-12)


# ------------------------------------------------------------------ simulate

def test_simulate_header_and_identity():
    res = run_cli(
        "simulate", "--alpha", "0.3", "--beta", "0.05",
        "--n", "200", "--reps", "50", "--seed", "5", "--shards", "3",
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == [
        "s_prime", "s_tilde", "s_dprime", "s_total", "a1", "b1", "an", "bn", "interior",
    ]
    assert len(rows) == 50
    for row in rows:
        r = dict(zip(header, row))
        total = float(r["s_prime"]) + float(r["s_tilde"]) + float(r["s_dprime"])
        assert total == pytest.approx(float(r["s_total"]), rel=1e-9, abs=1e-9)
        assert r["interior"] in ("true", "false")


def test_simulate_refuses_clamped_interval_draws_exit_3():
    # the window maps to alpha ~ 0.018, where 11% of stationary levels
    # would be clamped at 2^62
    res = run_cli("simulate", "--windows", "0.01:0.4", "--n", "100",
                  "--reps", "10", "--seed", "1")
    assert res.returncode == 3
    assert "clamped" in res.stderr
    assert res.stdout == ""


def test_simulate_byte_identical_reruns():
    args = ["simulate", "--alpha", "0.3", "--beta", "0.05",
            "--n", "150", "--reps", "80", "--seed", "9", "--shards", "4"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert hashlib.sha256(a.stdout.encode()).hexdigest() == hashlib.sha256(
        b.stdout.encode()
    ).hexdigest()


def test_simulate_seed_changes_output():
    args = ["simulate", "--alpha", "0.3", "--beta", "0.05",
            "--n", "150", "--reps", "80", "--shards", "4"]
    a = run_cli(*args, "--seed", "9")
    b = run_cli(*args, "--seed", "10")
    assert a.stdout != b.stdout


def test_simulate_env_seed_and_flag_priority():
    args = ["simulate", "--alpha", "0.3", "--beta", "0.05",
            "--n", "100", "--reps", "20"]
    via_env = run_cli(*args, env_extra={"MDWINDOW_SEED": "77"})
    via_flag = run_cli(*args, "--seed", "77")
    assert via_env.stdout == via_flag.stdout
    overridden = run_cli(*args, "--seed", "78", env_extra={"MDWINDOW_SEED": "77"})
    assert overridden.stdout != via_env.stdout


def test_simulate_missing_fields_exit_2():
    res = run_cli("simulate", "--alpha", "0.3", "--beta", "0.05")
    assert res.returncode == 2
    assert "reps" in res.stderr or "n" in res.stderr


# --------------------------------------------------------------------- rates

def test_rates_kinds_and_predictions():
    res = run_cli(
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "1e6,1e8", "--gamma-grid", "0.15,0.32,0.45", "--c", "1",
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    table = [dict(zip(header, r)) for r in rows]
    kinds = {(r["n"], r["gamma"], r["kind"]) for r in table}
    assert ("1000000", "0.15", "case1_upper") in kinds
    assert ("1000000", "0.32", "case2_lower") in kinds
    assert ("100000000", "0.32", "case2_lower") in kinds
    assert not any(k[2] == "case1_upper" and k[1] == "0.32" for k in kinds)
    for r in table:
        if r["kind"] == "gaussian_reference":
            assert float(r["rate"]) == -0.5
        if r["gamma"] == "0.32" and r["predicted_rate"]:
            assert float(r["predicted_rate"]) == 0.0
        if r["gamma"] in ("0.15", "0.45") and r["predicted_rate"]:
            assert float(r["predicted_rate"]) == -0.5
    # the certificate columns show the dichotomy along the n grid
    inside = [float(r["rate"]) for r in table if r["kind"] == "case2_lower"]
    below = [float(r["rate"]) for r in table if r["kind"] == "case1_upper"]
    assert inside[0] < inside[1] < 0.0
    assert below[0] > below[1]


def test_rates_bracket_empty_noted():
    res = run_cli(
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "8", "--gamma-grid", "0.32",
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    notes = [dict(zip(header, r))["note"] for r in rows]
    assert any(n.startswith("bracket_empty;min_n=") for n in notes)


def test_rates_boundary_gamma_noted():
    res = run_cli(
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "1e6", "--gamma-grid", "0.25",
    )
    header, rows = parse_csv(res.stdout)
    table = [dict(zip(header, r)) for r in rows]
    assert all(r["predicted_rate"] == "" for r in table)
    assert any(r["note"] == "window_boundary" for r in table)


def _rates_json(*args):
    """Exit code and JSON result rows of an in-process `rates` run."""
    from mdwindow import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["rates", *args, "--format", "json"])
    return code, (json.loads(out.getvalue())["results"] if code == 0 else None)


def test_rates_case2_without_usable_horizon_is_a_note():
    code, rows = _rates_json(*_PAIR, "--n-grid", "1000",
                             "--gamma-grid", "0.3,0.39999999999999", "--c", "1")
    assert code == 0
    certs = [(r["gamma"], r["kind"], r["note"]) for r in rows if r["kind"] != "gaussian_reference"]
    assert certs == [(0.3, "case2_lower", "c_n=464159;a_n=682;b_n=463477"),
                     (0.39999999999999, "case2_lower", "bracket_empty")]


def test_rates_case1_below_cutoff_is_a_note():
    code, rows = _rates_json(*_PAIR, "--n-grid", "1000", "--gamma-grid", "0.1,0.3",
                             "--c", "0.01")
    assert code == 0
    certs = [(r["gamma"], r["kind"], r["note"]) for r in rows if r["kind"] != "gaussian_reference"]
    assert certs == [(0.1, "case1_upper", "bracket_empty;min_n=6840"),
                     (0.3, "case2_lower", "c_n=464159;a_n=682;b_n=463477")]


def test_rates_windows_rows_follow_the_realized_window():
    # 0.1:0.15 realizes u = 0.10000000000000002 and v = 0.15000000000000002,
    # so 0.1 lies below the window and 0.15 inside it
    code, rows = _rates_json("--windows", "0.1:0.15", "--n-grid", "1e6",
                             "--gamma-grid", "0.1,0.15", "--c", "1")
    assert code == 0
    assert [(r["gamma"], r["kind"], r["predicted_rate"], r["note"]) for r in rows] == [
        (0.1, "gaussian_reference", -0.5, None),
        (0.1, "case1_upper", -0.5, None),
        (0.15, "gaussian_reference", 0.0, None),
        (0.15, "case2_lower", 0.0, "bracket_empty"),
    ]


def test_rates_csv_gamma_reads_back_as_given(capsys):
    # 0.39999999999999 printed to 12 digits would read as the endpoint v = 0.4
    from mdwindow import cli

    grid = [0.3, 0.39999999999999, 0.25000000000000006, 1 / 3, 0.15]
    assert cli.main(["rates", *_PAIR, "--n-grid", "1000,1e6",
                     "--gamma-grid", ",".join(map(repr, grid)), "--c", "1"]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    gammas = [float(r[header.index("gamma")]) for r in rows]
    assert list(dict.fromkeys(gammas)) == grid
    assert len(gammas) == len(rows) > 2 * len(grid)


def test_rates_refuses_monte_carlo_beyond_the_renewal_cap(capsys, monkeypatch):
    from mdwindow import cli
    from mdwindow.paths import _RENEWAL_CAP

    def no_mc(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the horizon check")

    def rates(n_grid, *extra):
        return cli.main(["rates", *_PAIR, "--n-grid", n_grid, "--gamma-grid", "0.15,0.3",
                         "--c", "0.2", *extra])

    monkeypatch.setattr(cli, "mc_tail_curve", no_mc)
    assert rates(f"200,{_RENEWAL_CAP + 1},400", "--reps", "2000", "--shards", "2") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: n_grid: ")
    assert str(_RENEWAL_CAP + 1) in err and str(_RENEWAL_CAP) in err
    # certificates alone take any horizon
    assert rates(f"200,{_RENEWAL_CAP + 1},400", "--reps", "0") == 0
    assert rates("200,400,1e12", "--reps", "0") == 0


@pytest.mark.parametrize("n", ["16777217", "1e19"])  # 2^24 + 1, and past int64
def test_simulate_refuses_a_horizon_beyond_the_monte_carlo_cap(n, capsys, monkeypatch):
    from mdwindow import cli
    from mdwindow.paths import _RENEWAL_CAP

    def no_mc(*args, **kwargs):
        raise AssertionError("simulation ran before the horizon check")

    monkeypatch.setattr(cli, "iter_sums", no_mc)
    assert cli.main(["simulate", *_PAIR, "--n", n, "--reps", "1"]) == 2
    out, err = capsys.readouterr()
    horizon = int(float(n))
    assert out == "" and err == (
        f"error: n: horizon {horizon} is beyond the Monte Carlo cap 2^24 = {_RENEWAL_CAP}\n"
    )


@pytest.mark.parametrize("gamma", ["0.24", "0.3"])
def test_rates_horizon_beyond_float_range_exit_3(gamma, capsys):
    from mdwindow import cli

    assert cli.main(["rates", *_PAIR, "--n-grid", "1e200", "--gamma-grid", gamma]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unreachable precision:") and "n=1e+200" in err


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["pair", "windows"]), st.floats(1e-3, 0.49), st.floats(0.0, 0.5),
    st.lists(st.integers(1, 10 ** 12), min_size=1, max_size=3, unique=True),
    st.floats(1e-3, 10.0), st.lists(st.floats(1e-3, 0.499), max_size=2),
)
@example("pair", 0.3, 0.05, [1000], 1.0, [0.3, 0.39999999999999])
@example("pair", 0.3, 0.05, [1000], 0.01, [0.1, 0.3])
@example("windows", 0.1, 0.15, [10 ** 6], 1.0, [])
def test_rates_rows_follow_the_pairs_window(style, x, y, ns, c, extra):
    # every point's rows follow WindowSet.locate on the pair's own window:
    # one reference, one certificate row inside or below (a certificate or
    # a bracket_empty note), a blank prediction exactly on the endpoints
    from mdwindow import (BracketEmptyError, Params, RateQuery, WindowSet, case1_upper,
                          case2_certificate, params_from_window, window_from_params)

    if style == "pair":
        assume(x + 2.0 * y < 0.5)
        params, given = Params(x, y), ()
        flags = ["--alpha", repr(x), "--beta", repr(y)]
    else:
        assume(x + 1e-3 < y)
        params, given = params_from_window(x, y), (x, y)
        flags = ["--windows", f"{x!r}:{y!r}"]
    w = window_from_params(params)
    gammas = [w.u - 1e-14, w.u, w.u + 1e-14, w.v - 1e-14, w.v, *given, *extra]
    gammas = list(dict.fromkeys(g for g in gammas if 0.0 < g < 0.5))
    code, rows = _rates_json(*flags, "--n-grid", ",".join(map(str, ns)),
                             "--gamma-grid", ",".join(map(repr, gammas)),
                             "--c", repr(c), "--reps", "0")
    assert code == 0
    points = {}
    for r in rows:
        points.setdefault((r["n"], r["gamma"]), []).append(r)
    assert list(points) == [(n, g) for n in ns for g in gammas]
    windows = WindowSet([(w.u, w.v)])
    for (n, gamma), point in points.items():
        where = windows.locate(gamma)
        assert [r["kind"] for r in point][:1] == ["gaussian_reference"]
        kinds = [r["kind"] for r in point[1:]]
        assert kinds == {"inside": ["case2_lower"], "below": ["case1_upper"]}.get(where, [])
        for r in point:
            assert (r["predicted_rate"] is None) == (r["note"] == "window_boundary") \
                == (where == "boundary")
        for r in point[1:]:
            if r["log_prob"] is None and r["note"] != "bracket_empty":
                m = int(r["note"].removeprefix("bracket_empty;min_n="))
                certify = {"case1_upper": case1_upper, "case2_lower": case2_certificate}[r["kind"]]
                assert certify(params, RateQuery(m, gamma, c)).log_prob < 0.0
                with pytest.raises(BracketEmptyError):
                    certify(params, RateQuery(m - 1, gamma, c))


def test_rates_with_mc_rows():
    res = run_cli(
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "200", "--gamma-grid", "0.3", "--c", "0.2",
        "--reps", "20000", "--seed", "3", "--shards", "2",
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    mc = [dict(zip(header, r)) for r in rows if r[2] == "mc"]
    assert len(mc) == 1
    r = mc[0]
    assert 0.0 <= float(r["ci_low"]) <= float(r["p_hat"]) <= float(r["ci_high"]) <= 1.0
    if r["log_prob"]:
        assert float(r["log_prob"]) == pytest.approx(
            math.log(float(r["p_hat"])), rel=1e-9
        )


def test_rates_mc_rows_match_one_call_per_point():
    # one set of paths per horizon serves all its thresholds: the rows equal
    # those of a separate mc_tail_curve call per (n, gamma)
    from mdwindow import Params, RateQuery, RngStream, mc_tail_curve
    from mdwindow.cli import _column

    res = run_cli(
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "200,400", "--gamma-grid", "0.15,0.3,0.45", "--c", "0.2",
        "--reps", "3000", "--seed", "5", "--shards", "2",
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    mc = [dict(zip(header, r)) for r in rows if r[2] == "mc"]
    assert len(mc) == 6
    for row in mc:
        n, gamma = int(row["n"]), float(row["gamma"])
        est = mc_tail_curve(
            Params(0.3, 0.05), n, {"total": [RateQuery(n, gamma, 0.2).threshold]},
            3000, 0.999, RngStream(seed=5), 2,
        )["total"][0]
        assert [row["p_hat"], row["ci_low"], row["ci_high"]] == _column(
            [est.p_hat, est.ci_low, est.ci_high]
        )


_CELL = st.one_of(st.floats(), st.integers(), st.booleans(), st.sampled_from(["", "x"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELL, max_size=8), st.sampled_from([float, int, bool, str, None]))
def test_a_column_is_formatted_as_its_cells(cells, kind):
    # a column, of one type (kind) or mixed (None), reads as its cells
    # formatted one at a time, and each type keeps its text
    from mdwindow.cli import _column

    if kind is not None:
        cells = [c for c in cells if type(c) is kind]
    assert _column(cells) == [_column([c])[0] for c in cells]
    floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, -1e-300]
    texts = ["0", "0", "nan", "inf", "-inf", "0.3", "-1e-300"]
    assert _column(floats) == texts
    assert _column([True, False]) == ["true", "false"]
    assert _column(["combined", 2 ** 70, True, "", *floats]) == [
        "combined", str(2 ** 70), "true", "", *texts]


_JSON_CELL = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True),
       st.integers(0, 3), st.data())
def test_json_output_is_the_indented_dump_of_its_document(header, rows, data):
    # the JSON document is laid out by hand, each record through the C
    # encoder: its bytes are those of json.dumps(..., indent=2), with
    # blanks as null, NaN, nested config values and empty results included
    from mdwindow.cli import _emit

    cells = st.lists(_JSON_CELL, min_size=rows, max_size=rows)
    columns = [data.draw(cells) for _ in header]
    cfg = {"output_format": "json", "shards": 2, "n": 10, "empty": {},
           "grid": [1.5, math.nan, None, {"b": [], "a": "\u00e9"}]}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(cfg, header, columns, None)
    results = [{k: (None if v == "" else v) for k, v in zip(header, row)}
               for row in zip(*columns)]
    doc = {"config": {k: v for k, v in cfg.items() if k != "shards"}, "results": results}
    assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_rates_byte_identical_reruns():
    args = [
        "rates", "--alpha", "0.3", "--beta", "0.05",
        "--n-grid", "300", "--gamma-grid", "0.3", "--c", "0.3",
        "--reps", "10000", "--seed", "4", "--shards", "3",
    ]
    assert run_cli(*args).stdout == run_cli(*args).stdout


# ------------------------------------------------------------------- autocov

def test_autocov_columns_and_bounds():
    res = run_cli(
        "autocov", "--alpha", "0.3", "--beta", "0.05",
        "--k-max", "4", "--length", "30000", "--seed", "2",
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header == ["k", "r_exact", "dominance_bound", "r_empirical", "se"]
    assert len(rows) == 5
    table = [dict(zip(header, r)) for r in rows]
    assert table[0]["dominance_bound"] == ""
    assert float(table[0]["r_exact"]) > 0.0
    for r in table[1:]:
        assert float(r["r_exact"]) <= float(r["dominance_bound"])
    for r in table:
        assert abs(float(r["r_empirical"]) - float(r["r_exact"])) < 5 * float(r["se"])


def test_autocov_takes_a_product_per_batch_at_every_lag():
    # the standard error takes 100 batch means of each lag's products; a
    # path just long enough gives a finite se with no warning (warnings are
    # errors here), and a shorter one exits 2 (test_malformed_input_exit_2)
    res = run_cli("autocov", "--alpha", "0.3", "--beta", "0.05", "--k-max", "2",
                  "--length", "102", env_extra={"PYTHONWARNINGS": "error"})
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert len(rows) == 3
    assert all(math.isfinite(float(dict(zip(header, r))["se"])) for r in rows)


# ------------------------------------------------------------------- general

def test_csv_roundtrip_lossless():
    res = run_cli(
        "simulate", "--alpha", "0.3", "--beta", "0.05",
        "--n", "100", "--reps", "30", "--seed", "11",
    )
    header, rows = parse_csv(res.stdout)
    float_cols = ("s_prime", "s_tilde", "s_dprime", "s_total")
    for row in rows:
        r = dict(zip(header, row))
        for col in float_cols:
            text = r[col]
            assert format(float(text), ".12g") == text


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "alpha": 0.3, "beta": 0.05, "n": 100, "reps": 20, "seed": 1,
    }))
    base = run_cli("simulate", "--config", str(cfg))
    assert base.returncode == 0
    override = run_cli("simulate", "--config", str(cfg), "--seed", "2")
    assert override.returncode == 0
    assert base.stdout != override.stdout
    same = run_cli("simulate", "--config", str(cfg), "--seed", "1")
    assert same.stdout == base.stdout


def test_config_file_unknown_field_exit_2(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.3, "beta": 0.05, "bogus": 1}))
    res = run_cli("params", "--config", str(cfg))
    assert res.returncode == 2
    assert "bogus" in res.stderr


_PAIR = ("--alpha", "0.3", "--beta", "0.05")


@pytest.mark.parametrize(
    "args, config, field",
    [
        (("simulate", *_PAIR, "--n", "nan", "--reps", "5"), None, "n"),
        (("simulate", *_PAIR, "--n", "inf", "--reps", "5"), None, "n"),
        (("simulate", *_PAIR, "--n", "10", "--reps", "5", "--seed", "-1"), None, "seed"),
        (("rates", *_PAIR, "--n-grid", "abc", "--gamma-grid", "0.3"), None, "n_grid"),
        (("rates", *_PAIR, "--n-grid", "100", "--gamma-grid", "x"), None, "gamma_grid"),
        (("params", "--windows", "0.1"), None, "windows"),
        (("autocov", *_PAIR, "--k-max", "-3"), None, "k_max"),
        (("params",), {"alpha": 0.3, "beta": 0.05, "shards": "2"}, "shards"),
        (("params",), {"alpha": "x", "beta": 0.05}, "alpha"),
        (("params", *_PAIR, "--tol", "inf"), None, "tol"),
        (("autocov", *_PAIR, "--tol", "nan"), None, "tol"),
        (("simulate", *_PAIR, "--n", "100.7", "--reps", "2"), None, "n"),
        (("rates", *_PAIR, "--n-grid", "1000000.5", "--gamma-grid", "0.3"), None, "n_grid"),
        (("simulate", *_PAIR, "--n", "10"), {"reps": True}, "reps"),
        (("autocov", *_PAIR), {"k_max": 2.5}, "k_max"),
        (("autocov", *_PAIR, "--k-max", "2", "--length", "60"), None, "length"),
        (("params", *_PAIR, "--out", "/nonexistent/dir/x.csv"), None,
         "out: cannot write /nonexistent/dir/x.csv: "),
        (("simulate", *_PAIR, "--n", "0", "--reps", "5"), None, "n: must be >= 1, got 0"),
    ],
    ids=["n-nan", "n-inf", "seed", "n-grid", "gamma-grid", "windows", "k-max",
         "config-shards", "config-alpha", "tol-inf", "tol-nan", "n-fraction",
         "n-grid-fraction", "config-reps-bool", "config-k-max-fraction",
         "autocov-short-length", "out-unwritable", "simulate-n-zero"],
)
def test_malformed_input_exit_2(tmp_path, args, config, field):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = (*args, "--config", str(path))
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: {field}"), res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


_BIG_SIM = ("simulate", *_PAIR, "--n", "20", "--reps", "140000")


def _engine_fails(monkeypatch, exc):
    # the Monte Carlo runner raises if reached
    from mdwindow import cli

    def run_blocks(*args):
        raise exc

    monkeypatch.setattr(cli, "_run_blocks", run_blocks)
    return cli


def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # a missing directory and a directory as the file: the refusal comes
    # before the engine, which would fail the run otherwise, and leaves nothing
    cli = _engine_fails(monkeypatch, AssertionError("the engine ran"))
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main([*_BIG_SIM, "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith(f"error: out: cannot write {out}: "), err
    assert list(tmp_path.iterdir()) == []


def test_a_refused_run_neither_creates_nor_truncates_its_out_file(tmp_path, monkeypatch, capsys):
    from mdwindow import ParameterError

    cli = _engine_fails(monkeypatch, ParameterError("refused"))
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("earlier output\n")
    for out in (kept, fresh):
        assert cli.main([*_BIG_SIM, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: refused\n"
    assert kept.read_text() == "earlier output\n" and not fresh.exists()


def test_counts_read_integral_floats_exactly():
    from mdwindow import cli

    assert cli._count(1e6) == cli._count("1e6") == cli._count(1000000) == 1000000
    assert cli._count(2 ** 53 + 1) == 2 ** 53 + 1  # an int is not rounded through float
    for bad in (100.7, "1000000.5", True, math.nan, math.inf):
        with pytest.raises((TypeError, ValueError)):
            cli._count(bad)


@pytest.mark.parametrize("extra", [{"shards": 0}, {"reps": -5}])
def test_range_checks_skip_fields_the_subcommand_ignores(tmp_path, extra):
    # params reads neither shards nor reps; the readers still type them.  The
    # document echoes the config but the worker count
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"alpha": 0.3, "beta": 0.05, **extra}))
    res = run_cli("params", "--config", str(path), "--format", "json")
    assert res.returncode == 0, res.stderr
    config = json.loads(res.stdout)["config"]
    assert "shards" not in config
    assert config.items() >= {k: v for k, v in extra.items() if k != "shards"}.items()


@pytest.mark.parametrize("args, field", [
    (("simulate", *_PAIR, "--n", "10", "--reps", "5", "--shards", "0"), "shards"),
    (("rates", *_PAIR, "--n-grid", "100", "--gamma-grid", "0.3", "--reps", "-1"), "reps"),
])
def test_range_checks_hold_for_fields_the_subcommand_reads(args, field):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {field}: must be >= "), res.stderr


def test_output_file(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli(
        "params", "--alpha", "0.3", "--beta", "0.05", "--out", str(out)
    )
    assert res.returncode == 0 and res.stdout == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("component,") and text.endswith("\n")


def test_json_results_match_csv_values():
    argsc = ["rates", "--alpha", "0.3", "--beta", "0.05",
             "--n-grid", "1e6", "--gamma-grid", "0.32"]
    csv_out = run_cli(*argsc)
    json_out = run_cli(*argsc, "--format", "json")
    doc = json.loads(json_out.stdout)
    header, rows = parse_csv(csv_out.stdout)
    cert_csv = [dict(zip(header, r)) for r in rows if r[2] == "case2_lower"][0]
    cert_json = [r for r in doc["results"] if r["kind"] == "case2_lower"][0]
    assert float(cert_csv["rate"]) == pytest.approx(cert_json["rate"], rel=1e-11)


# stdout md5s of seven runs, in process; a change to any draw layout, series
# value or output format moves them.  Each Monte Carlo run but one fits in one
# block, which draws from the seed's shard 0 whatever --shards says;
# simulate-two-blocks puts one path in a second block, so its rows pin the
# block order
_SIM = ("simulate", *_PAIR, "--n", "1000", "--reps", "3000", "--seed", "7", "--shards", "3")
_PINNED_STDOUT = {
    "simulate": (_SIM, "73c1746e6eac1cb85cb41e72279e815f"),
    "simulate-two-blocks": (("simulate", *_PAIR, "--n", "20", "--reps", "65537", "--seed", "3"),
                            "aaab1cce0030a182d4af6091334f2c8c"),
    "simulate-json": ((*_SIM, "--format", "json"), "19ec4d48b74aef4bd349d5fc5a0281bf"),
    "rates": (("rates", *_PAIR, "--n-grid", "200,400", "--gamma-grid", "0.15,0.3,0.45",
               "--c", "0.2", "--reps", "20000", "--seed", "3", "--shards", "2"),
              "8db502dce997a9d01ff5c550a6168b0f"),
    "autocov": (("autocov", *_PAIR, "--k-max", "6", "--length", "50000", "--seed", "2"),
                "0dbbc2e3f4a5da185e473fcdec4b3318"),
    "params": (("params", *_PAIR), "8a890c2ec3c3a469bf541eca52bb6ddc"),
    "params-windows": (("params", "--windows", "0.1:0.15,0.25:0.4", "--tol", "1e-5",
                        "--format", "json"), "90a19524fe9620e5501754dee5793113"),
}


@pytest.mark.parametrize("run", sorted(_PINNED_STDOUT))
def test_cli_stdout_is_pinned(run, capsys, monkeypatch):
    from mdwindow import cli

    args, md5 = _PINNED_STDOUT[run]
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli.main(list(args)) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


_RATES_MC = ("rates", *_PAIR, "--n-grid", "50,80", "--gamma-grid", "0.15,0.3", "--c", "0.2")


# rates at one block, three blocks with one path in the last, and a reps count
# that is no multiple of the block; simulate (about 1 s per 1e5 rows) at two of them
@pytest.mark.parametrize("command, reps", [
    (_RATES_MC, 3000), (_RATES_MC, 2 * 65536 + 1), (_RATES_MC, 140_000),
    (("simulate", *_PAIR, "--n", "20"), 3000), (("simulate", *_PAIR, "--n", "20"), 140_000),
], ids=["rates-3000", "rates-131073", "rates-140000", "simulate-3000", "simulate-140000"])
def test_monte_carlo_stdout_does_not_depend_on_the_shard_count(command, reps, capsys,
                                                               monkeypatch):
    # the paths come in fixed blocks of 65536, each drawn from its own child
    # stream; --shards sets only how many threads (of eight CPUs here) run them
    import os

    from mdwindow import cli

    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for fmt in ("csv", "json"):  # the JSON config echo leaves the worker count out
        outs = []
        for shards in ("1", "2", "3", "8"):
            args = [*command, "--reps", str(reps), "--seed", "3", "--shards", shards]
            assert cli.main([*args, "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].count("\n") > 1 and all(out == outs[0] for out in outs[1:])


# -------------------------------------------------------------------- parser

_EVERY = {"--help", "--config", "--format", "--out", "--alpha", "--beta", "--windows"}


@pytest.mark.parametrize("command, flags", [
    ("params", _EVERY | {"--tol"}),
    ("simulate", _EVERY | {"--seed", "--shards", "--n", "--reps"}),
    ("rates", _EVERY | {"--seed", "--shards", "--n-grid", "--gamma-grid",
                        "--c", "--reps", "--confidence"}),
    ("autocov", _EVERY | {"--seed", "--tol", "--k-max", "--length"}),
])
def test_help_lists_exactly_the_flags_a_subcommand_reads(command, flags, capsys):
    from mdwindow import cli

    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags


@pytest.mark.parametrize("args", [
    ("params", *_PAIR, "--seed", "1"),
    ("rates", *_PAIR, "--n-grid", "1e6", "--gamma-grid", "0.3", "--tol", "1e-3"),
    ("autocov", *_PAIR, "--shards", "2"),
])
def test_flags_a_subcommand_ignores_exit_2(args, capsys):
    from mdwindow import cli

    with pytest.raises(SystemExit) as exit_:
        cli.main(list(args))
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("autocov", *_PAIR, "--k-max", "3", "--length", "5000", "--format", "json"),
    ("rates", *_PAIR, "--n-grid", "200,400", "--gamma-grid", "0.15,0.3,0.45",
     "--c", "0.2", "--reps", "2000", "--format", "json"),
])
def test_json_documents_parse(args):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["config"]["command"] == args[0] and doc["results"]
