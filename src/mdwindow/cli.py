"""Command-line front end.

Subcommands emit reproducible CSV tables or JSON documents:

  params     derived constants for an exponent pair or a window list
  simulate   per-path sum decompositions
  rates      certificate / Monte Carlo / reference rate curves
  autocov    exact vs empirical autocovariances with the dominance bound

Every command is a pure function of its resolved configuration, so reruns
are byte-identical.  The Monte Carlo paths of `simulate` and `rates` come
in fixed blocks, each with its own child stream of the seed; `--shards`
sets only how many threads run them and never changes the output.  Exit
codes: 0 on success, 2 for invalid configuration, 3 when a requested
precision is unreachable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# what every command reads; each command imports the rest where it uses it,
# so a cold `params` loads no sampler or oracle
from .errors import BracketEmptyError, ParameterError, PrecisionError
from .measure import (
    MEAN_TAU, MU0, Params, WindowSet, autocovariance_bound, autocovariance_exact, p1,
    params_from_window, sigma, window_from_params,
)

SEED_ENV = "MDWINDOW_SEED"


def _column(values) -> list:
    """One column's cells as text, by type: a str as it is, a bool as
    true/false, an int in full, and a computed float to 12 significant
    digits with signed zeros as 0.  A column of one type takes one pass; a
    mixed one (a blank beside numbers) is formatted cell by cell."""
    kinds = set(map(type, values))
    if len(kinds) > 1:
        return [_column([x])[0] for x in values]
    if kinds == {float}:
        return ["0" if x == 0.0 else f"{x:.12g}" for x in values]
    if kinds == {bool}:
        return ["true" if x else "false" for x in values]
    return list(map(str, values))


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _count(value) -> int:
    """Counts may be written as floats (1e6) but must be integral: a
    fraction, nan, inf and a bool are refused."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a count")
    if isinstance(value, int):
        return value
    x = float(value)
    if not x.is_integer():
        raise ValueError("not an integer")
    return int(x)


def _grid(read):
    """Comma-separated text or a list, each entry read by `read`."""
    return lambda v: [read(x) for x in (v.split(",") if isinstance(v, str) else v)]


def _windows(value) -> list:
    """u:v pairs, comma-separated (0.1:0.15,0.25:0.4) or as a list."""
    if isinstance(value, str):
        value = [part.split(":") for part in value.split(",")]
    return [(float(u), float(v)) for u, v in value]


_ALL = ("params", "simulate", "rates", "autocov")
_MC = ("simulate", "rates")

# every configuration field: (flag type, reader, default, lower bound, the
# subcommands whose flags offer it, help).  A config file may set any field;
# the reader turns a flag's or a file's value into the field's type, in this
# order, and the bound holds for the fields a subcommand reads.
_FIELDS = {
    "seed": (int, _integer, 0, 0, ("simulate", "rates", "autocov"),
             f"random seed (default ${SEED_ENV}, else 0)"),
    "shards": (int, _integer, 1, 1, _MC, "worker threads (results do not depend on it)"),
    "alpha": (float, float, None, None, _ALL, "tail exponent"),
    "beta": (float, float, None, None, _ALL, "reward exponent"),
    "tol": (float, float, 1e-10, None, ("params", "autocov"), "series tolerance"),
    "c": (float, float, 1.0, None, ("rates",), "deviation level"),
    "confidence": (float, float, 0.999, None, ("rates",), "Monte Carlo interval level"),
    "n": (float, _count, None, 1, ("simulate",), "horizon (time steps)"),
    "reps": (float, _count, 0, 0, _MC, "number of paths (rates: per horizon, 0 = no MC)"),
    "k_max": (float, _count, 20, 0, ("autocov",), "largest lag"),
    "length": (float, _count, 200000, 0, ("autocov",), "empirical path length"),
    "n_grid": (str, _grid(_count), None, None, ("rates",), "comma-separated horizons"),
    "gamma_grid": (str, _grid(float), None, None, ("rates",),
                   "comma-separated scale exponents"),
    "windows": (str, _windows, None, None, _ALL,
                "comma-separated u:v pairs, e.g. 0.1:0.15,0.25:0.4"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mdwindow",
        description="Renewal-reward process with prescribed anomalous "
        "moderate-deviation windows.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for field, (kind, _, _, _, commands, text) in _FIELDS.items():
            if command in commands:
                p.add_argument("--" + field.replace("_", "-"), type=kind, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--format", dest="output_format", choices=("csv", "json"))
        p.add_argument("--out", help="output file (default stdout)")
    return top


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    cfg = {field: spec[2] for field, spec in _FIELDS.items()}
    cfg["output_format"] = "csv"
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ParameterError(f"seed: environment override {env_seed!r} is not an integer")
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ParameterError(f"config: {args.config} does not hold a JSON object")
        for key, value in file_cfg.items():
            if key not in cfg:
                raise ParameterError(f"config: unknown field {key!r}")
            cfg[key] = value
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key, (_, read, _, low, commands, _) in _FIELDS.items():
        if cfg[key] is None:
            continue
        try:
            cfg[key] = read(cfg[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"{key}: cannot read {cfg[key]!r}: {exc}") from None
        if low is not None and args.command in commands and cfg[key] < low:
            raise ParameterError(f"{key}: must be >= {low}, got {cfg[key]}")

    has_pair = cfg["alpha"] is not None or cfg["beta"] is not None
    if has_pair and cfg["windows"] is not None:
        raise ParameterError("alpha/beta and windows: exactly one of the two must be given")
    if has_pair and (cfg["alpha"] is None or cfg["beta"] is None):
        raise ParameterError("alpha/beta: both must be given together")
    if not has_pair and cfg["windows"] is None:
        raise ParameterError("alpha/beta or windows: one of the two is required")
    return cfg


def _emit(cfg: dict, header: list, columns: list, out_path):
    """Write a command's table, one sequence of values per header name."""
    if cfg["output_format"] == "csv":
        # gamma echoes the input as the shortest text that reads back as the
        # same float, so a gamma a hair off a window endpoint is not printed on it
        cells = [list(map(repr, c)) if h == "gamma" else _column(c)
                 for h, c in zip(header, columns)]
        text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    else:
        # json.dumps(doc, sort_keys=True, indent=2) laid out by hand, each
        # record through the C encoder, which runs only without an indent
        record = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
        rows = ["    {\n      " + record(dict(zip(header, row)))[1:-1] + "\n    }"
                for row in zip(*([None if v == "" else v for v in c] for c in columns))]
        # the worker count never changes the results, so the document omits it
        config = {k: v for k, v in cfg.items() if k != "shards"}
        config = json.dumps(config, sort_keys=True, indent=2).replace("\n", "\n  ")
        results = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        text = f'{{\n  "config": {config},\n  "results": {results}\n}}\n'
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"out: cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _check_out(path) -> None:
    """Refuse an unwritable output file before any work, creating or
    truncating nothing: a missing file is created and removed again."""
    try:
        made = not os.path.lexists(path)
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
        if made:
            os.remove(path)
    except OSError as exc:
        raise ParameterError(f"out: cannot write {path}: {exc}") from None


def _component(cfg: dict, command: str) -> Params:
    """The exponent pair of a single-component command, from either input style."""
    if cfg["windows"] is None:
        return Params(cfg["alpha"], cfg["beta"])
    windows = WindowSet(cfg["windows"])
    if len(windows.windows) != 1:
        raise ParameterError(f"windows: {command} works on a single component")
    return params_from_window(*windows.windows[0])


def cmd_params(cfg: dict) -> tuple[list, list]:
    tol = cfg["tol"]
    if cfg["windows"] is None:
        params = Params(cfg["alpha"], cfg["beta"])
        comps, combined = [(params, sigma(params, tol))], None
    else:
        from .composite import build_composite

        composite = build_composite(WindowSet(cfg["windows"]), tol)
        comps, combined = composite.components, composite.combined_sigma
    header = ["component", "alpha", "beta", "u", "v", "mu_origin", "mean_interval", "p1", "sigma"]
    rows = []
    for i, (params, stats) in enumerate(comps, start=1):
        w = window_from_params(params)
        rows.append(
            [i, params.alpha, params.beta, w.u, w.v, MU0, MEAN_TAU,
             p1(params, tol), stats.sigma]
        )
    if len(comps) > 1:
        rows.append(["combined", "", "", "", "", "", "", "", combined])
    return header, list(zip(*rows))


def _within_mc_cap(field: str, n: int, hint: str = "") -> None:
    """Refuse a Monte Carlo horizon beyond the renewal table's cap, before
    any path is drawn."""
    from .paths import _RENEWAL_CAP

    if n > _RENEWAL_CAP:
        raise ParameterError(
            f"{field}: horizon {n} is beyond the Monte Carlo cap 2^24 = {_RENEWAL_CAP}{hint}"
        )


def cmd_simulate(cfg: dict) -> tuple[list, list]:
    from .chain import RngStream
    from .oracles import _run_blocks
    from .paths import iter_sums

    if cfg["n"] is None or not cfg["reps"]:
        raise ParameterError("n/reps: both are required for simulate")
    _within_mc_cap("n", cfg["n"])
    params = _component(cfg, "simulate")
    header = ["s_prime", "s_tilde", "s_dprime", "s_total", "a1", "b1", "an", "bn", "interior"]
    blocks = _run_blocks(cfg["reps"], RngStream(seed=cfg["seed"]), cfg["shards"],
                         lambda r, gen: list(iter_sums(params, cfg["n"], r, gen)))
    chunks = [chunk for block in blocks for chunk in block]
    return header, [np.concatenate([chunk[k] for chunk in chunks]).tolist() for k in header]


def cmd_rates(cfg: dict) -> tuple[list, list]:
    """Per (n, gamma): the reference row, the certificate row of gamma's regime
    in the pair's own window, and an mc row when reps > 0."""
    from .chain import RngStream
    from .oracles import (
        RateQuery, case1_upper, case2_certificate, gaussian_reference, mc_tail_curve,
        predicted_rate,
    )

    # the certificate of each regime `WindowSet.locate` names, by row kind
    certificates = {"inside": ("case2_lower", case2_certificate),
                    "below": ("case1_upper", case1_upper)}
    if not cfg["n_grid"] or not cfg["gamma_grid"]:
        raise ParameterError("n_grid/gamma_grid: both are required for rates")
    if cfg["reps"]:
        _within_mc_cap("n_grid", max(cfg["n_grid"]), "; use --reps 0 for certificates alone")
    params = _component(cfg, "rates")
    window = window_from_params(params)
    c = cfg["c"]
    reference = gaussian_reference(c)
    stream = RngStream(seed=cfg["seed"])
    header = ["n", "gamma", "kind", "log_prob", "p_hat", "ci_low", "ci_high",
              "rate", "predicted_rate", "note"]
    rows = []
    for n in cfg["n_grid"]:
        queries = [RateQuery(n, gamma, c) for gamma in cfg["gamma_grid"]]
        if cfg["reps"]:  # one set of paths serves every threshold of this n
            mc = mc_tail_curve(
                params, n, {"total": [q.threshold for q in queries]}, cfg["reps"],
                cfg["confidence"], stream, cfg["shards"],
            )["total"]
        for i, query in enumerate(queries):
            where = window.locate(query.gamma)
            predicted = predicted_rate(window, query.gamma, c)
            flag = "window_boundary" if predicted is None else ""

            def row(kind, log_prob="", est=("", "", ""), rate="", note=flag):
                return [n, query.gamma, kind, log_prob, *est, rate,
                        "" if predicted is None else predicted, note]

            rows.append(row("gaussian_reference", rate=reference))
            if where in certificates:
                kind, certify = certificates[where]
                try:
                    cert = certify(params, query)
                except BracketEmptyError as exc:
                    note = f"bracket_empty;min_n={exc.min_n}" if exc.min_n else "bracket_empty"
                    rows.append(row(kind, note=note))
                else:
                    note = f"c_n={cert.c_n};a_n={cert.a_n};b_n={cert.b_n}" if cert.c_n else ""
                    rows.append(row(kind, cert.log_prob, rate=cert.rate, note=note))
            if cfg["reps"]:
                est = mc[i]
                interval = (est.p_hat, est.ci_low, est.ci_high)
                if est.hits:
                    lp = math.log(est.p_hat)
                    rows.append(row("mc", lp, interval, query.rate(lp)))
                else:
                    rows.append(row("mc", est=interval, note=flag or "zero_hits"))
    return header, list(zip(*rows))


def cmd_autocov(cfg: dict) -> tuple[list, list]:
    from .chain import RngStream
    from .paths import generate_path

    params = _component(cfg, "autocov")
    k_max, length = cfg["k_max"], cfg["length"]
    # at least 100 products per lag, one for each batch of its standard error
    if length < max(10 * (k_max + 1), k_max + 100):
        raise ParameterError(
            f"length: must be at least max(10 * (k_max + 1), k_max + 100), got {length}"
        )
    path = generate_path(params, length, RngStream(seed=cfg["seed"]))
    x = path.x
    header = ["k", "r_exact", "dominance_bound", "r_empirical", "se"]
    rows = []
    n_batches = 100
    for k in range(k_max + 1):
        products = x[: length - k] * x[k:]
        r_emp = float(products.mean())
        batches = np.array_split(products, n_batches)
        means = np.array([b.mean() for b in batches])
        se = float(means.std(ddof=1) / math.sqrt(n_batches))
        bound = autocovariance_bound(params, k) if k >= 1 else ""
        rows.append([k, autocovariance_exact(params, k, cfg["tol"]), bound, r_emp, se])
    return header, list(zip(*rows))


_COMMANDS = {
    "params": (cmd_params, "derived constants"),
    "simulate": (cmd_simulate, "per-path sum decompositions"),
    "rates": (cmd_rates, "rate curves: certificates, MC, reference"),
    "autocov": (cmd_autocov, "exact and empirical autocovariances"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.out:
            _check_out(args.out)
        header, columns = _COMMANDS[args.command][0](cfg)
        cfg["command"] = args.command
        _emit(cfg, header, columns, args.out)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"error: unreachable precision: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
