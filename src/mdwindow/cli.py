"""Command-line front end.

Subcommands emit reproducible CSV tables or JSON documents:

  params     derived constants for an exponent pair or a window list
  simulate   per-path sum decompositions
  rates      certificate / Monte Carlo / reference rate curves
  autocov    exact vs empirical autocovariances with the dominance bound

Every command is a pure function of its resolved configuration (seed and
shard count included), so reruns are byte-identical.  Exit codes: 0 on
success, 2 for invalid configuration, 3 when a requested precision is
unreachable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .chain import RngStream
from .composite import WindowSet
from .errors import (
    BracketEmptyError,
    ParameterError,
    PrecisionError,
    WindowBoundaryError,
)
from .measure import (
    MEAN_TAU,
    MU0,
    Params,
    p1,
    params_from_window,
    sigma,
    window_from_params,
)
from .oracles import (
    RateQuery,
    autocovariance_bound,
    autocovariance_exact,
    case1_upper,
    case2_certificate,
    gaussian_reference,
    mc_tail_curve,
    predicted_rate,
    rate_transform,
)
from .paths import generate_path, iter_sums

SEED_ENV = "MDWINDOW_SEED"


def _fmt(x) -> str:
    if x is None or (isinstance(x, str) and x == ""):
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isinf(x):
        return "-inf" if x < 0 else "inf"
    x = float(x)
    if x == 0.0:
        return "0"  # canonicalize signed zeros
    return format(x, ".12g")


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _count(value) -> int:
    """Counts may be written as floats (1e6); nan and inf do not convert."""
    return int(float(value))


def _grid(read):
    """Comma-separated text or a list, each entry read by `read`."""
    return lambda v: [read(x) for x in (v.split(",") if isinstance(v, str) else v)]


def _windows(value) -> list:
    """u:v pairs, comma-separated (0.1:0.15,0.25:0.4) or as a list."""
    if isinstance(value, str):
        value = [part.split(":") for part in value.split(",")]
    return [(float(u), float(v)) for u, v in value]


# how each configuration field is read, from a flag or a config file
_READERS = {
    "seed": _integer,
    "shards": _integer,
    "alpha": float,
    "beta": float,
    "tol": float,
    "c": float,
    "confidence": float,
    "n": _count,
    "reps": _count,
    "k_max": _count,
    "length": _count,
    "n_grid": _grid(_count),
    "gamma_grid": _grid(float),
    "windows": _windows,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mdwindow",
        description="Renewal-reward process with prescribed anomalous "
        "moderate-deviation windows.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument(
            "--windows",
            type=str,
            default=None,
            help="comma-separated u:v pairs, e.g. 0.1:0.15,0.25:0.4",
        )
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shards", type=int, default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--format", dest="output_format", choices=("csv", "json"), default=None)
        p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("params", help="derived constants")
    common(p)

    p = sub.add_parser("simulate", help="per-path sum decompositions")
    common(p)
    p.add_argument("--n", type=float, default=None, help="horizon (time steps)")
    p.add_argument("--reps", type=float, default=None, help="number of paths")

    p = sub.add_parser("rates", help="rate curves: certificates, MC, reference")
    common(p)
    p.add_argument("--n-grid", type=str, default=None, help="comma-separated horizons")
    p.add_argument("--gamma-grid", type=str, default=None, help="comma-separated scale exponents")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--reps", type=float, default=None, help="MC paths per point (0 = no MC)")
    p.add_argument("--confidence", type=float, default=None)

    p = sub.add_parser("autocov", help="exact and empirical autocovariances")
    common(p)
    p.add_argument("--k-max", type=float, default=None)
    p.add_argument("--length", type=float, default=None, help="empirical path length")
    return top


_DEFAULTS = {
    "seed": 0,
    "shards": 1,
    "output_format": "csv",
    "tol": 1e-10,
    "n": None,
    "reps": 0,
    "n_grid": None,
    "gamma_grid": None,
    "c": 1.0,
    "confidence": 0.999,
    "k_max": 20,
    "length": 200000,
}


def _resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    cfg = dict(_DEFAULTS)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ParameterError(f"seed: environment override {env_seed!r} is not an integer")
    cfg.update({"alpha": None, "beta": None, "windows": None})
    if getattr(args, "config", None):
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
    for key, read in _READERS.items():
        if cfg[key] is not None:
            try:
                cfg[key] = read(cfg[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"{key}: cannot read {cfg[key]!r}: {exc}") from None
    for key in ("seed", "n", "reps", "k_max", "length"):
        if cfg[key] is not None and cfg[key] < 0:
            raise ParameterError(f"{key}: must be >= 0, got {cfg[key]}")

    has_pair = cfg["alpha"] is not None or cfg["beta"] is not None
    if has_pair and cfg["windows"] is not None:
        raise ParameterError("alpha/beta and windows: exactly one of the two must be given")
    if has_pair and (cfg["alpha"] is None or cfg["beta"] is None):
        raise ParameterError("alpha/beta: both must be given together")
    if not has_pair and cfg["windows"] is None:
        raise ParameterError("alpha/beta or windows: one of the two is required")
    if cfg["shards"] < 1:
        raise ParameterError(f"shards: must be >= 1, got {cfg['shards']}")
    return cfg


def _emit(cfg: dict, header: list, rows: list, out_path):
    if cfg["output_format"] == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        results = [
            {k: (None if v == "" else _py(v)) for k, v in zip(header, row)}
            for row in rows
        ]
        doc = {"config": cfg, "results": results}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _py(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    return v


def _components(cfg: dict):
    """(params, window) pairs for either input style."""
    if cfg["windows"] is not None:
        ws = WindowSet(cfg["windows"])
        return [params_from_window(u, v) for u, v in ws.windows], ws
    params = Params(float(cfg["alpha"]), float(cfg["beta"]))
    w = window_from_params(params)
    return [params], WindowSet([(w.u, w.v)])


def cmd_params(cfg: dict) -> tuple[list, list]:
    comps, _ = _components(cfg)
    header = [
        "component", "alpha", "beta", "u", "v",
        "mu_origin", "mean_interval", "p1", "sigma",
    ]
    rows = []
    var = 0.0
    for i, params in enumerate(comps, start=1):
        w = window_from_params(params)
        stats = sigma(params, cfg["tol"])
        var += stats.sigma ** 2
        rows.append(
            [i, params.alpha, params.beta, w.u, w.v, MU0, MEAN_TAU,
             p1(params, max(cfg["tol"], 1e-12)), stats.sigma]
        )
    if len(comps) > 1:
        rows.append(["combined", "", "", "", "", "", "", "", math.sqrt(var)])
    return header, rows


def cmd_simulate(cfg: dict) -> tuple[list, list]:
    if cfg["n"] is None or not cfg["reps"]:
        raise ParameterError("n/reps: both are required for simulate")
    comps, _ = _components(cfg)
    if len(comps) != 1:
        raise ParameterError("windows: simulate works on a single component")
    params = comps[0]
    n, reps, shards = cfg["n"], cfg["reps"], cfg["shards"]
    if reps < shards:
        raise ParameterError(f"reps: must be >= shards, got {reps} < {shards}")
    stream = RngStream(seed=cfg["seed"])
    header = ["shard", "s_prime", "s_tilde", "s_dprime", "s_total",
              "a1", "b1", "an", "bn", "interior"]
    rows = []
    base, extra = divmod(reps, shards)
    for s in range(shards):
        r = base + (1 if s < extra else 0)
        if r == 0:
            continue
        gen = stream.shard(s)
        for chunk in iter_sums(params, n, r, gen):
            columns = [chunk[k].tolist() for k in header[1:]]
            rows.extend([s, *row] for row in zip(*columns))
    return header, rows


def cmd_rates(cfg: dict) -> tuple[list, list]:
    if not cfg["n_grid"] or not cfg["gamma_grid"]:
        raise ParameterError("n_grid/gamma_grid: both are required for rates")
    comps, windows = _components(cfg)
    if len(comps) != 1:
        raise ParameterError("windows: rates works on a single component")
    params = comps[0]
    w = window_from_params(params)
    c = cfg["c"]
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
        for i, (gamma, query) in enumerate(zip(cfg["gamma_grid"], queries)):
            try:
                predicted = predicted_rate(windows, gamma, c)
                pnote = ""
            except WindowBoundaryError:
                predicted = ""
                pnote = "window_boundary"
            rows.append([n, gamma, "gaussian_reference", "", "", "", "",
                         gaussian_reference(c), predicted, pnote])
            if gamma < w.u:
                cert = case1_upper(params, query)
                rows.append([n, gamma, cert.kind, cert.log_prob, "", "", "",
                             cert.rate, predicted, pnote])
            elif w.u < gamma < w.v:
                try:
                    cert = case2_certificate(params, query)
                    rows.append([
                        n, gamma, cert.kind, cert.log_prob, "", "", "",
                        cert.rate, predicted,
                        f"c_n={cert.c_n};a_n={cert.a_n};b_n={cert.b_n}",
                    ])
                except BracketEmptyError as exc:
                    rows.append([n, gamma, "case2_lower", "", "", "", "", "",
                                 predicted, f"bracket_empty;min_n={exc.min_n}"])
            if cfg["reps"]:
                est = mc[i]
                if est.hits:
                    lp = math.log(est.p_hat)
                    rows.append([n, gamma, "mc", lp, est.p_hat, est.ci_low,
                                 est.ci_high, rate_transform(lp, n, gamma),
                                 predicted, pnote])
                else:
                    rows.append([n, gamma, "mc", "", 0.0, est.ci_low,
                                 est.ci_high, "", predicted,
                                 ("zero_hits" if not pnote else pnote)])
    return header, rows


def cmd_autocov(cfg: dict) -> tuple[list, list]:
    comps, _ = _components(cfg)
    if len(comps) != 1:
        raise ParameterError("windows: autocov works on a single component")
    params = comps[0]
    k_max, length = cfg["k_max"], cfg["length"]
    if length < 10 * (k_max + 1):
        raise ParameterError("length: must be at least 10 * (k_max + 1)")
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
        rows.append([k, autocovariance_exact(params, k, cfg["tol"]), bound,
                     r_emp, se])
    return header, rows


_COMMANDS = {
    "params": cmd_params,
    "simulate": cmd_simulate,
    "rates": cmd_rates,
    "autocov": cmd_autocov,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        header, rows = _COMMANDS[args.command](cfg)
    except (ParameterError, WindowBoundaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"error: unreachable precision: {exc}", file=sys.stderr)
        return 3
    cfg["command"] = args.command
    _emit(cfg, header, rows, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
