"""Renewal-reward process with prescribed anomalous moderate-deviation
windows: exact measure computations, stationary samplers, path
decomposition, tail oracles, and rate certificates.

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first use (PEP 562), so a process pays only
for the modules it reads."""

import importlib

__version__ = "0.1.0"

# every public name, by the module that defines it
_NAMES = {name: module for module, names in {
    "chain": ("ORIGIN", "ChainState", "RngStream", "stationary_push_l1", "step"),
    "composite": ("CompositeProcess", "build_composite", "sample_composite_path"),
    "errors": ("BracketEmptyError", "ParameterError", "PrecisionError"),
    "measure": ("MEAN_TAU", "MU0", "Params", "ProcessStats", "WindowSet",
                "autocovariance_bound", "autocovariance_exact", "boundary_tail_exact",
                "build_measure_table", "excursion_reward_magnitude", "log_mu", "log_p", "p1",
                "params_from_window", "sigma", "window_from_params"),
    "oracles": ("RateCertificate", "RateQuery", "TailEstimate", "boundary_sum_sup",
                "case1_upper", "case2_certificate", "gaussian_reference", "mc_tail_curve",
                "predicted_rate", "wilson_interval"),
    "paths": ("SignedPath", "SumDecomposition", "decompose", "generate_path", "iter_sums",
              "phi", "s_double_prime_count", "s_prime_count"),
}.items() for name in names}

_SUBMODULES = ("chain", "cli", "composite", "errors", "measure", "oracles", "paths")

__all__ = sorted(_NAMES)


def __getattr__(name: str):
    """Import a public name's module, or a submodule, on first access and
    bind the result in the package, so later reads skip this hook."""
    if name in _NAMES:
        value = getattr(importlib.import_module(f"{__name__}.{_NAMES[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
