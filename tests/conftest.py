import os
from pathlib import Path

import numpy as np
import pytest

import mdwindow
from mdwindow import MU0, Params, measure, params_from_window

# the CLI tests run the package in child processes: point them at the copy
# these tests import, installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(mdwindow.__file__).parents[1]), os.environ.get("PYTHONPATH")))
)

DEFAULT = Params(0.3, 0.05)
SMALL_ALPHA = params_from_window(0.1, 0.15)  # alpha ~0.108: p_1 ~0.92
ALPHA_GRID = (0.1, 0.3, 0.45)


@pytest.fixture(scope="session")
def default_params() -> Params:
    return DEFAULT


def lag_route(params: Params, tol: float, of_sigma: bool):
    """(cut, table, direct, slack) of sigma's series (of_sigma) or the lags'
    at tol: the table `measure._lags` reads, the table of the direct walk to
    the same cut, and the slack of the run bracket between them, 0.0 where
    the direct table is the one read.  The direct table is built afresh."""
    growth = (1.0 / MU0, 1.0 - 2.0 * params.beta) if of_sigma else (2.0, 0.5 - 2.0 * params.beta)
    cut = measure._series_cut(params, tol, growth)[0]
    table, direct = measure._lags(params, tol, of_sigma), measure._lag_table(params, cut)
    if table.tobytes() == direct.tobytes():
        return cut, table, direct, 0.0
    runs = measure._run_bracket(params, cut)
    return cut, table, direct, runs.sigma_slack if of_sigma else runs.lag_slack


def alias_mass(table, size: int, first: int = 0) -> list:
    """Exact integer mass of each of `size` slots of an alias table, out of
    2^64, its values counted from `first` (1 for the lengths of an
    excursion table): per word head h the kept fractions, cut[h] - h 2^shift
    of 2^shift, go to the slot of value[2 h + 1] and the rest to that of
    value[2 h]."""
    mass, slot, cap = [0] * size, (table.value - first).tolist(), 1 << table.shift
    for h, cut in enumerate(table.cut.tolist()):
        kept = cut - h * cap
        mass[slot[2 * h + 1]] += kept
        mass[slot[2 * h]] += cap - kept
    return mass


def three_se(p: float, n: int) -> float:
    return 3.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / n)


_setup_s = {}


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion.  The time
    includes the test's setup phase, where a module fixture shared by
    several criteria is paid by the first one that uses it."""
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "setup":
        _setup_s[report.nodeid] = report.duration
        if not report.failed:  # a failed setup has no call phase
            return
    elif report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    setup = _setup_s.pop(report.nodeid, 0.0)
    call = report.duration if report.when == "call" else 0.0
    print(
        f"\n[{status}] {name} ({call + setup:.1f}s: {call:.1f}s call"
        f" + {setup:.1f}s setup)",
        flush=True,
    )
