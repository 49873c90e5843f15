"""Superposition of independent component processes.

One component realizes one anomalous window; summing independent
components (and dividing by the combined normalizer) realizes any finite
union of disjoint windows (a `measure.WindowSet`).  Component variances
add, so the combined normalizer is the quadrature of the component sigmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .chain import RngStream
from .measure import WindowSet, _integer, params_from_window, sigma
from .paths import generate_path


@dataclass(frozen=True)
class CompositeProcess:
    """Component exponent pairs with their normalizers and the combined one."""

    components: tuple  # of (Params, ProcessStats)
    combined_sigma: float


def build_composite(windows: WindowSet, tol: float = 1e-10) -> CompositeProcess:
    """One component per window via the inverse window map; the combined
    normalizer satisfies sigma^2 = sum of component sigma^2."""
    comps = []
    var = 0.0
    for u, v in windows.windows:
        p = params_from_window(u, v)
        stats = sigma(p, tol)
        comps.append((p, stats))
        var += stats.sigma ** 2
    return CompositeProcess(components=tuple(comps), combined_sigma=sqrt(var))


def sample_composite_path(
    composite: CompositeProcess, n: int, rng: RngStream
) -> np.ndarray:
    """Pointwise sum of independently sampled component paths (component i
    draws from rng.substream(i)), divided by the combined normalizer."""
    n = _integer(n, "path length", 1)
    total = np.zeros(n)
    for i, (params, _) in enumerate(composite.components):
        total += generate_path(params, n, rng.substream(i)).x
    return total / composite.combined_sigma

