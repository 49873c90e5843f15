"""Superposition of independent component processes.

One component realizes one anomalous window; summing independent
components (and dividing by the combined normalizer) realizes any finite
union of disjoint windows.  Component variances add, so the combined
normalizer is the quadrature of the component sigmas.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .chain import RngStream
from .errors import ParameterError
from .measure import params_from_window, sigma


@dataclass(frozen=True)
class WindowSet:
    """Finite union of disjoint open scale windows, strictly interleaved:
    0 < u_1 < v_1 < u_2 < ... <= 0.5."""

    windows: tuple

    def __init__(self, windows):
        pairs = tuple((float(u), float(v)) for u, v in windows)
        if not pairs:
            raise ParameterError("at least one window is required")
        flat = [x for pair in pairs for x in pair]
        if not all(a < b for a, b in zip(flat, flat[1:])):
            raise ParameterError(
                f"window endpoints must strictly interleave, got {pairs}"
            )
        if not (flat[0] > 0.0 and flat[-1] <= 0.5):
            raise ParameterError(
                f"window endpoints must lie in (0, 0.5], got {pairs}"
            )
        object.__setattr__(self, "windows", pairs)

    def locate(self, gamma: float) -> str:
        """'inside' a window, 'outside' (in a gap), or 'boundary'."""
        for u, v in self.windows:
            if gamma == u or gamma == v:
                return "boundary"
            if u < gamma < v:
                return "inside"
        return "outside"


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
    from .paths import generate_path

    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    total = np.zeros(n)
    for i, (params, _) in enumerate(composite.components):
        total += generate_path(params, n, rng.substream(i)).x
    return total / composite.combined_sigma

