"""Scaling-law fitting helpers.

The reproduction does not try to match absolute constants (our substrate
is a simulator, not the authors' model network); what must match is the
*shape* of the curves: message counts growing near-linearly in ``m`` for
the paper's algorithm versus ``n^{3/2}`` for GKP, round counts growing
like ``sqrt(n) log n`` versus ``n log n`` for GHS, and so on.  The
helpers here fit power laws on log-log scales and compute ratio series,
which is what the benchmark output and EXPERIMENTS.md report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

try:  # numpy is the optional [fast] extra; fitting falls back without it
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from ..exceptions import ReproError


@dataclass(frozen=True)
class PowerLawFit:
    """A least-squares fit of ``y ~= scale * x ** exponent``."""

    exponent: float
    scale: float
    residual: float

    def predict(self, x: float) -> float:
        return self.scale * (x**self.exponent)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = scale * x^exponent`` by linear regression in log-log space.

    Requires at least two strictly positive points with two distinct x
    values.  The ``residual`` is the mean squared error of the fit in log
    space (useful for judging whether a power law is a reasonable
    description at all).
    """
    if len(xs) != len(ys):
        raise ReproError(f"mismatched series lengths: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ReproError("need at least two points to fit a power law")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ReproError("power-law fitting requires strictly positive values")
    # Checked before either path: numpy's lstsq would return a
    # minimum-norm exponent for a vertical series instead of failing.
    if len(set(xs)) < 2:
        raise ReproError("power-law fitting requires at least two distinct x values")
    if np is not None:
        log_x = np.log(np.asarray(xs, dtype=float))
        log_y = np.log(np.asarray(ys, dtype=float))
        design = np.vstack([log_x, np.ones_like(log_x)]).T
        (slope, intercept), residuals, _, _ = np.linalg.lstsq(design, log_y, rcond=None)
        if residuals.size:
            mse = float(residuals[0]) / len(xs)
        else:
            mse = float(np.mean((design @ np.array([slope, intercept]) - log_y) ** 2))
        return PowerLawFit(
            exponent=float(slope), scale=float(np.exp(intercept)), residual=mse
        )
    # Pure-Python ordinary least squares (the closed form for one
    # predictor plus intercept is mathematically the lstsq solution).
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    count = len(log_x)
    mean_x = sum(log_x) / count
    mean_y = sum(log_y) / count
    variance = sum((lx - mean_x) ** 2 for lx in log_x)
    slope = sum(
        (lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y)
    ) / variance
    intercept = mean_y - slope * mean_x
    mse = sum(
        (slope * lx + intercept - ly) ** 2 for lx, ly in zip(log_x, log_y)
    ) / count
    return PowerLawFit(
        exponent=slope, scale=math.exp(intercept), residual=mse
    )


def ratio_series(numerators: Sequence[float], denominators: Sequence[float]) -> list[float]:
    """Element-wise ratios, used for "who wins by what factor" summaries."""
    if len(numerators) != len(denominators):
        raise ReproError(
            f"mismatched series lengths: {len(numerators)} vs {len(denominators)}"
        )
    ratios = []
    for numerator, denominator in zip(numerators, denominators):
        if denominator == 0:
            raise ReproError("cannot compute a ratio with a zero denominator")
        ratios.append(numerator / denominator)
    return ratios
