"""Scaling-law fitting helpers.

The reproduction does not try to match absolute constants (our substrate
is a simulator, not the authors' model network); what must match is the
*shape* of the curves: message counts growing near-linearly in ``m`` for
the paper's algorithm versus ``n^{3/2}`` for GKP, round counts growing
like ``sqrt(n) log n`` versus ``n log n`` for GHS, and so on.  The
helper here fits power laws on log-log scales, which is what the
benchmark output and EXPERIMENTS.md report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    if len(set(xs)) < 2:
        raise ReproError("power-law fitting requires at least two distinct x values")
    # Ordinary least squares in closed form (one predictor plus an
    # intercept).
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
