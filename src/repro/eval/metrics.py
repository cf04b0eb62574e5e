"""Metric helpers used across the evaluation."""

from __future__ import annotations

import math
from typing import Iterable

from repro.hw.stats import sequential_sum


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty input or non-positive values."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sequential_sum(math.log(v) for v in values) / len(values))


def improvement_factor(baseline: float, improved: float) -> float:
    """How many times better *improved* is than *baseline* (> 1 means better,
    i.e. lower energy / time / EDP)."""
    if baseline <= 0 or improved <= 0:
        raise ValueError("improvement factor requires positive quantities")
    return baseline / improved


def edp(energy_j: float, time_s: float) -> float:
    """Energy-delay product."""
    if energy_j < 0 or time_s < 0:
        raise ValueError("energy and time must be non-negative")
    return energy_j * time_s


def signed_log_improvement(factor: float) -> float:
    """The paper's Figure 6 plots improvements on a symmetric log-like axis:
    factors above 1 are reported as-is, factors below 1 are reported as the
    negative inverse (a 0.25x 'improvement' shows as -4x)."""
    if factor <= 0:
        raise ValueError("improvement factor must be positive")
    if factor >= 1.0:
        return factor
    return -1.0 / factor
