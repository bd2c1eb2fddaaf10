"""Robust summary statistics for repeated measurements (ReproMPI-style).

Micro-benchmark repetitions on real systems carry warmup transients and
long-tail outliers; ReproMPI's methodology [Hunold & Carpen-Amarie, TPDS'16]
therefore reports medians with nonparametric confidence intervals and
supports dropping warmup repetitions and winsorizing tails.  The simulator
is deterministic unless noise/synced clocks are active, but the harness
exposes the same statistics so downstream analysis code is portable to real
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Summary of one measurement series."""

    n: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def relative_spread(self) -> float:
        """(max - min) / median — a quick stability indicator."""
        return (self.maximum - self.minimum) / self.median if self.median else 0.0


def drop_warmup(values: np.ndarray, warmup: int) -> np.ndarray:
    """Drop the first ``warmup`` repetitions (must leave at least one)."""
    values = np.asarray(values, dtype=float)
    if warmup < 0:
        raise ConfigurationError("warmup must be non-negative")
    if warmup >= values.size:
        raise ConfigurationError(
            f"warmup={warmup} leaves no measurements out of {values.size}"
        )
    return values[warmup:]


def winsorize(values: np.ndarray, fraction: float = 0.05) -> np.ndarray:
    """Clamp the top/bottom ``fraction`` of values to the remaining extremes."""
    values = np.asarray(values, dtype=float)
    if not (0.0 <= fraction < 0.5):
        raise ConfigurationError("winsorize fraction must be in [0, 0.5)")
    if values.size == 0:
        raise ConfigurationError("empty measurement series")
    lo, hi = np.quantile(values, [fraction, 1.0 - fraction])
    return np.clip(values, lo, hi)


def median_ci(values: np.ndarray, confidence: float = 0.95) -> tuple[float, float]:
    """Nonparametric (order-statistic) confidence interval for the median.

    Standard binomial construction [Conover, Practical Nonparametric
    Statistics]: with ``B ~ Binom(n, 1/2)`` counting observations below the
    median, the interval is ``(x_(l), x_(u))`` in 1-based order statistics
    with ``l = binom.ppf(alpha/2, n, 1/2)`` and
    ``u = binom.ppf(1 - alpha/2, n, 1/2) + 1``.  Its exact coverage is
    ``P(l <= B <= u-1) = cdf(u-1) - cdf(l-1) >= confidence``.  For tiny
    samples the interval degenerates to (min, max).
    """
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    if n == 0:
        raise ConfigurationError("empty measurement series")
    if not (0.0 < confidence < 1.0):
        raise ConfigurationError("confidence must be in (0, 1)")
    if n < 3:
        return float(values[0]), float(values[-1])
    from scipy import stats as sps

    alpha = 1.0 - confidence
    lower_stat = int(sps.binom.ppf(alpha / 2, n, 0.5))        # l, 1-based
    upper_stat = int(sps.binom.ppf(1 - alpha / 2, n, 0.5)) + 1  # u, 1-based
    lower = max(0, min(lower_stat - 1, n - 1))  # 0-based indices
    upper = max(0, min(upper_stat - 1, n - 1))
    return float(values[lower]), float(values[upper])


def summarize(
    values,
    warmup: int = 0,
    winsor_fraction: float = 0.0,
    confidence: float = 0.95,
) -> Summary:
    """Full summary with optional warmup dropping and winsorization."""
    series = np.asarray(values, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ConfigurationError("measurements must be a non-empty 1-D series")
    if warmup:
        series = drop_warmup(series, warmup)
    if winsor_fraction:
        series = winsorize(series, winsor_fraction)
    ci_low, ci_high = median_ci(series, confidence)
    return Summary(
        n=int(series.size),
        mean=float(series.mean()),
        median=float(np.median(series)),
        std=float(series.std(ddof=1)) if series.size > 1 else 0.0,
        minimum=float(series.min()),
        maximum=float(series.max()),
        ci_low=ci_low,
        ci_high=ci_high,
        confidence=confidence,
    )


__all__ = ["Summary", "summarize", "drop_warmup", "winsorize", "median_ci"]
