"""Aggregate evaluation metrics over a (seed x environment) score matrix.

Each metric is one reduction over the last axis, declared once in
`_METRICS`: median, interquartile mean (mean of the middle 50%, with
fractional weighting of the boundary order statistics when the sample size
is not divisible by four), arithmetic mean, and optimality gap (mean
shortfall below 1.0 with scores capped at 1.0). Point estimates reduce the
pooled scores. Confidence intervals come from a stratified percentile
bootstrap that resamples seeds with replacement within each environment
column; every resample is one row of a single draw, reduced by the same
table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = ["RunMatrix", "AggregateMetrics", "aggregate", "aggregate_with_ci",
           "metric_value", "interquartile_mean", "optimality_gap",
           "bootstrap_ci", "final_score", "METRIC_NAMES"]


def _iqm(x: np.ndarray) -> np.ndarray:
    # A quarter of the weight is trimmed from each end; the weight of order
    # statistic i is the overlap of [i, i+1) with [n/4, n - n/4).
    x = np.sort(x, axis=-1)
    n = x.shape[-1]
    lo = n / 4.0
    i = np.arange(n)
    w = np.clip(np.minimum(i + 1.0, n - lo) - np.maximum(i.astype(float), lo), 0.0, 1.0)
    return (w * x).sum(axis=-1) / w.sum()


def _gap(x: np.ndarray) -> np.ndarray:
    return np.mean(1.0 - np.minimum(x, 1.0), axis=-1)


# Metric name -> reduction of the last axis of a float64 array.
_METRICS = {
    "median": functools.partial(np.median, axis=-1),
    "iqm": _iqm,
    "mean": functools.partial(np.mean, axis=-1),
    "optimality_gap": _gap,
}
METRIC_NAMES = tuple(_METRICS)


@dataclass
class RunMatrix:
    """S seeds x M environments of normalized final scores."""

    scores: np.ndarray
    seed_ids: list[int]
    env_names: list[str]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise ValueError("scores must be a 2-D (seeds x envs) array")
        if self.scores.shape != (len(self.seed_ids), len(self.env_names)):
            raise ValueError("scores shape does not match seed/env labels")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite with no missing cells")


@dataclass
class AggregateMetrics:
    median: float
    iqm: float
    mean: float
    optimality_gap: float
    ci_low: dict[str, float] | None = None
    ci_high: dict[str, float] | None = None


def metric_value(scores: np.ndarray, metric: str) -> float:
    """`metric` of all scores pooled."""
    flat = np.asarray(scores, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("empty score matrix")
    if metric not in _METRICS:
        raise KeyError(f"unknown metric {metric!r}; known: {METRIC_NAMES}")
    return float(_METRICS[metric](flat))


def interquartile_mean(values: np.ndarray) -> float:
    """Mean of the middle 50% of the pooled sample (fractional boundary weights)."""
    return metric_value(values, "iqm")


def optimality_gap(values: np.ndarray) -> float:
    """Mean of 1 - min(score, 1): shortfall below the normalized optimum."""
    return metric_value(values, "optimality_gap")


def aggregate(matrix: RunMatrix) -> AggregateMetrics:
    return AggregateMetrics(**{name: metric_value(matrix.scores, name)
                               for name in METRIC_NAMES})


def bootstrap_ci(matrix: RunMatrix, metric: str, num_resamples: int,
                 confidence: float, rng: Rng) -> tuple[float, float]:
    """Stratified percentile bootstrap interval for an aggregate metric.

    Each resample draws seeds with replacement independently within every
    environment column. All resamples come from one draw, whose indices
    equal `num_resamples` successive (seeds, envs) draws, and each row is
    reduced by the metric's entry in `_METRICS`.
    """
    if num_resamples < 100:
        raise ValueError("num_resamples must be >= 100")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    s, m = matrix.scores.shape
    if s == 1:
        # Degenerate: a single seed cannot be resampled meaningfully.
        v = metric_value(matrix.scores, metric)
        return (v, v)
    idx = rng.integers(0, s, size=(num_resamples, s, m))
    samples = np.take_along_axis(matrix.scores[None], idx, axis=1)
    estimates = _METRICS[metric](samples.reshape(num_resamples, s * m))
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(estimates, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def aggregate_with_ci(matrix: RunMatrix, num_resamples: int, confidence: float,
                      rng: Rng) -> AggregateMetrics:
    out = aggregate(matrix)
    out.ci_low, out.ci_high = {}, {}
    for name in METRIC_NAMES:
        lo, hi = bootstrap_ci(matrix, name, num_resamples, confidence,
                              rng.split(f"boot:{name}"))
        point = getattr(out, name)
        out.ci_low[name] = min(lo, point)
        out.ci_high[name] = max(hi, point)
    return out


def final_score(timeline: np.ndarray, window: int = 100) -> float:
    """Mean of the last `window` evaluation records (all of them if fewer)."""
    if isinstance(window, bool) or not isinstance(window, int) or window < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    t = np.asarray(timeline, dtype=np.float64).ravel()
    if t.size == 0:
        raise ValueError("empty timeline")
    return float(t[-window:].mean())
