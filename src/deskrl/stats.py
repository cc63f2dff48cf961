"""Aggregate evaluation metrics over a (seed x environment) score matrix.

Point estimates pool all normalized scores: median, interquartile mean
(mean of the middle 50%, with fractional weighting of the boundary order
statistics when the sample size is not divisible by four), arithmetic mean,
and optimality gap (mean shortfall below 1.0 with scores capped at 1.0).
Confidence intervals come from a stratified percentile bootstrap that
resamples seeds with replacement within each environment column; a flag
switches to joint (seed, env) run resampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

METRIC_NAMES = ("median", "iqm", "mean", "optimality_gap")

__all__ = ["RunMatrix", "AggregateMetrics", "aggregate", "aggregate_with_ci",
           "metric_value", "interquartile_mean", "optimality_gap",
           "bootstrap_ci", "final_score", "METRIC_NAMES"]


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


def interquartile_mean(values: np.ndarray) -> float:
    """Mean of the middle 50% of the sorted sample.

    A quarter of the total weight is trimmed from each end; when n is not
    divisible by 4 the two boundary order statistics enter with fractional
    weight (linear interpolation).
    """
    x = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    lo = n / 4.0
    hi = n - lo
    # weight of order statistic i = overlap of [i, i+1) with [lo, hi)
    i = np.arange(n)
    w = np.clip(np.minimum(i + 1.0, hi) - np.maximum(i.astype(float), lo), 0.0, 1.0)
    return float((w * x).sum() / w.sum())


def optimality_gap(values: np.ndarray) -> float:
    """Mean of 1 - min(score, 1): shortfall below the normalized optimum."""
    x = np.asarray(values, dtype=np.float64).ravel()
    return float(np.mean(1.0 - np.minimum(x, 1.0)))


def metric_value(scores: np.ndarray, metric: str) -> float:
    flat = np.asarray(scores, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("empty score matrix")
    if metric == "median":
        return float(np.median(flat))
    if metric == "iqm":
        return interquartile_mean(flat)
    if metric == "mean":
        return float(flat.mean())
    if metric == "optimality_gap":
        return optimality_gap(flat)
    raise KeyError(f"unknown metric {metric!r}; known: {METRIC_NAMES}")


def aggregate(matrix: RunMatrix) -> AggregateMetrics:
    return AggregateMetrics(
        median=metric_value(matrix.scores, "median"),
        iqm=metric_value(matrix.scores, "iqm"),
        mean=metric_value(matrix.scores, "mean"),
        optimality_gap=metric_value(matrix.scores, "optimality_gap"),
    )


def bootstrap_ci(matrix: RunMatrix, metric: str, num_resamples: int,
                 confidence: float, rng: Rng,
                 stratified: bool = True) -> tuple[float, float]:
    """Percentile bootstrap interval for an aggregate metric.

    stratified=True resamples seeds with replacement independently within
    each environment column; stratified=False resamples whole (seed, env)
    cells jointly from the pooled sample.
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
    estimates = np.empty(num_resamples)
    for b in range(num_resamples):
        if stratified:
            idx = rng.integers(0, s, size=(s, m))
            sample = np.take_along_axis(matrix.scores, idx, axis=0)
        else:
            flat = matrix.scores.ravel()
            sample = flat[rng.integers(0, flat.size, size=flat.size)]
        estimates[b] = metric_value(sample, metric)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(estimates, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def aggregate_with_ci(matrix: RunMatrix, num_resamples: int, confidence: float,
                      rng: Rng, stratified: bool = True) -> AggregateMetrics:
    out = aggregate(matrix)
    out.ci_low, out.ci_high = {}, {}
    for name in METRIC_NAMES:
        lo, hi = bootstrap_ci(matrix, name, num_resamples, confidence,
                              rng.split(f"boot:{name}"), stratified)
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
