import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskrl.rng import Rng
from deskrl.stats import (METRIC_NAMES, AggregateMetrics, RunMatrix, aggregate,
                          aggregate_with_ci, bootstrap_ci, final_score,
                          interquartile_mean, metric_value, optimality_gap)


def matrix(scores, seeds=None, envs=None):
    scores = np.asarray(scores, dtype=np.float64)
    s, m = scores.shape
    return RunMatrix(scores, seeds or list(range(s)),
                     envs or [f"env{j}" for j in range(m)])


def iqm_oracle(values):
    """Replicate each value 4x so the 25% trim is an exact integer count."""
    rep = np.sort(np.repeat(np.asarray(values, dtype=np.float64).ravel(), 4))
    n = rep.size // 4
    return rep[n:-n].mean()


# -- run matrix validation ---------------------------------------------------

def test_run_matrix_validation():
    with pytest.raises(ValueError):
        matrix(np.zeros(5)[None].T, seeds=[0], envs=["a"])  # shape mismatch
    with pytest.raises(ValueError):
        RunMatrix(np.zeros(6), [0], ["a"])  # not 2-D
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        matrix(bad)


# -- point estimates ---------------------------------------------------------

def test_all_metrics_on_constant_scores():
    m = aggregate(matrix(np.full((5, 3), 1.0)))
    assert (m.median, m.iqm, m.mean, m.optimality_gap) == (1.0, 1.0, 1.0, 0.0)


def test_gap_complements_mean_when_scores_in_unit_interval():
    scores = Rng(0).uniform(0, 1, size=(6, 4))
    m = aggregate(matrix(scores))
    assert m.optimality_gap == pytest.approx(1.0 - m.mean, abs=1e-12)
    # the published full-scale pairing: mean 0.64 <-> gap 0.36
    scaled = matrix(np.full((5, 3), 0.64))
    agg = aggregate(scaled)
    assert agg.mean == pytest.approx(0.64)
    assert agg.optimality_gap == pytest.approx(0.36)


def test_gap_caps_scores_above_one():
    m = aggregate(matrix(np.array([[2.0, 0.5]])))
    assert m.optimality_gap == pytest.approx(0.25)  # 2.0 counts as 1.0


def test_iqm_known_example():
    # 8 values: trim the bottom 2 and top 2, average the middle 4.
    vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0])
    assert interquartile_mean(vals) == pytest.approx((2 + 3 + 4 + 5) / 4)


def test_iqm_fractional_trim_small_samples():
    for vals in ([1.0, 2.0, 3.0], [1.0, 5.0], [4.0],
                 [0.0, 1.0, 2.0, 3.0, 100.0]):
        assert interquartile_mean(np.array(vals)) == pytest.approx(
            iqm_oracle(vals), abs=1e-12)


def test_iqm_robust_to_outliers_unlike_mean():
    vals = np.array([0.5] * 10 + [1e6])
    assert interquartile_mean(vals) == pytest.approx(0.5)
    assert vals.mean() > 1000


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_iqm_matches_replication_oracle(vals):
    assert interquartile_mean(np.array(vals)) == pytest.approx(
        iqm_oracle(vals), rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.001, 2.0))
def test_metrics_permutation_invariant_and_monotone(seed, shift):
    r = Rng(seed)
    scores = r.uniform(0, 0.8, size=(5, 3))
    perm = scores.ravel()[r.permutation(15)].reshape(5, 3)
    for name in METRIC_NAMES:
        assert metric_value(scores, name) == pytest.approx(
            metric_value(perm, name), abs=1e-12)
    for name in ("median", "iqm", "mean"):
        assert metric_value(scores + shift * 0.1, name) >= metric_value(scores, name)
    assert metric_value(scores + shift * 0.1, "optimality_gap") <= \
        metric_value(scores, "optimality_gap")


def test_metric_value_errors():
    with pytest.raises(KeyError):
        metric_value(np.ones((2, 2)), "variance")
    with pytest.raises(ValueError):
        metric_value(np.empty((0,)), "mean")


# -- bootstrap ---------------------------------------------------------------

def test_bootstrap_constant_data_has_zero_width():
    m = matrix(np.full((5, 3), 0.7))
    lo, hi = bootstrap_ci(m, "mean", 200, 0.95, Rng(0))
    assert lo == hi == pytest.approx(0.7)


def test_bootstrap_single_seed_degenerates_to_point():
    m = matrix(np.array([[0.2, 0.8, 0.5]]))
    lo, hi = bootstrap_ci(m, "mean", 200, 0.95, Rng(0))
    assert lo == hi == pytest.approx(0.5)


def test_bootstrap_interval_contains_estimate_and_is_deterministic():
    m = matrix(Rng(1).uniform(0, 1, size=(8, 3)))
    for name in METRIC_NAMES:
        lo1, hi1 = bootstrap_ci(m, name, 500, 0.95, Rng(42))
        lo2, hi2 = bootstrap_ci(m, name, 500, 0.95, Rng(42))
        assert (lo1, hi1) == (lo2, hi2)
        assert lo1 <= hi1


def test_bootstrap_width_shrinks_with_more_seeds():
    r = Rng(3)
    small = matrix(r.uniform(0, 1, size=(3, 4)))
    big = matrix(r.uniform(0, 1, size=(30, 4)))
    lo_s, hi_s = bootstrap_ci(small, "mean", 1000, 0.95, Rng(5))
    lo_b, hi_b = bootstrap_ci(big, "mean", 1000, 0.95, Rng(5))
    assert (hi_b - lo_b) < (hi_s - lo_s)


def stratified_loop_ci(m, metric, num_resamples, confidence, rng):
    """Reference: one (seeds, envs) draw per resample, each reduced on its own."""
    s, e = m.scores.shape
    estimates = np.empty(num_resamples)
    for b in range(num_resamples):
        idx = rng.integers(0, s, size=(s, e))
        estimates[b] = metric_value(np.take_along_axis(m.scores, idx, axis=0), metric)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(estimates, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (5, 3), (4, 1), (7, 5), (6, 4)])
def test_bootstrap_matches_the_per_resample_loop_exactly(shape):
    r = Rng(sum(shape))
    for trial in range(3):
        scores = r.uniform(-0.2, 1.3, size=shape)
        if trial == 2:
            scores = np.round(scores, 1)  # ties
        m = matrix(scores)
        for name in METRIC_NAMES:
            got = bootstrap_ci(m, name, 300, 0.95, Rng(trial).split(name))
            assert got == stratified_loop_ci(m, name, 300, 0.95, Rng(trial).split(name))


def test_bootstrap_keeps_env_columns_fixed():
    # Strong per-env offsets and little spread within an env: resampling seeds
    # within each column keeps every env's offset in every resample, so the
    # mean's interval stays between the means of the column minima and maxima.
    base = Rng(7).uniform(0, 0.05, size=(6, 3))
    base[:, 1] += 0.5
    base[:, 2] += 0.9
    lo, hi = bootstrap_ci(matrix(base), "mean", 1000, 0.95, Rng(8))
    assert base.min(axis=0).mean() <= lo <= hi <= base.max(axis=0).mean()


def test_bootstrap_parameter_validation():
    m = matrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        bootstrap_ci(m, "mean", 50, 0.95, Rng(0))
    with pytest.raises(ValueError):
        bootstrap_ci(m, "mean", 200, 1.5, Rng(0))


def test_aggregate_with_ci_clamps_to_contain_point():
    m = matrix(Rng(2).uniform(0, 1, size=(5, 3)))
    out = aggregate_with_ci(m, 300, 0.95, Rng(1))
    assert isinstance(out, AggregateMetrics)
    for name in METRIC_NAMES:
        assert out.ci_low[name] <= getattr(out, name) <= out.ci_high[name]


# -- final score -------------------------------------------------------------

def test_final_score_window():
    t = np.arange(10.0)
    assert final_score(t, window=3) == pytest.approx(8.0)
    assert final_score(t, window=100) == pytest.approx(4.5)  # whole timeline
    assert final_score(np.array([0.7]), 100) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        final_score(np.array([]), 10)
    for window in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="window must be a positive integer"):
            final_score(t, window)


def test_final_score_tracks_late_improvement():
    ramp = np.concatenate([np.zeros(50), np.ones(50)])
    assert final_score(ramp, window=25) == pytest.approx(1.0)
    assert final_score(ramp, window=100) == pytest.approx(0.5)
