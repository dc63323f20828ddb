"""Robust z-scores, traffic drop ratio, cohort difference, bootstrap CI."""

import numpy as np
import pytest

from hoaxlens.attention import (
    BOOTSTRAP_CHUNK,
    AttentionScore,
    EmptyCohortScores,
    WrongWindowLength,
    ZeroMAD,
    bootstrap_mean_ci,
    bootstrap_resample_means,
    cohort_d,
    delta_v,
    modified_z,
)


def test_modified_z_example():
    score = modified_z(5.0, [1, 2, 3, 4, 9], feature="ratio")
    assert score.cohort_median == 3.0
    assert score.cohort_mad == 1.0
    assert score.z == 2.0
    assert score.feature == "ratio"


def test_modified_z_no_consistency_constant():
    # MAD is used raw, no 0.6745 rescaling: half a MAD above the median is 0.5.
    score = modified_z(4.0, [1.0, 3.0, 5.0])
    assert score.cohort_median == 3.0
    assert score.cohort_mad == 2.0
    assert score.z == 0.5


def test_modified_z_zero_mad():
    with pytest.raises(ZeroMAD):
        modified_z(1.0, [2.0, 2.0, 2.0, 2.0])
    # More than half the cohort equal is enough.
    with pytest.raises(ZeroMAD):
        modified_z(1.0, [2.0, 2.0, 2.0, 5.0, 9.0])


def test_modified_z_empty_cohort():
    with pytest.raises(ValueError):
        modified_z(1.0, [])


def test_modified_z_translation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        values = rng.integers(-50, 50, size=rng.integers(2, 20)).astype(float)
        if np.median(np.abs(values - np.median(values))) == 0:
            continue
        x = float(rng.integers(-50, 50))
        shift = float(rng.integers(-100, 100))
        base = modified_z(x, values)
        moved = modified_z(x + shift, values + shift)
        assert moved.z == pytest.approx(base.z, abs=1e-12)


def test_delta_v_examples():
    drop = delta_v([2] * 7, [0] * 7)
    assert drop.delta_v == 1.0
    flat = delta_v([3] * 7, [3] * 7)
    assert flat.delta_v == 0.0
    assert delta_v([0] * 7, [0] * 7) is None


def test_delta_v_uses_medians():
    # One outlier day does not move the window value.
    score = delta_v([10, 10, 10, 10, 10, 10, 1000], [5, 5, 5, 5, 5, 5, 5])
    assert score.v_before == 10.0
    assert score.v_after == 5.0
    assert score.delta_v == pytest.approx((10 - 5) / 15)


def test_delta_v_window_length_and_negatives():
    with pytest.raises(WrongWindowLength):
        delta_v([1] * 6, [1] * 7)
    with pytest.raises(WrongWindowLength):
        delta_v([1] * 7, [1] * 8)
    with pytest.raises(ValueError):
        delta_v([1, 1, 1, 1, 1, 1, -1], [1] * 7)
    assert delta_v([2] * 3, [1] * 3, span=3).delta_v == pytest.approx(1 / 3)


def test_delta_v_bounds_and_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(200):
        before = rng.integers(0, 100, size=7).tolist()
        after = rng.integers(0, 100, size=7).tolist()
        forward = delta_v(before, after)
        backward = delta_v(after, before)
        if forward is None:
            assert backward is None
            continue
        assert -1.0 <= forward.delta_v <= 1.0
        assert backward.delta_v == -forward.delta_v


def test_delta_v_scale_invariance_integer_factors():
    before = [4, 8, 2, 6, 6, 4, 2]
    after = [1, 3, 1, 1, 5, 1, 3]
    base = delta_v(before, after).delta_v
    for k in (2, 3, 10, 1000):
        scaled = delta_v([k * v for v in before], [k * v for v in after]).delta_v
        assert scaled == base


def test_cohort_d_example():
    hoax = AttentionScore("H", 3, 1, 0.5)
    cohort = [
        AttentionScore("A", 1, 1, 0.1),
        AttentionScore("B", 1, 1, 0.2),
        AttentionScore("C", 1, 1, 0.3),
    ]
    result = cohort_d(hoax, cohort)
    assert result.cohort_n == 3
    assert result.cohort_mean == pytest.approx(0.2)
    assert result.d == pytest.approx(0.3)
    # Identity holds exactly in floating point, not just approximately.
    assert result.d == hoax.delta_v - result.cohort_mean


def test_cohort_d_drops_undefined():
    hoax = AttentionScore("H", 3, 1, 0.5)
    cohort = [None, AttentionScore("A", 1, 1, 0.1), None]
    result = cohort_d(hoax, cohort)
    assert result.cohort_n == 1
    assert result.cohort_mean == pytest.approx(0.1)


def test_cohort_d_all_undefined_raises():
    with pytest.raises(EmptyCohortScores):
        cohort_d(AttentionScore("H", 3, 1, 0.5), [None, None])


def test_bootstrap_deterministic():
    values = [0.1, 0.4, -0.2, 0.3, 0.0, 0.25]
    a = bootstrap_mean_ci(values, resamples=2000, seed=9)
    b = bootstrap_mean_ci(values, resamples=2000, seed=9)
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    c = bootstrap_mean_ci(values, resamples=2000, seed=10)
    assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)


def test_bootstrap_degenerate_sample():
    summary = bootstrap_mean_ci([0.5] * 10, resamples=500, seed=1)
    assert summary.ci_low == summary.ci_high == summary.sample_mean == 0.5


def test_bootstrap_mean_inside_ci():
    rng = np.random.default_rng(3)
    for trial in range(50):
        values = rng.normal(size=rng.integers(5, 40))
        summary = bootstrap_mean_ci(values, resamples=1000, seed=trial)
        assert summary.ci_low <= summary.sample_mean <= summary.ci_high
        assert summary.sample_mean == pytest.approx(float(np.mean(values)))


def test_bootstrap_empty_and_bad_args():
    with pytest.raises(ValueError):
        bootstrap_mean_ci([], seed=0)
    with pytest.raises(ValueError):
        bootstrap_mean_ci([1.0], resamples=0, seed=0)


def test_bootstrap_resample_means_match_summary():
    values = [0.1, 0.2, 0.7, -0.3]
    means = bootstrap_resample_means(values, resamples=500, seed=4)
    assert means.shape == (500,)
    summary = bootstrap_mean_ci(values, resamples=500, seed=4)
    lo, hi = np.percentile(means, [2.5, 97.5])
    assert summary.ci_low == float(lo)
    assert summary.ci_high == float(hi)
    assert np.array_equal(summary.means, means)


@pytest.mark.parametrize("n", [1, 7, 400])
@pytest.mark.parametrize("seed", [0, 1, 2**63])
def test_bootstrap_chunked_draw_matches_one_shot(n, seed):
    values = np.random.default_rng(n).normal(size=n)
    resamples = 2 * BOOTSTRAP_CHUNK + 3
    rng = np.random.default_rng(seed)
    one_shot = values[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    means = bootstrap_resample_means(values, resamples=resamples, seed=seed)
    assert means.tobytes() == one_shot.tobytes()
