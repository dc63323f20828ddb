"""Attention statistics: robust feature z-scores, traffic drop ratios, bootstrap CIs.

The central quantity is the relative traffic drop of an article's link
neighborhood around its creation day, compared against the same quantity for a
same-day cohort; a positive difference means attention preceded creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# Resample rows drawn at once by bootstrap_resample_means.
BOOTSTRAP_CHUNK = 1024


class ZeroMAD(ValueError):
    """Median absolute deviation is zero; the z-score is undefined."""


class WrongWindowLength(ValueError):
    """Window vector does not match the configured span."""


class EmptyCohortScores(ValueError):
    """Every cohort member's score was undefined; no baseline exists."""


@dataclass
class FeatureZScore:
    feature: str
    value: float
    cohort_median: float
    cohort_mad: float
    z: float


@dataclass
class AttentionScore:
    title: str
    v_before: float
    v_after: float
    delta_v: float


@dataclass
class CohortAttentionResult:
    hoax_score: AttentionScore
    cohort_scores: list[AttentionScore]
    cohort_mean: float
    cohort_n: int
    d: float


@dataclass
class BootstrapSummary:
    sample_mean: float
    resamples: int
    ci_low: float
    ci_high: float
    seed: int
    means: np.ndarray = field(compare=False, repr=False)


def modified_z(x: float, cohort_values, feature: str = "") -> FeatureZScore:
    """Deviation of x from the cohort in MAD units: (x - median) / MAD.

    No consistency scaling is applied to the MAD. Raises ZeroMAD when more than
    half the cohort shares one value, ValueError on an empty cohort.
    """
    values = np.asarray(list(cohort_values), dtype=float)
    if values.size == 0:
        raise ValueError("empty cohort")
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    if mad == 0.0:
        raise ZeroMAD(f"MAD is zero for feature {feature!r}")
    return FeatureZScore(
        feature=feature,
        value=float(x),
        cohort_median=median,
        cohort_mad=mad,
        z=(float(x) - median) / mad,
    )


def delta_v(before, after, span: int = 7, title: str = "") -> AttentionScore | None:
    """Relative traffic drop (Vb - Va) / (Vb + Va) over median daily totals.

    Vb and Va are the medians of the before/after window vectors. Returns None
    when both medians are zero (no traffic, drop undefined). The result is
    invariant under positive rescaling of both windows and flips sign when the
    windows are swapped.
    """
    before = list(before)
    after = list(after)
    if len(before) != span:
        raise WrongWindowLength(f"before window has {len(before)} days, expected {span}")
    if len(after) != span:
        raise WrongWindowLength(f"after window has {len(after)} days, expected {span}")
    if min(before) < 0 or min(after) < 0:
        raise ValueError("window totals must be non-negative")
    v_before = float(np.median(before))
    v_after = float(np.median(after))
    total = v_before + v_after
    if total == 0.0:
        return None
    return AttentionScore(
        title=title,
        v_before=v_before,
        v_after=v_after,
        delta_v=(v_before - v_after) / total,
    )


def cohort_d(
    hoax_score: AttentionScore, cohort_scores
) -> CohortAttentionResult:
    """Hoax drop minus the cohort mean drop; None scores are excluded first."""
    included = [s for s in cohort_scores if s is not None]
    if not included:
        raise EmptyCohortScores(f"no defined cohort scores for {hoax_score.title}")
    mean = sum(s.delta_v for s in included) / len(included)
    return CohortAttentionResult(
        hoax_score=hoax_score,
        cohort_scores=included,
        cohort_mean=mean,
        cohort_n=len(included),
        d=hoax_score.delta_v - mean,
    )


def bootstrap_resample_means(values, resamples: int = 10000, seed: int = 0) -> np.ndarray:
    """Means of ``resamples`` with-replacement resamples, deterministically seeded."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    # Rows are drawn BOOTSTRAP_CHUNK at a time to bound memory. The generator
    # gives the same values as one resamples x n draw, so the means match it.
    means = []
    for start in range(0, resamples, BOOTSTRAP_CHUNK):
        rows = min(BOOTSTRAP_CHUNK, resamples - start)
        idx = rng.integers(0, arr.size, size=(rows, arr.size))
        means.append(arr[idx].mean(axis=1))
    return np.concatenate(means)


def bootstrap_mean_ci(values, resamples: int = 10000, seed: int = 0) -> BootstrapSummary:
    """Percentile bootstrap 95% CI for the mean; same seed, same interval.

    The resample means the interval comes from are returned as ``means``.
    """
    values = list(values)
    means = bootstrap_resample_means(values, resamples=resamples, seed=seed)
    low, high = np.percentile(means, [2.5, 97.5])
    return BootstrapSummary(
        sample_mean=float(np.mean(values)),
        resamples=resamples,
        ci_low=float(low),
        ci_high=float(high),
        seed=seed,
        means=means,
    )
