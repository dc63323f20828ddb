"""Attention statistics: robust feature z-scores, traffic drop ratios, bootstrap CIs.

The central quantity is the relative traffic drop of an article's link
neighborhood around its creation day, compared against the same quantity for a
same-day cohort; a positive difference means attention preceded creation.
``score_hoaxes`` applies that rule to every hoax and is the one place that
decides a hoax's D or the reason it has none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


# Index cells (resample rows x sample size) bootstrap_resample_means draws at
# once: 128 KiB per int64 array, whatever the sample size.
BOOTSTRAP_CELLS = 1 << 14


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


def _median(values) -> float:
    """Median with numpy's arithmetic: the middle value as a float, or the mean
    of the two middle values, each converted to float before they are added."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2


def modified_z(x: float, cohort_values, feature: str = "") -> FeatureZScore:
    """Deviation of x from the cohort in MAD units: (x - median) / MAD.

    No consistency scaling is applied to the MAD. Raises ZeroMAD when more than
    half the cohort shares one value, ValueError on an empty cohort.
    """
    values = [float(v) for v in cohort_values]
    if not values:
        raise ValueError("empty cohort")
    median = _median(values)
    mad = _median([abs(v - median) for v in values])
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
    v_before = _median(before)
    v_after = _median(after)
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


def score_hoaxes(store, span: int, creation, cohorts, excluded, neighbors):
    """D for each hoax created on ``creation[hoax]`` against the defined scores
    of that day's cohort ``cohorts[creation[hoax]]``.

    ``excluded`` holds the cohort stage's reason for each hoax it left out, and
    ``neighbors`` the neighbor titles of each article that has a fixture.
    Returns the CohortAttentionResults, the ``[hoax, reason]`` exclusions, both
    in hoax title order, and the score cache's ``cache_info()``.
    """
    # Imported here so that features loads no more modules. window_totals, delta_v and
    # cohort_d are looked up at each call, so wrappers set on them see every call.
    from . import logstore

    @functools.cache  # per (title, day): hoaxes created the same day share member scores
    def article_score(title: str, day0) -> AttentionScore | str:
        titles = neighbors.get(title)
        if titles is None:
            return "no_fixture"
        if not titles:
            return "no_neighbors"
        try:
            before, after = logstore.window_totals(store, titles, day0, span)
        except logstore.OutOfCoverage:
            return "out_of_coverage"
        score = delta_v(before, after, span=span, title=title)
        return "undefined_delta_v" if score is None else score

    results, exclusions = [], []
    for title in sorted(creation.keys() | excluded.keys()):
        if title in excluded:
            exclusions.append([title, excluded[title]])
            continue
        day0 = creation[title]
        hoax_score = article_score(title, day0)
        if isinstance(hoax_score, str):
            exclusions.append([title, hoax_score])
            continue
        cohort = [article_score(member, day0) for member in cohorts[day0]]
        try:
            results.append(cohort_d(hoax_score, [s for s in cohort if not isinstance(s, str)]))
        except EmptyCohortScores:
            exclusions.append([title, "empty_cohort_scores"])
    return results, exclusions, article_score.cache_info()


def bootstrap_resample_means(values, resamples: int = 10000, seed: int = 0) -> np.ndarray:
    """Means of ``resamples`` with-replacement resamples, deterministically seeded."""
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    # Rows are drawn in blocks of at most BOOTSTRAP_CELLS indices (one row when
    # a row alone holds more), so memory does not grow with the sample. The
    # generator gives the same values as one resamples x n draw, so the means match it.
    block = max(1, BOOTSTRAP_CELLS // arr.size)
    means = np.empty(resamples)
    for start in range(0, resamples, block):
        stop = min(start + block, resamples)
        idx = rng.integers(0, arr.size, size=(stop - start, arr.size))
        means[start:stop] = arr[idx].mean(axis=1)
    return means


def percentile(sorted_values: list[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of an ascending non-empty list, by
    numpy's default ``linear`` rule, with the same rounding as ``np.percentile``.

    The CI is read with this rather than ``np.percentile``, whose import of
    ``numpy.ma`` costs ``attention`` about 2 MB of peak memory.
    """
    n = len(sorted_values)
    virtual = (n - 1) * (q / 100)
    lo = math.floor(virtual)
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    a, b = sorted_values[lo], sorted_values[hi]
    # numpy's lerp, which interpolates from the nearer end.
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def bootstrap_mean_ci(values, resamples: int = 10000, seed: int = 0) -> BootstrapSummary:
    """Percentile bootstrap 95% CI for the mean; same seed, same interval.

    The resample means the interval comes from are returned as ``means``.
    """
    import numpy as np

    values = list(values)
    means = bootstrap_resample_means(values, resamples=resamples, seed=seed)
    ordered = np.sort(means).tolist()
    return BootstrapSummary(
        sample_mean=float(np.mean(values)),
        resamples=resamples,
        ci_low=percentile(ordered, 2.5),
        ci_high=percentile(ordered, 97.5),
        seed=seed,
        means=means,
    )
