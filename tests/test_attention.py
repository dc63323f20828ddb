"""Robust z-scores, traffic drop ratio, cohort difference, bootstrap CI, hoax scoring."""

import statistics
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoaxlens.attention import (
    BOOTSTRAP_CELLS,
    AttentionScore,
    EmptyCohortScores,
    WrongWindowLength,
    ZeroMAD,
    bootstrap_mean_ci,
    bootstrap_resample_means,
    cohort_d,
    delta_v,
    modified_z,
    percentile,
    score_hoaxes,
)
from hoaxlens.logstore import TrafficStore


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


def _same_float(got: float, want: float) -> bool:
    """Equal to the bit, except that 0.0 and -0.0 are one value."""
    return got == want == 0.0 or float.hex(got) == float.hex(want)


_EXTREME_FLOATS = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308])


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    values=st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EXTREME_FLOATS),
        min_size=1,
        max_size=40,
    ),
)
@example(x=0.0, values=[1.0, 2.0, 4.0])
@example(x=0.0, values=[1.0, 2.0, 4.0, 8.0])
@example(x=1.0, values=[1e308, 1e308, -1e308, 5e-324])  # the middle pair overflows
@example(x=0.0, values=[5e-324, 1.5e-323, 0.0, 2.5e-323])  # subnormals
def test_modified_z_matches_numpy_median(x, values):
    with np.errstate(over="ignore", invalid="ignore"):
        arr = np.asarray(values, dtype=float)
        median = float(np.median(arr))
        mad = float(np.median(np.abs(arr - median)))
    if mad == 0.0:
        with pytest.raises(ZeroMAD):
            modified_z(x, values)
        return
    score = modified_z(x, values)
    assert _same_float(score.cohort_median, median)
    assert _same_float(score.cohort_mad, mad)
    assert _same_float(score.z, (x - median) / mad)


@st.composite
def _windows(draw):
    """Before and after windows of one span, both of integers or both of floats."""
    span = draw(st.integers(1, 8))
    day = draw(st.sampled_from([st.integers(0, 2**63 - 1), st.floats(0.0, 1e308)]))
    window = st.lists(day, min_size=span, max_size=span)
    return draw(window), draw(window)


@settings(max_examples=300, deadline=None)
@given(windows=_windows())
@example(windows=([3, 1, 2], [0, 5, 5]))
# Even spans whose middle pair sums to a different float as integers than as floats.
@example(windows=([2**53 + 1, 2**53 + 5], [0, 0]))
@example(windows=([2**63 - 1, 2**63 - 2**10 - 1], [2**63 - 1, 2**63 - 1]))
@example(windows=([1e308, 1e308], [5e-324, 1.5e-323]))
def test_delta_v_matches_numpy_median(windows):
    before, after = windows
    with np.errstate(over="ignore"):
        want_before, want_after = (float(np.median(w)) for w in windows)
    score = delta_v(before, after, span=len(before))
    if want_before + want_after == 0.0:
        assert score is None
        return
    assert _same_float(score.v_before, want_before)
    assert _same_float(score.v_after, want_after)


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


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 20_000),
    scale=st.sampled_from([1e-12, 1e-6, 1.0, 1e6, 1e12]),
    shift=st.sampled_from([0.0, 1.0, -3.0]),
    ties=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([0, 2.5, 50, 97.5, 100]),
)
@example(n=1, scale=1.0, shift=0.0, ties=0, seed=0, q=97.5)
@example(n=2, scale=1e12, shift=1.0, ties=0, seed=0, q=50)
@example(n=10_000, scale=1.0, shift=0.0, ties=0, seed=1, q=2.5)
def test_percentile_matches_numpy(n, scale, shift, ties, seed, q):
    """The CI's percentile gives np.percentile's value to the bit; ties > 0 draws
    the sample from that many distinct values."""
    rng = np.random.default_rng(seed)
    values = (rng.normal(size=n) + shift) * scale
    if ties:
        values = rng.choice(values[:ties], size=n)
    assert percentile(np.sort(values).tolist(), q) == float(np.percentile(values, q))


@pytest.mark.parametrize("n", [1, 7, 400, BOOTSTRAP_CELLS + 5])
@pytest.mark.parametrize("seed", [0, 1, 2**63])
def test_bootstrap_chunked_draw_matches_one_shot(n, seed):
    values = np.random.default_rng(n).normal(size=n)
    # Two full blocks and a short third one; one row per block when n passes the budget.
    resamples = 2 * max(1, BOOTSTRAP_CELLS // n) + 3
    rng = np.random.default_rng(seed)
    one_shot = values[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    means = bootstrap_resample_means(values, resamples=resamples, seed=seed)
    assert means.tobytes() == one_shot.tobytes()


@pytest.mark.parametrize("budget", [BOOTSTRAP_CELLS, 64, 5])
@pytest.mark.parametrize("n", [1, 3, 7, 400])
def test_bootstrap_blocks_stay_within_the_cell_budget(monkeypatch, budget, n):
    values = np.random.default_rng(n).normal(size=n)
    resamples = 3 * max(1, budget // n) + 1  # four blocks
    expected = bootstrap_resample_means(values, resamples=resamples, seed=11)
    monkeypatch.setattr("hoaxlens.attention.BOOTSTRAP_CELLS", budget)
    sizes = []
    make_rng = np.random.default_rng

    class Recorder:  # records the size of each index block the generator draws
        def __init__(self, seed):
            self._rng = make_rng(seed)

        def integers(self, *args, size=None, **kwargs):
            sizes.append(size)
            return self._rng.integers(*args, size=size, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    means = bootstrap_resample_means(values, resamples=resamples, seed=11)
    assert means.tobytes() == expected.tobytes()
    assert len(sizes) == 4
    assert sum(rows for rows, _ in sizes) == resamples
    for rows, cols in sizes:
        assert cols == n
        assert rows * n <= budget or rows == 1


# --- score_hoaxes against a brute-force scorer --------------------------------

_START = date(2007, 3, 1)
_STORE_TITLES = ["N0", "N1", "N2", "N3"]
_ROWLESS = ["Z0", "Z1"]  # linked to, but with no row in the store
_HOAXES = ["H0", "H1", "H2", "H3"]
_MEMBERS = ["M0", "M1", "M2", "M3", "M4"]


@st.composite
def _scoring_cases(draw):
    """Traffic as {title: {day offset: views}} over a drawn coverage, with many
    zeros, and creation days, whose cohorts may leave that coverage."""
    span = draw(st.integers(1, 3))
    days = 2 * span + draw(st.integers(0, 6))
    traffic = {
        title: draw(st.dictionaries(st.integers(0, days - 1), st.sampled_from([0, 1, 2, 7])))
        for title in _STORE_TITLES
    }
    traffic = {title: views for title, views in traffic.items() if views}
    # Each draw from often() is True three times in four.
    often = st.sampled_from([True, True, True, False])
    # Offsets one day either side of those whose windows fit leave coverage.
    offsets = st.integers(span - 1, days - span)
    creation = {
        hoax: _START + timedelta(days=draw(offsets)) for hoax in _HOAXES if draw(often)
    }
    cohorts = {
        day: draw(st.lists(st.sampled_from(_MEMBERS), min_size=1, max_size=4, unique=True))
        for day in sorted(set(creation.values()))
    }
    excluded = {hoax: "empty_cohort" for hoax in _HOAXES if not (draw(often) or draw(often))}
    links = st.sets(st.sampled_from(_STORE_TITLES + _ROWLESS), min_size=1, max_size=3)
    neighbors = {
        title: sorted(draw(links)) if draw(often) else []
        for title in _HOAXES + _MEMBERS
        if draw(often)
    }
    return traffic, days, span, creation, cohorts, excluded, neighbors


def _traffic_store(traffic, days) -> TrafficStore:
    titles = sorted(traffic)
    cells = sorted(
        (row * days + day, views)
        for row, title in enumerate(titles)
        for day, views in traffic[title].items()
    )
    return TrafficStore(
        coverage_start=_START,
        coverage_end=_START + timedelta(days=days - 1),
        titles=titles,
        keys=np.array([key for key, _ in cells], np.int64),
        views=np.array([views for _, views in cells], np.int64),
        tallies={},
    )


def _brute_force_scores(traffic, days, span, creation, cohorts, excluded, neighbors):
    """(hoax, delta_v, [(member, delta_v)], cohort mean, D) per scored hoax, and
    the [hoax, reason] exclusions, straight from the definitions."""

    def score(title, day0):
        if title not in neighbors:
            return "no_fixture"
        if not neighbors[title]:
            return "no_neighbors"
        offset = (day0 - _START).days
        if offset - span < 0 or offset + span > days - 1:
            return "out_of_coverage"

        def total(day):
            return sum(traffic.get(n, {}).get(day, 0) for n in neighbors[title])

        v_before = statistics.median(total(offset - i) for i in range(1, span + 1))
        v_after = statistics.median(total(offset + i) for i in range(1, span + 1))
        if v_before + v_after == 0:
            return "undefined_delta_v"
        return (v_before - v_after) / (v_before + v_after)

    results, exclusions = [], []
    for hoax in sorted(set(creation) | set(excluded)):
        if hoax in excluded:
            exclusions.append([hoax, excluded[hoax]])
            continue
        hoax_dv = score(hoax, creation[hoax])
        if isinstance(hoax_dv, str):
            exclusions.append([hoax, hoax_dv])
            continue
        cohort = [(m, score(m, creation[hoax])) for m in cohorts[creation[hoax]]]
        cohort = [(m, dv) for m, dv in cohort if not isinstance(dv, str)]
        if not cohort:
            exclusions.append([hoax, "empty_cohort_scores"])
            continue
        mean = sum(dv for _, dv in cohort) / len(cohort)
        results.append((hoax, hoax_dv, cohort, mean, hoax_dv - mean))
    return results, exclusions


def _close(values):
    return pytest.approx(values, rel=1e-12, abs=0)


@settings(max_examples=300, deadline=None)
@given(_scoring_cases())
def test_score_hoaxes_matches_brute_force(case):
    traffic, days, span, creation, cohorts, excluded, neighbors = case
    store = _traffic_store(traffic, days)
    results, exclusions, _ = score_hoaxes(store, span, creation, cohorts, excluded, neighbors)
    want, want_exclusions = _brute_force_scores(*case)
    assert exclusions == want_exclusions
    assert [r.hoax_score.title for r in results] == [w[0] for w in want]
    for result, (_, hoax_dv, cohort, mean, d) in zip(results, want):
        assert [s.title for s in result.cohort_scores] == [m for m, _ in cohort]
        assert result.cohort_n == len(cohort)
        assert result.hoax_score.delta_v == _close(hoax_dv)
        assert [s.delta_v for s in result.cohort_scores] == _close([dv for _, dv in cohort])
        assert result.cohort_mean == _close(mean)
        assert result.d == _close(d)
