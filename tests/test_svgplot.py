"""The pure-Python histogram against np.histogram, and the SVG it feeds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoaxlens.svgplot import compute_histogram, render_histogram


def _numpy_histogram(values, bins):
    """np.histogram over [min, max], a unit-wide range for all-equal input."""
    arr = np.asarray(list(values), dtype=float)
    low, high = float(arr.min()), float(arr.max())
    if low == high:
        low -= 0.5
        high += 0.5
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        counts, edges = np.histogram(arr, bins=bins, range=(low, high))
    return edges.tolist(), counts.tolist()


def _edges_on_grid(low, high, bins):
    """Values exactly on the edges numpy draws over [low, high]."""
    return np.linspace(low, high, bins + 1).tolist()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_values = st.one_of(
    st.lists(_finite, min_size=1, max_size=60),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
    # All equal, among them 0.0 and -0.0.
    st.builds(lambda v, n: [v] * n, _finite, st.integers(1, 20)),
    # Signed zeros among small whole numbers and thirds.
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1 / 3, -2 / 3, 0.1]), min_size=1, max_size=40),
    # Tiny spans, down to subnormal ones.
    st.lists(st.floats(-1e-300, 1e-300), min_size=1, max_size=30),
    st.lists(st.sampled_from([0.0, 5e-324, 1e-323, 1.5e-323, 2.5e-323, 1e-310]), min_size=1),
    # Huge spans, some of which overflow.
    st.lists(st.floats(-1.7e308, 1.7e308), min_size=1, max_size=30),
    # Integer-valued input, as ints.
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60),
    # Values exactly on the bin edges.
    st.builds(
        lambda low, width, bins, extra: _edges_on_grid(low, low + width, bins) + extra,
        st.floats(-1e6, 1e6),
        st.floats(1e-6, 1e6),
        st.integers(1, 50),
        st.lists(st.floats(-1e6, 1e6), max_size=5),
    ),
    # Bootstrap-sized input, up to the 10,000 resample means of a run.
    st.builds(
        lambda seed, n: np.random.default_rng(seed).normal(size=n).tolist(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 10_000),
    ),
)


def _bits(edges):
    """Each edge as float.hex, which tells -0.0 from 0.0."""
    return [float.hex(e) for e in edges]


def _zero_max_of_both_signs(values) -> bool:
    """The largest value is zero and both 0.0 and -0.0 occur. Which of the two
    numpy's max returns then depends on the order of its vectorized reduction,
    so for such input only the value of the last edge is compared."""
    floats = [float(v) for v in values]
    return max(floats) == 0 and len({math.copysign(1.0, v) for v in floats if v == 0}) == 2


@settings(max_examples=400, deadline=None)
@given(values=_values, bins=st.integers(1, 50))
def test_histogram_matches_numpy(values, bins):
    try:
        want_edges, want_counts = _numpy_histogram(values, bins)
    except (ValueError, IndexError):  # one bin over an overflowing span fails on an index
        with pytest.raises(ValueError):
            compute_histogram(values, bins)
        return
    edges, counts = compute_histogram(values, bins)
    assert type(edges) is list and type(counts) is list
    if _zero_max_of_both_signs(values):
        assert _bits(edges[:-1]) == _bits(want_edges[:-1]) and edges[-1] == want_edges[-1]
    else:
        assert _bits(edges) == _bits(want_edges)
    assert counts == want_counts
    assert all(type(c) is int for c in counts)


@pytest.mark.parametrize("bins", [1, 2, 20])
@pytest.mark.parametrize(
    "values",
    [[1e308, -1e308], [1.7e308, 0.0, -1e308], [0.0, math.nan], [math.inf, 1.0], [-math.inf]],
    ids=["overflow", "overflow_three", "nan", "inf", "minus_inf"],
)
def test_histogram_raises_where_numpy_does(values, bins):
    with pytest.raises((ValueError, IndexError)):
        _numpy_histogram(values, bins)
    with pytest.raises(ValueError):
        compute_histogram(values, bins)


def test_histogram_of_nothing_raises():
    with pytest.raises(ValueError):
        compute_histogram([], 5)


def test_histogram_renders():
    edges, counts = compute_histogram([0.1, 0.2, 0.2, 0.9], bins=4)
    assert counts == [3, 0, 0, 1]
    svg = render_histogram(edges, counts, title="t", x_label="x", vlines=[(0.5, "red", "mid")])
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
