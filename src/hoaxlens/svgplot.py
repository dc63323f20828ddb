"""Minimal deterministic SVG charts.

Hand-rolled on purpose: identical inputs must give byte-identical files, which
rules out plotting libraries that embed versions, ids or font metrics.
"""

from __future__ import annotations

import math

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

_FONT = "font-family=\"sans-serif\""


def _fmt(value: float) -> str:
    """Fixed two-decimal coordinates keep output stable across platforms."""
    return f"{value:.2f}"


def _fmt_tick(value: float) -> str:
    return f"{value:.4g}"


def compute_histogram(values, bins: int = 20) -> tuple[list[float], list[int]]:
    """Bin edges and counts over [min, max]; all-equal input gets a unit-wide range.

    The result equals ``np.histogram(values, bins, range=(min, max))``. The
    edges are ``i * step + low``, the last one set to ``high``. Each value goes
    to the bin its scaled offset truncates to, then moves one bin where that
    leaves it on the wrong side of an edge; the last bin holds its right edge.
    Raises ValueError for no values, a value that is not finite, or a range
    that cannot hold that many finite, distinct edges.
    """
    data = list(map(float, values))
    if not data:
        raise ValueError("no values to bin")
    if not all(map(math.isfinite, data)):
        raise ValueError("values to bin must be finite")
    if bins < 1:
        raise ValueError(f"bins must be positive, not {bins}")
    low, high = min(data), max(data)
    if low == high:
        low -= 0.5
        high += 0.5
    span = high - low
    step = span / bins
    if step:
        edges = [i * step + low for i in range(bins)]
    else:  # a span too small to divide: scale first, as np.linspace does
        edges = [i / bins * span + low for i in range(bins)]
    edges.append(high)
    if math.isinf(span) or any(left >= right for left, right in zip(edges, edges[1:])):
        raise ValueError(f"cannot make {bins} finite bins over [{low}, {high}]")
    counts = [0] * bins
    last = bins - 1
    for value in data:
        i = int((value - low) / span * bins)
        if i == bins:
            i = last
        if value < edges[i]:
            i -= 1
        elif i != last and value >= edges[i + 1]:
            i += 1
        counts[i] += 1
    return edges, counts


def render_histogram(
    edges,
    counts,
    title: str,
    x_label: str,
    vlines=(),
    band: tuple[float, float] | None = None,
) -> str:
    """Histogram with optional vertical marker lines and a shaded x-interval.

    vlines is an iterable of (x, color, label) triples.
    """
    edges = [float(e) for e in edges]
    counts = [int(c) for c in counts]
    x_min, x_max = edges[0], edges[-1]
    marks = [x for x, _, _ in vlines]
    if band is not None:
        marks += [band[0], band[1]]
    if marks:
        spread = (x_max - x_min) or 1.0
        x_min = min(x_min, min(marks) - 0.02 * spread)
        x_max = max(x_max, max(marks) + 0.02 * spread)
    y_max = max(max(counts), 1)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - y / y_max * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" {_FONT} font-size="15">'
        f"{_escape(title)}</text>",
    ]
    if band is not None:
        bx0, bx1 = sorted((sx(band[0]), sx(band[1])))
        parts.append(
            f'<rect x="{_fmt(bx0)}" y="{MARGIN_TOP}" width="{_fmt(bx1 - bx0)}" '
            f'height="{plot_h}" fill="#c6dbef" fill-opacity="0.6"/>'
        )
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        if count == 0:
            continue
        x0, x1 = sx(left), sx(right)
        y = sy(count)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(MARGIN_TOP + plot_h - y)}" fill="#4292c6" stroke="white" '
            f'stroke-width="0.5"/>'
        )
    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        xpix = sx(xv)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{axis_y}" x2="{_fmt(xpix)}" '
            f'y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xpix)}" y="{axis_y + 20}" text-anchor="middle" {_FONT} '
            f'font-size="11">{_fmt_tick(xv)}</text>'
        )
    for i in range(5):
        yv = y_max * i / 4
        ypix = sy(yv)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(ypix)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(ypix)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(ypix + 4)}" text-anchor="end" {_FONT} '
            f'font-size="11">{_fmt_tick(yv)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" {_FONT} font-size="12">{_escape(x_label)}</text>'
    )
    legend_y = MARGIN_TOP + 14
    for x, color, label in vlines:
        xpix = sx(x)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{MARGIN_TOP}" x2="{_fmt(xpix)}" '
            f'y2="{axis_y}" stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 4}" y="{legend_y}" text-anchor="end" '
            f'{_FONT} font-size="11" fill="{color}">{_escape(label)}</text>'
        )
        legend_y += 14
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
