"""Test-side view of a TrafficStore as nested dicts."""

from datetime import date, timedelta


def daily_counts(store) -> dict[str, dict[date, int]]:
    """{title: {day: views}} rebuilt from the store's titles, keys and views."""
    counts: dict[str, dict[date, int]] = {}
    for key, views in zip(store.keys.tolist(), store.views.tolist()):
        row, offset = divmod(key, store.coverage_days)
        counts.setdefault(store.titles[row], {})[store.coverage_start + timedelta(days=offset)] = views
    return counts
