"""
Hourly pagecount logs to per-title daily traffic
================================================

Builds a couple of tiny hourly log files by hand, ingests them, and shows
what survives cleaning, filtering, and redirect folding.
"""

import gzip
import tempfile
from datetime import timedelta
from pathlib import Path

from hoaxlens import (
    FilterConfig,
    RedirectTable,
    clean_title,
    ingest,
    load_store,
    save_store,
)

# Titles arrive percent-encoded and fragment-suffixed; cleaning normalizes them.
for raw in ["Main%20Page", "Caf%C3%A9", "Article#Section", "#Only_a_fragment", "bad|pipe"]:
    print(f"clean_title({raw!r}) -> {clean_title(raw)!r}")

with tempfile.TemporaryDirectory(prefix="traffic_demo_") as tmp:
    scratch = Path(tmp)

    # A log line is four space-separated fields: project, title, count, bytes.
    # Two hours of one day, then one hour of the next. The second file is gzipped,
    # the way real dumps are shipped.
    hour_a = scratch / "pagecounts-20070310-010000"
    hour_a.write_text(
        "en Physics 12 4000\n"
        "en Chemistry 7 2100\n"
        "en Physics_(disambiguation) 2 500\n"
        "fr Physique 30 9000\n"          # wrong project, dropped by the filter
        "en Talk:Physics 4 800\n"        # namespace prefix, dropped by the filter
        "en broken line\n"               # three fields, tallied as malformed
    )
    hour_b = scratch / "pagecounts-20070310-020000.gz"
    with gzip.open(hour_b, "wt", encoding="utf-8") as fh:
        fh.write("en Physics 5 1700\nen Natural_science 9 2600\n")
    hour_c = scratch / "pagecounts-20070311-000000"
    hour_c.write_text("en Physics 20 6800\nen Physics_(disambiguation) 1 250\n")

    config = FilterConfig(project="en", namespace_prefixes=("Talk:", "User:"))
    # The disambiguation page redirects to the main article, so its counts fold in.
    table = RedirectTable(mapping={"Physics_(disambiguation)": "Physics"})

    store = ingest(sorted(scratch.glob("pagecounts-*")), table, config)

    print(f"\ncoverage: {store.coverage_start} .. {store.coverage_end}")
    for key, value in store.tallies.items():
        print(f"  {key}: {value}")

    # The store keeps one (key, views) pair per title and day with traffic, in
    # ascending key order; a key is the title's row times the days covered,
    # plus the day's offset from the first day.
    print("\ndaily totals after redirect folding:")
    for key, views in zip(store.keys.tolist(), store.views.tolist()):
        row, offset = divmod(key, store.coverage_days)
        day = store.coverage_start + timedelta(days=offset)
        print(f"  {store.titles[row]:18s} {day} {views}")

    # On disk the store is the same layout: titles.txt, keys.npy and views.npy,
    # plus a manifest. Saving what was loaded writes the same bytes again.
    store_dir = scratch / "store"
    save_store(store, store_dir)
    again_dir = scratch / "store_again"
    save_store(load_store(store_dir), again_dir)
    same = all(
        (store_dir / name).read_bytes() == (again_dir / name).read_bytes()
        for name in ("titles.txt", "keys.npy", "views.npy", "manifest.txt")
    )
    print(f"\nsaved to {store_dir}, reload saves the same bytes: {same}")
