"""
Same-day creation cohorts
=========================

A creation day's cohort is every article created that day, with redirects
collapsed and the suspects kept out. Each suspect is compared against the
cohort of its creation day, so suspects created on one day share one cohort.
"""

import tempfile
from pathlib import Path

from hoaxlens import build_cohort, extract_wikilinks, load_creation_list, neighbor_set

creation_csv = """\
title,created_at,is_redirect,redirect_target
Suspect_page,2006-03-10T08:00:00Z,0,
Second_suspect,2006-03-10T09:30:00Z,0,
Harbor_seal,2006-03-10T01:15:00Z,0,
Tidal_flat,2006-03-10T03:40:00Z,0,
Estuary_ecology,2006-03-10T11:05:00Z,0,
Mudflat,2006-03-10T12:00:00Z,1,Tidal_flat
Shore_life,2006-03-10T13:20:00Z,0,
Shore_life,2006-03-10T13:20:00Z,1,Estuary_ecology
"""
# Mudflat is a plain redirect row. Shore_life appears twice, once as a real
# article and once as a redirect source, so it must collapse out entirely.

with tempfile.TemporaryDirectory(prefix="cohort_demo_") as tmp:
    path = Path(tmp) / "creations.csv"
    path.write_text(creation_csv, encoding="utf-8")
    metas, redirects = load_creation_list(path)
print(f"{len(metas)} creation records, {len(redirects.mapping)} redirect mappings")

suspects = {"Suspect_page", "Second_suspect"}
day = next(m for m in metas if m.title == "Suspect_page").creation_date
members = build_cohort(day, metas, redirects, suspects)
print(f"\ncohort of {day}, for Suspect_page and Second_suspect alike:")
for title in members:
    print(f"  {title}")
print("(no suspect, no Mudflat, no Shore_life)")

# Neighbors are the distinct pages an article links to, minus itself and any
# known suspects.
links = extract_wikilinks(
    "A hoax about [[Harbor seal]]s near a [[Tidal flat]], see also "
    "[[Suspect page]] and [[Second suspect]]."
)
print(f"\nneighbors: {sorted(neighbor_set('Suspect_page', links, suspects))}")
