"""Ground-truth checks on each stage's outputs, and output fingerprints.

Each check returns a list of problems (empty means the stage's outputs are
right). The expected attention results are recomputed here from the
generator's daily totals, neighbor sets and cohorts, not from program output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from gen import SPAN, Truth

# Outputs each stage writes, relative to the out directory.
STAGE_OUTPUTS = {
    "ingest": ("store", "ingest_report.json"),
    "cohort": ("cohorts.csv", "cohort_exclusions.csv"),
    "features": ("features.csv", "zscores.csv", "feature_exclusions.csv"),
    "attention": (
        "results.csv", "cohort_scores.csv", "attention_exclusions.csv", "summary.json",
        "d_histogram.csv", "bootstrap_means_histogram.csv",
    ),
    "report": ("plots",),
}


def fingerprint(out: Path, stage: str) -> dict[str, str]:
    """sha256 of every file the stage wrote, keyed by path under out."""
    digests = {}
    for name in STAGE_OUTPUTS[stage]:
        path = out / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            digests[str(f.relative_to(out))] = (
                hashlib.sha256(f.read_bytes()).hexdigest() if f.exists() else "missing"
            )
    return digests


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh)][1:]


def _median(values: list[int]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def _score(truth: Truth, title: str, day0_index: int) -> float | None | str:
    """Relative neighborhood drop from the generated daily totals, by definition."""
    if title not in truth.has_fixture:
        return "no_fixture"
    neighbors = truth.neighbors[title]
    if not neighbors:
        return "no_neighbors"
    if day0_index - SPAN < 0 or day0_index + SPAN >= len(truth.coverage):
        return "out_of_coverage"
    days = list(range(day0_index - SPAN, day0_index)) + list(range(day0_index + 1, day0_index + SPAN + 1))
    totals = [sum(int(truth.daily[n][d]) if n in truth.daily else 0 for n in neighbors) for d in days]
    vb, va = _median(totals[:SPAN]), _median(totals[SPAN:])
    if vb + va == 0.0:
        return None
    return (vb - va) / (vb + va)


def expected_results(truth: Truth) -> dict[str, tuple[float, float]]:
    """hoax title -> (delta_v, D) for every hoax the pipeline should score."""
    day_index = {day: i for i, day in enumerate(truth.coverage)}
    cache: dict[tuple[str, int], float | None | str] = {}

    def score(title: str, d: int):
        if (title, d) not in cache:
            cache[(title, d)] = _score(truth, title, d)
        return cache[(title, d)]

    expected = {}
    for hoax, day in sorted(truth.hoaxes.items()):
        members = truth.cohorts.get(hoax)
        d = day_index[day]
        hoax_dv = score(hoax, d)
        if not members or not isinstance(hoax_dv, float):
            continue
        member_dvs = [s for s in (score(m, d) for m in members) if isinstance(s, float)]
        if member_dvs:
            expected[hoax] = (hoax_dv, hoax_dv - sum(member_dvs) / len(member_dvs))
    return expected


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_ingest(out: Path, truth: Truth) -> list[str]:
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    problems = [
        f"tally {key}: got {report['tallies'].get(key)}, expected {value}"
        for key, value in truth.tallies.items()
        if report["tallies"].get(key) != value
    ]
    got_files = {f["name"]: {k: v for k, v in f.items() if k != "name"} for f in report["files"]}
    if got_files != truth.file_tallies:
        problems.append("per-file tallies differ from the generated line kinds")
    return problems


def check_cohort(out: Path, truth: Truth) -> list[str]:
    got: dict[str, list[str]] = {}
    for hoax, _, member in _rows(out / "cohorts.csv"):
        got.setdefault(hoax, []).append(member)
    return [] if got == truth.cohorts else ["cohort membership differs from the creation list"]


def check_features(out: Path, truth: Truth) -> list[str]:
    problems = []
    rows = _rows(out / "features.csv")
    for title, _, _, link_density, _ in rows:
        links, words = truth.link_words[title]
        if not _close(float(link_density), 100.0 * links / words):
            problems.append(f"{title}: wikilink density {link_density}, expected {100.0 * links / words}")
    expected_titles = {t for members in truth.cohorts.values() for t in members} | set(truth.cohorts)
    if {r[0] for r in rows} != expected_titles & truth.has_fixture:
        problems.append("features.csv does not cover exactly the cohort articles with fixtures")
    return problems[:5]


def check_attention(out: Path, truth: Truth, expected: dict[str, tuple[float, float]]) -> list[str]:
    problems = []
    got = {row[0]: (float(row[1]), float(row[4])) for row in _rows(out / "results.csv")}
    if set(got) != set(expected):
        problems.append(f"results.csv scores {len(got)} hoaxes, expected {len(expected)}")
    for title in sorted(set(got) & set(expected)):
        (dv, d), (edv, ed) = got[title], expected[title]
        if not (_close(dv, edv) and _close(d, ed)):
            problems.append(f"{title}: delta_v {dv} D {d}, expected {edv} {ed}")
    return problems[:5]


def check_report(out: Path, truth: Truth, expected: dict[str, tuple[float, float]]) -> list[str]:
    plots = out / "plots"
    n = sum(1 for p in plots.glob("cohort_*.svg"))
    problems = [] if (plots / "d_histogram.svg").is_file() else ["d_histogram.svg missing"]
    if n != len(expected):
        problems.append(f"{n} cohort plots, expected {len(expected)}")
    return problems


def check_stage(stage: str, out: Path, truth: Truth, expected) -> list[str]:
    """Problems with one stage's outputs; a missing or unreadable output is one."""
    try:
        if stage == "ingest":
            return check_ingest(out, truth)
        if stage == "cohort":
            return check_cohort(out, truth)
        if stage == "features":
            return check_features(out, truth)
        if stage == "attention":
            return check_attention(out, truth, expected)
        return check_report(out, truth, expected)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable {stage} output: {exc!r}"]
