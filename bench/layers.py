"""Per-layer metrics from the span files of one traced pipeline pass.

A span's self time is its duration minus the part of it that its child spans
cover. Layer totals add up every span of that name across the five stages.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

STAGES = ("ingest", "cohort", "features", "attention", "report")
MB = 1e6


def load_spans(path: Path, wall: float) -> list[list]:
    """Spans of one traced stage, with the root stretched to the wall time seen
    from outside. The part after the stage returned (writing spans, interpreter
    teardown) becomes the root's child span cli.exit."""
    spans = json.loads(path.read_text(encoding="utf-8"))
    returned, end = spans[0][2], spans[0][1] + wall
    spans[0][2] = end
    spans.append(["cli.exit", returned, end, 0, None])
    return spans


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of child intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def self_sum_error(spans: list[list]) -> float:
    """|sum of self times - root duration| as a share of the root duration."""
    root = spans[0][2] - spans[0][1]
    return abs(sum(self_times(spans)) - root) / root


def _percentile_us(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def _dir_bytes(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _score_lookups(out: Path) -> int:
    """article_score calls in cmd_attention: one per hoax with a cohort, plus
    one per cohort member when the hoax's own score was defined."""
    members: dict[str, int] = {}
    with open(out / "cohorts.csv", encoding="utf-8", newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            members[row[0]] = members.get(row[0], 0) + 1
    with open(out / "results.csv", encoding="utf-8", newline="") as fh:
        scored = {row[0] for row in list(csv.reader(fh))[1:]}
    with open(out / "attention_exclusions.csv", encoding="utf-8", newline="") as fh:
        scored |= {row[0] for row in list(csv.reader(fh))[1:] if row[1] == "empty_cohort_scores"}
    return sum(1 + (n if hoax in scored else 0) for hoax, n in members.items())


def pass_metrics(stage_spans: dict[str, list[list]], out: Path, log_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    by_name: dict[str, list[tuple[float, float, dict]]] = {}
    m: dict[str, tuple[float, str]] = {}
    for stage, spans in stage_spans.items():
        selfs = self_times(spans)
        m[f"cli.{stage}.self_s"] = (selfs[0], "s")
        m[f"cli.{stage}.startup_s"] = (spans[1][2] - spans[1][1], "s")
        m[f"cli.{stage}.exit_s"] = (spans[-1][2] - spans[-1][1], "s")
        for (name, start, end, _, note), own in zip(spans[2:-1], selfs[2:-1]):
            by_name.setdefault(name, []).append((end - start, own, note or {}))
        if stage == "attention":
            loads = sum(1 for s in spans if s[0] == "wikitext.load_article")
            m["cli.attention.score_cache_hit_ratio"] = (1.0 - loads / _score_lookups(out), "ratio")

    def durs(name):
        return [d for d, _, _ in by_name.get(name, ())]

    def total(name):
        return sum(durs(name))

    def calls_s(name):
        m[f"{name}.calls"] = (len(durs(name)), "count")
        m[f"{name}.s"] = (total(name), "s")

    def notes(name, key):
        return [n.get(key, 0) for _, _, n in by_name.get(name, ())]

    def raised(name, exc):
        return sum(1 for _, _, n in by_name.get(name, ()) if n.get("raised") == exc)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))["tallies"]
    store_bytes, store_files = _dir_bytes(out / "store")
    store_rows = sum(p.read_bytes().count(b"\n") for p in (out / "store").glob("*.tsv"))

    ingest_s = total("logstore.ingest")
    m["logstore.ingest.s"] = (ingest_s, "s")
    m["logstore.ingest.self_s"] = (sum(o for _, o, _ in by_name.get("logstore.ingest", ())), "s")
    m["logstore.ingest.lines_per_s"] = (rate(report["lines_total"], ingest_s), "lines/s")
    m["logstore.ingest.mb_per_s"] = (rate(log_bytes / MB, ingest_s), "MB/s")
    for key in ("lines_total", "lines_kept", "lines_dropped_filter", "lines_dropped_title", "lines_malformed"):
        m[f"logstore.ingest.{key}"] = (report[key], "count")
    m["logstore.ingest.kept_ratio"] = (report["lines_kept"] / report["lines_total"], "ratio")
    m["logstore.RedirectTable.load_s"] = (total("logstore.RedirectTable.load"), "s")
    m["logstore.RedirectTable.flattened_s"] = (total("logstore.RedirectTable.flattened"), "s")
    for name in ("logstore.save_store", "logstore.load_store"):
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.mb_per_s"] = (rate(store_bytes / MB, total(name)), "MB/s")
    m["logstore.store.bytes"] = (store_bytes, "bytes")
    m["logstore.store.rows"] = (store_rows, "count")
    m["logstore.store.files"] = (store_files, "count")

    for name in ("logstore.window_totals", "wikitext.compute_features"):
        calls_s(name)
        m[f"{name}.p50_us"] = (_percentile_us(durs(name), 50), "us")
        m[f"{name}.p99_us"] = (_percentile_us(durs(name), 99), "us")
    m["logstore.window_totals.out_of_coverage"] = (raised("logstore.window_totals", "OutOfCoverage"), "count")
    m["wikitext.compute_features.mb_per_s"] = (
        rate(sum(notes("wikitext.compute_features", "bytes")) / MB, total("wikitext.compute_features")), "MB/s")
    for name in ("wikitext.strip_markup", "wikitext.extract_wikilinks", "wikitext.load_article"):
        calls_s(name)
    m["wikitext.fixtures.bytes"] = (sum(notes("wikitext.load_article", "bytes")), "bytes")

    m["corpus.load_creation_list_s"] = (total("corpus.load_creation_list"), "s")
    m["corpus.load_hoaxes_s"] = (total("corpus.load_hoaxes"), "s")
    calls_s("corpus.build_cohort")
    calls_s("corpus.neighbor_set")
    m["corpus.neighbor_set.neighbors"] = (sum(notes("corpus.neighbor_set", "neighbors")), "count")

    calls_s("attention.delta_v")
    m["attention.delta_v.undefined"] = (sum(notes("attention.delta_v", "undefined")), "count")
    calls_s("attention.cohort_d")
    calls_s("attention.bootstrap_resample_means")
    draws = by_name.get("attention.bootstrap_resample_means", ())
    m["attention.bootstrap_resample_means.index_mb"] = (
        max((n["resamples"] * n["n"] * 8 / MB for _, _, n in draws if "n" in n), default=0.0), "MB_computed")
    m["attention.bootstrap_mean_ci.s"] = (total("attention.bootstrap_mean_ci"), "s")
    calls_s("attention.modified_z")
    m["attention.modified_z.zero_mad"] = (raised("attention.modified_z", "ZeroMAD"), "count")

    calls_s("svgplot.compute_histogram")
    calls_s("svgplot.render_histogram")
    m["svgplot.svg.bytes"] = (sum(notes("svgplot.render_histogram", "bytes")), "bytes")
    return m


def median_metrics(passes: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Median of each metric over traced passes; counts repeat exactly."""
    return {name: (statistics.median(p[name][0] for p in passes), unit) for name, (_, unit) in passes[0].items()}
