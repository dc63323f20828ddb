"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The oracles here are deliberately independent re-derivations (sort-based
medians, a line-by-line reference aggregator, hand-counted feature values), not
calls back into the code under test.
"""

import gzip
import json
import os
import re
import tempfile
import time
import urllib.parse
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import synthgen
from storeview import daily_counts
from hoaxlens import cli, corpus, logstore
from hoaxlens.attention import bootstrap_mean_ci, delta_v, modified_z
from hoaxlens.logstore import (
    FilterConfig,
    OutOfCoverage,
    RedirectTable,
    clean_title,
    ingest,
    load_store,
    save_store,
    window_totals,
)
from hoaxlens.wikitext import ArticleSource, compute_features, extract_wikilinks


# One line per criterion; the conftest hook prints these after capture ends.
VERDICTS: list[str] = []


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {name}{tail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


# --- criterion: traffic drop ratio properties --------------------------------


def test_drop_ratio_property_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    bad = 0
    undefined = 0
    for i in range(10_000):
        before = rng.integers(0, 60, size=7).tolist()
        after = rng.integers(0, 60, size=7).tolist()
        if i % 211 == 0:
            before = [0] * 7
        if i % 373 == 0:
            after = [0] * 7
        forward = delta_v(before, after)
        backward = delta_v(after, before)
        if forward is None:
            undefined += 1
            if backward is not None:
                bad += 1
            continue
        ok = -1.0 <= forward.delta_v <= 1.0
        ok = ok and backward is not None and backward.delta_v == -forward.delta_v
        k = int(rng.integers(2, 12))
        scaled = delta_v([k * v for v in before], [k * v for v in after])
        ok = ok and scaled is not None and scaled.delta_v == forward.delta_v
        mb, ma = sorted(before)[3], sorted(after)[3]
        if mb > ma:
            ok = ok and forward.delta_v > 0
        elif mb < ma:
            ok = ok and forward.delta_v < 0
        else:
            ok = ok and forward.delta_v == 0.0
        if not ok:
            bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "drop-ratio-properties",
        bad == 0 and elapsed < 5.0,
        f"10000 pairs, {undefined} undefined, {bad} violations, {elapsed:.2f}s",
    )


# --- criterion: robust z-score against a brute-force oracle ------------------


def _oracle_median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _oracle_modified_z(x, values):
    med = _oracle_median(values)
    mad = _oracle_median([abs(v - med) for v in values])
    return (x - med) / mad


def test_robust_z_oracle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        values = rng.uniform(-100.0, 100.0, size=n).tolist()
        med = _oracle_median(values)
        if _oracle_median([abs(v - med) for v in values]) == 0.0:
            continue
        x = float(rng.uniform(-150.0, 150.0))
        want = _oracle_modified_z(x, values)
        got = modified_z(x, values).z
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "robust-z-oracle",
        worst <= 1e-12 and elapsed < 5.0,
        f"1000 instances, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


# --- criterion: bootstrap confidence interval behavior -----------------------


def test_bootstrap_ci():
    rng = np.random.default_rng(303)
    ok = True
    notes = []

    values_83 = rng.normal(0.12, 1.0, size=83).tolist()
    a = bootstrap_mean_ci(values_83, resamples=10_000, seed=7)
    b = bootstrap_mean_ci(values_83, resamples=10_000, seed=7)
    ok &= (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    for trial in range(25):
        sample = rng.normal(size=int(rng.integers(5, 60))).tolist()
        s = bootstrap_mean_ci(sample, resamples=2_000, seed=trial)
        ok &= s.ci_low <= s.sample_mean <= s.ci_high

    degenerate = bootstrap_mean_ci([0.25] * 40, resamples=2_000, seed=1)
    ok &= degenerate.ci_low == degenerate.ci_high == 0.25

    # Quadrupling the sample should halve the interval width.
    values_332 = values_83 * 4
    wide = a.ci_high - a.ci_low
    narrow_s = bootstrap_mean_ci(values_332, resamples=10_000, seed=7)
    narrow = narrow_s.ci_high - narrow_s.ci_low
    ratio = wide / narrow
    ok &= 1.6 <= ratio <= 2.4
    notes.append(f"width ratio {ratio:.3f}")

    t0 = time.perf_counter()
    bootstrap_mean_ci(values_83, resamples=10_000, seed=99)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    notes.append(f"83x10k in {elapsed:.3f}s")

    _verdict("bootstrap-ci", ok, ", ".join(notes))


# --- criterion: planted end-to-end recovery plus null control ----------------


def _run_pipeline(config, commands):
    for command in commands:
        rc = cli.main([command, "--config", str(config)])
        assert rc == 0, f"{command} exited {rc}"


def test_planted_recovery(tmp_path):
    t0 = time.perf_counter()
    planted_root = tmp_path / "planted"
    config = synthgen.generate(planted_root, elevated=True, seed=424, config_seed=11)
    _run_pipeline(config, ["ingest", "cohort", "features", "attention", "report"])
    out = planted_root / "out"
    rows = (out / "results.csv").read_text().splitlines()[1:]
    d_by_hoax = {r.split(",")[0]: float(r.split(",")[4]) for r in rows}
    positives = sum(1 for d in d_by_hoax.values() if d > 0)
    summary = json.loads((out / "summary.json").read_text())
    lo, hi = summary["ci"]
    ci_excludes_zero = lo > 0.0 or hi < 0.0

    null_contains = 0
    for rep in range(20):
        root = tmp_path / f"null_{rep:02d}"
        null_config = synthgen.generate_compact(
            root, elevated=False, seed=2000 + rep, config_seed=rep
        )
        _run_pipeline(null_config, ["ingest", "cohort", "features", "attention"])
        null_summary = json.loads((root / "out" / "summary.json").read_text())
        n_lo, n_hi = null_summary["ci"]
        null_contains += n_lo <= 0.0 <= n_hi
    elapsed = time.perf_counter() - t0
    ok = (
        len(d_by_hoax) == 20
        and positives >= 18
        and ci_excludes_zero
        and null_contains >= 18
        and elapsed < 120.0
    )
    _verdict(
        "planted-recovery",
        ok,
        f"{positives}/20 positive D, CI [{lo:.3f}, {hi:.3f}], "
        f"null contains 0 in {null_contains}/20, {elapsed:.1f}s",
    )


# --- criterion: ingest against a naive reference aggregator ------------------


def _reference_clean(title):
    previous = None
    while previous != title:
        previous = title
        title = urllib.parse.unquote(title)
    title = title.replace(" ", "_")
    if title == "" or title.startswith("#"):
        return None
    if "#" in title:
        title = title.split("#", 1)[0]
    if any(c in title for c in "<>[]{}|") or any(ord(c) < 32 or ord(c) == 127 for c in title):
        return None
    if title == "":
        return None
    return title[:1].upper() + title[1:]


def _reference_aggregate(path, project, prefixes, redirect_map):
    counts = {}
    tallies = {"total": 0, "kept": 0, "filter": 0, "title": 0, "malformed": 0}
    digits = re.compile(r"[0-9]+")
    with open(path, encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            tallies["total"] += 1
            line = raw[:-1] if raw.endswith("\n") else raw
            fields = line.split(" ")
            well_formed = len(fields) == 4
            if well_formed:
                proj, title, count_s, bytes_s = fields
                well_formed = (
                    bool(proj)
                    and bool(title)
                    and digits.fullmatch(count_s) is not None
                    and digits.fullmatch(bytes_s) is not None
                )
            if not well_formed:
                tallies["malformed"] += 1
                continue
            if proj != project:
                tallies["filter"] += 1
                continue
            cleaned = _reference_clean(title)
            if cleaned is None:
                tallies["title"] += 1
                continue
            if any(cleaned.startswith(p) for p in prefixes):
                tallies["filter"] += 1
                continue
            target = cleaned
            hops = 0
            while target in redirect_map and hops < 20:
                target = redirect_map[target]
                hops += 1
            counts[target] = counts.get(target, 0) + int(count_s)
            tallies["kept"] += 1
    return counts, tallies


def _synth_log_lines(rng, n_lines, redirect_sources):
    pool = [f"Reference_page_{i:03d}" for i in range(150)]
    pool += [f"Caf%C3%A9_{i}" for i in range(10)]
    pool += [f"Main%20Topic_{i}" for i in range(10)]
    pool += [f"Section_page_{i}#history" for i in range(10)]
    pool += [f"lowercase_start_{i}" for i in range(10)]
    pool += redirect_sources
    lines = []
    for _ in range(n_lines):
        kind = int(rng.integers(0, 100))
        count = int(rng.integers(1, 50))
        if kind < 70:
            title = pool[int(rng.integers(0, len(pool)))]
            lines.append(f"en {title} {count} {count * 31}")
        elif kind < 78:
            proj = ("fr", "de", "en.m")[int(rng.integers(0, 3))]
            lines.append(f"{proj} Autre_page {count} {count * 31}")
        elif kind < 85:
            ns = ("Talk:Thing", "User:Person", "Wikipedia:Policy")[int(rng.integers(0, 3))]
            lines.append(f"en {ns} {count} {count * 31}")
        elif kind < 90:
            bad = ("#lead_anchor", "Pipe|name", "%23encoded_hash", "Brack[et")[
                int(rng.integers(0, 4))
            ]
            lines.append(f"en {bad} {count} {count * 31}")
        else:
            broken = (
                "en OnlyThree 5",
                "en Too many fields 5 10",
                f"en Title x{count} 10",
                f"en Title {count} 1_0",
                "",
            )[int(rng.integers(0, 5))]
            lines.append(broken)
    return lines


_REFERENCE_REDIRECTS = {f"Alias_{i}": f"Reference_page_{i:03d}" for i in range(20)}
_REFERENCE_REDIRECTS["Chain_head"] = "Chain_mid"
_REFERENCE_REDIRECTS["Chain_mid"] = "Reference_page_000"


def test_ingest_reference(tmp_path):
    rng = np.random.default_rng(505)
    redirect_map = _REFERENCE_REDIRECTS
    lines = _synth_log_lines(rng, 10_000, sorted(redirect_map))
    log_path = tmp_path / "pagecounts-20070310-060000"
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = FilterConfig(project="en", namespace_prefixes=("Talk:", "User:", "Wikipedia:"))
    table = RedirectTable(mapping=dict(redirect_map))
    store = ingest([log_path], table, config)

    ref_counts, ref_tallies = _reference_aggregate(
        log_path, "en", ("Talk:", "User:", "Wikipedia:"), redirect_map
    )
    day = date(2007, 3, 10)
    want = {title: {day: count} for title, count in ref_counts.items()}
    exact = daily_counts(store) == want
    tallies_match = (
        store.tallies["lines_total"] == ref_tallies["total"]
        and store.tallies["lines_kept"] == ref_tallies["kept"]
        and store.tallies["lines_dropped_filter"] == ref_tallies["filter"]
        and store.tallies["lines_dropped_title"] == ref_tallies["title"]
        and store.tallies["lines_malformed"] == ref_tallies["malformed"]
    )

    # Throughput on a large well-formed file (soft target, measured and reported).
    pool = [f"Bulk_article_{i:04d}" for i in range(1980)]
    pool += [f"Caf%C3%A9_bulk_{i}" for i in range(20)]
    n_bulk = 1_000_000
    idx = rng.integers(0, len(pool), size=n_bulk)
    counts = rng.integers(1, 80, size=n_bulk)
    bulk_path = tmp_path / "pagecounts-20070311-000000"
    with open(bulk_path, "w", encoding="utf-8") as fh:
        fh.write(
            "\n".join(
                f"en {pool[i]} {c} {c * 37}"
                for i, c in zip(idx.tolist(), counts.tolist())
            )
        )
        fh.write("\n")
    t0 = time.perf_counter()
    bulk_store = ingest([bulk_path], RedirectTable(), config)
    elapsed = time.perf_counter() - t0
    lps = n_bulk / elapsed
    ok = exact and tallies_match and bulk_store.tallies["lines_kept"] == n_bulk and lps > 150_000
    _verdict(
        "ingest-reference",
        ok,
        f"10000-line store {'exact' if exact else 'MISMATCH'}, "
        f"tallies {'match' if tallies_match else 'MISMATCH'}, "
        f"throughput {lps / 1000:.0f}k lines/s (soft target 200k)",
    )


def test_ingest_many_files_matches_reference(tmp_path, monkeypatch):
    """32 hourly files on two days, one gzipped, with four CPUs forced: each day
    goes to one of two forked workers as one task."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(logstore, "MIN_BYTES_PER_WORKER", 1)
    rng = np.random.default_rng(606)
    prefixes = ("Talk:", "User:", "Wikipedia:")
    (tmp_path / "logs").mkdir()
    (tmp_path / "plain").mkdir()
    files = []
    want: dict[str, dict[date, int]] = {}
    want_tallies = dict.fromkeys(("total", "kept", "filter", "title", "malformed"), 0)
    # Fifteen hours on the first day and seventeen on the second: tasks of unequal size.
    hours = [(10, hour) for hour in range(15)] + [(11, hour) for hour in range(17)]
    for i, (day, hour) in enumerate(hours):
        body = "\n".join(_synth_log_lines(rng, 400, sorted(_REFERENCE_REDIRECTS))) + "\n"
        name = f"pagecounts-200703{day}-{hour:02d}0000"
        # The reference reads plain text only, so it gets a plain copy of the gzipped file.
        plain = tmp_path / "plain" / name
        plain.write_text(body, encoding="utf-8")
        if i == 21:
            path = tmp_path / "logs" / (name + ".gz")
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                fh.write(body)
        else:
            path = tmp_path / "logs" / name
            path.write_text(body, encoding="utf-8")
        files.append(path)
        counts, tallies = _reference_aggregate(plain, "en", prefixes, _REFERENCE_REDIRECTS)
        d = date(2007, 3, day)
        for title, count in counts.items():
            day_map = want.setdefault(title, {})
            day_map[d] = day_map.get(d, 0) + count
        for key in want_tallies:
            want_tallies[key] += tallies[key]

    config = FilterConfig(project="en", namespace_prefixes=prefixes)
    store = ingest(files, RedirectTable(mapping=dict(_REFERENCE_REDIRECTS)), config)
    assert daily_counts(store) == want
    assert store.tallies == {
        "files_processed": 32,
        "files_unreadable": 0,
        "lines_total": want_tallies["total"],
        "lines_kept": want_tallies["kept"],
        "lines_dropped_filter": want_tallies["filter"],
        "lines_dropped_title": want_tallies["title"],
        "lines_malformed": want_tallies["malformed"],
    }
    assert [t.name for t in store.file_tallies] == [p.name for p in files]


_PROPERTY_TERMINALS = ["Physics", "Main_Page", "Café"]
_PROPERTY_SOURCES = ["Alias_0", "Alias_1", "Alias_2"]
_PROPERTY_HEADS = ["Chain_0", "Chain_1"]
_PROPERTY_PREFIXES = ("Talk:", "User:")
# Repeated entries and branches weight the draws towards lines that reach the
# later rules; without them few lines get past the malformed and project checks.
# Fields are raw bytes: some are not UTF-8 (a stray \xff, a cut-off \xe2\x82),
# which both sides must read as U+FFFD, and some hold U+FFFD itself.
_PROPERTY_PROJECTS = st.sampled_from(
    [b"en", b"en", b"en", b"en", b"fr", b"en.m", b"", b"en\xff", b"\xef\xbf\xbd"]
)
_PROPERTY_TITLES = st.one_of(
    *(
        st.sampled_from(group).map(str.encode)
        for group in (
            ["Physics", "physics", "Main%20Page", "main_Page", "Caf%C3%A9", "Caf%25C3%25A9"],
            ["Physics#History", "#History", "%23History", "A|B", "Brack[et", "A%7CB"],
            ["Foo%09Bar", "Nul%00", "%7FDel", "Tab%2509Twice", "Foo%0A"],
            ["Talk:Physics", "User:Someone", "Talk%3APhysics", "talk:Physics", "user:X"],
            [*_PROPERTY_SOURCES, *_PROPERTY_HEADS, "alias_0", "chain_1"],
        )
    ),
    st.text(alphabet="aZ_%7C#|[:", max_size=6).map(str.encode),
    st.sampled_from(
        [b"Caf\xc3\xa9", b"caf\xe9", b"X\xe2\x82", b"X\xff", b"X\xef\xbf\xbd", b"\xff", b"Caf%E9"]
    ),
    st.binary(max_size=4),
)
_PROPERTY_DIGITS = st.integers(0, 10**6).map(lambda n: str(n).encode())
_PROPERTY_NUMBERS = st.one_of(
    _PROPERTY_DIGITS,
    _PROPERTY_DIGITS,
    _PROPERTY_DIGITS,
    # Non-ASCII digits: superscript two, Arabic-Indic three, fullwidth five.
    st.sampled_from([b"x5", b"-5", b"1_0", b"", b"1\xff", *map(str.encode, "\u00b2\u0663\uff15")]),
)
# Project, title, then 1-3 of the three number fields: 3-5 fields a line.
_PROPERTY_LINES = st.tuples(
    _PROPERTY_PROJECTS,
    _PROPERTY_TITLES,
    st.sampled_from([3, 4, 4, 4, 4, 5]),
    _PROPERTY_NUMBERS,
    _PROPERTY_NUMBERS,
    _PROPERTY_NUMBERS,
).map(lambda parts: b" ".join(parts[:2] + parts[3 : parts[2] + 1]))
_PROPERTY_ENDS = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])


@st.composite
def _property_case(draw):
    """Log lines of 3-5 fields, each with its end, plus acyclic redirects of at most two hops."""
    redirects = draw(
        st.dictionaries(
            st.sampled_from(_PROPERTY_SOURCES), st.sampled_from(_PROPERTY_TERMINALS), min_size=1
        )
    )
    redirects |= draw(
        st.dictionaries(st.sampled_from(_PROPERTY_HEADS), st.sampled_from(sorted(redirects)))
    )
    lines = st.tuples(_PROPERTY_LINES, _PROPERTY_ENDS).map(b"".join)
    return draw(st.lists(lines, min_size=10, max_size=40)), redirects


# The reference's tally names and ingest's.
_TALLY_NAMES = {
    "total": "lines_total",
    "kept": "lines_kept",
    "filter": "lines_dropped_filter",
    "title": "lines_dropped_title",
    "malformed": "lines_malformed",
}


def _ingest_and_reference(lines, redirect_map, block):
    """(ingest's, the reference's) daily counts and line tallies for one log file of
    lines, which ingest reads block bytes at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "pagecounts-20070310-060000"
        log_path.write_bytes(b"".join(lines))
        config = FilterConfig(project="en", namespace_prefixes=_PROPERTY_PREFIXES)
        with mock.patch.object(logstore, "READ_BLOCK", block):
            store = ingest([log_path], RedirectTable(mapping=dict(redirect_map)), config)
        ref_counts, ref_tallies = _reference_aggregate(
            log_path, "en", _PROPERTY_PREFIXES, redirect_map
        )
    day = date(2007, 3, 10)
    got = daily_counts(store), {key: store.tallies[name] for key, name in _TALLY_NAMES.items()}
    return got, ({title: {day: count} for title, count in ref_counts.items()}, ref_tallies)


def _differs(lines, redirect_map, block):
    got, want = _ingest_and_reference(lines, redirect_map, block)
    return got != want


# Shrinking is off: hypothesis spent up to five minutes shrinking a failure,
# one file-based ingest per step. A failure names instead the first line that
# ingest and the reference treat differently on its own.
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=_property_case(), block=st.integers(1, 8))
def test_ingest_matches_reference_property(case, block):
    """Blocks of a few bytes make lines and \\r\\n pairs straddle the blocks ingest reads."""
    lines, redirect_map = case
    got, want = _ingest_and_reference(lines, redirect_map, block)
    if got != want:
        alone = next((line for line in lines if _differs([line], redirect_map, block)), None)
        pytest.fail(
            f"first line differing on its own: {alone!r} (blocks of {block} bytes); "
            f"ingest {got}, reference {want}"
        )


# Well-formed lines over a few titles, so that titles recur across days. Some
# titles store as non-ASCII text, among them a line separator (U+2028) and a
# NEL (U+0085), which str.splitlines would take for line ends.
_STORE_LINES = st.tuples(
    st.sampled_from(
        ["Physics", "Caf%C3%A9", "Z\u00fcrich", "A%E2%80%A8B", "N%C2%85L", "Alias_0", "Chain_1"]
    ),
    st.integers(0, 10**6),
).map(lambda parts: f"en {parts[0]} {parts[1]} 1".encode())


@st.composite
def _store_case(draw):
    """Log lines for up to six of nine days, plus redirects as in _property_case."""
    _, redirects = draw(_property_case())
    lines = st.lists(st.one_of(_STORE_LINES, _PROPERTY_LINES), max_size=15)
    offsets = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True))
    return {offset: draw(lines) for offset in offsets}, redirects


# Not shrunk, for the reason given at test_ingest_matches_reference_property.
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=_store_case(), span=st.integers(1, 3))
@example(case=({0: [b"fr Paris 1 1"], 2: []}, {"Alias_0": "Physics"}), span=1)
def test_store_matches_reference_property(case, span):
    """window_totals against brute-force sums of the reference aggregator's per-day
    counts, and save -> load -> save writing the same bytes."""
    lines_by_offset, redirect_map = case
    first_day = date(2007, 3, 1)
    want: dict[date, dict[str, int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = []
        for offset, lines in lines_by_offset.items():
            day = first_day + timedelta(days=offset)
            files.append(tmp / f"pagecounts-{day:%Y%m%d}-000000")
            files[-1].write_bytes(b"".join(line + b"\n" for line in lines))
            want[day], _ = _reference_aggregate(files[-1], "en", _PROPERTY_PREFIXES, redirect_map)
        config = FilterConfig(project="en", namespace_prefixes=_PROPERTY_PREFIXES)
        store = ingest(files, RedirectTable(mapping=dict(redirect_map)), config)
        save_store(store, tmp / "a")
        save_store(load_store(tmp / "a"), tmp / "b")
        names = sorted(p.name for p in (tmp / "a").iterdir())
        assert names == sorted(p.name for p in (tmp / "b").iterdir())
        for name in names:
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name
    assert (store.coverage_start, store.coverage_end) == (min(want), max(want))
    titles = sorted(set().union(*want.values()))
    title_sets = [[], titles, titles[::2], ["Not_in_the_logs", *titles[:1]]]
    title_sets += [[title] for title in titles]
    for k in range(store.coverage_days):
        day0 = store.coverage_start + timedelta(days=k)
        if not span <= k < store.coverage_days - span:
            with pytest.raises(OutOfCoverage):
                window_totals(store, titles, day0, span)
            continue
        for title_set in title_sets:
            before, after = window_totals(store, title_set, day0, span)
            brute = [
                sum(want.get(day0 + timedelta(days=d), {}).get(t, 0) for t in title_set)
                for d in [*range(-span, 0), *range(1, span + 1)]
            ]
            assert before + after == brute, (title_set, day0)


# --- criterion: title cleaning golden table ----------------------------------

GOLDEN_TITLES = [
    ("Main%20Page", "Main_Page"),
    ("Barack_Obama", "Barack_Obama"),
    ("barack obama", "Barack_obama"),
    ("#History", None),
    ("Foo#Bar", "Foo"),
    ("Foo#Bar#Baz", "Foo"),
    ("foo", "Foo"),
    ("é", "É"),
    ("", None),
    (" ", "_"),
    ("%23Foo", None),
    ("Foo%23Bar", "Foo"),
    ("A<B", None),
    ("A>B", None),
    ("A[B", None),
    ("A]B", None),
    ("A{B", None),
    ("A}B", None),
    ("A|B", None),
    ("Foo#B|ar", "Foo"),
    ("A%7CB", None),
    ("C%2B%2B", "C++"),
    ("100%25_Club", "100%_Club"),
    ("100%", "100%"),
    ("Caf%C3%A9", "Café"),
    ("Foo#", "Foo"),
    ("a#b", "A"),
    ("Talk:Physics", "Talk:Physics"),
    ("Hello%20World%20", "Hello_World_"),
    ("%2523", None),
]


def test_title_cleaning():
    assert len(GOLDEN_TITLES) == 30
    misses = [
        (raw, want, clean_title(raw))
        for raw, want in GOLDEN_TITLES
        if clean_title(raw) != want
    ]
    _verdict(
        "title-cleaning",
        not misses,
        f"{30 - len(misses)}/30 golden cases" + (f"; first miss {misses[0]}" if misses else ""),
    )


# --- criterion: appearance feature fixtures ----------------------------------

# Expected values hand-counted from the markup (words are maximal alphanumeric
# runs, so tag names like "ref" count in the markup total).
FEATURE_FIXTURES = [
    (
        "'''Alpha''' links to [[Beta]] and [[Gamma|G]].",
        6, 6 / 7, 200 / 7, 0.0,
    ),
    (
        "{{Infobox|name=Thing}}\n'''Thing''' is a [[Widget]] sold at "
        "[http://example.com the shop].\n",
        8, 8 / 14, 100 / 14, 100 / 14,
    ),
    (
        "== History ==\nEarly days<ref>See http://archive.org for details</ref> "
        "were long.\nSee also https://example.org today.\n",
        11, 11 / 19, 0.0, 200 / 19,
    ),
    (
        "{| class=\"wikitable\"\n|Cell\n|}\nBody text here [[Topic One]] "
        "[[Category:Stuff]] [[fr:Sujet]].\n",
        9, 9 / 12, 100 / 12, 0.0,
    ),
    (
        "{{Outer|inner={{Inner|v=2}}}}Alpha beta.\nGamma {{broken starts\n"
        "Delta ends fine.\n",
        6, 6 / 13, 0.0, 0.0,
    ),
    (
        "See [[Alpha#History]], [[Alpha]] and [[Beta (band)|the band]] at "
        "[https://tickets.example]. Plus ftp://files.example/x archive.\n",
        14, 14 / 19, 300 / 19, 200 / 19,
    ),
]


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_feature_fixtures():
    failures = []
    for i, (markup, length, ratio, wiki, ext) in enumerate(FEATURE_FIXTURES):
        f = compute_features(ArticleSource(f"Fixture_{i}", markup), extract_wikilinks(markup))
        if not (
            f.plain_length == length
            and _close(f.plain_to_markup_ratio, ratio)
            and _close(f.wikilink_density, wiki)
            and _close(f.extlink_density, ext)
        ):
            failures.append((i, f))
            continue
        twice = markup + "\n" + markup
        doubled = compute_features(ArticleSource(f"Fixture_{i}", twice), extract_wikilinks(twice))
        if not (
            doubled.plain_length == 2 * length
            and doubled.plain_to_markup_ratio == f.plain_to_markup_ratio
            and doubled.wikilink_density == f.wikilink_density
            and doubled.extlink_density == f.extlink_density
        ):
            failures.append((i, "doubling", doubled))
    _verdict(
        "feature-fixtures",
        not failures,
        f"{len(FEATURE_FIXTURES) - len(failures)}/6 fixtures with doubling invariance"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


# --- criterion: cohort membership fixture ------------------------------------


def _cohort_fixture_csv():
    day = "2006-03-10"
    rows = ["title,created_at,is_redirect,redirect_target"]
    rows.append(f"Hoax_Alpha,{day}T08:00:00Z,0,")
    rows.append(f"Hoax_Beta,{day}T09:00:00Z,0,")
    for i in range(68):
        rows.append(f"Article_{i:02d},{day}T0{i % 8}:15:00Z,0,")
    for i in range(10):
        rows.append(f"Redir_{i:02d},{day}T10:00:00Z,1,Article_{i:02d}")
    for i in range(10, 20):
        rows.append(f"Redir_{i:02d},{day}T10:00:00Z,1,Outside_{i - 10:02d}")
    for i in range(20, 29):
        rows.append(f"Redir_{i:02d},{day}T10:00:00Z,1,")
    # A messy pair: Article_67 exists as a real article row above AND as a
    # redirect row pointing at Article_00, so it must collapse out of the cohort.
    rows.append(f"Article_67,{day}T11:00:00Z,1,Article_00")
    return "\n".join(rows) + "\n"


def test_cohort_membership(tmp_path):
    path = tmp_path / "creations.csv"
    path.write_text(_cohort_fixture_csv(), encoding="utf-8")
    metas, table = corpus.load_creation_list(path)
    n_rows = len(metas)
    n_redirect_rows = sum(1 for m in metas if m.is_redirect)
    hoax = next(m for m in metas if m.title == "Hoax_Alpha")
    hoax_titles = {"Hoax_Alpha", "Hoax_Beta"}
    got = corpus.build_cohort(hoax.creation_date, metas, table, hoax_titles)
    want = [f"Article_{i:02d}" for i in range(67)]
    redirect_rows = {m.title for m in metas if m.is_redirect}
    ok = (
        n_rows == 100
        and n_redirect_rows == 30
        and got == want
        and len(got) < n_rows
        and all(t not in hoax_titles and t not in redirect_rows for t in got)
        and all(t not in table.mapping for t in got)
        and all(t != hoax.title for t in got)
    )
    _verdict(
        "cohort-membership",
        ok,
        f"{len(got)} members from {n_rows} same-day rows (30 redirects, 2 hoaxes)",
    )
