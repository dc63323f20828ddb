"""Traffic log parsing, cleaning, redirect resolution, store behavior."""

import gzip
import io
import os
import tempfile
import time
from array import array
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoaxlens import forkpool, logstore
from hoaxlens.logstore import (
    FilterConfig,
    OutOfCoverage,
    RedirectTable,
    clean_title,
    file_hour,
    ingest,
    load_store,
    save_store,
    window_totals,
)
from hoaxlens.titles import MAX_REDIRECT_HOPS
from storeview import daily_counts


def test_clean_title_rules():
    assert clean_title("Main%20Page") == "Main_Page"
    assert clean_title("barack obama") == "Barack_obama"
    assert clean_title("#History") is None
    assert clean_title("Foo#Bar") == "Foo"
    assert clean_title("A|B") is None
    assert clean_title("tree") == "Tree"


def test_clean_title_idempotent_on_samples():
    samples = [
        "Main%20Page",
        "Foo#Bar",
        "a b c",
        "C%2B%2B",
        "100%25_Club",
        "%2523",
        "Caf%C3%A9",
        "Hello%20World%20",
        "x#y#z",
        "Plain_title",
    ]
    for raw in samples:
        once = clean_title(raw)
        if once is not None:
            assert clean_title(once) == once, raw


def test_filter_config_load(tmp_path):
    path = tmp_path / "filter.conf"
    path.write_text("# comment\n\nen\nTalk:\nUser:\n")
    config = FilterConfig.load(path)
    assert config.project == "en"
    assert config.namespace_prefixes == ("Talk:", "User:")


def test_filter_config_rejects_replacement_character(tmp_path):
    """Invalid UTF-8 in a project field reads as U+FFFD, so a code holding it would
    match fields of other bytes than its own; ingest compares bytes."""
    path = tmp_path / "filter.conf"
    path.write_text("en\ufffd\nTalk:\n", encoding="utf-8")
    with pytest.raises(ValueError, match="filter.conf.*U\\+FFFD"):
        FilterConfig.load(path)


def test_redirect_resolve_chain_and_fixpoint():
    table = RedirectTable(mapping={"A": "B", "B": "C"})
    assert table.resolve("A") == "C"
    assert table.resolve("B") == "C"
    assert table.resolve("C") == "C"
    assert table.resolve("Unknown") == "Unknown"
    for title in ["A", "B", "C", "Unknown"]:
        assert table.resolve(table.resolve(title)) == table.resolve(title)


def test_redirect_cycle_resolves_to_self():
    table = RedirectTable(mapping={"A": "B", "B": "A", "S": "S"})
    assert table.resolve("A") == "A"
    assert table.resolve("B") == "B"
    assert table.resolve("S") == "S"


def test_redirect_depth_cap():
    chain = {f"N{i}": f"N{i + 1}" for i in range(30)}
    table = RedirectTable(mapping=chain)
    # Within the cap the chain resolves fully; past it the input comes back.
    assert table.resolve("N20") == "N30"
    assert table.resolve("N14") == "N30"  # MAX_REDIRECT_HOPS hops
    assert table.resolve("N13") == "N13"  # one hop more
    assert table.resolve("N0") == "N0"


def test_redirect_table_load(tmp_path):
    path = tmp_path / "redirects.tsv"
    path.write_text("Alias\tTarget\nOld_name\tNew_name\n")
    table = RedirectTable.load(path)
    assert table.resolve("Alias") == "Target"
    assert table.flattened() == {"Alias": "Target", "Old_name": "New_name"}


def test_redirect_table_load_rejects_bad_rows(tmp_path):
    path = tmp_path / "redirects.tsv"
    path.write_text("JustOneColumn\n")
    with pytest.raises(ValueError):
        RedirectTable.load(path)


def test_file_hour():
    stamp = file_hour("pagecounts-20070310-130000")
    assert stamp == datetime(2007, 3, 10, 13, tzinfo=timezone.utc)
    assert file_hour("x/y/pagecounts-20071231-230000.gz").hour == 23
    with pytest.raises(ValueError):
        file_hour("pagecounts-2007031-130000")
    for name in ("pagecounts-20090302-250000", "pagecounts-20090230-010000"):
        with pytest.raises(ValueError, match=name):
            file_hour(name)


CONFIG = FilterConfig(project="en", namespace_prefixes=("Talk:",))


def _write_hour(tmp_path, day, hour, lines, gz=False):
    name = f"pagecounts-{day:%Y%m%d}-{hour:02d}0000" + (".gz" if gz else "")
    path = tmp_path / name
    body = "".join(line + "\n" for line in lines)
    if gz:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(body)
    else:
        path.write_text(body)
    return path


def test_ingest_aggregates_and_tallies(tmp_path):
    d = date(2007, 3, 10)
    f1 = _write_hour(tmp_path, d, 0, ["en Physics 3 100", "en Maths 2 50", "fr Paris 9 10"])
    f2 = _write_hour(tmp_path, d, 1, ["en Physics 4 100", "en Talk:Physics 8 10", "broken"])
    f3 = _write_hour(tmp_path, date(2007, 3, 11), 0, ["en physics 1 5", "en #frag 2 5"], gz=True)
    store = ingest([f1, f2, f3], RedirectTable(), CONFIG)
    assert store.coverage_start == d
    assert store.coverage_end == date(2007, 3, 11)
    assert daily_counts(store)["Physics"] == {d: 7, date(2007, 3, 11): 1}
    assert daily_counts(store)["Maths"] == {d: 2}
    assert store.tallies["lines_total"] == 8
    assert store.tallies["lines_kept"] == 4
    assert store.tallies["lines_dropped_filter"] == 2  # fr project + Talk: namespace
    assert store.tallies["lines_dropped_title"] == 1  # leading '#'
    assert store.tallies["lines_malformed"] == 1
    assert store.tallies["files_processed"] == 3


@pytest.mark.parametrize(
    "line, bucket",
    [
        ("en Main_Page 42 1234", "lines_kept"),
        ("en OnlyThree 5", "lines_malformed"),
        ("en Too many fields 5 10", "lines_malformed"),
        ("en Title x5 10", "lines_malformed"),
        ("en Title 5 x10", "lines_malformed"),
        ("en Title -5 10", "lines_malformed"),
        ("en Title 5 1_0", "lines_malformed"),
        ("en  5 10", "lines_malformed"),
        (" Title 5 10", "lines_malformed"),
        ("", "lines_malformed"),
        ("\n", "lines_malformed"),
        ("de Berlin 7 100", "lines_dropped_filter"),
        ("en Talk:Physics 3 10", "lines_dropped_filter"),
        ("en User:Someone 3 10", "lines_dropped_filter"),
        # The namespace check applies to the cleaned title.
        ("en Talk%3APhysics 3 10", "lines_dropped_filter"),
        ("en #frag 2 5", "lines_dropped_title"),
        # ASCII control characters: a tab or newline would corrupt the stored titles.
        ("en Evil%092007-03-10%09999%0APhysics 1 1", "lines_dropped_title"),
        ("en Foo%09Bar 5 10", "lines_dropped_title"),
        ("en Bell%07 5 10", "lines_dropped_title"),
        ("en Del%7F 5 10", "lines_dropped_title"),
        # A line also ends at \r\n and at a lone \r.
        ("en Main_Page 42 1234\r", "lines_kept"),
        ("en Main_Page 40 1\ren Main_Page 2 1\r", "lines_kept"),
        ("en Title 5\r10", "lines_malformed"),
        ("\r", "lines_malformed"),
        ("\r\r", "lines_malformed"),
        ("de Berlin 7 100\ren Talk:Physics 3 10", "lines_dropped_filter"),
        ("en #frag 2 5\ren Foo%09Bar 5 10\r", "lines_dropped_title"),
    ],
)
def test_ingest_tallies_line(tmp_path, line, bucket):
    d = date(2007, 3, 10)
    config = FilterConfig(project="en", namespace_prefixes=("Talk:", "User:"))
    store = ingest([_write_hour(tmp_path, d, 0, [line])], RedirectTable(), config)
    for key in ("lines_kept", "lines_dropped_filter", "lines_dropped_title", "lines_malformed"):
        assert store.tallies[key] == (store.tallies["lines_total"] if key == bucket else 0), key
    assert daily_counts(store) == ({"Main_Page": {d: 42}} if bucket == "lines_kept" else {})


def test_ingest_reads_long_line_in_linear_time(tmp_path, monkeypatch):
    """A 4 MiB line read 64 bytes at a time is joined from its pieces once; copying
    the part read so far at each of its 65,536 blocks would copy 128 GiB."""
    monkeypatch.setattr(logstore, "READ_BLOCK", 64)
    d = date(2007, 3, 10)
    title = "Long_" + "x" * (4 << 20)
    path = _write_hour(tmp_path, d, 0, ["en Short 1 1", f"en {title} 7 10\r", "en Short 2 1"])
    start = time.perf_counter()
    store = ingest([path], RedirectTable(), CONFIG)
    elapsed = time.perf_counter() - start
    assert daily_counts(store) == {title: {d: 7}, "Short": {d: 3}}
    assert (store.tallies["lines_total"], store.tallies["lines_kept"]) == (3, 3)
    assert elapsed < 5, f"{elapsed:.1f} s"


def test_ingest_rejects_hour_supplied_twice(tmp_path):
    d = date(2007, 3, 10)
    plain = _write_hour(tmp_path, d, 0, ["en Physics 5 10"])
    gz = _write_hour(tmp_path, d, 0, ["en Physics 5 10"], gz=True)
    with pytest.raises(ValueError, match="supplied twice") as err:
        ingest([plain, gz], RedirectTable(), CONFIG)
    assert plain.name in str(err.value)
    assert gz.name in str(err.value)


def test_ingest_rejects_views_past_int64(tmp_path):
    # Each count fits in int64, but a window over both titles would overflow.
    lines = [f"en Big {2**63 - 1} 1", "en Other 1 1"]
    with pytest.raises(ValueError, match="int64"):
        ingest([_write_hour(tmp_path, date(2007, 3, 10), 0, lines)], RedirectTable(), CONFIG)


def test_ingest_resolves_redirects(tmp_path):
    d = date(2007, 3, 10)
    f = _write_hour(tmp_path, d, 0, ["en Old_name 3 10", "en New_name 4 10"])
    table = RedirectTable(mapping={"Old_name": "New_name"})
    store = ingest([f], table, CONFIG)
    assert daily_counts(store) == {"New_name": {d: 7}}


def test_redirect_table_load_keeps_reachable_rows(tmp_path):
    path = tmp_path / "redirects.tsv"
    path.write_text("C\tD\nA\tB\nX\tY\nB\tC\nA\tC\n\nLoop_a\tLoop_b\nLoop_b\tLoop_a\n")
    # A's later row replaces its first; C is reached through A, D through C.
    assert RedirectTable.load(path, sources={"A"}).mapping == {"A": "C", "C": "D"}
    assert RedirectTable.load(path, sources={"Z", "Loop_b"}).mapping == {
        "Loop_b": "Loop_a",
        "Loop_a": "Loop_b",
    }
    assert RedirectTable.load(path, sources=()).mapping == {}


# Chain links C0 -> C1 -> ..., the titles of short rows, and titles no row names.
_CHAIN = [f"C{i}" for i in range(MAX_REDIRECT_HOPS + 4)]
_SHORT = ["A", "B", "D", "E"]


@st.composite
def _reachable_case(draw):
    """A redirect TSV's rows in file order, with cycles, self-loops, repeated
    sources, chains longer than MAX_REDIRECT_HOPS and unrelated rows, and the
    logged titles to load it for."""
    names = st.sampled_from(_SHORT + _CHAIN[:3])
    rows = draw(st.lists(st.tuples(names, names), max_size=10))
    start = draw(st.integers(0, len(_CHAIN) - 1))
    rows += list(zip(_CHAIN[start:], _CHAIN[start + 1 :]))
    rows += [(f"Unrelated_{i}", f"Elsewhere_{i}") for i in range(draw(st.integers(0, 3)))]
    rows = draw(st.permutations(rows))
    sources = draw(st.sets(st.sampled_from(_SHORT + _CHAIN + ["Unlisted"]), min_size=1))
    return rows, sources


def _chain_from(start):
    return list(zip(_CHAIN[start:], _CHAIN[start + 1 :])), {_CHAIN[start]}


@settings(max_examples=150, deadline=None)
@given(case=_reachable_case(), end=st.sampled_from(["\n", "\r\n", "\r"]))
# One hop more than resolve follows, and exactly as many, from the one logged title.
@example(case=_chain_from(len(_CHAIN) - MAX_REDIRECT_HOPS - 2), end="\n")
@example(case=_chain_from(len(_CHAIN) - MAX_REDIRECT_HOPS - 1), end="\n")
def test_reachable_rows_resolve_like_whole_table(case, end):
    """Loaded for the logged titles, the table resolves each of them as the
    whole table does, and ingest given its path builds the same store."""
    rows, sources = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "redirects.tsv"
        path.write_bytes("".join(f"{a}\t{b}{end}" for a, b in rows).encode())
        full = RedirectTable.load(path)
        part = RedirectTable.load(path, sources=sources)
        lines = [f"en {title} {i + 1} 1" for i, title in enumerate(sorted(sources))]
        log = _write_hour(tmp, date(2007, 3, 10), 0, lines)
        by_path = ingest([log], path, CONFIG)
        in_memory = ingest([log], full, CONFIG)
    flat = part.flattened()
    want = {s: full.resolve(s) for s in sources if s in full.mapping}
    assert {s: flat[s] for s in sources if s in flat} == want
    # Only rows of the whole table, each within MAX_REDIRECT_HOPS hops of a logged title.
    assert part.mapping == {s: full.mapping[s] for s in part.mapping}
    reached = set(sources)
    for _ in range(MAX_REDIRECT_HOPS):
        reached |= {part.mapping[s] for s in reached if s in part.mapping}
    assert set(part.mapping) <= reached
    assert by_path.titles == in_memory.titles
    assert list(by_path.keys) == list(in_memory.keys)
    assert list(by_path.views) == list(in_memory.views)


def test_ingest_order_independent(tmp_path):
    d = date(2007, 3, 10)
    files = [
        _write_hour(tmp_path, d, h, [f"en Page_{i} {i + h} 10" for i in range(5)])
        for h in range(4)
    ]
    a = ingest(files, RedirectTable(), CONFIG)
    b = ingest(list(reversed(files)), RedirectTable(), CONFIG)
    assert daily_counts(a) == daily_counts(b)
    assert a.tallies == b.tallies
    assert a.file_tallies == b.file_tallies


def test_ingest_empty_file_no_errors(tmp_path):
    f = _write_hour(tmp_path, date(2007, 3, 10), 0, [])
    store = ingest([f], RedirectTable(), CONFIG)
    assert daily_counts(store) == {}
    assert store.tallies["lines_total"] == 0
    assert store.tallies["lines_malformed"] == 0


def test_ingest_unreadable_file_continues(tmp_path):
    d = date(2007, 3, 10)
    good = _write_hour(tmp_path, d, 0, ["en Physics 3 100"])
    bad = tmp_path / "pagecounts-20070310-010000.gz"
    bad.write_bytes(b"this is not gzip data")
    store = ingest([good, bad], RedirectTable(), CONFIG)
    assert daily_counts(store)["Physics"] == {d: 3}
    assert store.unreadable == [bad.name]
    assert store.tallies["files_unreadable"] == 1


def test_ingest_coverage_ends_at_last_readable_day(tmp_path):
    d = date(2007, 3, 10)
    good = _write_hour(tmp_path, d, 0, ["en Physics 3 100"])
    bad = tmp_path / "pagecounts-20070311-000000.gz"
    bad.write_bytes(b"this is not gzip data")
    store = ingest([bad, good], RedirectTable(), CONFIG)
    assert (store.coverage_start, store.coverage_end) == (d, d)
    assert store.unreadable == [bad.name]


def _record_pools(monkeypatch, cpus):
    """Give the process cpus CPUs and ingest a worker for every byte; return the
    list to which each pool ingest starts appends its size."""
    started = []
    fork_workers = forkpool._fork_workers

    def recording_fork_workers(*args):
        children = fork_workers(*args)
        started.append(len(children))
        return children

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(logstore, "MIN_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(forkpool, "_fork_workers", recording_fork_workers)
    return started


@pytest.fixture
def pools(monkeypatch):
    """Four CPUs and a worker for every byte; record each pool ingest starts by its size."""
    return _record_pools(monkeypatch, 4)


def test_ingest_corrupt_middle_file_in_parallel(tmp_path, pools):
    """One file on each of three days, the middle one damaged: three workers,
    and coverage still spans the day without a readable file."""
    d, d2 = date(2007, 3, 10), date(2007, 3, 12)
    first = _write_hour(tmp_path, d, 0, ["en Physics 3 100", "en Maths 1 10"])
    # A gzip stream cut short: its first lines decode, then the read fails.
    middle = tmp_path / "pagecounts-20070311-010000.gz"
    body = "".join(f"en Page_{i} {i} 10\n" for i in range(20000)).encode()
    compressed = gzip.compress(body)
    middle.write_bytes(compressed[: len(compressed) // 2])
    last = _write_hour(tmp_path, d2, 2, ["en Physics 4 100"], gz=True)
    store = ingest([first, middle, last], RedirectTable(), CONFIG)
    assert pools == [3]
    assert store.unreadable == [middle.name]
    assert [t.name for t in store.file_tallies] == [first.name, last.name]
    assert daily_counts(store) == {"Physics": {d: 3, d2: 4}, "Maths": {d: 1}}
    assert (store.coverage_start, store.coverage_end) == (d, d2)
    assert store.tallies["files_processed"] == 2
    assert store.tallies["lines_total"] == 3


def test_ingest_sums_each_day_in_parallel(tmp_path, pools, monkeypatch):
    """Two workers each sum the eight hourly files of one day, given in reverse;
    the tallies come back in day and hour order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    days = [date(2007, 3, 10), date(2007, 3, 11)]
    files = [
        _write_hour(tmp_path, days[i // 8], i % 8, [f"en Page_{i % 3} {i + 1} 10", "en Shared 1 10"])
        for i in range(16)
    ]
    files[5].unlink()
    files[5] = tmp_path / "pagecounts-20070310-050000.gz"
    files[5].write_bytes(gzip.compress(b"en Shared 100 10\n" * 5000)[:-8])
    store = ingest(files[::-1], RedirectTable(), CONFIG)
    assert pools == [2]
    assert store.unreadable == [files[5].name]
    assert [t.name for t in store.file_tallies] == [f.name for i, f in enumerate(files) if i != 5]
    want = {
        f"Page_{k}": {
            day: sum(i + 1 for i in range(8 * n, 8 * n + 8) if i % 3 == k and i != 5)
            for n, day in enumerate(days)
        }
        for k in range(3)
    }
    want["Shared"] = {days[0]: 7, days[1]: 8}
    assert daily_counts(store) == want


def test_ingest_one_day_starts_no_pool(tmp_path, pools):
    """Sixteen hours of one day are one task, read in this process in hour order
    whatever the input order, even with four CPUs and a worker for every byte."""
    d = date(2007, 3, 10)
    files = [
        _write_hour(tmp_path, d, h, [f"en Page_{h % 3} {h + 1} 10"], gz=h % 2 == 1)
        for h in range(16)
    ]
    a = ingest(files, RedirectTable(), CONFIG)
    b = ingest(files[::-1], RedirectTable(), CONFIG)
    assert pools == []
    assert daily_counts(a) == {f"Page_{k}": {d: sum(h + 1 for h in range(k, 16, 3))} for k in range(3)}
    assert (a.titles, a.keys, a.views) == (b.titles, b.keys, b.views)
    assert (a.coverage_start, a.coverage_end) == (b.coverage_start, b.coverage_end)
    assert a.tallies == b.tallies
    assert [t.name for t in b.file_tallies] == [f.name for f in files]


def test_ingest_single_file_starts_no_pool(tmp_path, pools):
    d = date(2007, 3, 10)
    store = ingest([_write_hour(tmp_path, d, 0, ["en A 1 1"])], RedirectTable(), CONFIG)
    assert pools == []
    assert daily_counts(store) == {"A": {d: 1}}


# A chain Alias_2 -> Alias_1 -> Target, a second alias of Target, an alias
# whose target no log names, and titles no row names, two of which ingest drops.
_WORKER_TABLE = RedirectTable(
    mapping={"Alias_2": "Alias_1", "Alias_1": "Target", "Other": "Target", "Lone": "Unlogged"}
)
_WORKER_TITLES = ["Target", "Alias_1", "Alias_2", "Other", "Lone", "Plain", "Talk:Page", "#frag"]


@st.composite
def _worker_corpus(draw):
    """Hours per day, each hourly file's (title, count) lines, day by day and
    hour by hour, the index of the one file written as a damaged .gz, and the
    order in which ingest is given the files."""
    days, hours = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    line = st.tuples(st.sampled_from(_WORKER_TITLES), st.integers(0, 50))
    files = draw(st.lists(st.lists(line, max_size=8), min_size=days * hours, max_size=days * hours))
    damaged = draw(st.integers(0, len(files) - 1))
    return hours, files, damaged, draw(st.permutations(range(len(files))))


@settings(max_examples=40, deadline=None)
@given(corpus=_worker_corpus())
# Day 1 logs Target and both links of its chain; day 2 logs only aliases of
# Target; the damaged file is the first of day 3.
@example(
    corpus=(
        2,
        [[("Target", 1), ("Alias_2", 2)], [("Alias_1", 4), ("Target", 8)],
         [("Alias_2", 16)], [("Other", 32), ("Alias_1", 64)],
         [("Target", 128)], [("Lone", 256)]],
        4,
        [5, 0, 3, 1, 4, 2],
    )
)
def test_ingest_same_store_whatever_the_workers(corpus):
    """Forced to fork 2 or 3 workers, at most one per day, ingest builds the
    store it builds in one process: the same titles, keys, views and tallies,
    with the files' tallies and the unreadable files in day and hour order."""
    hours, files, damaged, order = corpus
    days = len(files) // hours
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i, lines in enumerate(files):
            day, hour = date(2007, 3, 10) + timedelta(days=i // hours), i % hours
            body = [f"en {title} {count} 1" for title, count in lines]
            if i == damaged:
                path = tmp / f"pagecounts-{day:%Y%m%d}-{hour:02d}0000.gz"
                path.write_bytes(gzip.compress("".join(f"{b}\n" for b in body).encode())[:-8])
            else:
                path = _write_hour(tmp, day, hour, body, gz=i % 2 == 1)
            paths.append(path)
        stores = []
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                started = _record_pools(mp, workers)
                stores.append(ingest([paths[i] for i in order], _WORKER_TABLE, CONFIG))
            forked = min(workers, days)
            assert started == ([] if forked == 1 else [forked])
    one = stores[0]
    assert one.unreadable == [paths[damaged].name]
    assert [t.name for t in one.file_tallies] == [p.name for p in paths if p != paths[damaged]]
    for store in stores[1:]:
        assert (store.coverage_start, store.coverage_end) == (one.coverage_start, one.coverage_end)
        assert store.titles == one.titles
        assert store.keys == one.keys
        assert store.views == one.views
        assert store.tallies == one.tallies
        assert store.file_tallies == one.file_tallies
        assert store.unreadable == one.unreadable


@pytest.mark.parametrize(
    "cpus, n_files, file_bytes, methods, workers",
    [
        (4, 3, 100, ["fork", "spawn"], 3),
        (2, 10, 100, ["fork", "spawn"], 2),
        (4, 10, 25, ["fork", "spawn"], 2),
        (8, 1, 1000, ["fork", "spawn"], 1),
        (4, 10, 100, ["spawn"], 1),
        (None, 10, 100, ["fork"], 3),
        (4, 0, 100, ["fork", "spawn"], 1),
    ],
    ids=["files_bound", "cpus_bound", "bytes_bound", "one_file", "no_fork", "no_affinity", "no_files"],
)
def test_ingest_workers_bounded(monkeypatch, cpus, n_files, file_bytes, methods, workers):
    """The shared rule as ingest applies it, with one worker per 100 bytes of files."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if "fork" not in methods:
        monkeypatch.delattr(os, "fork")
    assert forkpool.worker_count(n_files, n_files * file_bytes, 100) == workers


def test_ingest_no_files_raises():
    with pytest.raises(ValueError):
        ingest([], RedirectTable(), CONFIG)


def _constant_store(tmp_path, days, lines_per_day):
    files = []
    for i in range(days):
        d = date(2007, 3, 1 + i)
        files.append(_write_hour(tmp_path, d, 0, lines_per_day))
    return ingest(files, RedirectTable(), CONFIG)


def test_window_totals_constant_traffic(tmp_path):
    store = _constant_store(tmp_path, 15, ["en Physics 2 10"])
    before, after = window_totals(store, ["Physics"], date(2007, 3, 8))
    assert before == [2] * 7
    assert after == [2] * 7


def test_window_totals_sums_title_set(tmp_path):
    store = _constant_store(tmp_path, 15, ["en A 1 10", "en B 1 10"])
    before, after = window_totals(store, ["A", "B"], date(2007, 3, 8))
    assert before == [2] * 7
    assert after == [2] * 7


def test_window_totals_excludes_day_zero(tmp_path):
    files = []
    for i in range(15):
        d = date(2007, 3, 1 + i)
        lines = ["en Spike 100 10"] if d == date(2007, 3, 8) else []
        files.append(_write_hour(tmp_path, d, 0, lines))
    store = ingest(files, RedirectTable(), CONFIG)
    before, after = window_totals(store, ["Spike"], date(2007, 3, 8))
    assert before == [0] * 7
    assert after == [0] * 7


def test_window_totals_missing_days_count_zero(tmp_path):
    files = []
    for i in range(15):
        d = date(2007, 3, 1 + i)
        lines = ["en Early 5 10"] if i < 7 else []
        files.append(_write_hour(tmp_path, d, 0, lines))
    store = ingest(files, RedirectTable(), CONFIG)
    before, after = window_totals(store, ["Early"], date(2007, 3, 8))
    assert before == [5] * 7
    assert after == [0] * 7


def test_window_totals_out_of_coverage(tmp_path):
    store = _constant_store(tmp_path, 10, ["en Physics 2 10"])
    with pytest.raises(OutOfCoverage):
        window_totals(store, ["Physics"], date(2007, 3, 5))
    with pytest.raises(OutOfCoverage):
        window_totals(store, ["Physics"], date(2007, 2, 1))


def test_window_totals_span(tmp_path):
    store = _constant_store(tmp_path, 7, ["en Physics 2 10"])
    before, after = window_totals(store, ["Physics"], date(2007, 3, 4), span=3)
    assert before == [2, 2, 2]
    assert after == [2, 2, 2]
    with pytest.raises(ValueError):
        window_totals(store, ["Physics"], date(2007, 3, 4), span=0)


def test_store_round_trip_bytes_exact(tmp_path):
    d = date(2007, 3, 10)
    files = [
        _write_hour(tmp_path, d, 0, ["en Physics 3 100", "en Café 2 10", "fr X 1 1"]),
        _write_hour(tmp_path, d, 1, ["en Physics 4 100", "junk"]),
    ]
    store = ingest(files, RedirectTable(), CONFIG)
    dir_a = tmp_path / "store_a"
    dir_b = tmp_path / "store_b"
    save_store(store, dir_a)
    loaded = load_store(dir_a)
    assert daily_counts(loaded) == daily_counts(store)
    assert loaded.tallies == store.tallies
    assert loaded.coverage_start == store.coverage_start
    save_store(loaded, dir_b)
    files_a = sorted(p.name for p in dir_a.iterdir())
    files_b = sorted(p.name for p in dir_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


_COVERAGE = "coverage_start=2007-03-10\ncoverage_end=2007-03-12\n"


@pytest.mark.parametrize(
    "name, value, detail",
    [
        ("keys.npy", np.array([3, 0, 5], np.int64), ""),
        ("keys.npy", np.array([0, 3, 6], np.int64), ""),
        ("keys.npy", np.array([-1, 3, 5], np.int64), ""),
        ("keys.npy", np.array([0, 3], np.int64), ""),
        ("keys.npy", np.array([0.0, 3.0, 5.0]), ""),
        ("views.npy", np.array([3, -2, 4], np.int64), ""),
        ("titles.txt", "B\nA\n", ""),
        ("titles.txt", "A\nB", ""),
        ("manifest.txt", "coverage_start=2007-03-12\ncoverage_end=2007-03-10\n", ""),
        ("manifest.txt", _COVERAGE + "lines_kept=x\n", "lines_kept"),
        ("manifest.txt", "coverage_start=2009-13-02\ncoverage_end=2007-03-12\n", "coverage_start"),
        ("manifest.txt", _COVERAGE + "lines_kept=-5\n", "lines_kept"),
    ],
    ids=[
        "keys_descending",
        "key_past_last_day",
        "key_negative",
        "keys_shorter_than_views",
        "keys_float",
        "views_negative",
        "titles_unsorted",
        "titles_no_final_newline",
        "coverage_reversed",
        "tally_not_a_number",
        "coverage_no_such_month",
        "tally_negative",
    ],
)
def test_load_store_rejects_inconsistent_files(tmp_path, name, value, detail):
    d = date(2007, 3, 10)
    files = [
        _write_hour(tmp_path, d, 0, ["en A 3 1", "en B 1 1"]),
        _write_hour(tmp_path, date(2007, 3, 12), 0, ["en B 4 1"]),
    ]
    store_dir = tmp_path / "store"
    save_store(ingest(files, RedirectTable(), CONFIG), store_dir)
    # Three days: A on the first (key 0), B on the first and third (keys 3 and 5).
    assert load_store(store_dir).keys.tolist() == [0, 3, 5]
    if isinstance(value, str):
        (store_dir / name).write_text(value)
    else:
        np.save(store_dir / name, value)
    with pytest.raises(ValueError, match=name) as err:
        load_store(store_dir)
    assert detail in str(err.value)


int64s = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(int64s, max_size=40), repeat=st.integers(1, 100))
@example(values=[], repeat=1)
@example(values=[-(2**63), 2**63 - 1, 0, -1], repeat=1)
def test_write_npy_matches_np_save(values, repeat):
    """The stdlib writer gives np.save's bytes, from an array("q") and from an ndarray."""
    values = values * repeat
    want = io.BytesIO()
    np.save(want, np.array(values, np.int64), allow_pickle=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.npy"
        for source in (array("q", values), np.array(values, np.int64)):
            logstore._write_npy(path, source)
            assert path.read_bytes() == want.getvalue()
            assert np.load(path, allow_pickle=False).tolist() == values


def test_window_totals_same_for_array_and_ndarray_store(tmp_path):
    titles = ["A", "B", "C", "D"]
    files = []
    for i in range(20):
        lines = [f"en {t} {(i * 7 + k * 3) % 11} 1" for k, t in enumerate(titles) if (i + k) % 3]
        files.append(_write_hour(tmp_path, date(2007, 3, 1) + timedelta(days=i), 0, lines))
    built = ingest(files, RedirectTable(), CONFIG)
    assert isinstance(built.keys, array)
    save_store(built, tmp_path / "store")
    loaded = load_store(tmp_path / "store")
    assert isinstance(loaded.keys, np.ndarray)
    for span in (1, 3, 7):
        for i in range(span, 20 - span):
            day0 = date(2007, 3, 1) + timedelta(days=i)
            for subset in (["A"], ["B", "D"], titles, ["Missing", "C"], []):
                assert window_totals(built, subset, day0, span) == window_totals(
                    loaded, subset, day0, span
                )
