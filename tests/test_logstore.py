"""Traffic log parsing, cleaning, redirect resolution, store behavior."""

import concurrent.futures
import gzip
import multiprocessing
import os
from datetime import date, datetime, timezone

import numpy as np
import pytest

from hoaxlens import logstore
from hoaxlens.logstore import (
    FilterConfig,
    OutOfCoverage,
    RedirectTable,
    _ingest_workers,
    clean_title,
    file_hour,
    ingest,
    load_store,
    save_store,
    window_totals,
)
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
    ],
)
def test_ingest_tallies_line(tmp_path, line, bucket):
    d = date(2007, 3, 10)
    config = FilterConfig(project="en", namespace_prefixes=("Talk:", "User:"))
    store = ingest([_write_hour(tmp_path, d, 0, [line])], RedirectTable(), config)
    for key in ("lines_kept", "lines_dropped_filter", "lines_dropped_title", "lines_malformed"):
        assert store.tallies[key] == (store.tallies["lines_total"] if key == bucket else 0), key
    assert daily_counts(store) == ({"Main_Page": {d: 42}} if bucket == "lines_kept" else {})


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


@pytest.fixture
def pools(monkeypatch):
    """Four CPUs and a worker for every byte; record each pool ingest starts by its size."""
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(logstore, "MIN_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


def test_ingest_corrupt_middle_file_in_parallel(tmp_path, pools):
    d = date(2007, 3, 10)
    first = _write_hour(tmp_path, d, 0, ["en Physics 3 100", "en Maths 1 10"])
    # A gzip stream cut short: its first lines decode, then the read fails.
    middle = tmp_path / "pagecounts-20070310-010000.gz"
    body = "".join(f"en Page_{i} {i} 10\n" for i in range(20000)).encode()
    compressed = gzip.compress(body)
    middle.write_bytes(compressed[: len(compressed) // 2])
    last = _write_hour(tmp_path, d, 2, ["en Physics 4 100"], gz=True)
    store = ingest([first, middle, last], RedirectTable(), CONFIG)
    assert pools == [3]
    assert store.unreadable == [middle.name]
    assert [t.name for t in store.file_tallies] == [first.name, last.name]
    assert daily_counts(store) == {"Physics": {d: 7}, "Maths": {d: 1}}
    assert store.tallies["files_processed"] == 2
    assert store.tallies["lines_total"] == 3


def test_ingest_sums_batches_of_one_day_in_parallel(tmp_path, pools, monkeypatch):
    # Two workers and sixteen files of one day make batches of two consecutive hours.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    d = date(2007, 3, 10)
    files = [
        _write_hour(tmp_path, d, h, [f"en Page_{h % 3} {h + 1} 10", "en Shared 1 10"])
        for h in range(16)
    ]
    files[5].unlink()
    files[5] = tmp_path / "pagecounts-20070310-050000.gz"
    files[5].write_bytes(gzip.compress(b"en Shared 100 10\n" * 5000)[:-8])
    store = ingest(files, RedirectTable(), CONFIG)
    assert pools == [2]
    assert store.unreadable == [files[5].name]
    assert [t.name for t in store.file_tallies] == [f.name for i, f in enumerate(files) if i != 5]
    want = {f"Page_{k}": {d: sum(h + 1 for h in range(k, 16, 3) if h != 5)} for k in range(3)}
    want["Shared"] = {d: 15}
    assert daily_counts(store) == want


def test_ingest_single_file_starts_no_pool(tmp_path, pools):
    d = date(2007, 3, 10)
    store = ingest([_write_hour(tmp_path, d, 0, ["en A 1 1"])], RedirectTable(), CONFIG)
    assert pools == []
    assert daily_counts(store) == {"A": {d: 1}}


@pytest.mark.parametrize(
    "cpus, n_files, file_bytes, methods, workers",
    [
        (4, 3, 100, ["fork", "spawn"], 3),
        (2, 10, 100, ["fork", "spawn"], 2),
        (4, 10, 25, ["fork", "spawn"], 2),
        (8, 1, 1000, ["fork", "spawn"], 1),
        (4, 10, 100, ["spawn"], 1),
        (None, 10, 100, ["fork"], 3),
    ],
    ids=["files_bound", "cpus_bound", "bytes_bound", "one_file", "no_fork", "no_affinity"],
)
def test_ingest_workers_bounded(tmp_path, monkeypatch, cpus, n_files, file_bytes, methods, workers):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(logstore, "MIN_BYTES_PER_WORKER", 100)
    paths = []
    for i in range(n_files):
        paths.append(tmp_path / f"pagecounts-20070310-{i:02d}0000")
        paths[-1].write_bytes(b"x" * file_bytes)
    assert _ingest_workers(paths) == workers


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


@pytest.mark.parametrize(
    "name, value",
    [
        ("keys.npy", np.array([3, 0, 5], np.int64)),
        ("keys.npy", np.array([0, 3, 6], np.int64)),
        ("keys.npy", np.array([-1, 3, 5], np.int64)),
        ("keys.npy", np.array([0, 3], np.int64)),
        ("keys.npy", np.array([0.0, 3.0, 5.0])),
        ("views.npy", np.array([3, -2, 4], np.int64)),
        ("titles.txt", "B\nA\n"),
        ("titles.txt", "A\nB"),
        ("manifest.txt", "coverage_start=2007-03-12\ncoverage_end=2007-03-10\n"),
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
    ],
)
def test_load_store_rejects_inconsistent_files(tmp_path, name, value):
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
    with pytest.raises(ValueError, match=name):
        load_store(store_dir)
