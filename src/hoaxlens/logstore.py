"""Hourly traffic-log ingestion: parse, clean, filter, resolve redirects, aggregate per day.

Input files follow the classic pagecount dump layout: one line per (project, title)
with space-separated fields ``project title count bytes`` and the UTC hour encoded
in the file name (``pagecounts-YYYYMMDD-HH0000``, optionally gzipped).

``ingest`` reads the hourly files in parallel, one worker process per CPU
available to the process, at most one per file and one per MiB of input, and
merges their counts in input order. There is no setting for the worker count:
every output is the same whatever the number of workers.

The store (``TrafficStore``) has one sparse layout in memory and on disk, where
it is ``titles.txt`` (one title per line), ``keys.npy``, ``views.npy`` and a
manifest of the coverage window and the ingest tallies.
"""

from __future__ import annotations

import gzip
import logging
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import partial
from pathlib import Path
from urllib.parse import unquote

import numpy as np

log = logging.getLogger(__name__)

# Characters MediaWiki forbids in titles, ASCII control characters included; a
# title containing one is garbage in the logs. The store's one-title-per-line
# titles.txt relies on titles having no newline.
_ILLEGAL_RE = re.compile(r"[<>\[\]{}|\x00-\x1f\x7f]")

HOUR_FILE_RE = re.compile(r"^pagecounts-(\d{8})-(\d{2})0000(?:\.gz)?$")

MAX_REDIRECT_HOPS = 16

MANIFEST_NAME = "manifest.txt"
# Every file save_store writes; ingest refuses a store directory holding others.
STORE_FILES = frozenset({"titles.txt", "keys.npy", "views.npy", MANIFEST_NAME})

# Starting the worker pool costs the ingest stage about 50 ms and 1.7 MB of
# memory (Python 3.11 on a 2-vCPU Xeon), which a worker earns back only with
# at least this many bytes of log files, as stored, to read.
MIN_BYTES_PER_WORKER = 1 << 20

# Fixed manifest/tally key order; changing it breaks stored-manifest compatibility.
TALLY_KEYS = (
    "files_processed",
    "files_unreadable",
    "lines_total",
    "lines_kept",
    "lines_dropped_filter",
    "lines_dropped_title",
    "lines_malformed",
)


class OutOfCoverage(ValueError):
    """A queried day falls outside the store's coverage window."""


def clean_title(raw: str) -> str | None:
    """Normalize a raw title to canonical form; None means the entry is discarded.

    Percent-escapes are decoded to fixpoint (so cleaning is idempotent even for
    double-encoded input), spaces become underscores, a leading ``#`` discards
    the title, an interior ``#`` truncates the fragment, titles containing
    ``< > [ ] { } |`` or an ASCII control character (U+0000-U+001F, U+007F)
    are discarded, and the first character is uppercased.
    """
    title = raw
    while "%" in title:
        decoded = unquote(title)
        if decoded == title:
            break
        title = decoded
    title = title.replace(" ", "_")
    if not title or title[0] == "#":
        return None
    pos = title.find("#")
    if pos > 0:
        title = title[:pos]
    if _ILLEGAL_RE.search(title):
        return None
    first = title[0]
    if not first.isupper():
        title = first.upper() + title[1:]
    return title


@dataclass
class FilterConfig:
    """Project code to keep plus namespace prefixes to drop (checked post-cleaning)."""

    project: str
    namespace_prefixes: tuple[str, ...]

    @classmethod
    def load(cls, path: str | Path) -> "FilterConfig":
        """First non-comment line is the project code, the rest are prefixes."""
        project = None
        prefixes: list[str] = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if project is None:
                project = line
            else:
                prefixes.append(line)
        if project is None:
            raise ValueError(f"{path}: no project code found")
        return cls(project=project, namespace_prefixes=tuple(prefixes))


@dataclass
class RedirectTable:
    """Source -> target mapping over cleaned titles."""

    mapping: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "RedirectTable":
        """Two-column TSV ``source<TAB>target``; blank lines skipped."""
        mapping: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != 2 or not cols[0] or not cols[1]:
                    raise ValueError(f"{path}:{lineno}: expected source<TAB>target")
                mapping[cols[0]] = cols[1]
        return cls(mapping=mapping)

    def resolve(self, title: str) -> str:
        """Follow redirects to the final target.

        Cycles and chains longer than MAX_REDIRECT_HOPS resolve to the input
        title and are logged, so one bad row cannot stall or derail a run.
        """
        current = title
        seen = {title}
        while (target := self.mapping.get(current)) is not None:
            if target in seen:
                log.warning("redirect cycle at %r; keeping %r", current, title)
                return title
            if len(seen) > MAX_REDIRECT_HOPS:
                log.warning("redirect chain from %r exceeds %d hops; keeping it", title, MAX_REDIRECT_HOPS)
                return title
            seen.add(target)
            current = target
        return current

    def flattened(self) -> dict[str, str]:
        """Every source mapped directly to its final resolution."""
        return {source: self.resolve(source) for source in self.mapping}


@dataclass
class FileTally:
    name: str
    lines_total: int = 0
    lines_kept: int = 0
    lines_dropped_filter: int = 0
    lines_dropped_title: int = 0
    lines_malformed: int = 0


@dataclass(eq=False)
class TrafficStore:
    """Daily views per title over a contiguous coverage window, sparse in days.

    ``titles`` is sorted. ``keys`` holds ``row * coverage_days + day_offset``
    for each (title, day) that the logs count, strictly ascending, where row
    indexes ``titles`` and the offset counts days from ``coverage_start``;
    ``views`` holds the matching counts. Both are one-dimensional int64 arrays.
    """

    coverage_start: date
    coverage_end: date
    titles: list[str]
    keys: np.ndarray
    views: np.ndarray
    tallies: dict[str, int]
    file_tallies: list[FileTally] = field(default_factory=list)
    unreadable: list[str] = field(default_factory=list)

    @property
    def coverage_days(self) -> int:
        return (self.coverage_end - self.coverage_start).days + 1


def file_hour(path: str | Path) -> datetime:
    """UTC hour encoded in the file name; raises ValueError on a non-matching name."""
    name = Path(path).name
    m = HOUR_FILE_RE.match(name)
    if m is None:
        raise ValueError(f"not an hourly log file name: {name!r}")
    stamp, hour = m.groups()
    return datetime.strptime(stamp, "%Y%m%d").replace(
        hour=int(hour), tzinfo=timezone.utc
    )


_MISS = object()


def _ingest_file(
    path: Path,
    config: FilterConfig,
    clean_cache: dict[str, str | None],
    flat_redirects: dict[str, str],
) -> tuple[dict[str, int], FileTally]:
    """Aggregate one hourly file into title -> count; tallies every line once.

    A line is well formed when it has exactly four single-space-separated
    fields, a non-empty project and title, and count and bytes made of plain
    ASCII digits (no sign, no underscores). Tally precedence: malformed, then
    project filter, then title Discard, then namespace filter (checked on the
    cleaned title).
    """
    counts: dict[str, int] = {}
    project_code = config.project
    prefixes = config.namespace_prefixes
    total = kept = dropped_filter = dropped_title = malformed = 0
    opener = gzip.open if path.suffix == ".gz" else open
    counts_get = counts.get
    cache_get = clean_cache.get
    redirect_get = flat_redirects.get
    with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            total += 1
            parts = line.split(" ")
            if len(parts) != 4:
                malformed += 1
                continue
            project, raw_title, count_s, bytes_s = parts
            bytes_s = bytes_s.rstrip("\r\n")
            if (
                not count_s.isascii()
                or not count_s.isdigit()
                or not bytes_s.isascii()
                or not bytes_s.isdigit()
                or not project
                or not raw_title
            ):
                malformed += 1
                continue
            if project != project_code:
                dropped_filter += 1
                continue
            cleaned = cache_get(raw_title, _MISS)
            if cleaned is _MISS:
                cleaned = clean_title(raw_title)
                clean_cache[raw_title] = cleaned
            if cleaned is None:
                dropped_title += 1
                continue
            if cleaned.startswith(prefixes):
                dropped_filter += 1
                continue
            target = redirect_get(cleaned, cleaned)
            prev = counts_get(target)
            counts[target] = int(count_s) if prev is None else prev + int(count_s)
            kept += 1
    return counts, FileTally(path.name, total, kept, dropped_filter, dropped_title, malformed)


def _read_batch(
    paths: list[Path],
    config: FilterConfig,
    clean_cache: dict[str, str | None],
    flat_redirects: dict[str, str],
) -> tuple[dict[str, int], list[FileTally | str]]:
    """Summed counts of hourly files of one day, and each file's tally or error message.

    A file that cannot be read, even part way through, adds no counts.
    """
    counts: dict[str, int] = {}
    outcomes: list[FileTally | str] = []
    for path in paths:
        try:
            file_counts, tally = _ingest_file(path, config, clean_cache, flat_redirects)
        except (OSError, EOFError, UnicodeError) as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append(tally)
        if not counts:
            counts = file_counts
            continue
        for title, c in file_counts.items():
            prev = counts.get(title)
            counts[title] = c if prev is None else prev + c
    return counts, outcomes


# A pool worker's arguments to _read_batch after the paths, its own clean
# cache included. _start_worker sets them once in each worker process.
_worker_args: tuple = ()


def _start_worker(config: FilterConfig, flat_redirects: dict[str, str]) -> None:
    global _worker_args
    _worker_args = (config, {}, flat_redirects)


def _read_batch_in_worker(paths: list[Path]) -> tuple[dict[str, int], list[FileTally | str]]:
    return _read_batch(paths, *_worker_args)


def _ingest_workers(paths: list[Path]) -> int:
    """Worker processes to read paths with; 1 means the calling process reads them.

    One per available CPU, at most one per file and one per MIN_BYTES_PER_WORKER
    of input. Workers are forked, so a calling script needs no ``__main__``
    guard; where ``fork`` is not offered, there is one worker.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    size = sum(p.stat().st_size for p in paths if p.is_file())
    workers = min(cpus, len(paths), max(1, size // MIN_BYTES_PER_WORKER))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


def _read_batches(
    batches: list[list[Path]], workers: int, config: FilterConfig, flat_redirects: dict[str, str]
):
    """Yield ``_read_batch``'s result for each batch, in input order."""
    if workers == 1:
        read = partial(_read_batch, config=config, clean_cache={}, flat_redirects=flat_redirects)
        yield from map(read, batches)
        return
    # Imported here: the pool machinery costs every stage memory, and only
    # ingest over enough input uses it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(config, flat_redirects),
    ) as pool:
        yield from pool.map(_read_batch_in_worker, batches)


def ingest(files, table: RedirectTable, config: FilterConfig) -> TrafficStore:
    """Build a TrafficStore from hourly files.

    Unreadable files are recorded and skipped; the pipeline continues. A file
    that fails mid-read contributes nothing (its partial counts are discarded).
    Order of input files does not affect the resulting counts. Raises
    ValueError on a non-hourly file name and on two files for the same hour
    (such as a plain and a gzipped copy), which would count that hour twice.
    Files are read in parallel (see the module docstring); their counts are
    merged as they arrive, in input order.
    """
    paths = [Path(p) for p in files]
    if not paths:
        raise ValueError("no input files")
    hours: dict[datetime, Path] = {}
    for path in paths:
        hour = file_hour(path)
        if hour in hours:
            raise ValueError(f"hour {hour:%Y-%m-%d %H}:00 supplied twice: {hours[hour]} and {path}")
        hours[hour] = path
    flat = table.flattened()
    workers = _ingest_workers(list(hours.values()))
    # A worker sums the consecutive files of one day it reads as one batch,
    # which leaves less to send back and merge here; four batches or more per
    # worker keep the workers evenly loaded.
    batch_size = 1 if workers == 1 else max(1, len(hours) // (4 * workers))
    batches: list[tuple[date, list[Path]]] = []
    for hour, path in hours.items():
        day = hour.date()
        if batches and batches[-1][0] == day and len(batches[-1][1]) < batch_size:
            batches[-1][1].append(path)
        else:
            batches.append((day, [path]))
    by_day: dict[date, dict[str, int]] = {}
    file_tallies: list[FileTally] = []
    unreadable: list[str] = []
    days_seen: list[date] = []
    results = _read_batches([batch for _, batch in batches], workers, config, flat)
    for (day, batch), (counts, outcomes) in zip(batches, results, strict=True):
        for path, outcome in zip(batch, outcomes, strict=True):
            if isinstance(outcome, str):
                log.warning("unreadable file %s: %s", path, outcome)
                unreadable.append(path.name)
            else:
                file_tallies.append(outcome)
                days_seen.append(day)
        day_counts = by_day.setdefault(day, counts)
        if day_counts is not counts:
            for title, c in counts.items():
                prev = day_counts.get(title)
                day_counts[title] = c if prev is None else prev + c
    if not days_seen:
        raise ValueError(f"no readable input files: {', '.join(unreadable)}")
    tallies = {"files_processed": len(file_tallies), "files_unreadable": len(unreadable)}
    for key in TALLY_KEYS[2:]:
        tallies[key] = sum(getattr(t, key) for t in file_tallies)
    # Python ints do not overflow; past this check no sum of views overflows int64.
    if sum(sum(counts.values()) for counts in by_day.values()) > np.iinfo(np.int64).max:
        raise ValueError("total views exceed the int64 range")
    start, end = min(days_seen), max(days_seen)
    days = (end - start).days + 1
    titles = sorted(set().union(*by_day.values()))
    first_key = {title: i * days for i, title in enumerate(titles)}
    keys = np.fromiter(
        (first_key[t] + (day - start).days for day, counts in by_day.items() for t in counts),
        np.int64,
    )
    views = np.fromiter((c for counts in by_day.values() for c in counts.values()), np.int64)
    order = np.argsort(keys)
    return TrafficStore(
        coverage_start=start,
        coverage_end=end,
        titles=titles,
        keys=keys[order],
        views=views[order],
        tallies=tallies,
        file_tallies=file_tallies,
        unreadable=unreadable,
    )


def window_totals(
    store: TrafficStore, titles, day0: date, span: int = 7
) -> tuple[list[int], list[int]]:
    """Daily totals over the title set for [day0-span, day0-1] and [day0+1, day0+span].

    day0 itself belongs to neither window. Raises OutOfCoverage if either end of
    the combined window leaves store coverage; days with no rows count as zero.
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    first = day0 - timedelta(days=span)
    last = day0 + timedelta(days=span)
    if first < store.coverage_start or last > store.coverage_end:
        raise OutOfCoverage(
            f"window {first}..{last} outside coverage {store.coverage_start}..{store.coverage_end}"
        )
    names = store.titles
    rows = []
    for title in titles:
        i = bisect_left(names, title)
        if i < len(names) and names[i] == title:
            rows.append(i)
    # One row of wanted keys per title, one column per day of the combined window.
    wanted = np.arange(2 * span + 1) + (first - store.coverage_start).days
    wanted = (np.array(rows, np.int64)[:, None] * store.coverage_days + wanted).ravel()
    pos = np.searchsorted(store.keys, wanted)
    found = pos < len(store.keys)
    found[found] = store.keys[pos[found]] == wanted[found]
    daily = np.zeros(len(wanted), np.int64)
    daily[found] = store.views[pos[found]]
    totals = daily.reshape(len(rows), 2 * span + 1).sum(axis=0).tolist()
    return totals[:span], totals[span + 1 :]


def save_store(store: TrafficStore, directory: str | Path) -> None:
    """Write titles.txt, keys.npy, views.npy and a manifest; identical stores give identical bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    titles = "".join(title + "\n" for title in store.titles)
    (directory / "titles.txt").write_text(titles, encoding="utf-8")
    np.save(directory / "keys.npy", store.keys, allow_pickle=False)
    np.save(directory / "views.npy", store.views, allow_pickle=False)
    manifest = [
        f"coverage_start={store.coverage_start.isoformat()}",
        f"coverage_end={store.coverage_end.isoformat()}",
    ]
    manifest += [f"{key}={store.tallies.get(key, 0)}" for key in TALLY_KEYS]
    (directory / MANIFEST_NAME).write_text("\n".join(manifest) + "\n", encoding="utf-8")


def load_store(directory: str | Path) -> TrafficStore:
    """Inverse of save_store; per-file tallies are not persisted, aggregates are.

    Raises ValueError, naming the file, when the files do not form a consistent store.
    """
    directory = Path(directory)
    fields: dict[str, str] = {}
    manifest = (directory / MANIFEST_NAME).read_text(encoding="utf-8")
    for lineno, line in enumerate(manifest.splitlines(), 1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{MANIFEST_NAME}:{lineno}: expected key=value")
        fields[key] = value
    try:
        start = date.fromisoformat(fields["coverage_start"])
        end = date.fromisoformat(fields["coverage_end"])
    except KeyError as exc:
        raise ValueError(f"{MANIFEST_NAME}: missing field {exc}") from None
    if end < start:
        raise ValueError(f"{MANIFEST_NAME}: coverage ends before it starts")
    tallies = {key: int(fields.get(key, 0)) for key in TALLY_KEYS}
    titles = (directory / "titles.txt").read_text(encoding="utf-8").split("\n")
    if titles.pop() != "":
        raise ValueError("titles.txt: last line has no newline")
    if any(a >= b for a, b in zip(titles, titles[1:])):
        raise ValueError("titles.txt: titles are not sorted and unique")
    keys = np.load(directory / "keys.npy", allow_pickle=False)
    views = np.load(directory / "views.npy", allow_pickle=False)
    if not (keys.dtype == views.dtype == np.int64 and keys.ndim == 1 and keys.shape == views.shape):
        raise ValueError("keys.npy, views.npy: not two int64 arrays of one length")
    store = TrafficStore(start, end, titles, keys, views, tallies)
    bound = len(titles) * store.coverage_days
    if len(keys) and not (keys[0] >= 0 and keys[-1] < bound and (keys[1:] > keys[:-1]).all()):
        raise ValueError(f"keys.npy: keys not strictly ascending in [0, {bound})")
    if (views < 0).any():
        raise ValueError("views.npy: negative views")
    return store
