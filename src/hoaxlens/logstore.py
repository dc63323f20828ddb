r"""Hourly traffic-log ingestion: parse, clean, filter, aggregate per day, fold redirects.

Input files follow the classic pagecount dump layout: one line per (project, title)
with space-separated fields ``project title count bytes`` and the UTC hour encoded
in the file name (``pagecounts-YYYYMMDD-HH0000``, optionally gzipped).

Each file is read as bytes, ``READ_BLOCK`` at a time, and split into lines at
``\n``, ``\r\n`` or a lone ``\r``, the line ends of text mode. The fields are
checked as bytes: the count and bytes fields must be ASCII digits, and the
project must equal the configured code's UTF-8 bytes. Only a title is decoded,
as UTF-8 with U+FFFD for each invalid sequence, and each worker cleans a
distinct raw title once.

Redirects are folded after counting: once the last file is read, each logged
title that the redirect table holds as a source has its count on each day added
to its final target's count on that day, before the store's arrays are built.
Each day then holds one count per stored (title, day), so the arrays are
allocated once at their final length. Given the table's path, ``ingest``
checks the whole table before it reads any log, keeping no row, and later
loads only the rows reachable from the logged titles, so the table's memory
grows with the titles in the logs, not with the table.

``ingest`` reads the hourly files in parallel through ``forkpool``, one task
per log day: a worker, or ``ingest`` itself when there is one worker, reads the
day's files in hour order and sums their counts. There is at most one worker
per day and one per MiB of input, and the days come back in day order. There
is no setting for the worker count: every output is the same whatever it is.

The store (``TrafficStore``) has one sparse layout in memory and on disk, where
it is ``titles.txt`` (one title per line), ``keys.npy``, ``views.npy`` and a
manifest of the coverage window and the ingest tallies. ``ingest`` builds the
keys and views as stdlib ``array("q")`` and ``save_store`` writes them in the
``.npy`` format without numpy, so the ingest stage never imports it.
``load_store`` reads them back with numpy as int64 ndarrays, which
``window_totals`` searches.
"""

from __future__ import annotations

import gzip
import logging
import re
import sys
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import forkpool
from .titles import RedirectTable, clean_title, read_utf8

if TYPE_CHECKING:
    from array import array

    import numpy as np

log = logging.getLogger(__name__)

HOUR_FILE_RE = re.compile(r"^pagecounts-(\d{8})-(\d{2})0000(?:\.gz)?$")

MANIFEST_NAME = "manifest.txt"
# Every file save_store writes; ingest refuses a store directory holding others.
STORE_FILES = frozenset({"titles.txt", "keys.npy", "views.npy", MANIFEST_NAME})

# Starting a pool of two workers, forked from the numpy-free ingest process,
# costs the stage about 10-15 ms and 0.3 MB of peak memory (Python 3.11 on a
# 2-vCPU Xeon, 0.24 MB of logs: 0.169 s and 17.4 MB in one process, 0.181 s
# and 17.6 MB with two workers), which a worker earns back only with at least
# this many bytes of log files, as stored, to read.
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
_MANIFEST_KEYS = frozenset({"coverage_start", "coverage_end", *TALLY_KEYS})


class OutOfCoverage(ValueError):
    """A queried day falls outside the store's coverage window."""


@dataclass
class FilterConfig:
    """Project code to keep plus namespace prefixes to drop (checked post-cleaning)."""

    project: str
    namespace_prefixes: tuple[str, ...]

    @classmethod
    def load(cls, path: str | Path) -> "FilterConfig":
        """First non-comment line is the project code, the rest are prefixes."""
        text = read_utf8(path)
        project = None
        prefixes: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if project is None:
                project = line
            else:
                prefixes.append(line)
        if project is None:
            raise ValueError(f"{path}: no project code found")
        # Log bytes that are not UTF-8 read as U+FFFD, so a code holding it would
        # name fields of different bytes; ingest compares the project field's bytes.
        if "\ufffd" in project:
            raise ValueError(f"{path}: project code {project!r} contains U+FFFD")
        return cls(project=project, namespace_prefixes=tuple(prefixes))


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
    ``views`` holds the matching counts. Both are one-dimensional int64
    arrays: ``array("q")`` from ``ingest``, numpy ndarrays from ``load_store``.
    """

    coverage_start: date
    coverage_end: date
    titles: list[str]
    keys: array | np.ndarray
    views: array | np.ndarray
    tallies: dict[str, int]
    file_tallies: list[FileTally] = field(default_factory=list)
    unreadable: list[str] = field(default_factory=list)

    @property
    def coverage_days(self) -> int:
        return (self.coverage_end - self.coverage_start).days + 1


def file_hour(path: str | Path) -> datetime:
    """UTC hour encoded in the file name; raises ValueError, naming the file, on a
    non-matching name and on an hour or date that does not exist."""
    name = Path(path).name
    m = HOUR_FILE_RE.match(name)
    if m is None:
        raise ValueError(f"not an hourly log file name: {name!r}")
    stamp, hour = m.groups()
    try:
        return datetime.strptime(stamp, "%Y%m%d").replace(hour=int(hour), tzinfo=timezone.utc)
    except ValueError as exc:
        raise ValueError(f"hourly log file name {name!r} names no real hour: {exc}") from None


# Bytes read from a log file at a time. Blocks of 1 MiB raised the stage's peak
# RSS by 2-4% on inputs of small logs (0.3-0.5 MB; Python 3.11, 2-vCPU VM).
READ_BLOCK = 1 << 16

INT64_MAX = 2**63 - 1

_MISS = object()
# The memo's outcome for a raw title whose cleaned form a namespace prefix drops.
_NAMESPACE = object()


def _line_blocks(fh) -> Iterator[list[bytes]]:
    r"""The lines of a binary stream, without their ends, in one list per block read.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r``, as in text mode, and the
    last line needs no end. A ``\r`` that ends a block may pair with a ``\n``
    that starts the next. The pieces of a line that spans blocks are joined once,
    when it ends, so a long line costs time linear in its length.
    """
    pending: list[bytes] = []
    after_cr = False
    while block := fh.read(READ_BLOCK):
        if after_cr and block.startswith(b"\n"):
            block = block[1:]
        after_cr = block.endswith(b"\r")
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lines = block.split(b"\n")
        if len(lines) == 1:
            if block:
                pending.append(block)
            continue
        if pending:
            pending.append(lines[0])
            lines[0] = b"".join(pending)
            pending = []
        tail = lines.pop()
        if tail:
            pending.append(tail)
        yield lines
    if pending:
        yield [b"".join(pending)]


def _title_outcome(raw_title: bytes, prefixes: tuple[str, ...]) -> str | None | object:
    """The clean title of a raw title, None when cleaning discards it, or
    _NAMESPACE when a namespace prefix drops it. Redirects are not followed here:
    ``ingest`` folds them after counting."""
    cleaned = clean_title(raw_title.decode("utf-8", "replace"))
    if cleaned is None:
        return None
    if cleaned.startswith(prefixes):
        return _NAMESPACE
    return cleaned


def _ingest_file(
    path: Path,
    config: FilterConfig,
    memo: dict[bytes, str | None | object],
) -> tuple[dict[str, int], FileTally]:
    """Aggregate one hourly file into title -> count; tallies every line once.

    The file is read as bytes, split into lines as ``_line_blocks`` says. A line
    is well formed when it has exactly four fields separated by single spaces, a
    non-empty project and title, and count and bytes made of ASCII digits only
    (no sign, no underscores). The project must equal the configured code's
    UTF-8 bytes. The title is decoded as UTF-8, each invalid sequence as U+FFFD,
    which gives the text decoding the whole file would give, as UTF-8 decoding
    restarts at every ASCII byte. Tally precedence: malformed, then project
    filter, then title Discard, then namespace filter (checked on the cleaned
    title). ``memo`` keeps each raw title's outcome from ``_title_outcome``.
    Raises ValueError, naming the file, when a title's views in it pass the
    int64 range.
    """
    counts: dict[str, int] = {}
    project_code = config.project.encode()
    prefixes = config.namespace_prefixes
    total = dropped_filter = dropped_title = malformed = 0
    opener = gzip.open if path.suffix == ".gz" else open
    counts_get = counts.get
    memo_get = memo.get
    try:
        with opener(path, "rb") as fh:
            for lines in _line_blocks(fh):
                total += len(lines)
                for line in lines:
                    parts = line.split(b" ")
                    if len(parts) != 4:
                        malformed += 1
                        continue
                    project, raw_title, count_s, bytes_s = parts
                    if not (count_s.isdigit() and bytes_s.isdigit() and project and raw_title):
                        malformed += 1
                        continue
                    if project != project_code:
                        dropped_filter += 1
                        continue
                    target = memo_get(raw_title, _MISS)
                    if target is _MISS:
                        target = _title_outcome(raw_title, prefixes)
                        memo[raw_title] = target
                    if target is None:
                        dropped_title += 1
                    elif target is _NAMESPACE:
                        dropped_filter += 1
                    else:
                        counts[target] = counts_get(target, 0) + int(count_s)
    except ValueError:  # int() refuses a count of more than sys.get_int_max_str_digits() digits
        raise ValueError(f"{path}: a view count exceeds the int64 range") from None
    # One check per file, not per line: the counts are non-negative, so a count
    # beyond int64 leaves its title's sum beyond it too.
    if counts and max(counts.values()) > INT64_MAX:
        raise ValueError(f"{path}: a view count exceeds the int64 range")
    kept = total - dropped_filter - dropped_title - malformed
    return counts, FileTally(path.name, total, kept, dropped_filter, dropped_title, malformed)


def _add_counts(into: dict[str, int], counts: Iterable[tuple[str, int]]) -> None:
    """Add each (title, count) pair of counts to that title's count in into."""
    get = into.get
    for title, c in counts:
        into[title] = get(title, 0) + c


def _read_day(
    paths: list[Path],
    config: FilterConfig,
    memo: dict[bytes, str | None | object],
) -> tuple[dict[str, int], list[FileTally | str]]:
    """Summed counts of one day's hourly files, and each file's tally or error message.

    A file that cannot be read, even part way through, such as a gzip file
    whose deflate stream is damaged, adds no counts.
    """
    counts: dict[str, int] = {}
    outcomes: list[FileTally | str] = []
    for path in paths:
        try:
            file_counts, tally = _ingest_file(path, config, memo)
        except (OSError, EOFError, zlib.error) as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append(tally)
        if counts:
            _add_counts(counts, file_counts.items())
        else:
            counts = file_counts
    return counts, outcomes


def ingest(files, table: RedirectTable | str | Path, config: FilterConfig) -> TrafficStore:
    """Build a TrafficStore from hourly files and a redirect table, in memory or
    the path of its TSV.

    Unreadable files are recorded and skipped; the pipeline continues. A file
    that fails mid-read contributes nothing (its partial counts are discarded).
    Order of input files does not affect the result: each day's files are read
    in hour order as one task (see the module docstring), and ``file_tallies``
    and ``unreadable`` list the files in day and hour order. Coverage runs from
    the first to the last day with a readable file. Raises ValueError on a
    non-hourly file name and on two files for the same hour (such as a plain
    and a gzipped copy), which would count that hour twice.

    A table given by path is checked whole with ``RedirectTable.load(path,
    sources=())``, keeping no row, before any log is read, so a bad row stops
    the run first. After the last file it is loaded again with
    ``sources=<counted titles>``, so only the rows those titles reach are read
    into memory. Each counted title that the table holds as a source then adds
    its count on each day to its resolution's (``RedirectTable.resolve``) on
    that day, and the arrays are built at their final length in one pass over
    the titles.
    """
    paths = [Path(p) for p in files]
    if not paths:
        raise ValueError("no input files")
    if not isinstance(table, RedirectTable):
        RedirectTable.load(table, sources=())
    hours: dict[datetime, Path] = {}
    for path in paths:
        hour = file_hour(path)
        if hour in hours:
            raise ValueError(f"hour {hour:%Y-%m-%d %H}:00 supplied twice: {hours[hour]} and {path}")
        hours[hour] = path
    day_paths: dict[date, list[Path]] = {}
    for hour in sorted(hours):
        day_paths.setdefault(hour.date(), []).append(hours[hour])
    size = sum(p.stat().st_size for p in hours.values() if p.is_file())
    workers = forkpool.worker_count(len(day_paths), size, MIN_BYTES_PER_WORKER)
    # The counts of each day with a readable file, in day order.
    by_day: dict[date, dict[str, int]] = {}
    file_tallies: list[FileTally] = []
    unreadable: list[str] = []
    # Counts from a worker process hold its own copy of each title; keyed again
    # through one title -> title map, they keep one str per title across the days.
    share = {}.setdefault
    # Each worker process, or this one when there is one worker, keeps one title memo.
    results = forkpool.ordered_map(_read_day, list(day_paths.values()), workers, (config, {}))
    for (day, day_files), (counts, outcomes) in zip(day_paths.items(), results, strict=True):
        read = len(file_tallies)
        for path, outcome in zip(day_files, outcomes, strict=True):
            if isinstance(outcome, str):
                log.warning("unreadable file %s: %s", path, outcome)
                unreadable.append(path.name)
            else:
                file_tallies.append(outcome)
        if len(file_tallies) == read:
            continue  # a day without a readable file lies outside coverage
        if workers > 1:
            counts = dict(zip(map(share, counts, counts), counts.values()))
        by_day[day] = counts
    del share  # one entry per title, of no use past this loop
    if not by_day:
        raise ValueError(f"no readable input files: {', '.join(unreadable)}")
    tallies = {"files_processed": len(file_tallies), "files_unreadable": len(unreadable)}
    for key in TALLY_KEYS[2:]:
        tallies[key] = sum(getattr(t, key) for t in file_tallies)
    # Python ints do not overflow; past this check no sum of views, folded or
    # not, overflows int64.
    if sum(sum(counts.values()) for counts in by_day.values()) > INT64_MAX:
        raise ValueError("total views exceed the int64 range")
    start, end = min(by_day), max(by_day)
    days = (end - start).days + 1
    seen = set().union(*by_day.values())
    if not isinstance(table, RedirectTable):
        table = RedirectTable.load(table, sources=seen)
    aliases = {a: t for a, t in table.flattened(seen).items() if a != t}
    del table
    # The fold: on each day, each alias's count is added to its resolution's.
    # A resolution is never itself a source that resolves elsewhere, so one
    # pass folds every chain, and each day's map then holds that day's entries.
    for counts in by_day.values():
        _add_counts(counts, [(t, counts.pop(a)) for a, t in aliases.items() if a in counts])
    seen.difference_update(aliases)
    seen.update(aliases.values())
    titles = sorted(seen)
    del seen, aliases
    # Title by title, and each title's days in order, gives the keys ascending.
    day_counts = [((day - start).days, counts.get) for day, counts in by_day.items()]
    # Imported here: attention, which never builds a store, need not map the module.
    from array import array

    entries = sum(map(len, by_day.values()))
    keys, views = array("q", [0]) * entries, array("q", [0]) * entries
    i = 0
    for row, title in enumerate(titles):
        first_key = row * days
        for offset, count_of in day_counts:
            count = count_of(title)
            if count is not None:
                keys[i] = first_key + offset
                views[i] = count
                i += 1
    return TrafficStore(
        coverage_start=start,
        coverage_end=end,
        titles=titles,
        keys=keys,
        views=views,
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
    The store's keys and views may be ``array("q")`` or numpy arrays.
    """
    import numpy as np

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
    keys, views = np.asarray(store.keys), np.asarray(store.views)
    pos = np.searchsorted(keys, wanted)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == wanted[found]
    daily = np.zeros(len(wanted), np.int64)
    daily[found] = views[pos[found]]
    totals = daily.reshape(len(rows), 2 * span + 1).sum(axis=0).tolist()
    return totals[:span], totals[span + 1 :]


# The .npy format 1.0 header np.save writes for a 1-D little-endian int64
# array: magic, version, header length, then the dict, padded with spaces so
# that the whole header takes 128 bytes, and a newline.
_NPY_PREFIX = b"\x93NUMPY\x01\x00" + (118).to_bytes(2, "little")
_NPY_DICT = "{{'descr': '<i8', 'fortran_order': False, 'shape': ({},), }}"


def _write_npy(path: Path, values) -> None:
    """Write a one-dimensional native int64 array (``array("q")`` or numpy) as
    the bytes ``np.save`` writes for it."""
    data = memoryview(values)
    if data.ndim != 1 or data.itemsize != 8 or data.format not in ("q", "l"):
        raise TypeError(f"{path.name}: not a one-dimensional native int64 array")
    header = _NPY_DICT.format(len(data)).ljust(117) + "\n"
    if sys.byteorder == "big":
        from array import array

        swapped = array("q")
        swapped.frombytes(data.cast("B"))
        swapped.byteswap()
        data = memoryview(swapped)
    with open(path, "wb") as fh:
        fh.write(_NPY_PREFIX + header.encode("ascii"))
        fh.write(data)


def save_store(store: TrafficStore, directory: str | Path) -> None:
    """Write titles.txt, keys.npy, views.npy and a manifest; identical stores give identical bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "titles.txt", "w", encoding="utf-8") as fh:
        fh.writelines(title + "\n" for title in store.titles)
    _write_npy(directory / "keys.npy", store.keys)
    _write_npy(directory / "views.npy", store.views)
    manifest = [
        f"coverage_start={store.coverage_start.isoformat()}",
        f"coverage_end={store.coverage_end.isoformat()}",
    ]
    manifest += [f"{key}={store.tallies.get(key, 0)}" for key in TALLY_KEYS]
    (directory / MANIFEST_NAME).write_text("\n".join(manifest) + "\n", encoding="utf-8")


def load_store(directory: str | Path) -> TrafficStore:
    """Inverse of save_store; per-file tallies are not persisted, aggregates are.

    Raises ValueError, naming the file, when the files do not form a consistent
    store, and naming the key when ``manifest.txt`` repeats one or holds one that
    save_store does not write.
    """
    import numpy as np

    directory = Path(directory)
    fields: dict[str, str] = {}
    manifest = read_utf8(directory / MANIFEST_NAME)
    for lineno, line in enumerate(manifest.splitlines(), 1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{MANIFEST_NAME}:{lineno}: expected key=value")
        if key not in _MANIFEST_KEYS:
            raise ValueError(f"{MANIFEST_NAME}:{lineno}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"{MANIFEST_NAME}:{lineno}: key {key!r} given twice")
        fields[key] = value
    coverage = []
    for key in ("coverage_start", "coverage_end"):
        if key not in fields:
            raise ValueError(f"{MANIFEST_NAME}: missing field {key!r}")
        try:
            coverage.append(date.fromisoformat(fields[key]))
        except ValueError as exc:
            raise ValueError(f"{MANIFEST_NAME}: {key}={fields[key]!r}: {exc}") from None
    start, end = coverage
    if end < start:
        raise ValueError(f"{MANIFEST_NAME}: coverage ends before it starts")
    tallies = {}
    for key in TALLY_KEYS:
        value = fields.get(key, "0")
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"{MANIFEST_NAME}: {key}={value!r} is not a count")
        tallies[key] = int(value)
    titles = read_utf8(directory / "titles.txt").split("\n")
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
