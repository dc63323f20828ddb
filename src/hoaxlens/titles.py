"""Rules shared by every stage: reading UTF-8 input (``read_utf8``, and the fault
of every reader), and title cleaning, redirects and fixture file names.

Standard library only, so that every stage but ``attention`` starts without
importing numpy.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Container
from urllib.parse import unquote

log = logging.getLogger(__name__)

# Characters MediaWiki forbids in titles, ASCII control characters included; a
# title containing one is garbage in the logs. The store's one-title-per-line
# titles.txt relies on titles having no newline.
_ILLEGAL_RE = re.compile(r"[<>\[\]{}|\x00-\x1f\x7f]")

MAX_REDIRECT_HOPS = 16


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


def fixture_filename(title: str, suffix: str) -> str:
    """Canonical titles never contain '/', except via percent-decoding; encode it back."""
    return title.replace("/", "%2F") + suffix


class MalformedRecord(ValueError):
    """A record of an input file that cannot be read; carries file and line number."""

    def __init__(self, path, lineno: int, why: str):
        # All three in args, so that the error survives pickling, as a forked worker sends it.
        super().__init__(path, lineno, why)
        self.lineno = lineno

    def __str__(self) -> str:
        path, lineno, why = self.args
        return f"{path}:{lineno}: {why}"


def utf8_fault(path: str | Path) -> MalformedRecord:
    """The fault of a file that is not UTF-8: its first line, counted in ``\n``
    bytes, that does not decode, or line 0 if the file changed since it failed."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return MalformedRecord(path, lineno, f"not valid UTF-8 ({exc.reason})")
    return MalformedRecord(path, 0, "not valid UTF-8 (changed since read)")


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file as ``Path.read_text(encoding="utf-8")`` returns it,
    ``\r\n`` and ``\r`` read as ``\n``; bytes that are not UTF-8 raise ``utf8_fault``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise utf8_fault(path) from None


def _read_rows(path: str | Path, wanted: Container[str] | None) -> tuple[dict[str, str], int]:
    """The rows of a redirect TSV whose source is in wanted, or every row when
    it is None, as source -> target, and the number of rows in the file.

    The file is streamed. Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as
    in text mode, blank lines are skipped, and a later row for a source replaces
    an earlier one. Bytes that are not UTF-8, wherever they are, raise
    MalformedRecord naming their line (``utf8_fault``). Otherwise the first row
    that is not two non-empty fields raises MalformedRecord naming its line.
    """
    kept: dict[str, str] = {}
    rows = bad_row = 0
    try:
        with open(path, encoding="utf-8", newline=None) as fh:
            for lineno, line in enumerate(fh, 1):
                source, tab, target = line.rstrip("\n").partition("\t")
                if not (source or tab):
                    continue
                if not (source and target) or "\t" in target:
                    bad_row = bad_row or lineno
                    continue
                rows += 1
                if wanted is None or source in wanted:
                    kept[source] = target
    except UnicodeDecodeError:
        raise utf8_fault(path) from None
    if bad_row:
        raise MalformedRecord(path, bad_row, "expected source<TAB>target")
    return kept, rows


@dataclass
class RedirectTable:
    """Source -> target mapping over cleaned titles."""

    mapping: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path, sources: Collection[str] | None = None) -> "RedirectTable":
        """Two-column TSV ``source<TAB>target``; blank lines skipped, and a later
        row for a source replaces an earlier one.

        With sources, only the rows reachable from them are kept, so that
        ``resolve`` gives each of them its resolution in the whole table. A first
        pass over the file keeps the rows of the sources. Each further pass keeps
        the rows of the new targets of the last pass's rows, those neither among
        the sources nor looked for before. Passes stop when there are none, or
        after ``MAX_REDIRECT_HOPS + 1``, which is as far as ``resolve`` follows a
        chain.
        ``sources=()`` checks the file and keeps no rows. With non-empty sources,
        logs at INFO how many rows it kept.

        A row that is not two non-empty fields, or bytes that are not UTF-8,
        raise MalformedRecord naming the file and line (see ``_read_rows``).
        """
        mapping, rows = _read_rows(path, sources)
        if sources is None:
            return cls(mapping=mapping)
        passes = 1
        looked: set[str] = set()
        frontier = {t for t in mapping.values() if t not in sources}
        while frontier and passes <= MAX_REDIRECT_HOPS:
            looked |= frontier
            found, _ = _read_rows(path, frontier)
            passes += 1
            mapping.update(found)
            frontier = {t for t in found.values() if t not in sources and t not in looked}
        if sources:
            log.info("kept %d of %d redirect rows in %d passes", len(mapping), rows, passes)
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

    def flattened(self, titles: Collection[str] | None = None) -> dict[str, str]:
        """Every source, or each of titles that is a source, mapped directly to
        its final resolution."""
        return {s: self.resolve(s) for s in self.mapping if titles is None or s in titles}
