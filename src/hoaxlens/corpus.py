"""The CSV reader of every input list and stage table (``iter_csv``), article
metadata, same-day creation cohorts, link neighborhoods.

A creation day's cohort is every non-redirect, non-hoax article created that UTC
day, with redirect sources collapsed away so each canonical page appears once;
every hoax created that day is compared against it.
"""

from __future__ import annotations

import csv
import logging
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from .titles import MalformedRecord, RedirectTable, clean_title, utf8_fault

log = logging.getLogger(__name__)

HOAX_HEADER = ["title", "created_at"]
CREATION_HEADER = ["title", "created_at", "is_redirect", "redirect_target"]

_TRUTHY = {"1", "true", "yes"}

# Fields of any length: a neighbors.csv field lists every link of an article,
# past the csv module's default limit of 131,072 characters at about 6,000 links.
CSV_FIELD_LIMIT = 2 ** (8 * struct.calcsize("l") - 1) - 1


class NoNeighbors(ValueError):
    """The article links to nothing usable; attention is unmeasurable."""


@dataclass(frozen=True)
class ArticleMeta:
    title: str
    created_at: datetime
    is_redirect: bool = False

    @property
    def creation_date(self) -> date:
        return self.created_at.date()


def _parse_timestamp(value: str, path, lineno: int) -> datetime:
    """ISO-8601; a trailing Z means UTC, naive timestamps are taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise MalformedRecord(path, lineno, f"bad timestamp {value!r}") from None
    if stamp.tzinfo is None:
        return stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _clean_or_raise(raw: str, path, lineno: int) -> str:
    cleaned = clean_title(raw)
    if cleaned is None:
        raise MalformedRecord(path, lineno, f"unusable title {raw!r}")
    return cleaned


def iter_csv(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) for each non-blank row after the header of a UTF-8 CSV,
    read as it is yielded; an empty file has no rows.

    The first row must be header exactly, and every other row have as many
    fields. A row that breaks this, a csv error, or bytes that are not UTF-8
    raise MalformedRecord naming the line.
    """
    csv.field_size_limit(CSV_FIELD_LIMIT)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is not None and first != header:
                raise MalformedRecord(path, 1, f"expected header {','.join(header)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    why = f"expected {len(header)} fields, got {len(row)}"
                    raise MalformedRecord(path, reader.line_num, why)
                yield reader.line_num, row
        except UnicodeDecodeError:
            raise utf8_fault(path) from None
        except csv.Error as exc:
            raise MalformedRecord(path, reader.line_num, str(exc)) from None


def load_hoaxes(path: str | Path) -> list[ArticleMeta]:
    """Hoax list CSV with header ``title,created_at``; empty file means no hoaxes."""
    return [
        ArticleMeta(_clean_or_raise(title, path, n), _parse_timestamp(at, path, n))
        for n, (title, at) in iter_csv(path, HOAX_HEADER)
    ]


def _load_creation_file(path: Path, metas: list[ArticleMeta], redirects: dict[str, str]) -> None:
    for lineno, (raw, created, redirect, target) in iter_csv(path, CREATION_HEADER):
        title = _clean_or_raise(raw, path, lineno)
        created_at = _parse_timestamp(created, path, lineno)
        is_redirect = redirect.strip().lower() in _TRUTHY
        metas.append(ArticleMeta(title, created_at, is_redirect=is_redirect))
        if is_redirect and target.strip():
            redirects[title] = _clean_or_raise(target, path, lineno)


def load_creation_list(path: str | Path) -> tuple[list[ArticleMeta], RedirectTable]:
    """Creation records plus the redirect mapping declared by the redirect rows.

    Accepts one CSV or a directory of them (read in sorted name order).
    """
    path = Path(path)
    metas: list[ArticleMeta] = []
    redirects: dict[str, str] = {}
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"{path}: no creation list files")
    for file in files:
        _load_creation_file(file, metas, redirects)
    return metas, RedirectTable(mapping=redirects)


def build_cohort(
    day: date, same_day: Iterable[ArticleMeta], redirects: RedirectTable, hoax_titles
) -> list[str]:
    """The cohort of creation day ``day``: the distinct titles of the articles
    in ``same_day``, sorted so that input order does not matter, or [] when
    none is left.

    Hoaxes, redirect rows and anything the redirect table knows as a source
    (target present or not) are left out. Every article must be created on ``day``.
    """
    members: set[str] = set()
    hoaxes = redirect_rows = sources = 0
    for meta in same_day:
        if meta.creation_date != day:
            raise ValueError(f"{meta.title} created {meta.creation_date}, expected {day}")
        if meta.title in hoax_titles:
            hoaxes += 1
        elif meta.is_redirect:
            redirect_rows += 1
        elif meta.title in redirects.mapping:
            sources += 1
        else:
            members.add(meta.title)
    log.info(
        "cohort %s: %d members; left out %d hoax rows, %d redirect rows, %d redirect sources",
        day, len(members), hoaxes, redirect_rows, sources,
    )
    return sorted(members)


def neighbor_set(title: str, links: Iterable[str], hoax_titles=frozenset()) -> set[str]:
    """Distinct link targets of the article title (``wikitext.extract_wikilinks``
    of its markup), minus known hoaxes and the article itself."""
    neighbors = set(links)
    neighbors.discard(title)
    neighbors.difference_update(hoax_titles)
    if not neighbors:
        raise NoNeighbors(title)
    return neighbors
