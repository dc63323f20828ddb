"""Article metadata, same-day creation cohorts, link neighborhoods.

A hoax's cohort is every non-redirect, non-hoax article created on the same UTC
day, with redirect sources collapsed away so each canonical page appears once.
"""

from __future__ import annotations

import csv
import io
import logging
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from .titles import RedirectTable, clean_title

log = logging.getLogger(__name__)

HOAX_HEADER = ["title", "created_at"]
CREATION_HEADER = ["title", "created_at", "is_redirect", "redirect_target"]

_TRUTHY = {"1", "true", "yes"}


class MalformedRecord(ValueError):
    """A CSV record that cannot be parsed; carries file and line number."""

    def __init__(self, path, lineno: int, why: str):
        super().__init__(f"{path}:{lineno}: {why}")
        self.lineno = lineno


class EmptyCohort(ValueError):
    """No eligible articles were created the same day as the hoax."""


class NoNeighbors(ValueError):
    """The article links to nothing usable; attention is unmeasurable."""


@dataclass(frozen=True)
class ArticleMeta:
    title: str
    created_at: datetime
    is_redirect: bool = False
    is_hoax: bool = False

    @property
    def creation_date(self) -> date:
        return self.created_at.date()


@dataclass
class CohortRecord:
    hoax: ArticleMeta
    members: list[ArticleMeta]
    creation_date: date


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


def _read_rows(path: Path) -> list[list[str]]:
    """Every CSV row of a UTF-8 file; bytes that are not UTF-8 are a MalformedRecord."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRecord(path, lineno, f"not valid UTF-8 ({exc.reason})") from None
    return list(csv.reader(io.StringIO(text, newline="")))


def load_hoaxes(path: str | Path) -> list[ArticleMeta]:
    """Hoax list CSV with header ``title,created_at``; empty file means no hoaxes."""
    path = Path(path)
    hoaxes: list[ArticleMeta] = []
    rows = _read_rows(path)
    if not rows:
        return hoaxes
    if rows[0] != HOAX_HEADER:
        raise MalformedRecord(path, 1, f"expected header {','.join(HOAX_HEADER)}")
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 2:
            raise MalformedRecord(path, lineno, f"expected 2 fields, got {len(row)}")
        title = _clean_or_raise(row[0], path, lineno)
        created = _parse_timestamp(row[1], path, lineno)
        hoaxes.append(ArticleMeta(title=title, created_at=created, is_hoax=True))
    return hoaxes


def _load_creation_file(path: Path, metas: list[ArticleMeta], redirects: dict[str, str]) -> None:
    rows = _read_rows(path)
    if not rows:
        return
    if rows[0] != CREATION_HEADER:
        raise MalformedRecord(path, 1, f"expected header {','.join(CREATION_HEADER)}")
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != 4:
            raise MalformedRecord(path, lineno, f"expected 4 fields, got {len(row)}")
        title = _clean_or_raise(row[0], path, lineno)
        created = _parse_timestamp(row[1], path, lineno)
        is_redirect = row[2].strip().lower() in _TRUTHY
        metas.append(ArticleMeta(title=title, created_at=created, is_redirect=is_redirect))
        if is_redirect and row[3].strip():
            target = _clean_or_raise(row[3], path, lineno)
            redirects[title] = target


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
    hoax: ArticleMeta,
    same_day,
    redirects: RedirectTable,
    hoax_titles=frozenset(),
) -> CohortRecord:
    """Same-day cohort for one hoax.

    Redirect rows and anything the redirect table knows as a source are
    collapsed away (target already present or absent either way), other hoaxes
    are excluded and logged, and members are deduped and sorted by title so the
    result is independent of input order.
    """
    day = hoax.creation_date
    members: dict[str, ArticleMeta] = {}
    for meta in sorted(same_day, key=lambda m: m.title):
        if meta.creation_date != day:
            raise ValueError(
                f"{meta.title} created {meta.creation_date}, expected {day}"
            )
        if meta.title == hoax.title:
            continue
        if meta.is_hoax or meta.title in hoax_titles:
            log.info("cohort %s: excluding fellow hoax %s", hoax.title, meta.title)
            continue
        if meta.is_redirect:
            continue
        if meta.title in redirects.mapping:
            log.info(
                "cohort %s: collapsing redirect source %s into %s",
                hoax.title,
                meta.title,
                redirects.resolve(meta.title),
            )
            continue
        if meta.title not in members:
            members[meta.title] = meta
    if not members:
        raise EmptyCohort(f"no cohort members for {hoax.title} on {day}")
    return CohortRecord(
        hoax=hoax,
        members=[members[t] for t in sorted(members)],
        creation_date=day,
    )


def neighbor_set(title: str, links: Iterable[str], hoax_titles=frozenset()) -> set[str]:
    """Distinct link targets of the article title (``wikitext.extract_wikilinks``
    of its markup), minus known hoaxes and the article itself."""
    neighbors = set(links)
    neighbors.discard(title)
    neighbors.difference_update(hoax_titles)
    if not neighbors:
        raise NoNeighbors(title)
    return neighbors
