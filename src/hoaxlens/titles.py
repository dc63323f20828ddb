"""Title rules shared by every stage: cleaning, redirects, fixture file names.

Standard library only, so that every stage but ``attention`` starts without
importing numpy.
"""

from __future__ import annotations

import io
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
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


@dataclass
class RedirectTable:
    """Source -> target mapping over cleaned titles."""

    mapping: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "RedirectTable":
        """Two-column TSV ``source<TAB>target``; blank lines skipped.

        A row that is not two non-empty fields, or bytes that are not UTF-8,
        raise ValueError naming the file and line.
        """
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
        mapping: dict[str, str] = {}
        for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
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
