"""Wiki markup stripping and article appearance features.

Four features per article, all normalized by the markup word count: plain-text
length, plain-to-markup ratio, wiki-link density and external-link density
(densities per 100 markup words).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .logstore import clean_title

# str.isalnum of each ASCII code point; index 128 stands for every wider one,
# which count_words looks up separately.
_ASCII_ALNUM = np.array([chr(c).isalnum() for c in range(128)] + [False])

_COMMENT_RE = re.compile(r"<!--.*?-->", re.S)
_COMMENT_OPEN_RE = re.compile(r"<!--[^\n]*")
_REF_PAIR_RE = re.compile(r"<ref\b[^>]*(?<!/)>.*?</ref\s*>", re.S | re.I)
_REF_SELF_RE = re.compile(r"<ref\b[^>]*/>", re.I)
_REF_OPEN_RE = re.compile(r"<ref\b[^>\n]*>[^\n]*", re.I)
_WIKILINK_RE = re.compile(r"\[\[([^\[\]|]*)(?:\|([^\[\]]*))?\]\]")
_WIKILINK_OPEN_RE = re.compile(r"\[\[[^\n]*")
_EXT_BRACKET_RE = re.compile(r"\[(?:https?|ftp)://[^ \]\n]*([^\]\n]*)\]", re.I)
_EXT_BRACKET_OPEN_RE = re.compile(r"\[(?:https?|ftp)://[^\]\n]*", re.I)
# Anchored on the literal "://" so the search skips ahead to each one instead of
# trying a scheme at every character; the lookbehinds keep the \b before it.
_BARE_URL_RE = re.compile(
    r"://(?:(?<=\bhttp://)|(?<=\bhttps://)|(?<=\bftp://))[^\s\]]+", re.I
)
_HEADING_RE = re.compile(r"^={1,6}\s*(.*?)\s*=*\s*$", re.M)
_HTML_TAG_RE = re.compile(r"</?[A-Za-z][^>\n]*>")
_EXCESS_NEWLINES_RE = re.compile(r"\n{3,}")

# Link targets that are organizational, not topical: category/media plus
# interlanguage prefixes (lowercase 2-3 letter language codes).
_EXCLUDED_LINK_RE = re.compile(r"^:?(?:category|file|image)\s*:", re.I)
_INTERLANG_RE = re.compile(r"^:?[a-z]{2,3}(?:-[a-z]+)*:")


class EmptyArticle(ValueError):
    """Markup contains no words; features are undefined."""


@dataclass
class ArticleSource:
    """Raw markup plus an optional pre-extracted plain text.

    When ``plain`` is present it takes precedence over stripping the markup,
    so fixtures fetched with a rendered extract stay authoritative.
    """

    title: str
    markup: str
    plain: str | None = None


@dataclass
class ArticleFeatures:
    plain_length: int
    plain_to_markup_ratio: float
    wikilink_density: float
    extlink_density: float


def _drop_nested(text: str, open_tok: str, close_tok: str) -> str:
    """Remove balanced open/close spans, nesting-aware.

    An opener with no matching closer is dropped only to the end of its line,
    so one typo cannot eat the rest of the article.
    """
    out = []
    i = 0
    while (start := text.find(open_tok, i)) >= 0:
        out.append(text[i:start])
        depth = 1
        pos = start + len(open_tok)
        while depth:
            nxt_close = text.find(close_tok, pos)
            if nxt_close < 0:
                eol = text.find("\n", start)
                pos = len(text) if eol < 0 else eol
                break
            nxt_open = text.find(open_tok, pos)
            if 0 <= nxt_open < nxt_close:
                depth += 1
                pos = nxt_open + len(open_tok)
            else:
                depth -= 1
                pos = nxt_close + len(close_tok)
        i = pos
    out.append(text[i:])
    return "".join(out)


def _unwrap_wikilinks(text: str) -> str:
    """[[target|label]] -> label, [[target]] -> target; innermost-first for nesting."""
    def repl(m: re.Match) -> str:
        label = m.group(2)
        if label is None:
            return m.group(1)
        # Multi-pipe content (file thumbs): the rendered text is the last segment.
        return label.rsplit("|", 1)[-1]

    for _ in range(10):
        text, n = _WIKILINK_RE.subn(repl, text)
        if n == 0:
            break
    return _WIKILINK_OPEN_RE.sub("", text)


def strip_markup(markup: str) -> str:
    """Best-effort plain text: drop templates, tables, refs, comments and tags,
    unwrap links and headings, remove quote markup."""
    text = _COMMENT_RE.sub("", markup)
    text = _COMMENT_OPEN_RE.sub("", text)
    text = _REF_PAIR_RE.sub("", text)
    text = _REF_SELF_RE.sub("", text)
    text = _REF_OPEN_RE.sub("", text)
    text = _drop_nested(text, "{{", "}}")
    text = _drop_nested(text, "{|", "|}")
    text = _unwrap_wikilinks(text)
    text = _EXT_BRACKET_RE.sub(lambda m: m.group(1).lstrip(), text)
    text = _EXT_BRACKET_OPEN_RE.sub("", text)
    text = _HEADING_RE.sub(lambda m: m.group(1), text)
    text = text.replace("'''", "").replace("''", "")
    text = _HTML_TAG_RE.sub("", text)
    text = _EXCESS_NEWLINES_RE.sub("\n\n", text)
    return text.strip()


def count_words(text: str) -> int:
    r"""Number of words: maximal runs of characters for which ``str.isalnum()`` is true.

    ``_``, punctuation and whitespace separate words, so this is the number of
    ``[^\W_]+`` matches. It is counted over a code point array rather than by
    iterating regex matches, because one match object per word made counting
    the costliest step of feature extraction on multi-KB articles.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    word = _ASCII_ALNUM[np.minimum(codes, 128)]
    wide = codes >= 128
    if wide.any():
        distinct, inverse = np.unique(codes[wide], return_inverse=True)
        alnum = np.array([chr(c).isalnum() for c in distinct.tolist()], dtype=bool)
        word[wide] = alnum[inverse]
    return int(np.count_nonzero(word[1:] > word[:-1])) + int(word[:1].any())


def extract_wikilinks(markup: str) -> list[str]:
    """Cleaned link targets in order of appearance, duplicates preserved.

    Category, file/image and interlanguage links are organizational and skipped.
    """
    links: list[str] = []
    for m in _WIKILINK_RE.finditer(markup):
        target = m.group(1).strip()
        if not target:
            continue
        if _EXCLUDED_LINK_RE.match(target) or _INTERLANG_RE.match(target):
            continue
        cleaned = clean_title(target)
        if cleaned is None:
            continue
        links.append(cleaned)
    return links


def extract_external_links(markup: str) -> int:
    """Count bracketed [scheme://...] links plus bare http/https/ftp URLs."""
    remainder, n_bracketed = _EXT_BRACKET_RE.subn(" ", markup)
    return n_bracketed + sum(1 for _ in _BARE_URL_RE.finditer(remainder))


def compute_features(source: ArticleSource, links: list[str]) -> ArticleFeatures:
    """Appearance features for one article whose markup has the wikilinks
    ``links`` (``extract_wikilinks(source.markup)``); raises EmptyArticle on zero
    markup words."""
    markup_words = count_words(source.markup)
    if markup_words == 0:
        raise EmptyArticle(source.title)
    plain = source.plain if source.plain is not None else strip_markup(source.markup)
    plain_words = count_words(plain)
    return ArticleFeatures(
        plain_length=plain_words,
        plain_to_markup_ratio=plain_words / markup_words,
        wikilink_density=100.0 * len(links) / markup_words,
        extlink_density=100.0 * extract_external_links(source.markup) / markup_words,
    )


FEATURE_NAMES = ("plain_length", "ratio", "wikilink_density", "extlink_density")


def feature_values(features: ArticleFeatures) -> dict[str, float]:
    """Features keyed by their CSV column names."""
    return {
        "plain_length": float(features.plain_length),
        "ratio": features.plain_to_markup_ratio,
        "wikilink_density": features.wikilink_density,
        "extlink_density": features.extlink_density,
    }


def fixture_filename(title: str, suffix: str) -> str:
    """Canonical titles never contain '/', except via percent-decoding; encode it back."""
    return title.replace("/", "%2F") + suffix


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_article(fixtures_dir: str | Path, title: str) -> ArticleSource:
    """Read ``<title>.wiki`` (required) and ``<title>.txt`` (optional plain extract).

    A missing ``.wiki`` raises FileNotFoundError; a file that is not UTF-8, ValueError.
    """
    fixtures_dir = Path(fixtures_dir)
    markup = _read_utf8(fixtures_dir / fixture_filename(title, ".wiki"))
    txt_path = fixtures_dir / fixture_filename(title, ".txt")
    plain = _read_utf8(txt_path) if txt_path.exists() else None
    return ArticleSource(title=title, markup=markup, plain=plain)
