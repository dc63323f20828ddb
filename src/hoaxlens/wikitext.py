"""Wiki markup stripping and article appearance features.

Four features per article, all normalized by the markup word count: plain-text
length, plain-to-markup ratio, wiki-link density and external-link density
(densities per 100 markup words).

``extract_wikilinks`` cleans each distinct raw link target once per process and
keeps the result for the rest of the stage, as articles share most of their
link targets. A forked ``features`` worker starts from its parent's entries and
adds its own.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass
from pathlib import Path

from .titles import clean_title, fixture_filename, read_utf8

# count_words maps each character to its word class: b"a" for str.isalnum(),
# b" " for everything else. ASCII goes through this table; every wider
# character, lone surrogates included, through the encode error handler below.
_ASCII_CLASS = bytes(ord("a") if chr(c).isalnum() else ord(" ") for c in range(256))
_WORD_CLASS_ERRORS = "hoaxlens.wordclass"


def _wide_word_class(exc: UnicodeError) -> tuple[str, int]:
    """Encode error handler: one class character for each character of the unencodable run."""
    if not isinstance(exc, UnicodeEncodeError):
        raise exc
    run = exc.object[exc.start : exc.end]
    if run.isalnum():  # a whole non-ASCII word, such as a Cyrillic or CJK one
        return "a" * len(run), exc.end
    return "".join(["a" if c.isalnum() else " " for c in run]), exc.end


codecs.register_error(_WORD_CLASS_ERRORS, _wide_word_class)

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
# Both start with a literal, which the search skips ahead to instead of trying a
# match at every character: a heading's first "=", whose lookbehind keeps the
# line-start anchor, and a run of three newlines.
_HEADING_RE = re.compile(r"=(?<=^=)={0,5}\s*(.*?)\s*=*\s*$", re.M)
_HTML_TAG_RE = re.compile(r"</?[A-Za-z][^>\n]*>")
_EXCESS_NEWLINES_RE = re.compile(r"\n\n\n+")

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
    ``[^\W_]+`` matches. The text is encoded to one class byte per character,
    ``a`` inside a word and a space outside, and the words are the ``" a"``
    boundaries plus a leading ``a``. Iterating regex matches would build one
    match object per word, which made counting the costliest step of feature
    extraction on multi-KB articles.

    ASCII is classed by ``bytes.translate``; each run of other characters costs
    one call of the error handler. So dense short non-ASCII runs are the worst
    case. On a 2-vCPU VM, 11 KB of UTF-8 takes 0.02 ms as ASCII prose, 0.5 ms as
    Cyrillic words between ASCII spaces and 1.3 ms with a non-ASCII letter in
    every other character, against 0.04-0.13 ms for a numpy pass over the code
    points. Wiki markup is mostly ASCII.
    """
    classes = text.encode("ascii", _WORD_CLASS_ERRORS).translate(_ASCII_CLASS)
    return classes.count(b" a") + classes.startswith(b"a")


# Raw [[...]] target -> its cleaned title, or None for a target that is skipped.
_link_targets: dict[str, str | None] = {}


def _link_target(raw: str) -> str | None:
    target = raw.strip()
    if not target or _EXCLUDED_LINK_RE.match(target) or _INTERLANG_RE.match(target):
        cleaned = None
    else:
        cleaned = clean_title(target)
    _link_targets[raw] = cleaned
    return cleaned


def extract_wikilinks(markup: str) -> list[str]:
    """Cleaned link targets in order of appearance, duplicates preserved.

    Category, file/image and interlanguage links are organizational and skipped.
    Each distinct raw target is cleaned once per process.
    """
    links: list[str] = []
    known = _link_targets
    for raw, _ in _WIKILINK_RE.findall(markup):
        cleaned = known[raw] if raw in known else _link_target(raw)
        if cleaned is not None:
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


def load_article(fixtures_dir: str | Path, title: str) -> ArticleSource:
    """Read ``<title>.wiki`` (required) and ``<title>.txt`` (optional plain extract).

    A missing ``.wiki`` raises FileNotFoundError; a file that is not UTF-8,
    MalformedRecord naming its line.
    """
    fixtures_dir = Path(fixtures_dir)
    markup = read_utf8(fixtures_dir / fixture_filename(title, ".wiki"))
    txt_path = fixtures_dir / fixture_filename(title, ".txt")
    plain = read_utf8(txt_path) if txt_path.exists() else None
    return ArticleSource(title=title, markup=markup, plain=plain)
