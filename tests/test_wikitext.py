"""Markup stripping, word counting, link extraction, feature computation."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoaxlens import wikitext
from hoaxlens.titles import clean_title
from hoaxlens.wikitext import (
    _EXCESS_NEWLINES_RE,
    _EXCLUDED_LINK_RE,
    _EXT_BRACKET_RE,
    _HEADING_RE,
    _INTERLANG_RE,
    _WIKILINK_RE,
    ArticleSource,
    EmptyArticle,
    compute_features,
    count_words,
    extract_external_links,
    extract_wikilinks,
    fixture_filename,
    load_article,
    strip_markup,
)


def test_strip_bold_and_links():
    assert strip_markup("'''Alpha''' is [[Beta]]") == "Alpha is Beta"


def test_strip_template():
    assert strip_markup("{{Infobox|x=1}}Text") == "Text"


def test_strip_labeled_link_and_external():
    assert strip_markup("[[Gamma|G]] [http://e.com site]") == "G site"


def test_strip_nested_templates():
    assert strip_markup("{{Outer|a={{Inner|b=2}}}}After") == "After"


def test_strip_table():
    text = "{| class=\"wikitable\"\n|-\n| cell\n|}\nBody"
    assert strip_markup(text) == "Body"


def test_strip_headings_keep_text():
    assert strip_markup("== History ==\nEarly days.") == "History\nEarly days."


def test_strip_comments_and_refs():
    text = "Start<!-- hidden -->middle<ref>cite this</ref> end<ref name=a/>."
    assert strip_markup(text) == "Startmiddle end."


def test_strip_unclosed_template_to_end_of_line():
    text = "Alpha {{broken here\nBeta survives."
    assert strip_markup(text) == "Alpha \nBeta survives."


def test_strip_unclosed_link_to_end_of_line():
    text = "See [[dangling target\nNext line stays."
    assert strip_markup(text) == "See \nNext line stays."


def test_strip_italic_quotes():
    assert strip_markup("''slanted'' and '''heavy'''") == "slanted and heavy"


def test_strip_html_tags():
    assert strip_markup("a <div class=x>b</div> c") == "a b c"


def test_strip_nested_link_in_caption():
    text = "[[File:Pic.png|thumb|A [[topic]] caption]] rest"
    assert strip_markup(text) == "A topic caption rest"


def test_count_words_basics():
    assert count_words("Alpha is Beta") == 3
    assert count_words("") == 0
    assert count_words("  \n\t ") == 0
    # Underscores separate words instead of joining them.
    assert count_words("snake_case_name") == 3
    assert count_words("C3PO says hi") == 3
    assert count_words("don't stop") == 3  # "don" + "t" + "stop"


def test_count_words_unicode():
    assert count_words("café au lait") == 3
    assert count_words("中文 words") == 2


# The word rule as a regex: sre's \w on str is isalnum() or "_".
_REFERENCE_WORD_RE = re.compile(r"[^\W_]+")


# Cs draws lone surrogates, which the ASCII encode hands to the error handler as it does
# every other non-ASCII character.
@settings(max_examples=300, deadline=None)
@given(text=st.text(st.characters(exclude_categories=())))
@example(text="")
@example(text="_")
@example(text="a_b")
@example(text="x\u0660y")  # ARABIC-INDIC DIGIT ZERO
@example(text="\u01c5 \u2177 \u00b2\u00b3 \u00bd")  # titlecase, roman numeral, superscripts, fraction
@example(text="a\u200db\u200d")  # ZERO WIDTH JOINER
@example(text="\U0001d400\U0001d401 \U00010400x \U0001f600")  # astral letters, emoji
@example(text="a\ud800b")
@example(text="\udfff\U0010ffff\x00")
# Runs of non-ASCII characters, which the encode error handler classes.
@example(text="\u0416\u0443\u043a and \u0451\u0436")  # a run first and last
@example(text="\u00e9")
@example(text="a\u00e9 b")
@example(text="a\u00a0b")  # NO-BREAK SPACE
@example(text="1990\u20131995")  # EN DASH
@example(text="\ud800ab")  # a lone surrogate first
@example(text="\u4e2d" * 10_000)
def test_count_words_matches_regex(text):
    assert count_words(text) == sum(1 for _ in _REFERENCE_WORD_RE.finditer(text))


def test_extract_wikilinks_basic_and_order():
    markup = "See [[Beta]] then [[Gamma|the gamma]] then [[Beta]] again."
    assert extract_wikilinks(markup) == ["Beta", "Gamma", "Beta"]


def test_extract_wikilinks_cleaning_applied():
    assert extract_wikilinks("[[main page]]") == ["Main_page"]
    assert extract_wikilinks("[[Alpha#History]]") == ["Alpha"]
    assert extract_wikilinks("[[Main%20Page]]") == ["Main_Page"]
    assert extract_wikilinks("[[#section-only]]") == []
    assert extract_wikilinks("[[]]") == []


def test_extract_wikilinks_skips_organizational():
    markup = (
        "[[Category:Things]] [[File:Pic.png|thumb]] [[Image:Old.jpg]] "
        "[[fr:Sujet]] [[zh-min:X]] [[:Category:Visible]] [[Real_topic]]"
    )
    assert extract_wikilinks(markup) == ["Real_topic"]


def test_extract_wikilinks_canonical_outputs():
    markup = "[[a b]] [[x#y]] [[C%2B%2B]] [[ok|label]]"
    for title in extract_wikilinks(markup):
        assert title
        assert " " not in title
        assert "#" not in title
        assert not any(c in title for c in "<>[]{}|")
        assert title[0] == title[0].upper()


def _reference_wikilinks(markup):
    """extract_wikilinks without its cache: every target stripped, tested and cleaned."""
    links = []
    for m in _WIKILINK_RE.finditer(markup):
        target = m.group(1).strip()
        if not target or _EXCLUDED_LINK_RE.match(target) or _INTERLANG_RE.match(target):
            continue
        cleaned = clean_title(target)
        if cleaned is not None:
            links.append(cleaned)
    return links


_LINK_PIECES = st.sampled_from(
    [
        "[[", "]]", "|", "[", "]", " ", "\n", "a", "B", "#", "%20", "%", ":",
        "Category:", "file :", ":fr:", "zh-min:", "<", "\x7f", "\u00e9", "\u00df",
    ]
)


@settings(max_examples=300, deadline=None)
@given(markup=st.lists(_LINK_PIECES, max_size=24).map("".join))
def test_extract_wikilinks_cached_matches_reference(markup):
    """Cold and warm, the cache of cleaned targets gives what cleaning each link does."""
    want = _reference_wikilinks(markup)
    wikitext._link_targets.clear()
    assert extract_wikilinks(markup) == want
    assert extract_wikilinks(markup) == want


def test_extract_external_links_counts():
    markup = (
        "[http://example.com label] and [https://two.example] plus "
        "bare http://bare.example/path and ftp://files.example/x "
        "but not [[Beta]] or example.com"
    )
    assert extract_external_links(markup) == 4


def test_extract_external_links_none():
    assert extract_external_links("no links here [[Beta]]") == 0


_REFERENCE_BARE_URL_RE = re.compile(r"\b(?:https?|ftp)://[^\s\]]+", re.I)
_URL_FRAGMENTS = st.sampled_from(
    [
        "http://", "HTTP://", "hTtPs://", "ftp://", "FtP://", "https://",
        "xhttp://", "xhttps://", "sftp://", "?u=http://", "_http://",
        "\u00e9http://", "\u03a9ftp://", "\u4e2dhttps://",
        "[", "]", " ", "\n", "\t", "\u00a0",
        "a", "b.c/", ":", "//", "://", "9", "\u00e9",
    ]
)


@settings(max_examples=400, deadline=None)
@given(markup=st.lists(_URL_FRAGMENTS, max_size=16).map("".join))
@example(markup="xhttp://a xhttps://b sftp://c ?u=http://d HTTP://e [ftp://f g]")
def test_extract_external_links_matches_unanchored_scan(markup):
    remainder, n_bracketed = _EXT_BRACKET_RE.subn(" ", markup)
    expected = n_bracketed + sum(1 for _ in _REFERENCE_BARE_URL_RE.finditer(remainder))
    assert extract_external_links(markup) == expected


# The unanchored forms of _HEADING_RE and _EXCESS_NEWLINES_RE.
_REFERENCE_HEADING_RE = re.compile(r"^={1,6}\s*(.*?)\s*=*\s*$", re.M)
_REFERENCE_EXCESS_NEWLINES_RE = re.compile(r"\n{3,}")
_LINE_FRAGMENTS = st.sampled_from(
    ["=", "==", "======", "=======", "\n", "\n\n\n", "\r", " ", "\t", "\u00a0", "a", "B c", "\u00e9"]
)


@settings(max_examples=400, deadline=None)
@given(text=st.lists(_LINE_FRAGMENTS, max_size=24).map("".join))
@example(text="== A ==\n=B=\n x\n======= C =======\n\n\n\n= = =")
def test_markup_regexes_match_unanchored_forms(text):
    assert _HEADING_RE.sub(r"\1", text) == _REFERENCE_HEADING_RE.sub(r"\1", text)
    assert _EXCESS_NEWLINES_RE.sub("\n\n", text) == _REFERENCE_EXCESS_NEWLINES_RE.sub("\n\n", text)


def _features(source):
    return compute_features(source, extract_wikilinks(source.markup))


def test_compute_features_worked_example():
    source = ArticleSource("T", "'''Alpha''' links to [[Beta]] and [[Gamma|G]].")
    f = _features(source)
    assert f.plain_length == 6
    assert f.plain_to_markup_ratio == pytest.approx(6 / 7)
    assert f.wikilink_density == pytest.approx(200 / 7)
    assert f.extlink_density == 0.0


def test_compute_features_empty_raises():
    with pytest.raises(EmptyArticle):
        _features(ArticleSource("T", "{{}} ''''''"))
    with pytest.raises(EmptyArticle):
        _features(ArticleSource("T", ""))


def test_compute_features_prefers_supplied_plain():
    source = ArticleSource("T", "'''Alpha''' is [[Beta]].", plain="Exactly two")
    f = _features(source)
    assert f.plain_length == 2


def test_features_doubling_invariance():
    markup = "'''Alpha''' sees [[Beta]] at [http://e.com spot] twice."
    single = _features(ArticleSource("T", markup))
    doubled = _features(ArticleSource("T", markup + "\n" + markup))
    assert doubled.plain_length == 2 * single.plain_length
    assert doubled.plain_to_markup_ratio == single.plain_to_markup_ratio
    assert doubled.wikilink_density == single.wikilink_density
    assert doubled.extlink_density == single.extlink_density


def test_fixture_roundtrip(tmp_path):
    (tmp_path / "Some_Page.wiki").write_text("'''Some Page''' body [[Link]].")
    (tmp_path / "Some_Page.txt").write_text("Some Page body Link.")
    source = load_article(tmp_path, "Some_Page")
    assert source.plain == "Some Page body Link."
    assert "[[Link]]" in source.markup
    with pytest.raises(FileNotFoundError):
        load_article(tmp_path, "Absent")


def test_fixture_filename_encodes_slash():
    assert fixture_filename("AC/DC", ".wiki") == "AC%2FDC.wiki"
