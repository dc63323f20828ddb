"""Hoax lists, creation lists, cohort construction, neighbor sets."""

from datetime import date, datetime, timezone

import pytest

from hoaxlens.corpus import (
    ArticleMeta,
    EmptyCohort,
    MalformedRecord,
    NoNeighbors,
    build_cohort,
    load_creation_list,
    load_hoaxes,
    neighbor_set,
)
from hoaxlens.logstore import RedirectTable
from hoaxlens.wikitext import extract_wikilinks


def _meta(title, day="2006-03-10", redirect=False, hoax=False):
    created = datetime.fromisoformat(day + "T08:00:00+00:00")
    return ArticleMeta(title=title, created_at=created, is_redirect=redirect, is_hoax=hoax)


def test_load_hoaxes(tmp_path):
    path = tmp_path / "hoaxes.csv"
    path.write_text("title,created_at\nBalboa_Creek,2006-03-10T14:00:00Z\nOther one,2007-01-02T00:00:00Z\n")
    hoaxes = load_hoaxes(path)
    assert [h.title for h in hoaxes] == ["Balboa_Creek", "Other_one"]
    assert all(h.is_hoax for h in hoaxes)
    assert hoaxes[0].created_at == datetime(2006, 3, 10, 14, tzinfo=timezone.utc)
    assert hoaxes[0].creation_date == date(2006, 3, 10)


def test_load_hoaxes_empty_file(tmp_path):
    path = tmp_path / "hoaxes.csv"
    path.write_text("")
    assert load_hoaxes(path) == []


def test_load_hoaxes_malformed_reports_line(tmp_path):
    path = tmp_path / "hoaxes.csv"
    path.write_text("title,created_at\nGood,2006-03-10T00:00:00Z\nBad,not-a-date\n")
    with pytest.raises(MalformedRecord) as err:
        load_hoaxes(path)
    assert err.value.lineno == 3
    path.write_text("wrong,header\n")
    with pytest.raises(MalformedRecord):
        load_hoaxes(path)


def test_timestamp_forms(tmp_path):
    path = tmp_path / "hoaxes.csv"
    path.write_text(
        "title,created_at\n"
        "A,2006-03-10T14:00:00Z\n"
        "B,2006-03-10 14:00:00\n"
        "C,2006-03-10T16:00:00+02:00\n"
    )
    hoaxes = load_hoaxes(path)
    assert all(h.created_at == datetime(2006, 3, 10, 14, tzinfo=timezone.utc) for h in hoaxes)


def test_load_creation_list_with_redirects(tmp_path):
    path = tmp_path / "creations.csv"
    path.write_text(
        "title,created_at,is_redirect,redirect_target\n"
        "Alpha,2006-03-10T01:00:00Z,0,\n"
        "Alias,2006-03-10T02:00:00Z,1,Alpha\n"
        "Dangling,2006-03-10T03:00:00Z,1,\n"
    )
    metas, table = load_creation_list(path)
    assert [m.title for m in metas] == ["Alpha", "Alias", "Dangling"]
    assert [m.is_redirect for m in metas] == [False, True, True]
    assert table.mapping == {"Alias": "Alpha"}


def test_load_creation_list_directory(tmp_path):
    day_dir = tmp_path / "lists"
    day_dir.mkdir()
    header = "title,created_at,is_redirect,redirect_target\n"
    (day_dir / "b.csv").write_text(header + "Beta,2006-03-11T01:00:00Z,0,\n")
    (day_dir / "a.csv").write_text(header + "Alpha,2006-03-10T01:00:00Z,0,\n")
    metas, _ = load_creation_list(day_dir)
    # Files read in sorted name order.
    assert [m.title for m in metas] == ["Alpha", "Beta"]


def test_build_cohort_spec_shape():
    hoax = _meta("Hoax_page", hoax=True)
    same_day = [
        _meta("A"),
        _meta("B"),
        _meta("R", redirect=True),
    ]
    table = RedirectTable(mapping={"R": "A"})
    record = build_cohort(hoax, same_day, table)
    assert [m.title for m in record.members] == ["A", "B"]
    assert record.creation_date == date(2006, 3, 10)


def test_build_cohort_excludes_hoaxes_and_self():
    hoax = _meta("Hoax_page", hoax=True)
    same_day = [
        _meta("Hoax_page", hoax=True),
        _meta("Other_hoax", hoax=True),
        _meta("Sneaky_hoax"),  # flagged only via the known-hoax title set
        _meta("Genuine"),
    ]
    record = build_cohort(hoax, same_day, RedirectTable(), hoax_titles={"Sneaky_hoax", "Hoax_page", "Other_hoax"})
    assert [m.title for m in record.members] == ["Genuine"]


def test_build_cohort_collapses_redirect_sources():
    hoax = _meta("Hoax_page", hoax=True)
    same_day = [
        _meta("Target"),
        _meta("Source_listed_as_article"),
        _meta("Points_outside"),
    ]
    table = RedirectTable(
        mapping={"Source_listed_as_article": "Target", "Points_outside": "Elsewhere"}
    )
    record = build_cohort(hoax, same_day, table)
    # Redirect sources collapse away whether or not the target is present.
    assert [m.title for m in record.members] == ["Target"]
    for member in record.members:
        assert member.title not in table.mapping
        assert not member.is_redirect
        assert not member.is_hoax


def test_build_cohort_order_independent():
    hoax = _meta("Hoax_page", hoax=True)
    same_day = [_meta(f"Page_{i:02d}") for i in range(10)]
    a = build_cohort(hoax, same_day, RedirectTable())
    b = build_cohort(hoax, list(reversed(same_day)), RedirectTable())
    assert [m.title for m in a.members] == [m.title for m in b.members]


def test_build_cohort_dedups_repeated_rows():
    hoax = _meta("Hoax_page", hoax=True)
    same_day = [_meta("Twice"), _meta("Twice"), _meta("Once")]
    record = build_cohort(hoax, same_day, RedirectTable())
    assert [m.title for m in record.members] == ["Once", "Twice"]


def test_build_cohort_empty_raises():
    hoax = _meta("Hoax_page", hoax=True)
    with pytest.raises(EmptyCohort):
        build_cohort(hoax, [], RedirectTable())
    with pytest.raises(EmptyCohort):
        build_cohort(hoax, [_meta("R", redirect=True)], RedirectTable())


def test_build_cohort_rejects_wrong_day():
    hoax = _meta("Hoax_page", hoax=True)
    with pytest.raises(ValueError):
        build_cohort(hoax, [_meta("Late", day="2006-03-11")], RedirectTable())


def test_neighbor_set():
    links = extract_wikilinks(
        "Links to [[Beta]], [[Beta]] again, [[Self_page]] and [[Known_hoax]]."
    )
    assert neighbor_set("Self_page", links, hoax_titles={"Known_hoax"}) == {"Beta"}


def test_neighbor_set_empty_raises():
    with pytest.raises(NoNeighbors):
        neighbor_set("T", extract_wikilinks("no links at all"))
    with pytest.raises(NoNeighbors):
        neighbor_set("T", extract_wikilinks("only [[T]] itself"))
