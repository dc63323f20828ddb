"""Hoax lists, creation lists, cohort construction, neighbor sets."""

import json
import tempfile
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoaxlens import cli
from hoaxlens.corpus import (
    ArticleMeta,
    MalformedRecord,
    NoNeighbors,
    build_cohort,
    iter_csv,
    load_creation_list,
    load_hoaxes,
    neighbor_set,
)
from hoaxlens.logstore import RedirectTable
from hoaxlens.wikitext import extract_wikilinks

DAY = date(2006, 3, 10)


def _meta(title, day="2006-03-10", redirect=False):
    created = datetime.fromisoformat(day + "T08:00:00+00:00")
    return ArticleMeta(title=title, created_at=created, is_redirect=redirect)


def test_load_hoaxes(tmp_path):
    path = tmp_path / "hoaxes.csv"
    path.write_text("title,created_at\nBalboa_Creek,2006-03-10T14:00:00Z\nOther one,2007-01-02T00:00:00Z\n")
    hoaxes = load_hoaxes(path)
    assert [h.title for h in hoaxes] == ["Balboa_Creek", "Other_one"]
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
    same_day = [
        _meta("A"),
        _meta("B"),
        _meta("R", redirect=True),
    ]
    table = RedirectTable(mapping={"R": "A"})
    assert build_cohort(DAY, same_day, table, {"Hoax_page"}) == ["A", "B"]


def test_build_cohort_excludes_hoaxes_and_self():
    same_day = [
        _meta("Hoax_page"),
        _meta("Other_hoax"),
        _meta("Sneaky_hoax"),
        _meta("Genuine"),
    ]
    hoax_titles = {"Sneaky_hoax", "Hoax_page", "Other_hoax"}
    assert build_cohort(DAY, same_day, RedirectTable(), hoax_titles) == ["Genuine"]


def test_build_cohort_collapses_redirect_sources():
    same_day = [
        _meta("Target"),
        _meta("Source_listed_as_article"),
        _meta("Points_outside"),
    ]
    table = RedirectTable(
        mapping={"Source_listed_as_article": "Target", "Points_outside": "Elsewhere"}
    )
    members = build_cohort(DAY, same_day, table, {"Hoax_page"})
    # Redirect sources collapse away whether or not the target is present.
    assert members == ["Target"]
    assert not set(members) & table.mapping.keys()


def test_build_cohort_order_independent():
    same_day = [_meta(f"Page_{i:02d}") for i in range(10)]
    a = build_cohort(DAY, same_day, RedirectTable(), {"Hoax_page"})
    b = build_cohort(DAY, list(reversed(same_day)), RedirectTable(), {"Hoax_page"})
    assert a == b


def test_build_cohort_dedups_repeated_rows():
    same_day = [_meta("Twice"), _meta("Twice"), _meta("Once")]
    assert build_cohort(DAY, same_day, RedirectTable(), {"Hoax_page"}) == ["Once", "Twice"]


def test_build_cohort_empty_day_has_no_members():
    assert build_cohort(DAY, [], RedirectTable(), {"Hoax_page"}) == []
    assert build_cohort(DAY, [_meta("R", redirect=True)], RedirectTable(), {"Hoax_page"}) == []


def test_build_cohort_rejects_wrong_day():
    with pytest.raises(ValueError):
        build_cohort(DAY, [_meta("Late", day="2006-03-11")], RedirectTable(), {"Hoax_page"})


_DAYS = [date(2006, 3, 10), date(2006, 3, 11), date(2006, 3, 12)]
_TITLES = ["A", "B", "C", "D", "E", "F"]
# One creation row: title, day, is_redirect, redirect target. Few titles, so that
# titles repeat, within a day and across days, and redirect sources are also
# article rows.
_CREATION_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_TITLES),
        st.sampled_from(_DAYS),
        st.booleans(),
        st.sampled_from(["", "Elsewhere", *_TITLES]),
    ),
    max_size=20,
)


def _brute_force_cohort(day, rows, hoax_titles) -> list[str]:
    """The article rows of day, minus hoaxes and every title that a redirect row
    with a target names as its source, straight from the definition."""
    sources = {title for title, _, redirect, target in rows if redirect and target}
    return sorted(
        {
            title
            for title, created, redirect, _ in rows
            if created == day and not redirect and title not in sources | hoax_titles
        }
    )


@settings(max_examples=150, deadline=None)
@given(
    rows=_CREATION_ROWS,
    hoaxes=st.dictionaries(st.sampled_from([*_TITLES, "H1", "H2"]), st.sampled_from(_DAYS)),
    data=st.data(),
)
def test_build_cohort_matches_brute_force_filter(rows, hoaxes, data):
    """build_cohort is the brute-force filter whatever the row order, and the
    cohort stage writes that day's members under every hoax created on it."""
    hoax_titles = set(hoaxes)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "creations.csv").write_text(
            "title,created_at,is_redirect,redirect_target\n"
            + "".join(f"{t},{d}T08:00:00Z,{int(r)},{to}\n" for t, d, r, to in rows),
            encoding="utf-8",
        )
        (root / "hoaxes.csv").write_text(
            "title,created_at\n" + "".join(f"{t},{d}T12:00:00Z\n" for t, d in hoaxes.items()),
            encoding="utf-8",
        )
        keys = {"hoax_list": "hoaxes.csv", "creation_lists": "creations.csv", "out": "out"}
        (root / "config.json").write_text(json.dumps(keys), encoding="utf-8")
        metas, redirects = load_creation_list(root / "creations.csv")
        for day in _DAYS:
            want = _brute_force_cohort(day, rows, hoax_titles)
            same_day = [meta for meta in metas if meta.creation_date == day]
            assert build_cohort(day, same_day, redirects, hoax_titles) == want
            shuffled = data.draw(st.permutations(same_day))
            assert build_cohort(day, shuffled, redirects, hoax_titles) == want
        assert cli.main(["cohort", "--config", str(root / "config.json")]) == 0
        written: dict[str, list[str]] = {}
        for _, (hoax, day, member) in iter_csv(root / "out" / "cohorts.csv", cli.COHORTS_HEADER):
            assert day == hoaxes[hoax].isoformat()
            written.setdefault(hoax, []).append(member)
        header = cli.HOAX_EXCLUSIONS_HEADER
        empty = {hoax for _, (hoax, _) in iter_csv(root / "out" / "cohort_exclusions.csv", header)}
    for hoax, day in hoaxes.items():
        want = _brute_force_cohort(day, rows, hoax_titles)
        assert written.get(hoax, []) == want
        assert (hoax in empty) == (not want)


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
