"""Pipeline commands: config handling, outputs, determinism, exit codes."""

import csv
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthgen
from hoaxlens import attention, cli, corpus, logstore, svgplot, wikitext


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One small elevated corpus with the full pipeline already run."""
    root = tmp_path_factory.mktemp("cli-run")
    config = synthgen.generate(
        root,
        elevated=True,
        seed=13,
        n_hoaxes=4,
        hoaxes_per_day=2,
        cohort_size=6,
        neighbors=3,
        daily_rate=96.0,
        slots_per_day=2,
        resamples=1000,
        config_seed=5,
    )
    for command in ["ingest", "cohort", "features", "attention", "report"]:
        assert cli.main([command, "--config", str(config)]) == 0
    return root


def test_outputs_exist(run_dir):
    out = run_dir / "out"
    for name in [
        "ingest_report.json",
        "cohorts.csv",
        "cohort_exclusions.csv",
        "features.csv",
        "zscores.csv",
        "results.csv",
        "cohort_scores.csv",
        "attention_exclusions.csv",
        "summary.json",
        "d_histogram.csv",
        "bootstrap_means_histogram.csv",
    ]:
        assert (out / name).exists(), name
    assert (out / "store" / "manifest.txt").exists()


def test_ingest_report_contents(run_dir):
    report = json.loads((run_dir / "out" / "ingest_report.json").read_text())
    # Four malformed junk lines: too few fields, too many, bad count, blank.
    assert report["tallies"]["lines_malformed"] == 4
    assert report["tallies"]["lines_dropped_filter"] >= 4
    assert report["tallies"]["lines_dropped_title"] == 2
    assert report["tallies"]["files_unreadable"] == 0
    assert len(report["files"]) == report["tallies"]["files_processed"]
    total = sum(f["lines_total"] for f in report["files"])
    assert total == report["tallies"]["lines_total"]


def test_cohort_outputs(run_dir):
    rows = (run_dir / "out" / "cohorts.csv").read_text().splitlines()
    assert rows[0] == "hoax_title,creation_date,member_title"
    # 4 hoaxes x 6 members; redirect rows collapsed away, hoaxes excluded.
    assert len(rows) == 1 + 4 * 6
    members = {r.split(",")[2] for r in rows[1:]}
    assert not any(m.startswith("Synth_hoax") for m in members)
    assert not any(m.startswith("Samendir") for m in members)


def test_features_csv_shape(run_dir):
    rows = (run_dir / "out" / "features.csv").read_text().splitlines()
    assert rows[0] == "title,plain_length,ratio,wikilink_density,extlink_density"
    # 4 hoaxes + 12 distinct members.
    assert len(rows) == 1 + 16
    z_rows = (run_dir / "out" / "zscores.csv").read_text().splitlines()
    assert z_rows[0] == "hoax_title,feature,value,cohort_median,cohort_mad,z,flag"
    # One row per hoax per feature.
    assert len(z_rows) == 1 + 4 * 4


def test_results_and_summary(run_dir):
    rows = (run_dir / "out" / "results.csv").read_text().splitlines()
    assert rows[0] == "hoax_title,delta_v,cohort_mean,cohort_n,D"
    assert len(rows) == 1 + 4
    summary = json.loads((run_dir / "out" / "summary.json").read_text())
    assert summary["n_results"] == 4
    assert summary["n_hoaxes"] == 4
    assert summary["seed"] == 5
    assert summary["resamples"] == 1000
    assert summary["ci"][0] <= summary["sample_mean"] <= summary["ci"][1]
    # Elevation makes every planted hoax drop after creation.
    assert summary["d_positive"] == 4
    # Every hoax lands in results or exclusions, never both, never neither.
    excl = (run_dir / "out" / "attention_exclusions.csv").read_text().splitlines()[1:]
    result_titles = {r.split(",")[0] for r in rows[1:]}
    excluded_titles = {r.split(",")[0] for r in excl if r}
    assert result_titles | excluded_titles == {f"Synth_hoax_{i:02d}" for i in range(4)}
    assert not result_titles & excluded_titles


def test_report_plots(run_dir):
    plots = run_dir / "out" / "plots"
    svgs = sorted(p.name for p in plots.glob("*.svg"))
    assert "d_histogram.svg" in svgs
    assert len([s for s in svgs if s.startswith("cohort_")]) == 4
    body = (plots / "d_histogram.svg").read_text()
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")


def test_attention_rerun_is_byte_identical(run_dir, tmp_path):
    config = run_dir / "config.json"
    out = run_dir / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert cli.main(["attention", "--config", str(config)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    for name in ["results.csv", "summary.json", "cohort_scores.csv", "d_histogram.csv"]:
        assert first[name] == second[name], name


def test_seed_override_applied(run_dir):
    config = run_dir / "config.json"
    out = run_dir / "out"
    baseline = json.loads((out / "summary.json").read_text())
    assert cli.main(["attention", "--config", str(config), "--seed", "99"]) == 0
    changed = json.loads((out / "summary.json").read_text())
    assert changed["seed"] == 99
    assert changed["sample_mean"] == baseline["sample_mean"]
    # The resample stream must really come from the overridden seed.
    d_values = [
        float(r.split(",")[4])
        for r in (out / "results.csv").read_text().splitlines()[1:]
    ]
    expected = attention.bootstrap_mean_ci(d_values, resamples=1000, seed=99)
    assert changed["ci"] == [expected.ci_low, expected.ci_high]
    means = attention.bootstrap_resample_means(d_values, resamples=1000, seed=99)
    _, counts = svgplot.compute_histogram(means, bins=20)
    hist_rows = (out / "bootstrap_means_histogram.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[2]) for r in hist_rows] == counts.tolist()
    # Restore for any later test using the same module fixture.
    assert cli.main(["attention", "--config", str(config)]) == 0


def test_missing_config_is_input_error(tmp_path):
    assert cli.main(["ingest", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize(
    "overrides, logs, offender",
    [
        ({"notes.txt": "en Physics 5 10\n"}, "notes.txt", "notes.txt"),
        ({"bad/pagecounts-20070310-000000.gz": "not gzip"}, "bad", "pagecounts-20070310-000000.gz"),
        ({"redirects.tsv": "Old New\n"}, "logs", "redirects.tsv"),
        ({"filter.conf": "# no project line\n"}, "logs", "filter.conf"),
        ({"logs/pagecounts-20070310-000000.gz": ""}, "logs", "pagecounts-20070310-000000.gz"),
    ],
    ids=["non_hourly_file", "all_unreadable", "redirect_without_tab", "no_project", "hour_twice"],
)
def test_ingest_input_errors_exit_1(tmp_path, capsys, overrides, logs, offender):
    inputs = {
        "logs/pagecounts-20070310-000000": "en Physics 5 10\n",
        "filter.conf": "en\nTalk:\n",
        "redirects.tsv": "Old\tNew\n",
        **overrides,
    }
    for name, text in inputs.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    config = tmp_path / "config.json"
    keys = {"filter_config": "filter.conf", "redirect_table": "redirects.tsv", "out": "out"}
    config.write_text(json.dumps({"logs": logs, **keys}))
    rc = cli.main(["ingest", "--config", str(config)])
    assert rc == 1
    assert offender in capsys.readouterr().err


def test_report_before_attention_names_missing_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": "out"}))
    rc = cli.main(["report", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "results.csv" in captured.err


def test_features_before_cohort_fails_cleanly(tmp_path):
    root = tmp_path / "fresh"
    config = synthgen.generate(
        root,
        elevated=False,
        seed=2,
        n_hoaxes=2,
        hoaxes_per_day=2,
        cohort_size=3,
        neighbors=2,
        daily_rate=40.0,
        slots_per_day=1,
        resamples=200,
    )
    assert cli.main(["features", "--config", str(config)]) == 1


def test_unknown_command_exits_nonzero():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_config_bad_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert cli.main(["ingest", "--config", str(config)]) == 1


def test_config_validation(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"span": 0}))
    assert cli.main(["ingest", "--config", str(config)]) == 1
    config.write_text(json.dumps({"resamples": 0}))
    assert cli.main(["ingest", "--config", str(config)]) == 1


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"span": "abc"}', "'span'"),
        ('{"span": 2.5}', "'span'"),
        ('{"resamples": true}', "'resamples'"),
        ('{"seed": -1}', "unsigned 64-bit"),
        ('{"seed": 18446744073709551616}', "unsigned 64-bit"),
        ('{"histogram_bins": 0}', "'histogram_bins'"),
        ("[1, 2]", "JSON object"),
        ('{"logs": 5}', "'logs'"),
    ],
    ids=[
        "span_not_integer",
        "span_float",
        "resamples_bool",
        "seed_negative",
        "seed_too_large",
        "histogram_bins_zero",
        "not_an_object",
        "path_not_string",
    ],
)
def test_config_bad_value_is_input_error(tmp_path, capsys, text, named):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(config) in err
    assert named in err


@pytest.mark.parametrize(
    "command, name, row",
    [
        ("features", "cohorts.csv", "A,2007-03-10"),
        ("features", "cohorts.csv", "A,2007-13-10,B"),
        ("features", "cohort_exclusions.csv", "A"),
        ("report", "results.csv", "A,0.5,0.1,1"),
        ("report", "results.csv", "A,0.5,0.1,1,high"),
        ("report", "cohort_scores.csv", "A,B"),
    ],
    ids=[
        "cohort_two_fields",
        "cohort_bad_date",
        "exclusion_one_field",
        "results_four_fields",
        "results_not_a_number",
        "scores_two_fields",
    ],
)
def test_malformed_upstream_row_is_input_error(tmp_path, capsys, command, name, row):
    out = tmp_path / "out"
    out.mkdir()
    upstream = {
        "cohorts.csv": "hoax_title,creation_date,member_title\nA,2007-03-10,B\n",
        "cohort_exclusions.csv": "hoax_title,reason\n",
        "results.csv": "hoax_title,delta_v,cohort_mean,cohort_n,D\nA,0.5,0.1,1,0.4\n",
        "cohort_scores.csv": "hoax_title,member_title,delta_v\nA,B,0.1\n",
    }
    for file_name, text in upstream.items():
        if file_name == name:
            text = text.splitlines()[0] + "\n" + row + "\n"
        (out / file_name).write_text(text)
    (out / "summary.json").write_text("{}")
    (tmp_path / "hoaxes.csv").write_text("title,created_at\nA,2007-03-10T00:00:00Z\n")
    (tmp_path / "fixtures").mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hoax_list": "hoaxes.csv", "fixtures": "fixtures", "out": "out"}))
    assert cli.main([command, "--config", str(config)]) == 1
    assert f"{name}:2:" in capsys.readouterr().err


def _edit(name, edit):
    """Replace the bytes of store file name by edit(bytes)."""

    def corrupt(store):
        (store / name).write_bytes(edit((store / name).read_bytes()))

    return corrupt


def _old_tsv_layout(store):
    """A store directory in the 16-shard TSV layout, which load_store does not read."""
    for name in ("titles.txt", "keys.npy", "views.npy"):
        (store / name).unlink()
    with open(store / "manifest.txt", "a") as fh:
        fh.write("shards=16\n")
    (store / "shard-0000.tsv").write_text("Synth_hoax_00\t2007-03-10\t5\n")


@pytest.mark.parametrize(
    "corrupt",
    [
        _edit("keys.npy", lambda data: data[: len(data) // 2]),
        _edit("keys.npy", lambda data: b""),
        _edit("titles.txt", lambda data: data.partition(b"\n")[2]),
        _edit("manifest.txt", lambda data: data.replace(b"coverage_start=", b"start=")),
        _old_tsv_layout,
    ],
    ids=["keys_truncated", "keys_empty", "titles_line_missing", "no_coverage_start", "old_tsv_layout"],
)
def test_bad_store_is_input_error(run_dir, tmp_path, capsys, corrupt):
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    corrupt(root / "out" / "store")
    assert cli.main(["attention", "--config", str(root / "config.json")]) == 1
    assert str(root / "out" / "store") in capsys.readouterr().err


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("stale", ["shard-0000.tsv", "notes/keys.npy"])
def test_ingest_refuses_store_dir_with_other_files(run_dir, tmp_path, capsys, monkeypatch, stale):
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    store = root / "out" / "store"
    (store / stale).parent.mkdir(exist_ok=True)
    (store / stale).write_text("Synth_hoax_00\t2007-03-10\t5\n")
    before = _tree_bytes(root)

    def no_read(*args):
        pytest.fail("ingest read the logs before checking the store directory")

    monkeypatch.setattr(logstore, "ingest", no_read)
    assert cli.main(["ingest", "--config", str(root / "config.json")]) == 1
    err = capsys.readouterr().err
    assert str(store) in err
    assert stale.partition("/")[0] in err
    assert _tree_bytes(root) == before


def test_ingest_rerun_into_own_store_is_byte_identical(run_dir, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    before = _tree_bytes(root / "out" / "store")
    assert cli.main(["ingest", "--config", str(root / "config.json")]) == 0
    assert _tree_bytes(root / "out" / "store") == before


def test_config_paths_relative_to_config_file(tmp_path):
    nested = tmp_path / "deep" / "nest"
    nested.mkdir(parents=True)
    config = nested / "config.json"
    config.write_text(json.dumps({"hoax_list": "hoaxes.csv", "out": "out"}))
    (nested / "hoaxes.csv").write_text("title,created_at\n")
    cfg = cli.RunConfig.load(config)
    assert Path(cfg.hoax_list) == nested / "hoaxes.csv"
    assert Path(cfg.out) == nested / "out"


def test_missing_fixture_becomes_exclusion(run_dir, tmp_path):
    # Copy the corpus, delete one hoax fixture, re-run features and attention.
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    (root / "fixtures" / "Synth_hoax_00.wiki").unlink()
    config = root / "config.json"
    assert cli.main(["features", "--config", str(config)]) == 0
    assert cli.main(["attention", "--config", str(config)]) == 0
    excl = (root / "out" / "attention_exclusions.csv").read_text().splitlines()
    assert "Synth_hoax_00,no_fixture" in excl
    rows = (root / "out" / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 3


def _copy_run(run_dir, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    return root, root / "config.json"


def test_features_rerun_is_byte_identical(run_dir, tmp_path):
    root, config = _copy_run(run_dir, tmp_path)
    assert cli.main(["features", "--config", str(config)]) == 0
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")


def test_attention_runs_without_fixtures(run_dir, tmp_path):
    root, config = _copy_run(run_dir, tmp_path)
    shutil.rmtree(root / "fixtures")
    keys = json.loads(config.read_text())
    del keys["fixtures"]
    config.write_text(json.dumps(keys))
    assert cli.main(["attention", "--config", str(config)]) == 0
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")


def _drop_row(title):
    prefix = title.encode() + b","

    def edit(data):
        return b"".join(line for line in data.splitlines(True) if not line.startswith(prefix))

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (None, "run features first"),
        (lambda data: data + b"A,B,C\n", ":18: expected 2 fields, got 3"),
        (lambda data: data + b"A,Z|B\n", ":18: neighbors not sorted"),
        (lambda data: data + b"A,B||C\n", ":18: neighbors not sorted"),
        (lambda data: data + b"A,|B\n", ":18: neighbors not sorted"),
        (lambda data: data + data.splitlines(True)[1], ":18: empty or repeated title"),
        (lambda data: data + b"A,\xff\n", "not valid UTF-8"),
        (_drop_row("Synth_hoax_00"), "no row for 'Synth_hoax_00'"),
        (_drop_row("Cohort_d0_m01"), "no row for 'Cohort_d0_m01'"),
    ],
    ids=[
        "missing",
        "three_fields",
        "unsorted",
        "empty_name",
        "empty_first_name",
        "repeated_title",
        "not_utf8",
        "stale_hoax",
        "stale_member",
    ],
)
def test_bad_neighbor_table_is_input_error(run_dir, tmp_path, capsys, edit, named):
    root, config = _copy_run(run_dir, tmp_path)
    path = root / "out" / "neighbors.csv"
    if edit is None:
        path.unlink()
    else:
        path.write_bytes(edit(path.read_bytes()))
    assert cli.main(["attention", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert named in err


def test_neighbor_table_holds_empty_articles(run_dir, tmp_path):
    """Markup without words can still link: [[!]] is an empty_article for features
    and is scored on the traffic of "!" by attention."""
    root, config = _copy_run(run_dir, tmp_path)
    (root / "fixtures" / "Synth_hoax_00.wiki").write_text("[[!]]", encoding="utf-8")
    # Synth_hoax_00 is created on 2007-03-10: 5 views an hour before, 1 after.
    for log in (root / "logs").iterdir():
        day = log.name.split("-")[1]
        if log.suffix != ".gz" and day != "20070310":
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"en ! {5 if day < '20070310' else 1} 1\n")
    for command in ["ingest", "features", "attention"]:
        assert cli.main([command, "--config", str(config)]) == 0
    out = root / "out"
    assert "Synth_hoax_00,empty_article" in (out / "feature_exclusions.csv").read_text()
    assert "Synth_hoax_00,!\n" in (out / "neighbors.csv").read_text()
    rows = {r.split(",")[0]: r.split(",") for r in (out / "results.csv").read_text().splitlines()}
    _, dv, cohort_mean, _, d = rows["Synth_hoax_00"]
    # Two hours a day: daily medians 10 before and 2 after.
    assert float(dv) == (10 - 2) / (10 + 2)
    assert float(d) == float(dv) - float(cohort_mean)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    """A small corpus with ingest and cohort run, and features not yet."""
    root = tmp_path_factory.mktemp("cli-cohort")
    config = synthgen.generate(
        root,
        elevated=False,
        seed=3,
        n_hoaxes=2,
        hoaxes_per_day=2,
        cohort_size=3,
        neighbors=2,
        daily_rate=40.0,
        slots_per_day=1,
        resamples=200,
    )
    for command in ["ingest", "cohort"]:
        assert cli.main([command, "--config", str(config)]) == 0
    return root


def _write_bytes(name, data):
    def mutate(root):
        (root / name).write_bytes(data)

    return mutate


def _append_bytes(name, data):
    def mutate(root):
        with open(root / name, "ab") as fh:
            fh.write(data)

    return mutate


def _empty_creation_dir(root):
    (root / "lists").mkdir()
    keys = json.loads((root / "config.json").read_text())
    keys["creation_lists"] = "lists"
    (root / "config.json").write_text(json.dumps(keys))


@pytest.mark.parametrize(
    "mutate, before, command, named",
    [
        (_write_bytes("fixtures/Synth_hoax_00.wiki", b"[[A]] \xff"), [], "features",
         "Synth_hoax_00.wiki"),
        (_write_bytes("fixtures/Synth_hoax_00.txt", b"\xff"), [], "features", "Synth_hoax_00.txt"),
        (_write_bytes("fixtures/Synth_hoax_00.wiki", b"\xff"), ["features"], "attention",
         "neighbors.csv"),
        (_append_bytes("hoaxes.csv", b"Caf\xe9,2007-03-10T08:00:00Z\n"), [], "cohort",
         "hoaxes.csv:4:"),
        (_append_bytes("creations.csv", b"Caf\xe9,2007-03-10T08:00:00Z,0,\n"), [], "cohort",
         "creations.csv:10:"),
        (_empty_creation_dir, [], "cohort", "lists"),
    ],
    ids=[
        "fixture_not_utf8",
        "plain_extract_not_utf8",
        "fixture_not_utf8_then_attention",
        "hoaxes_not_utf8",
        "creation_list_not_utf8",
        "creation_dir_without_csv",
    ],
)
def test_unreadable_input_is_input_error(
    cohort_dir, tmp_path, capsys, mutate, before, command, named
):
    root = tmp_path / "copy"
    shutil.copytree(cohort_dir, root)
    mutate(root)
    config = str(root / "config.json")
    for earlier in before:
        cli.main([earlier, "--config", config])
    capsys.readouterr()
    assert cli.main([command, "--config", config]) == 1
    assert named in capsys.readouterr().err


# Canonical titles, among them ones csv must quote and one fixture_filename encodes.
_ARTICLES = ["Self_page", "Café", "AC/DC", "!", "Known_hoax", 'Q,"uote"', "Zürich"]
_LINK_FORMS = ["[[{t}]]", "[[{s}]]", "[[{l}]]", "[[{t}|label]]", "[[{t}#Section]]", "[[ {s} ]]"]
_MARKUP_PIECES = st.one_of(
    st.builds(
        lambda t, form: form.format(t=t, s=t.replace("_", " "), l=t[:1].lower() + t[1:]),
        st.sampled_from(_ARTICLES),
        st.sampled_from(_LINK_FORMS),
    ),
    st.sampled_from(
        [
            " ",
            "Some words. ",
            "[[]]",
            "[[#Lead]]",
            "[[Category:Café]]",
            "[[File:AC/DC.png|thumb|x]]",
            "[[Image:X.jpg]]",
            "[[fr:Café]]",
            "[[:Category:Self page]]",
            "{{Infobox|[[Other_page]]}}",
            "[[A|B]]",
            "[[Bad<title]]",
        ]
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    articles=st.dictionaries(
        st.sampled_from(_ARTICLES), st.lists(_MARKUP_PIECES, max_size=8).map("".join), min_size=1
    ),
    hoaxes=st.sets(st.sampled_from(_ARTICLES)),
)
def test_neighbor_table_matches_neighbor_set(articles, hoaxes):
    """What attention reads back from neighbors.csv is neighbor_set of the fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "fixtures").mkdir()
        (root / "out").mkdir()
        for title, markup in articles.items():
            path = root / "fixtures" / wikitext.fixture_filename(title, ".wiki")
            path.write_text(markup, encoding="utf-8")
        with open(root / "hoaxes.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["title", "created_at"])
            writer.writerows([title, "2007-03-10T08:00:00Z"] for title in sorted(hoaxes))
        with open(root / "out" / "cohorts.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["hoax_title", "creation_date", "member_title"])
            writer.writerows(["No_fixture", "2007-03-10", title] for title in sorted(articles))
        config = root / "config.json"
        keys = {"hoax_list": "hoaxes.csv", "fixtures": "fixtures", "out": "out"}
        config.write_text(json.dumps(keys))
        assert cli.main(["features", "--config", str(config)]) == 0
        got = cli._read_neighbors(root / "out")
    want = {}
    for title, markup in articles.items():
        try:
            links = wikitext.extract_wikilinks(markup)
            want[title] = sorted(corpus.neighbor_set(title, links, hoaxes))
        except corpus.NoNeighbors:
            want[title] = []
    assert got == want
