"""Pipeline commands: config handling, outputs, determinism, exit codes."""

import json
import shutil
from pathlib import Path

import pytest

import synthgen
from hoaxlens import attention, cli, logstore, svgplot


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
    # Copy the corpus, delete one hoax fixture, re-run attention.
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    (root / "fixtures" / "Synth_hoax_00.wiki").unlink()
    config = root / "config.json"
    assert cli.main(["attention", "--config", str(config)]) == 0
    excl = (root / "out" / "attention_exclusions.csv").read_text().splitlines()
    assert "Synth_hoax_00,no_fixture" in excl
    rows = (root / "out" / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 3
