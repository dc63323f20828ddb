"""Pipeline commands: config handling, outputs, determinism, exit codes."""

import csv
import errno
import gzip
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthgen
from hoaxlens import attention, cli, corpus, forkpool, logstore, svgplot, wikitext


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


def test_seed_override_applied(run_dir, tmp_path):
    root, config = _copy_run(run_dir, tmp_path)
    out = root / "out"
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
    assert [int(r.split(",")[2]) for r in hist_rows] == list(counts)


def test_common_options_before_or_after_command(run_dir, tmp_path):
    """--config and --seed apply before the command name; given on both sides of
    it, the one after it wins."""
    root, config = _copy_run(run_dir, tmp_path)
    missing = str(tmp_path / "missing.json")
    assert cli.main(["--config", missing, "attention", "--config", str(config)]) == 0
    assert cli.main(["--config", str(config), "attention", "--config", missing]) == 1
    summary = root / "out" / "summary.json"
    assert cli.main(["--seed", "99", "--config", str(config), "attention"]) == 0
    assert json.loads(summary.read_text())["seed"] == 99
    assert cli.main(["--seed", "99", "attention", "--seed", "7", "--config", str(config)]) == 0
    assert json.loads(summary.read_text())["seed"] == 7


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
        ({"logs/pagecounts-20090302-250000": ""}, "logs", "pagecounts-20090302-250000"),
        ({"logs/pagecounts-20090230-010000": ""}, "logs", "pagecounts-20090230-010000"),
        # Each alias's views are in range in the file; folded into New they are not.
        (
            {
                "logs/pagecounts-20070310-000000": f"en Old {2**62} 10\nen Older {2**62} 10\n",
                "redirects.tsv": "Old\tNew\nOlder\tNew\n",
            },
            "logs",
            "int64 range",
        ),
    ],
    ids=[
        "non_hourly_file",
        "all_unreadable",
        "redirect_without_tab",
        "no_project",
        "hour_twice",
        "no_such_hour",
        "no_such_date",
        "aliases_sum_beyond_int64",
    ],
)
def test_ingest_input_errors_exit_1(tmp_path, capsys, overrides, logs, offender):
    config = _ingest_run(tmp_path, overrides, logs)
    rc = cli.main(["ingest", "--config", str(config)])
    assert rc == 1
    assert offender in capsys.readouterr().err


def _ingest_run(root, overrides, logs="logs"):
    """Write one good log, a filter and a redirect table, then the overrides
    (text or bytes by name) under root; returns the config path."""
    inputs = {
        "logs/pagecounts-20070310-000000": "en Physics 5 10\n",
        "filter.conf": "en\nTalk:\n",
        "redirects.tsv": "Old\tNew\n",
        **overrides,
    }
    for name, data in inputs.items():
        (root / name).parent.mkdir(exist_ok=True)
        if isinstance(data, bytes):
            (root / name).write_bytes(data)
        else:
            (root / name).write_text(data)
    config = root / "config.json"
    keys = {"filter_config": "filter.conf", "redirect_table": "redirects.tsv", "out": "out"}
    config.write_text(json.dumps({"logs": logs, **keys}))
    return config


def _damaged_gzip_log() -> bytes:
    """20,000 lines in two gzip members, the second with its first deflate block
    marked with the reserved block type, so reading fails with zlib.error after
    the first member's lines."""
    text = "".join(f"en Title_{i % 997} {i % 13} 10\n" for i in range(20_000)).encode()
    half = len(text) // 2
    damaged = bytearray(gzip.compress(text[half:], mtime=0))
    damaged[10] |= 0b110  # the deflate stream follows the 10-byte header
    return gzip.compress(text[:half], mtime=0) + bytes(damaged)


def test_damaged_gzip_log_is_skipped_as_unreadable(tmp_path):
    bad = "pagecounts-20070310-010000.gz"
    config = _ingest_run(tmp_path, {f"logs/{bad}": _damaged_gzip_log()})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "ingest_report.json").read_text())
    assert report["unreadable"] == [bad]
    assert report["tallies"]["files_unreadable"] == 1
    assert report["tallies"]["files_processed"] == 1
    assert report["tallies"]["lines_kept"] == 1
    store = logstore.load_store(tmp_path / "out" / "store")
    assert store.titles == ["Physics"]
    assert store.views.tolist() == [5]


@pytest.mark.parametrize(
    "count, offender",
    [
        ("9" * 30, "pagecounts-20070310-010000"),
        ("9" * 5000, "pagecounts-20070310-010000"),
        (str(2**63 - 1), "total views"),
    ],
    ids=["beyond_int64", "beyond_int_digit_limit", "sum_beyond_int64"],
)
def test_count_beyond_int64_is_input_error(tmp_path, capsys, count, offender):
    """A count beyond int64 names its log; counts that pass it only when two
    files are added together stop at the total."""
    config = _ingest_run(tmp_path, {"logs/pagecounts-20070310-010000": f"en Physics {count} 10\n"})
    assert cli.main(["ingest", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert offender in err
    assert "int64 range" in err


@pytest.mark.parametrize("end", ["", "\n"], ids=["no_final_newline", "final_newline"])
def test_bad_last_redirect_row_stops_before_any_log_is_read(tmp_path, capsys, monkeypatch, end):
    def read_logs(*args):
        raise AssertionError("ingest read the logs")

    monkeypatch.setattr(logstore, "_ingest_file", read_logs)
    config = _ingest_run(tmp_path, {"redirects.tsv": "Old\tNew\nA\tB\nBroken" + end})
    assert cli.main(["ingest", "--config", str(config)]) == 1
    assert "redirects.tsv:3: expected source<TAB>target" in capsys.readouterr().err


@pytest.mark.parametrize("logged, warned", [("Physics", False), ("Loop_a", True)])
def test_redirect_cycle_warns_only_when_a_logged_title_reaches_it(
    tmp_path, caplog, logged, warned
):
    table = "Loop_a\tLoop_b\nLoop_b\tLoop_a\nOld\tNew\n"
    log = f"en {logged} 5 10\n"
    config = _ingest_run(tmp_path, {"redirects.tsv": table, "logs/pagecounts-20070310-000000": log})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert any("redirect cycle" in r.getMessage() for r in caplog.records) == warned


def test_verbose_ingest_logs_kept_redirect_rows(tmp_path):
    """Old reaches Mid, Mid reaches New, and a third pass finds no row for New.
    -v works after the command name and before it."""
    table = "Old\tMid\nUnrelated\tElsewhere\nMid\tNew\n"
    log = "en Old 5 10\n"
    config = _ingest_run(tmp_path, {"redirects.tsv": table, "logs/pagecounts-20070310-000000": log})
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv in (["ingest", "-v"], ["-v", "ingest"]):
        proc = subprocess.run(
            [sys.executable, "-m", "hoaxlens.cli", *argv, "--config", str(config)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "kept 2 of 3 redirect rows in 3 passes" in proc.stderr
        assert logstore.load_store(tmp_path / "out" / "store").titles == ["New"]


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


def test_config_ignores_unknown_key(tmp_path, caplog):
    """A key that is not a setting, such as histogram_bins, which was one, is
    named in a warning and ignored."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"histogram_bins": 0, "span": 3}))
    with caplog.at_level(logging.WARNING, logger="hoaxlens.cli"):
        cfg = cli.RunConfig.load(config)
    assert f"config {config}: ignoring unknown key 'histogram_bins'" in caplog.messages
    assert cfg == cli.RunConfig(span=3)


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"span": "abc"}', "'span'"),
        ('{"span": 2.5}', "'span'"),
        ('{"resamples": true}', "'resamples'"),
        ('{"seed": -1}', "unsigned 64-bit"),
        ('{"seed": 18446744073709551616}', "unsigned 64-bit"),
        ("[1, 2]", "JSON object"),
        ('{"logs": 5}', "'logs'"),
        ('{"out": null}', "'out'"),
        ("[" * 100_000, "not valid JSON"),
        (b"\xff", "not valid JSON"),
    ],
    ids=[
        "span_not_integer",
        "span_float",
        "resamples_bool",
        "seed_negative",
        "seed_too_large",
        "not_an_object",
        "path_not_string",
        "out_null",
        "nested_too_deep",
        "not_utf8",
    ],
)
def test_config_bad_value_is_input_error(tmp_path, capsys, text, named):
    config = tmp_path / "config.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
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
        ("report", "results.csv", "A,0.5,0.1,1,inf"),
        ("report", "results.csv", "A,0.5,0.1,1,nan"),
        ("report", "results.csv", "A,-inf,0.1,1,0.4"),
        ("report", "cohort_scores.csv", "A,B,NaN"),
    ],
    ids=[
        "cohort_two_fields",
        "cohort_bad_date",
        "exclusion_one_field",
        "results_four_fields",
        "results_not_a_number",
        "scores_two_fields",
        "results_infinite_d",
        "results_nan_d",
        "results_infinite_delta_v",
        "scores_nan",
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


def test_report_span_too_wide_to_bin_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "results.csv").write_text(
        "hoax_title,delta_v,cohort_mean,cohort_n,D\nA,0.5,0.1,1,1e308\nB,0.5,0.1,1,-1e308\n"
    )
    (out / "cohort_scores.csv").write_text("hoax_title,member_title,delta_v\nA,C,0.1\n")
    (out / "summary.json").write_text("{}")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": "out"}))
    assert cli.main(["report", "--config", str(config)]) == 1
    assert "results.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        "{",
        "[1]",
        '{"ci": [0.1], "sample_mean": "x"}',
        '{"ci": 5, "sample_mean": 0.1}',
        "[" * 100_000,
    ],
    ids=["not_json", "not_an_object", "mean_not_a_number", "ci_not_a_pair", "nested_too_deep"],
)
def test_report_bad_summary_is_input_error(tmp_path, capsys, body):
    out = tmp_path / "out"
    out.mkdir()
    (out / "results.csv").write_text("hoax_title,delta_v,cohort_mean,cohort_n,D\nA,0.5,0.1,1,0.4\n")
    (out / "cohort_scores.csv").write_text("hoax_title,member_title,delta_v\nA,C,0.1\n")
    (out / "summary.json").write_text(body)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": "out"}))
    assert cli.main(["report", "--config", str(config)]) == 1
    assert "summary.json" in capsys.readouterr().err


# Runs a command as `python -m hoaxlens.cli` does, with every pool forced to the
# worker count in argv[1] when it is above 1, then reports which of numpy,
# numpy.ma and a pool library it loaded, and the size of each pool it forked.
# The entrypoint ends the process with os._exit; the probe's own process turns it
# into SystemExit, so that the probe can report, while forked workers still exit.
_IMPORT_PROBE = """
import json, os, runpy, sys
workers, sys.argv = int(sys.argv[1]), ["hoaxlens", *sys.argv[2:]]
probe_pid, exit_now = os.getpid(), os._exit

def intercept_exit(code):
    if os.getpid() != probe_pid:
        exit_now(code)
    raise SystemExit(code)

os._exit = intercept_exit
pools = []
if workers > 1:
    from hoaxlens import forkpool

    fork_workers = forkpool._fork_workers

    def recording_fork_workers(*args):
        children = fork_workers(*args)
        pools.append(len(children))
        return children

    forkpool.worker_count = lambda *args: workers
    forkpool._fork_workers = recording_fork_workers
try:
    runpy.run_module("hoaxlens.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
watched = ["numpy", "numpy.ma", "multiprocessing", "concurrent.futures"]
loaded = [m for m in watched if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded, "pools": pools}))
"""


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """script, run in a fresh interpreter that imports hoaxlens from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _run_stage(*args: str, stdout=subprocess.PIPE, unbuffered=True) -> subprocess.CompletedProcess:
    """python -m hoaxlens.cli with args, as the console script runs it; its
    stdout is block-buffered unless unbuffered."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if unbuffered or k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "hoaxlens.cli", *args],
        env={**env, "PYTHONPATH": src},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_entrypoint_delivers_output_and_exit_code(run_dir, tmp_path, unbuffered):
    """The entrypoint ends the process without interpreter teardown, after
    flushing what a stage printed, on success and on failure."""
    _, config = _copy_run(run_dir, tmp_path)
    done = _run_stage("cohort", "--config", str(config), unbuffered=unbuffered)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "built 4 cohorts (24 member rows), 0 hoaxes excluded\n"
    failed = _run_stage("cohort", "--config", str(tmp_path / "none.json"), unbuffered=unbuffered)
    assert (failed.returncode, failed.stdout) == (1, "")
    assert failed.stderr == f"error: config file not found: {tmp_path / 'none.json'}\n"


def test_entrypoint_unflushable_stdout_is_exit_120(run_dir, tmp_path):
    """A summary line that cannot be flushed at exit, here into a pipe nobody
    reads, gives the interpreter's exit status for it."""
    _, config = _copy_run(run_dir, tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_stage("cohort", "--config", str(config), stdout=write_end, unbuffered=False)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert "Broken pipe" in proc.stderr


def _loaded_modules(run_dir, tmp_path, command, workers=1) -> list[str]:
    """The watched modules a command loads, run in a fresh interpreter on a copy of
    run_dir; with workers above 1, it must fork one pool of that many."""
    _, config = _copy_run(run_dir, tmp_path)
    argv = [command] if command == "--help" else [command, "--config", str(config)]
    proc = _run_python(_IMPORT_PROBE, str(workers), *argv)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["pools"] == ([] if workers == 1 else [workers])
    return result["loaded"]


@pytest.mark.parametrize("command", ["ingest", "cohort", "features", "report", "--help"])
def test_stage_starts_without_numpy(run_dir, tmp_path, command):
    """ingest, cohort, features, report and --help import only stdlib modules and
    numpy-free hoaxlens ones. ingest's pool workers are forked from this process."""
    assert "numpy" not in _loaded_modules(run_dir, tmp_path, command)


@pytest.mark.parametrize("command", ["cohort", "features", "report", "--help"])
def test_stage_starts_no_pool(run_dir, tmp_path, command):
    """cohort and report never start a worker pool, and features, on fewer articles
    than MIN_ARTICLES_PER_WORKER, does not either: none loads the pool's modules."""
    articles = len((run_dir / "out" / "features.csv").read_text().splitlines()) - 1
    assert articles < cli.MIN_ARTICLES_PER_WORKER
    assert _loaded_modules(run_dir, tmp_path, command) == []


@pytest.mark.parametrize("command", ["ingest", "features"])
def test_forked_pool_loads_no_pool_library(run_dir, tmp_path, command):
    """ingest and features fork their workers with neither multiprocessing nor
    concurrent.futures, nor numpy, loaded."""
    assert _loaded_modules(run_dir, tmp_path, command, workers=2) == []


def test_attention_never_loads_numpy_ma(run_dir, tmp_path):
    """The bootstrap CI is read without np.percentile, which imports numpy.ma."""
    assert _loaded_modules(run_dir, tmp_path, "attention") == ["numpy"]


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
    "line, key",
    [("lines_kept=99", "'lines_kept' given twice"), ("shards=16", "unknown key 'shards'")],
    ids=["repeated_key", "unknown_key"],
)
def test_bad_manifest_key_is_input_error(run_dir, tmp_path, capsys, line, key):
    """A manifest that repeats a key or holds one save_store does not write stops
    attention, rather than loading with the last value."""
    root, config = _copy_run(run_dir, tmp_path)
    with open(root / "out" / "store" / "manifest.txt", "a") as fh:
        fh.write(line + "\n")
    assert cli.main(["attention", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "manifest.txt" in err
    assert key in err


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


@pytest.mark.parametrize("name, lineno", [("titles.txt", 2), ("manifest.txt", 3)])
def test_store_text_not_utf8_names_line(run_dir, tmp_path, capsys, name, lineno):
    root, config = _copy_run(run_dir, tmp_path)
    path = root / "out" / "store" / name
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    assert cli.main(["attention", "--config", str(config)]) == 1
    assert f"{path}:{lineno}: not valid UTF-8" in capsys.readouterr().err


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


def test_report_removes_plots_of_unscored_hoax(run_dir, tmp_path):
    root, config = _copy_run(run_dir, tmp_path)
    (root / "fixtures" / "Synth_hoax_00.wiki").unlink()
    for command in ["features", "attention", "report"]:
        assert cli.main([command, "--config", str(config)]) == 0
    plots = sorted(p.name for p in (root / "out" / "plots").glob("cohort_*.svg"))
    assert plots == [f"cohort_Synth_hoax_{i:02d}.svg" for i in range(1, 4)]


def _copy_run(run_dir, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(run_dir, root)
    return root, root / "config.json"


def test_features_rerun_is_byte_identical(run_dir, tmp_path):
    root, config = _copy_run(run_dir, tmp_path)
    assert cli.main(["features", "--config", str(config)]) == 0
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def features_workers(request, monkeypatch):
    """The features stage's pool sizes, recorded, with one worker as on a corpus
    this small, or two forced with a worker for every article on two CPUs."""
    if request.param == 2:
        monkeypatch.setattr(cli, "MIN_ARTICLES_PER_WORKER", 1)
        monkeypatch.setattr(forkpool, "available_cpus", lambda: 2)
    started = []
    fork_workers = forkpool._fork_workers

    def recording_fork_workers(*args):
        children = fork_workers(*args)
        started.append(len(children))
        return children

    monkeypatch.setattr(forkpool, "_fork_workers", recording_fork_workers)
    yield started
    assert started == ([] if request.param == 1 else [2])


def test_features_same_bytes_whatever_the_workers(run_dir, tmp_path, features_workers):
    """One or two workers write the same bytes, exclusions and their order included."""
    root, config = _copy_run(run_dir, tmp_path)
    (root / "fixtures" / "Cohort_d0_m01.wiki").unlink()
    (root / "fixtures" / "Synth_hoax_00.wiki").write_text("[[!]]", encoding="utf-8")
    for name in cli.STAGE_OUTPUTS["features"]:
        (root / "out" / name).unlink()
    serial = tmp_path / "serial"
    shutil.copytree(root, serial)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forkpool, "worker_count", lambda *args: 1)
        assert cli.main(["features", "--config", str(serial / "config.json")]) == 0
    assert cli.main(["features", "--config", str(config)]) == 0
    for name in cli.STAGE_OUTPUTS["features"]:
        assert (root / "out" / name).read_bytes() == (serial / "out" / name).read_bytes(), name
    exclusions = (root / "out" / "feature_exclusions.csv").read_text()
    assert "Cohort_d0_m01,no_fixture" in exclusions
    assert "Synth_hoax_00,empty_article" in exclusions


def test_features_names_first_bad_fixture_in_title_order(
    run_dir, tmp_path, capsys, features_workers
):
    root, config = _copy_run(run_dir, tmp_path)
    titles = sorted(p.stem for p in (root / "fixtures").glob("*.wiki"))
    first, last = titles[2], titles[-1]
    for title in (last, first):
        (root / "fixtures" / f"{title}.wiki").write_bytes(b"[[A]] \xff")
    assert cli.main(["features", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{first}.wiki" in err
    assert f"{last}.wiki" not in err


# Runs features with a compute_features that raises, on the given number of CPUs
# and with a worker for every article.
_BROKEN_TASK_PROBE = """
import sys
from hoaxlens import cli, forkpool, wikitext

def broken(source, links):
    raise RuntimeError(f"cannot compute {source.title}")

wikitext.compute_features = broken
cli.MIN_ARTICLES_PER_WORKER = 1
forkpool.available_cpus = lambda: int(sys.argv[1])
sys.exit(cli.main(["features", "--config", sys.argv[2]]))
"""


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_worker", "two_workers"])
def test_features_task_error_is_exit_2(run_dir, tmp_path, cpus):
    """An unexpected exception in a task ends the stage with its traceback, pool or not."""
    _, config = _copy_run(run_dir, tmp_path)
    proc = _run_python(_BROKEN_TASK_PROBE, str(cpus), str(config))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" in proc.stderr
    assert "RuntimeError: cannot compute" in proc.stderr


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def attention_cpus(request, monkeypatch):
    """attention on one CPU, where it forks nothing, or on two, where it forks a
    table reader and a result writer; yields the CPUs and the pids forked here."""
    monkeypatch.setattr(forkpool, "available_cpus", lambda: request.param)
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield request.param, forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_attention_same_bytes_whatever_the_cpus(run_dir, tmp_path, monkeypatch, attention_cpus):
    """On one CPU, this process reads the tables after the store and writes the
    result tables before the bootstrap; on two, forked workers do both."""
    cpus, forks = attention_cpus
    root, config = _copy_run(run_dir, tmp_path)
    for name in cli.STAGE_OUTPUTS["attention"]:
        (root / "out" / name).unlink()
    steps = []

    def recorded(fn, step):
        """fn, recording step, or step(*args) when step is a function, at each call."""

        def call(*args, **kwargs):
            steps.append(step(*args) if callable(step) else step)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(logstore, "load_store", recorded(logstore.load_store, "store"))
    monkeypatch.setattr(cli, "_read_cohorts", recorded(cli._read_cohorts, "cohorts"))
    monkeypatch.setattr(cli, "_write_csv", recorded(cli._write_csv, lambda path, *_: path.name))
    boot = recorded(attention.bootstrap_mean_ci, "bootstrap")
    monkeypatch.setattr(attention, "bootstrap_mean_ci", boot)
    assert cli.main(["attention", "--config", str(config)]) == 0
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")
    written = ["results.csv", "cohort_scores.csv", "attention_exclusions.csv"]
    bootstrap = ["bootstrap", "d_histogram.csv", "bootstrap_means_histogram.csv"]
    if cpus == 1:
        assert forks == []
        assert steps == ["store", "cohorts", *written, *bootstrap]
    else:
        # The forked workers' reads and writes are not recorded in this process.
        assert len(forks) == 2
        assert steps == ["store", *bootstrap]


def test_attention_store_error_before_table_error(run_dir, tmp_path, capsys, attention_cpus):
    """An unreadable store is reported rather than a missing cohorts.csv, which a
    forked worker finds first; the worker is stopped."""
    cpus, forks = attention_cpus
    root, config = _copy_run(run_dir, tmp_path)
    _edit("keys.npy", lambda data: b"")(root / "out" / "store")
    (root / "out" / "cohorts.csv").unlink()
    assert cli.main(["attention", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"unreadable traffic store {root / 'out' / 'store'}" in err
    assert "cohorts.csv" not in err
    assert len(forks) == cpus - 1


def test_attention_failed_write_leaves_no_result(
    run_dir, tmp_path, capsys, monkeypatch, attention_cpus
):
    """A result table that cannot be written ends the stage with its error, and
    no output is left, neither summary.json nor the table it cut short."""
    root, config = _copy_run(run_dir, tmp_path)
    write_csv = cli._write_csv

    def disk_full_at_cohort_scores(path, header, rows):
        if path.name == cli.COHORT_SCORES_CSV:
            path.write_text(",".join(header) + "\n", encoding="utf-8")
            raise OSError(28, "No space left on device", str(path))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", disk_full_at_cohort_scores)
    assert cli.main(["attention", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"No space left on device: '{root / 'out' / 'cohort_scores.csv'}'" in err
    assert [name for name in cli.STAGE_OUTPUTS["attention"] if (root / "out" / name).exists()] == []


# Counts this process's OS threads at each fork of attention on two CPUs, in a
# fresh interpreter, where the stage itself imports numpy.
_FORK_THREADS_PROBE = """
import json, os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
from hoaxlens import cli, forkpool

forkpool.available_cpus = lambda: 2
threads = []
fork = os.fork

def counting_fork():
    with open("/proc/self/status") as fh:
        threads.append(int(fh.read().split("Threads:")[1].split()[0]))
    return fork()

os.fork = counting_fork
code = cli.main(["attention", "--config", sys.argv[1]])
print(json.dumps({"code": code, "threads": threads}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_attention_forks_with_one_thread(run_dir, tmp_path):
    """Neither fork copies a process with other threads: numpy's OpenBLAS starts
    none, and the table reader is forked before numpy is imported."""
    root, config = _copy_run(run_dir, tmp_path)
    proc = _run_python(_FORK_THREADS_PROBE, str(config))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "threads": [1, 1]}
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


def _unscore_day0_drop_member(data):
    """Both hoaxes of 2007-03-10 left with no neighbors, so that none of their
    members is scored, and the row of one of those members dropped."""
    for hoax in (b"Synth_hoax_00", b"Synth_hoax_01"):
        data = _drop_row(hoax.decode())(data) + hoax + b",\n"
    return _drop_row("Cohort_d0_m01")(data)


@pytest.mark.parametrize(
    "edit, named",
    [
        (None, "run features first"),
        (lambda data: data + b"A,B,C\n", ":18: expected 2 fields, got 3"),
        (lambda data: data + b"A,Z|B\n", ":18: neighbors not sorted"),
        (lambda data: data + b"A,B||C\n", ":18: neighbors not sorted"),
        (lambda data: data + b"A,|B\n", ":18: neighbors not sorted"),
        (lambda data: data + data.splitlines(True)[1], ":18: empty or repeated title"),
        (lambda data: data + b"A,\xff\n", ":18: not valid UTF-8"),
        (_drop_row("Synth_hoax_00"), "no row for 'Synth_hoax_00'"),
        (_drop_row("Cohort_d0_m01"), "no row for 'Cohort_d0_m01'"),
        (_unscore_day0_drop_member, "no row for 'Cohort_d0_m01'"),
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
        "stale_member_of_unscored_hoax",
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


def test_feature_exclusions_with_wrong_header_is_input_error(run_dir, tmp_path, capsys):
    root, config = _copy_run(run_dir, tmp_path)
    path = root / "out" / "feature_exclusions.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("title,reason\n", "hoax_title,reason\n", 1), encoding="utf-8")
    assert cli.main(["attention", "--config", str(config)]) == 1
    assert f"{path}:1: expected header title,reason" in capsys.readouterr().err


# Fields holding the csv syntax, line ends, non-ASCII text and, now and then, more
# than the csv module's default limit of 131,072 characters.
_CSV_FIELDS = st.tuples(
    st.text(st.sampled_from(',"\r\n aé€\U0001f600') | st.characters(blacklist_categories=["Cs"],
            blacklist_characters="\x00"), max_size=8),
    st.sampled_from([0, 0, 0, 70_000]),
).map(lambda pair: pair[0] + "é," * pair[1])


@st.composite
def _csv_tables(draw):
    width = draw(st.integers(1, 4))
    fields = st.lists(_CSV_FIELDS, min_size=width, max_size=width)
    return draw(fields), draw(st.lists(fields, max_size=4))


@settings(max_examples=60, deadline=None)
@given(table=_csv_tables())
@example(table=(["a", "b"], [["\r", "x\ry"], ["\r\n", '"'], ["é," * 70_000, ""]]))
def test_stage_table_round_trips(table):
    """What _write_csv writes, _iter_csv reads back row for row."""
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, header, rows)
        assert [row for _, row in cli._iter_csv(path, "table", header)] == rows


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


def test_article_with_thousands_of_links_is_scored(run_dir, tmp_path):
    """6,000 links make a neighbors.csv field of 150,000 characters, past the csv
    module's default field limit; only "!" of them has traffic."""
    root, config = _copy_run(run_dir, tmp_path)
    links = "".join(f"[[Link target number {i:05d}]] " for i in range(6000))
    (root / "fixtures" / "Synth_hoax_00.wiki").write_text(links + "[[!]]", encoding="utf-8")
    for log in (root / "logs").iterdir():
        day = log.name.split("-")[1]
        if log.suffix != ".gz" and day != "20070310":
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"en ! {5 if day < '20070310' else 1} 1\n")
    for command in ["ingest", "features", "attention"]:
        assert cli.main([command, "--config", str(config)]) == 0
    out = root / "out"
    rows = {r.split(",")[0]: r.split(",") for r in (out / "results.csv").read_text().splitlines()}
    assert float(rows["Synth_hoax_00"][1]) == (10 - 2) / (10 + 2)


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
        (_write_bytes("fixtures/Synth_hoax_00.wiki", b"[[A]]\n\xff"), [], "features",
         "Synth_hoax_00.wiki:2:"),
        (_write_bytes("fixtures/Synth_hoax_00.txt", b"\xff"), [], "features",
         "Synth_hoax_00.txt:1:"),
        (_write_bytes("fixtures/Synth_hoax_00.wiki", b"\xff"), ["features"], "attention",
         "neighbors.csv"),
        (_append_bytes("hoaxes.csv", b"Caf\xe9,2007-03-10T08:00:00Z\n"), [], "cohort",
         "hoaxes.csv:4:"),
        (_append_bytes("creations.csv", b"Caf\xe9,2007-03-10T08:00:00Z,0,\n"), [], "cohort",
         "creations.csv:10:"),
        (_empty_creation_dir, [], "cohort", "lists"),
        (_write_bytes("filter.conf", b"en\n\xff\n"), [], "ingest", "filter.conf:2:"),
        (_write_bytes("redirects.tsv", b"A\tB\nCaf\xe9\tCafe\n"), [], "ingest",
         "redirects.tsv:2:"),
    ],
    ids=[
        "fixture_not_utf8",
        "plain_extract_not_utf8",
        "fixture_not_utf8_then_attention",
        "hoaxes_not_utf8",
        "creation_list_not_utf8",
        "creation_dir_without_csv",
        "filter_config_not_utf8",
        "redirect_table_not_utf8",
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


@pytest.mark.parametrize(
    "name, row, named",
    [
        ("hoaxes.csv", b"Long," + b"2007" * 40_000 + b"\n", "hoaxes.csv:4: bad timestamp"),
        ("creations.csv", b"L|" + b"x" * 140_000 + b",2007-03-10T08:00:00Z,0,\n",
         "creations.csv:10: unusable title"),
    ],
    ids=["hoaxes", "creation_list"],
)
def test_input_list_field_over_csv_limit_is_read(cohort_dir, tmp_path, capsys, name, row, named):
    """A field past the csv module's default limit of 131,072 characters is read
    like any other, so a bad one is an error naming its line. The limit is
    process-wide; the test sets the default back, as a fresh process has it."""
    root = tmp_path / "copy"
    shutil.copytree(cohort_dir, root)
    _append_bytes(name, row)(root)
    limit = csv.field_size_limit(131_072)
    try:
        assert cli.main(["cohort", "--config", str(root / "config.json")]) == 1
    finally:
        csv.field_size_limit(limit)
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, failed, then, named",
    [
        (_write_bytes("filter.conf", b"\xff"), "ingest", "attention", "missing traffic store"),
        (_append_bytes("creations.csv", b"Caf\xe9,2007-03-10T08:00:00Z,0,\n"), "cohort",
         "features", "cohorts.csv"),
        (_write_bytes("fixtures/Synth_hoax_00.wiki", b"\xff"), "features", "attention",
         "neighbors.csv"),
        (_append_bytes("out/neighbors.csv", b"A,\xff\n"), "attention", "report", "results.csv"),
    ],
    ids=["ingest", "cohort", "features", "attention"],
)
def test_failed_stage_leaves_no_outputs(run_dir, tmp_path, capsys, mutate, failed, then, named):
    """A stage that fails removes the outputs of its last run, so the next stage
    stops on the missing file instead of reading the old one."""
    root, config = _copy_run(run_dir, tmp_path)
    mutate(root)
    assert cli.main([failed, "--config", str(config)]) == 1
    capsys.readouterr()
    assert cli.main([then, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "first" in err


def _named_outputs(root, command):
    """The files under root's out directory that cli.STAGE_OUTPUTS names for
    command, and for ingest the store files, whether they exist or not."""
    out = root / "out"
    paths = {path for pattern in cli.STAGE_OUTPUTS[command] for path in out.glob(pattern)}
    if command == "ingest":
        paths |= {out / "store" / name for name in logstore.STORE_FILES}
    return paths


def _disk_full_at(writer, name):
    """A fault: cli's writer function starts the file name, then fails as on a
    full disk; it writes every other file."""

    def install(root, monkeypatch):
        write = getattr(cli, writer)

        def full(path, *args):
            if path.name == name:
                path.write_text("partial\n", encoding="utf-8")
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write(path, *args)

        monkeypatch.setattr(cli, writer, full)

    return install


def _d_span_too_wide(root, monkeypatch):
    """A fault of the input alone: D values of 1e308 and -1e308, a span no finite
    bins cover, which report finds after it has drawn every cohort plot."""
    path = root / "out" / "results.csv"
    header, first, second, *rest = path.read_text(encoding="utf-8").splitlines()
    huge = [row.rpartition(",")[0] + d for row, d in ((first, ",1e308"), (second, ",-1e308"))]
    path.write_text("\n".join([header, *huge, *rest]) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "command, fault, named",
    [
        ("ingest", _disk_full_at("_write_json", "ingest_report.json"), "No space left on device"),
        ("cohort", _disk_full_at("_write_csv", "cohort_exclusions.csv"), "No space left on device"),
        ("features", _disk_full_at("_write_csv", "neighbors.csv"), "No space left on device"),
        ("report", _d_span_too_wide, "cannot make 20 finite bins"),
    ],
    ids=["ingest", "cohort", "features", "report"],
)
def test_failure_after_writes_leaves_no_outputs(
    run_dir, tmp_path, capsys, monkeypatch, command, fault, named
):
    """A stage that fails after it has begun writing removes what it wrote: the
    files written before the failure and the one the failure cut short."""
    root, config = _copy_run(run_dir, tmp_path)
    fault(root, monkeypatch)
    assert cli.main([command, "--config", str(config)]) == 1
    assert named in capsys.readouterr().err
    assert sorted(path for path in _named_outputs(root, command) if path.exists()) == []


def test_stage_outputs_name_every_file_a_stage_writes(run_dir, tmp_path):
    """From the inputs alone, each stage creates exactly the files that
    STAGE_OUTPUTS names for it, so main removes all of them and nothing else."""
    root, config = _copy_run(run_dir, tmp_path)
    shutil.rmtree(root / "out")

    def files():
        return {path for path in root.rglob("*") if path.is_file()}

    for command in ["ingest", "cohort", "features", "attention", "report"]:
        before = files()
        assert cli.main([command, "--config", str(config)]) == 0
        assert files() - before == _named_outputs(root, command), command
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")


# The config keys naming each stage's input files; no two stages share one.
STAGE_INPUT_KEYS = {
    "ingest": ("logs", "filter_config", "redirect_table"),
    "cohort": ("hoax_list", "creation_lists"),
    "features": ("fixtures",),
    "attention": (),
    "report": (),
}


def test_each_stage_reads_only_its_own_input_keys(run_dir, tmp_path):
    """Each stage, given no path key but its own inputs' and out, writes the same
    bytes as the run with every key; span, resamples and seed stay."""
    root, config = _copy_run(run_dir, tmp_path)
    shutil.rmtree(root / "out")
    keys = json.loads(config.read_text())
    paths = {key for stage_keys in STAGE_INPUT_KEYS.values() for key in stage_keys}
    assert paths == {key for key, value in keys.items() if isinstance(value, str)} - {"out"}
    for command, own in STAGE_INPUT_KEYS.items():
        stage_keys = {key: value for key, value in keys.items() if key in own or key not in paths}
        config.write_text(json.dumps(stage_keys))
        assert cli.main([command, "--config", str(config)]) == 0, command
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")


@pytest.mark.parametrize("command", ["features", "attention"])
def test_missing_cohort_exclusions_is_input_error(run_dir, tmp_path, capsys, command):
    root, config = _copy_run(run_dir, tmp_path)
    path = root / "out" / "cohort_exclusions.csv"
    path.unlink()
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "run the earlier pipeline stage first" in err


def _cohort_tables(out, rows):
    out.mkdir()
    (out / "cohorts.csv").write_text("hoax_title,creation_date,member_title\n" + rows)
    (out / "cohort_exclusions.csv").write_text("hoax_title,reason\nH9,empty_cohort\n")


def test_read_cohorts_shares_titles_and_dates(tmp_path):
    """A member listed under several hoaxes, and a day several hoaxes share,
    are each one object."""
    out = tmp_path / "out"
    rows = "".join(f"{h},2007-03-10,{m}\n" for h in ("H1", "H2") for m in ("M1", "M2"))
    _cohort_tables(out, rows + "H3,2007-03-11,M1\n")
    creation, cohorts, excluded = cli._read_cohorts(out)
    day0, day1 = date(2007, 3, 10), date(2007, 3, 11)
    assert creation == {"H1": day0, "H2": day0, "H3": day1}
    assert cohorts == {day0: ["M1", "M2"], day1: ["M1"]}
    assert cohorts[day0][0] is cohorts[day1][0]
    assert creation["H1"] is creation["H2"]
    assert excluded == {"H9": "empty_cohort"}


@pytest.mark.parametrize("command", ["features", "attention"])
def test_hoaxes_of_one_day_with_other_members_is_input_error(run_dir, tmp_path, capsys, command):
    """Two hoaxes created on one day have one cohort; a cohorts.csv in which they
    list different members stops the stage rather than scoring either list."""
    root, config = _copy_run(run_dir, tmp_path)
    path = root / "out" / "cohorts.csv"
    lines = path.read_text(encoding="utf-8").splitlines(True)
    last = max(i for i, line in enumerate(lines) if line.startswith("Synth_hoax_01,"))
    assert lines[last].split(",")[1] == lines[1].split(",")[1]  # Synth_hoax_00's day
    path.write_text("".join(lines[:last] + lines[last + 1 :]), encoding="utf-8")
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: hoax 'Synth_hoax_01' lists other members" in err


def test_read_cohorts_names_bad_date_line_and_missing_stage(tmp_path):
    out = tmp_path / "out"
    _cohort_tables(out, "H1,2007-03-10,M1\nH1,2007-03-10,M2\nH2,2007-03-32,M1\n")
    with pytest.raises(cli.InputError, match=r"cohorts\.csv:4: bad creation date '2007-03-32'"):
        cli._read_cohorts(out)
    (out / "cohorts.csv").unlink()
    with pytest.raises(cli.InputError, match=r"missing cohort table: .*\(run cohort first\)"):
        cli._read_cohorts(out)


def test_score_cache_counts(run_dir):
    """One lookup per hoax with a cohort, plus one per member when the hoax's own
    score is defined; one miss per distinct (title, creation day)."""
    cfg = cli.RunConfig.load(run_dir / "config.json")
    out = cfg.out_dir()
    creation, cohorts, excluded = cli._read_cohorts(out)
    store = logstore.load_store(cfg.store_dir())
    _, _, info = attention.score_hoaxes(
        store, cfg.span, creation, cohorts, excluded, cli._read_neighbors(out)
    )

    def rows(name):
        return [line.split(",") for line in (out / name).read_text().splitlines()[1:]]

    defined = {row[0] for row in rows("results.csv")}
    defined |= {h for h, reason in rows("attention_exclusions.csv") if reason == "empty_cohort_scores"}
    hoax_lookups = {(hoax, day) for hoax, day, _ in rows("cohorts.csv")}
    member_lookups = [(member, day) for hoax, day, member in rows("cohorts.csv") if hoax in defined]
    assert info.hits + info.misses == len(hoax_lookups) + len(member_lookups)
    assert info.misses == len(hoax_lookups | set(member_lookups))
    assert info.hits > 0


def test_traced_attention_sees_every_scoring_call(run_dir, tmp_path):
    """bench/launch.py wraps the module attributes the scorer calls through: its
    install() resolves every name it wraps, and the spans count the calls."""
    root, config = _copy_run(run_dir, tmp_path)
    spans_path = tmp_path / "spans.json"
    launch = Path(__file__).resolve().parents[1] / "bench" / "launch.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(launch), str(spans_path), "0", "attention", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls: dict[str, int] = {}
    for name, *_ in json.loads(spans_path.read_text()):
        calls[name] = calls.get(name, 0) + 1
    assert calls.get("logstore.window_totals", 0) > 0
    assert calls.get("attention.delta_v", 0) > 0
    out = root / "out"
    results = len((out / "results.csv").read_text().splitlines()) - 1
    empty = (out / "attention_exclusions.csv").read_text().count(",empty_cohort_scores\n")
    assert calls.get("attention.cohort_d", 0) == results + empty


def test_traced_ingest_sees_its_layers(run_dir, tmp_path):
    """bench/launch.py wraps the names cmd_ingest and ingest call through: the
    table's check before any log is read and its load for the logged titles,
    both inside ingest, and the save."""
    root, config = _copy_run(run_dir, tmp_path)
    spans_path = tmp_path / "spans.json"
    launch = Path(__file__).resolve().parents[1] / "bench" / "launch.py"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(launch), str(spans_path), "0", "ingest", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())
    names = [name for name, *_ in spans]
    assert names.count("logstore.ingest") == 1
    assert names.count("logstore.save_store") == 1
    ingest_span = names.index("logstore.ingest")
    loads = [parent for name, _, _, parent, _ in spans if name == "logstore.RedirectTable.load"]
    assert len(loads) == 2
    assert ingest_span in loads
    assert _tree_bytes(root / "out") == _tree_bytes(run_dir / "out")


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
        with open(root / "out" / "cohorts.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["hoax_title", "creation_date", "member_title"])
            writer.writerows(["No_fixture", "2007-03-10", title] for title in sorted(articles))
        with open(root / "out" / "cohort_exclusions.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["hoax_title", "reason"])
            writer.writerows([title, "empty_cohort"] for title in sorted(hoaxes))
        config = root / "config.json"
        keys = {"fixtures": "fixtures", "out": "out"}
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
