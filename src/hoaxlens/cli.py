"""Pipeline driver: ingest, cohort, features, attention, report.

Every command reads its inputs from a JSON run config (paths resolved relative
to the config file) and writes the outputs ``STAGE_OUTPUTS`` names for it under
the out directory; ``main`` removes them before the command runs and again when
it fails. Identical inputs and seed give byte-identical outputs.

``ingest`` and ``features`` hand their work to ``forkpool``, which forks worker
processes when the input is large enough to repay them: ``features`` sends
chunks of the sorted titles to ``_article_outcomes`` and takes the outcomes
back in title order. ``attention``, on two CPUs or more, forks one worker to
read the earlier stages' tables while it loads the store, and one to write its
result tables while it runs the bootstrap. The outputs do not depend on the
number of workers.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import traceback
from contextlib import closing, suppress
from dataclasses import asdict, dataclass, fields
from datetime import date
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

log = logging.getLogger(__name__)

# Each command imports the modules it runs, so that every command but
# `attention` starts without numpy. The stage modules still resolve as attributes
# of cli (cli.logstore), for code that wraps their functions from outside.
_STAGE_MODULES = frozenset({"attention", "corpus", "logstore", "svgplot", "wikitext"})


def __getattr__(name: str):
    if name in _STAGE_MODULES:
        return import_module(f".{name}", __package__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

STORE_DIR = "store"
INGEST_REPORT = "ingest_report.json"
COHORTS_CSV = "cohorts.csv"
COHORT_EXCLUSIONS_CSV = "cohort_exclusions.csv"
FEATURES_CSV = "features.csv"
ZSCORES_CSV = "zscores.csv"
FEATURE_EXCLUSIONS_CSV = "feature_exclusions.csv"
NEIGHBORS_CSV = "neighbors.csv"
RESULTS_CSV = "results.csv"
COHORT_SCORES_CSV = "cohort_scores.csv"
ATTENTION_EXCLUSIONS_CSV = "attention_exclusions.csv"
SUMMARY_JSON = "summary.json"
D_HISTOGRAM_CSV = "d_histogram.csv"
BOOT_HISTOGRAM_CSV = "bootstrap_means_histogram.csv"
PLOTS_DIR = "plots"
# Bins of every histogram attention writes and report draws.
HISTOGRAM_BINS = 20
# Each command's outputs, as glob patterns under out; ingest's store files come on top.
STAGE_OUTPUTS = {
    "ingest": (INGEST_REPORT,),
    "cohort": (COHORTS_CSV, COHORT_EXCLUSIONS_CSV),
    "features": (FEATURES_CSV, ZSCORES_CSV, FEATURE_EXCLUSIONS_CSV, NEIGHBORS_CSV),
    "attention": (RESULTS_CSV, COHORT_SCORES_CSV, ATTENTION_EXCLUSIONS_CSV, SUMMARY_JSON,
                  D_HISTOGRAM_CSV, BOOT_HISTOGRAM_CSV),
    "report": (f"{PLOTS_DIR}/cohort_*.svg", f"{PLOTS_DIR}/d_histogram.svg"),
}

# The header of each table a later stage reads, as _write_csv writes it.
COHORTS_HEADER = ["hoax_title", "creation_date", "member_title"]
HOAX_EXCLUSIONS_HEADER = ["hoax_title", "reason"]
FEATURE_EXCLUSIONS_HEADER = ["title", "reason"]
FEATURES_HEADER = ["title", "plain_length", "ratio", "wikilink_density", "extlink_density"]
NEIGHBORS_HEADER = ["title", "neighbors"]
# Joins an article's neighbor titles in one field; clean_title discards any title with it.
NEIGHBOR_SEP = "|"
RESULTS_HEADER = ["hoax_title", "delta_v", "cohort_mean", "cohort_n", "D"]
COHORT_SCORES_HEADER = ["hoax_title", "member_title", "delta_v"]


class InputError(ValueError):
    """Bad or missing input; maps to exit code 1."""


@dataclass
class RunConfig:
    logs: str | None = None
    filter_config: str | None = None
    redirect_table: str | None = None
    hoax_list: str | None = None
    creation_lists: str | None = None
    fixtures: str | None = None
    store: str | None = None
    out: str = "out"
    span: int = 7
    resamples: int = 10000
    seed: int = 0

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}") from None
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError(f"config {path} must be a JSON object, not {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        cfg = cls()
        base = path.parent
        for key, value in raw.items():
            if key not in known:
                log.warning("config %s: ignoring unknown key %r", path, key)
                continue
            if key in ("span", "resamples", "seed"):
                # bool is a subclass of int; JSON true and 2.0 are not integers.
                if type(value) is not int:
                    raise InputError(f"config {path}: {key!r} must be an integer, not {value!r}")
                if key == "seed" and not _seed_fits(value):
                    raise InputError(f"config {path}: {SEED_RULE}, not {value}")
                if key != "seed" and value < 1:
                    raise InputError(f"config {path}: {key!r} must be >= 1, not {value}")
                setattr(cfg, key, value)
            elif value is None and key != "out":
                setattr(cfg, key, None)
            elif isinstance(value, str):
                setattr(cfg, key, str(base / value))
            else:
                raise InputError(f"config {path}: {key!r} must be a path string, not {value!r}")
        return cfg

    def store_dir(self) -> Path:
        return Path(self.store) if self.store else Path(self.out) / STORE_DIR

    def out_dir(self) -> Path:
        return Path(self.out)


def _require(value: str | None, key: str) -> Path:
    if not value:
        raise InputError(f"config key {key!r} is required for this command")
    path = Path(value)
    if not path.exists():
        raise InputError(f"{key} path does not exist: {path}")
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    # Lines end with \n, cut from the writer's \r\n: it quotes only the fields holding
    # a character of its line terminator, and one holding a lone \r must be quoted.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        lines = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def _iter_csv(path: Path, what: str, header: list[str], stage: str = "the earlier pipeline stage"):
    """(line number, row) for each row of a stage table, as ``corpus.iter_csv`` yields it."""
    from . import corpus

    if not path.exists():
        raise InputError(f"missing {what}: {path} (run {stage} first)")
    yield from corpus.iter_csv(path, header)


def _csv_float(path: Path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}:{lineno}: not a finite number: {text!r}")
    return value


def _remove_outputs(command: str, cfg: RunConfig) -> None:
    """Remove the files STAGE_OUTPUTS names for command, and for ingest the store's.
    No forked worker calls this, as forkpool ends each one with os._exit."""
    paths = [path for pattern in STAGE_OUTPUTS[command] for path in cfg.out_dir().glob(pattern)]
    if command == "ingest":
        from . import logstore

        paths += (cfg.store_dir() / name for name in logstore.STORE_FILES)
    for path in paths:
        path.unlink(missing_ok=True)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _log_files(path: Path) -> list[Path]:
    from . import logstore

    if path.is_dir():
        files = sorted(p for p in path.iterdir() if logstore.HOUR_FILE_RE.match(p.name))
    else:
        files = [path]
    if not files:
        raise InputError(f"no log files matched {str(path)!r}")
    return files


def _load_hoaxes_unique(path: Path) -> list[corpus.ArticleMeta]:
    from . import corpus

    seen: dict[str, corpus.ArticleMeta] = {}
    for hoax in corpus.load_hoaxes(path):
        if hoax.title in seen:
            log.warning("duplicate hoax entry %s; keeping the first", hoax.title)
            continue
        seen[hoax.title] = hoax
    return [seen[t] for t in sorted(seen)]


def _check_store_dir(directory: Path) -> None:
    """Refuse a store directory holding anything save_store would not overwrite,
    such as the shard files of an older layout, which would stay beside the new store."""
    from . import logstore

    if not directory.is_dir():
        return
    others = sorted(p.name for p in directory.iterdir() if p.name not in logstore.STORE_FILES)
    if others:
        raise InputError(
            f"store directory {str(directory)!r} holds {len(others)} entries that are not "
            f"store files, such as {others[0]!r}; remove them or choose another store"
        )


def cmd_ingest(cfg: RunConfig) -> int:
    from . import logstore

    files = _log_files(_require(cfg.logs, "logs"))
    filter_path = _require(cfg.filter_config, "filter_config")
    redirect_path = _require(cfg.redirect_table, "redirect_table")
    try:
        filter_cfg = logstore.FilterConfig.load(filter_path)
        store = logstore.ingest(files, redirect_path, filter_cfg)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    logstore.save_store(store, cfg.store_dir())
    report = {
        "coverage": {
            "start": store.coverage_start.isoformat(),
            "end": store.coverage_end.isoformat(),
        },
        "tallies": store.tallies,
        "files": [asdict(t) for t in store.file_tallies],
        "unreadable": store.unreadable,
    }
    _write_json(out / INGEST_REPORT, report)
    print(
        f"ingested {store.tallies['files_processed']} files: "
        f"{store.tallies['lines_kept']} lines kept, "
        f"{store.tallies['lines_dropped_filter'] + store.tallies['lines_dropped_title']} dropped, "
        f"{store.tallies['lines_malformed']} malformed; "
        f"coverage {store.coverage_start} to {store.coverage_end}"
    )
    return 0


def cmd_cohort(cfg: RunConfig) -> int:
    from . import corpus

    out = cfg.out_dir()
    hoaxes = _load_hoaxes_unique(_require(cfg.hoax_list, "hoax_list"))
    try:
        metas, redirects = corpus.load_creation_list(
            _require(cfg.creation_lists, "creation_lists")
        )
    except ValueError as exc:  # a malformed row, or a directory holding no *.csv
        raise InputError(str(exc)) from None
    hoax_titles = {h.title for h in hoaxes}
    by_day: dict[date, list[corpus.ArticleMeta]] = {}
    for meta in metas:
        by_day.setdefault(meta.creation_date, []).append(meta)
    cohorts = {
        day: corpus.build_cohort(day, by_day.get(day, []), redirects, hoax_titles)
        for day in sorted({h.creation_date for h in hoaxes})
    }
    out.mkdir(parents=True, exist_ok=True)
    rows: list[list[str]] = []
    exclusions: list[list[str]] = []
    for hoax in hoaxes:
        members = cohorts[hoax.creation_date]
        if not members:
            exclusions.append([hoax.title, "empty_cohort"])
            continue
        day = hoax.creation_date.isoformat()
        rows.extend([hoax.title, day, member] for member in members)
    _write_csv(out / COHORTS_CSV, COHORTS_HEADER, rows)
    _write_csv(out / COHORT_EXCLUSIONS_CSV, HOAX_EXCLUSIONS_HEADER, exclusions)
    n_cohorts = len(hoaxes) - len(exclusions)
    print(f"built {n_cohorts} cohorts ({len(rows)} member rows), {len(exclusions)} hoaxes excluded")
    return 0


def _read_cohorts(out: Path) -> tuple[dict[str, date], dict[date, list[str]], dict[str, str]]:
    """Each hoax's creation day, each day's cohort members, and the hoaxes the
    cohort stage excluded with their reasons, from the cohort stage's tables.

    Every hoax created on one day must list the same members. The table is
    streamed, its titles interned, as one member recurs under every hoax
    created the same day, and each distinct date parsed once.
    """
    path = out / COHORTS_CSV
    creation: dict[str, date] = {}
    members: dict[str, list[str]] = {}
    days: dict[str, date] = {}
    intern = sys.intern
    rows = _iter_csv(path, "cohort table", COHORTS_HEADER, "cohort")
    for lineno, (hoax_title, day_s, member_title) in rows:
        day = days.get(day_s)
        if day is None:
            try:
                day = days[day_s] = date.fromisoformat(day_s)
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad creation date {day_s!r}") from None
        hoax_title = intern(hoax_title)
        creation[hoax_title] = day
        members.setdefault(hoax_title, []).append(intern(member_title))
    cohorts: dict[date, list[str]] = {}
    for hoax_title, titles in members.items():
        day = creation[hoax_title]
        if cohorts.setdefault(day, titles) != titles:
            raise InputError(
                f"{path}: hoax {hoax_title!r} lists other members than an earlier hoax "
                f"created {day}; rerun cohort"
            )
    exclusions = _iter_csv(out / COHORT_EXCLUSIONS_CSV, "cohort exclusions", HOAX_EXCLUSIONS_HEADER)
    excluded = {title: reason for _, (title, reason) in exclusions}
    return creation, cohorts, excluded


# One article's features and neighbors take about 0.6-0.8 ms on a 2-vCPU VM,
# whatever its size, and a pool of two workers forked from the features stage
# costs it about 10-15 ms to start and join (52 articles: 0.159 s in one
# process, 0.173 s with two workers), which a worker earns back only with at
# least this many articles to compute.
MIN_ARTICLES_PER_WORKER = 100


def _article_outcomes(titles: list[str], fixtures: Path, hoax_titles: set[str]) -> list:
    """Each title's outcome: None when it has no fixture, else its joined neighbor
    titles and its features, None for an empty article."""
    from . import corpus, wikitext

    outcomes: list = []
    for title in titles:
        try:
            source = wikitext.load_article(fixtures, title)
        except FileNotFoundError:
            outcomes.append(None)
            continue
        # One parse serves both the link density here and the neighborhood attention scores.
        links = wikitext.extract_wikilinks(source.markup)
        try:
            neighbors = NEIGHBOR_SEP.join(sorted(corpus.neighbor_set(title, links, hoax_titles)))
        except corpus.NoNeighbors:
            neighbors = ""
        try:
            features = wikitext.compute_features(source, links)
        except wikitext.EmptyArticle:
            features = None
        outcomes.append((neighbors, features))
    return outcomes


def cmd_features(cfg: RunConfig) -> int:
    from . import attention, forkpool, wikitext

    out = cfg.out_dir()
    fixtures = _require(cfg.fixtures, "fixtures")
    creation, cohorts, excluded = _read_cohorts(out)
    hoax_titles = creation.keys() | excluded.keys()
    titles = sorted(set(creation).union(*cohorts.values()))
    workers = forkpool.worker_count(len(titles), len(titles), MIN_ARTICLES_PER_WORKER)
    # Chunks of consecutive titles, eight per worker, keep the workers evenly loaded.
    size = max(1, -(-len(titles) // (8 * workers)))
    chunks = [titles[i : i + size] for i in range(0, len(titles), size)]
    computed: dict[str, wikitext.ArticleFeatures] = {}
    neighbor_rows: list[list[str]] = []
    exclusions: list[list[str]] = []
    # closing() stops the pool's unstarted chunks as soon as an error ends the stage.
    with closing(
        forkpool.ordered_map(_article_outcomes, chunks, workers, (fixtures, hoax_titles))
    ) as results:
        for chunk, outcomes in zip(chunks, results, strict=True):
            for title, outcome in zip(chunk, outcomes, strict=True):
                if outcome is None:
                    exclusions.append([title, "no_fixture"])
                    continue
                neighbors, features = outcome
                neighbor_rows.append([title, neighbors])
                if features is None:
                    exclusions.append([title, "empty_article"])
                else:
                    computed[title] = features
    feature_rows = []
    for title in sorted(computed):
        f = computed[title]
        feature_rows.append(
            [title, f.plain_length, f.plain_to_markup_ratio, f.wikilink_density, f.extlink_density]
        )
    _write_csv(out / FEATURES_CSV, FEATURES_HEADER, feature_rows)
    values = {title: wikitext.feature_values(f) for title, f in computed.items()}
    z_rows: list[list] = []
    for hoax_title in sorted(creation):
        if hoax_title not in values:
            continue
        hoax_values = values[hoax_title]
        cohort_features = [values[m] for m in cohorts[creation[hoax_title]] if m in values]
        if not cohort_features:
            exclusions.append([hoax_title, "no_cohort_features"])
            continue
        for name in wikitext.FEATURE_NAMES:
            cohort_values = [member[name] for member in cohort_features]
            try:
                score = attention.modified_z(hoax_values[name], cohort_values, feature=name)
            except attention.ZeroMAD:
                z_rows.append([hoax_title, name, hoax_values[name], "", "", "", "zero_mad"])
                continue
            z_rows.append(
                [hoax_title, name, score.value, score.cohort_median, score.cohort_mad, score.z, ""]
            )
    _write_csv(
        out / ZSCORES_CSV,
        ["hoax_title", "feature", "value", "cohort_median", "cohort_mad", "z", "flag"],
        z_rows,
    )
    _write_csv(out / FEATURE_EXCLUSIONS_CSV, FEATURE_EXCLUSIONS_HEADER, exclusions)
    _write_csv(out / NEIGHBORS_CSV, NEIGHBORS_HEADER, neighbor_rows)
    print(
        f"features for {len(computed)} articles, z-scores for "
        f"{len({r[0] for r in z_rows})} hoaxes, {len(exclusions)} articles excluded"
    )
    return 0


def _read_neighbors(out: Path) -> dict[str, list[str]]:
    """Each article's sorted neighbor titles from the features stage; [] when none is left.

    The file is streamed and the titles interned, as the same few thousand
    titles recur across hundreds of rows.
    """
    path = out / NEIGHBORS_CSV
    neighbors: dict[str, list[str]] = {}
    intern = sys.intern
    for lineno, (title, field) in _iter_csv(path, "neighbor table", NEIGHBORS_HEADER, "features"):
        names = [intern(name) for name in field.split(NEIGHBOR_SEP)] if field else []
        if not title or title in neighbors:
            raise InputError(f"{path}:{lineno}: empty or repeated title {title!r}")
        if not all(a < b for a, b in zip(names, names[1:])) or "" in names:
            raise InputError(f"{path}:{lineno}: neighbors not sorted, distinct and non-empty")
        neighbors[intern(title)] = names
    return neighbors


def _read_tables(cfg: RunConfig) -> tuple[dict, dict, dict, dict]:
    """The creation days, cohorts, carried-over exclusions and neighbor sets of
    the earlier stages' tables, checked against each other."""
    out = cfg.out_dir()
    creation, cohorts, cohort_excluded = _read_cohorts(out)
    neighbors = _read_neighbors(out)
    path = out / FEATURE_EXCLUSIONS_CSV
    feature_exclusions = _iter_csv(path, "feature exclusions", FEATURE_EXCLUSIONS_HEADER)
    no_fixture = {title for _, (title, reason) in feature_exclusions if reason == "no_fixture"}
    # Every title cohorts.csv names needs a neighbors row or a no_fixture exclusion.
    stale = set(creation).union(*cohorts.values()) - neighbors.keys() - no_fixture
    if stale:
        raise InputError(
            f"{out / NEIGHBORS_CSV} has no row for {min(stale)!r}, which the features stage "
            "did not exclude as no_fixture; rerun features"
        )
    return creation, cohorts, cohort_excluded, neighbors


def _load_store(store_dir: Path):
    """The traffic store in store_dir; a missing or unreadable one is an InputError."""
    from . import logstore

    if not (store_dir / logstore.MANIFEST_NAME).exists():
        raise InputError(f"missing traffic store: {store_dir} (run ingest first)")
    try:
        return logstore.load_store(store_dir)
    except (OSError, EOFError, ValueError) as exc:
        raise InputError(f"unreadable traffic store {store_dir}: {exc}") from None


def _score_run(cfg: RunConfig, workers: int) -> tuple[list, list[list[str]]]:
    """The results and exclusions of scoring the hoaxes over the traffic store
    with the tables of the earlier stages; each hoax has exactly one of them.
    Only what is returned outlives the call, so the store and the tables are
    freed before the bootstrap.

    With two workers, a forked process reads the tables while this one imports
    the store's modules and numpy and loads the store; with one, this process
    reads them after the store. A store error is reported before any error of
    the tables either way."""
    from . import forkpool

    with closing(forkpool.ordered_map(_read_tables, [cfg], workers)) as tables:
        store = _load_store(cfg.store_dir())
        ((creation, cohorts, cohort_excluded, neighbors),) = tables
    from . import attention

    results, exclusions, _ = attention.score_hoaxes(
        store, cfg.span, creation, cohorts, cohort_excluded, neighbors
    )
    return results, exclusions


def _write_results(out: Path, results: list, exclusions: list[list[str]]) -> None:
    _write_csv(out / RESULTS_CSV, RESULTS_HEADER, (
        [r.hoax_score.title, r.hoax_score.delta_v, r.cohort_mean, r.cohort_n, r.d]
        for r in results
    ))
    _write_csv(out / COHORT_SCORES_CSV, COHORT_SCORES_HEADER, (
        [r.hoax_score.title, s.title, s.delta_v] for r in results for s in r.cohort_scores
    ))
    _write_csv(out / ATTENTION_EXCLUSIONS_CSV, HOAX_EXCLUSIONS_HEADER, exclusions)


def cmd_attention(cfg: RunConfig) -> int:
    # Before numpy's first import, which would otherwise start OpenBLAS threads
    # that spin for about 0.1 s of CPU; the stage makes no BLAS call, and the
    # spinning would hold the CPU its worker runs on.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # The stage's other modules, numpy among them, are imported once the table
    # reader is forked, so that it reads while they load.
    from . import forkpool

    out = cfg.out_dir()
    # Twice a forked worker runs one task while this process runs another.
    workers = forkpool.worker_count(tasks=2, amount=2, per_worker=1)
    results, exclusions = _score_run(cfg, workers)
    from . import attention, svgplot

    d_values = [r.d for r in results]
    summary: dict = {
        "n_hoaxes": len(results) + len(exclusions),
        "n_results": len(d_values),
        "n_excluded": len(exclusions),
        "d_positive": sum(1 for d in d_values if d > 0),
        "seed": cfg.seed,
        "resamples": cfg.resamples,
        "sample_mean": None,
        "ci": None,
    }
    # A forked worker writes the result tables while this process runs the
    # bootstrap; with one worker, this process writes them first and frees the
    # cohort scores. closing() reaps the worker before main removes any output.
    writes = forkpool.ordered_map(_write_results, [out], workers, (results, exclusions))
    del results, exclusions
    with closing(writes):
        if workers == 1:
            list(writes)
        if d_values:
            boot = attention.bootstrap_mean_ci(d_values, resamples=cfg.resamples, seed=cfg.seed)
            summary["sample_mean"] = boot.sample_mean
            summary["ci"] = [boot.ci_low, boot.ci_high]
            for name, values in ((D_HISTOGRAM_CSV, d_values), (BOOT_HISTOGRAM_CSV, boot.means)):
                edges, counts = svgplot.compute_histogram(values, bins=HISTOGRAM_BINS)
                rows = zip(edges, edges[1:], counts)
                _write_csv(out / name, ["bin_left", "bin_right", "count"], rows)
        list(writes)
    _write_json(out / SUMMARY_JSON, summary)
    mean_s = f"{summary['sample_mean']:.4f}" if d_values else "n/a"
    print(
        f"attention scores for {len(d_values)} hoaxes "
        f"({summary['d_positive']} with D > 0, mean D {mean_s}), "
        f"{summary['n_excluded']} excluded"
    )
    return 0


def _read_summary(path: Path) -> tuple[float | None, list[float] | None]:
    """sample_mean and ci from the attention summary, a JSON object in which the
    first is a finite number or null and the second two finite numbers or null.
    A missing key reads as null."""
    if not path.exists():
        raise InputError(f"missing attention summary: {path} (run attention first)")
    try:
        # Integers as floats, so one beyond float range reads as inf and fails below.
        summary = json.loads(path.read_text(encoding="utf-8"), parse_int=float)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: not a valid attention summary ({exc})") from None

    def finite(value) -> bool:
        return isinstance(value, float) and math.isfinite(value)

    if not isinstance(summary, dict):
        raise InputError(f"{path}: must be a JSON object, not {type(summary).__name__}")
    mean, ci = summary.get("sample_mean"), summary.get("ci")
    if mean is not None and not finite(mean):
        raise InputError(f"{path}: sample_mean must be a finite number or null, not {mean!r}")
    if ci is not None and not (isinstance(ci, list) and len(ci) == 2 and all(map(finite, ci))):
        raise InputError(f"{path}: ci must be two finite numbers or null, not {ci!r}")
    return mean, ci


def cmd_report(cfg: RunConfig) -> int:
    from . import svgplot, titles

    out = cfg.out_dir()
    plots = out / PLOTS_DIR
    results_path = out / RESULTS_CSV
    scores_path = out / COHORT_SCORES_CSV
    # Read whole, so that a malformed row stops the stage before any plot is written.
    results = list(_iter_csv(results_path, "attention results", RESULTS_HEADER))
    member_scores: dict[str, list[float]] = {}
    for lineno, (hoax, _, dv) in _iter_csv(scores_path, "cohort scores", COHORT_SCORES_HEADER):
        member_scores.setdefault(hoax, []).append(_csv_float(scores_path, lineno, dv))
    mean, ci = _read_summary(out / SUMMARY_JSON)

    def histogram(values, path: Path):
        try:
            return svgplot.compute_histogram(values, bins=HISTOGRAM_BINS)
        except ValueError as exc:  # a span of values too wide to bin
            raise InputError(f"{path}: {exc}") from None

    plots.mkdir(parents=True, exist_ok=True)
    n_plots = 0
    d_values = []
    for lineno, (hoax_title, dv, cohort_mean, _, d) in results:
        dv, cohort_mean, d = (_csv_float(results_path, lineno, v) for v in (dv, cohort_mean, d))
        d_values.append(d)
        cohort = member_scores.get(hoax_title, [])
        if not cohort:
            continue
        edges, counts = histogram(cohort, scores_path)
        svg = svgplot.render_histogram(
            edges,
            counts,
            title=f"Neighborhood traffic drop: {hoax_title}",
            x_label="cohort member delta V/V",
            vlines=[
                (dv, "#d62728", f"article {dv:.3f}"),
                (cohort_mean, "#2ca02c", f"cohort mean {cohort_mean:.3f}"),
            ],
        )
        safe = titles.fixture_filename(hoax_title, ".svg")
        (plots / f"cohort_{safe}").write_text(svg, encoding="utf-8")
        n_plots += 1
    if not d_values:
        raise InputError(f"no rows in {results_path}; nothing to plot")
    edges, counts = histogram(d_values, results_path)
    vlines = [] if mean is None else [(mean, "#d62728", f"mean D {mean:.3f}")]
    svg = svgplot.render_histogram(
        edges,
        counts,
        title="Attention precedence across hoaxes",
        x_label="D (article drop minus cohort mean drop)",
        vlines=vlines,
        band=None if ci is None else tuple(ci),
    )
    (plots / "d_histogram.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {n_plots} cohort plots and 1 summary plot to {plots}")
    return 0


COMMANDS = {
    "ingest": (cmd_ingest, "parse hourly logs into the daily traffic store"),
    "features": (cmd_features, "compute appearance features and cohort z-scores"),
    "cohort": (cmd_cohort, "build same-day creation cohorts for each hoax"),
    "attention": (cmd_attention, "score traffic drops and bootstrap the mean difference"),
    "report": (cmd_report, "render per-hoax and summary plots"),
}


SEED_RULE = "seed must fit in an unsigned 64-bit integer"


def _seed_fits(value: int) -> bool:
    return 0 <= value < 2**64


def _seed_type(text: str) -> int:
    value = int(text)
    if not _seed_fits(value):
        raise argparse.ArgumentTypeError(SEED_RULE)
    return value


def build_parser() -> argparse.ArgumentParser:
    # The common options go before or after the command. Neither copy sets a default,
    # so one given after the command wins; main supplies the defaults.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=_seed_type, metavar="U64", help="override config seed")
    common.add_argument("--out", metavar="DIR", help="override output directory")
    common.add_argument("--verbose", "-v", action="store_true", help="chatty logging")
    parser = argparse.ArgumentParser(
        prog="hoaxlens",
        description="Measure whether attention to a topic preceded its article's creation.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (func, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        defaults = argparse.Namespace(config=None, seed=None, out=None, verbose=False)
        args = build_parser().parse_args(argv, defaults)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.command == "ingest":
            _check_store_dir(cfg.store_dir())  # a refused store keeps every file
        _remove_outputs(args.command, cfg)
        try:
            return args.func(cfg)
        except BaseException:
            # No output written before the failure, or cut short by it, may pass for a result.
            _remove_outputs(args.command, cfg)
            raise
    except Exception as exc:
        # A malformed record of any input file is an input fault too. Imported
        # only here, as each command imports the modules it runs.
        from .titles import MalformedRecord

        if isinstance(exc, (InputError, MalformedRecord, OSError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        traceback.print_exc()
        return 2


def entrypoint() -> None:
    """Run main and end the process with its exit code, skipping interpreter
    teardown (10-50 ms a stage) once logging and the standard streams are
    flushed. Like the interpreter, exit 120 if one of them cannot be flushed."""
    code = main()
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except (OSError, ValueError) as exc:
            code = 120
            if stream is sys.stdout:
                with suppress(OSError, ValueError):
                    print(f"error: cannot write stdout: {exc}", file=sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
