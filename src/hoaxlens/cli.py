"""Pipeline driver: ingest, cohort, features, attention, report.

Every command reads its inputs from a JSON run config (paths resolved relative
to the config file) and writes fixed-name outputs under the out directory.
Identical inputs and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import traceback
from dataclasses import asdict, dataclass, fields
from datetime import date
from pathlib import Path

from . import attention, corpus, logstore, svgplot, wikitext

log = logging.getLogger(__name__)

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

FEATURES_HEADER = ["title", "plain_length", "ratio", "wikilink_density", "extlink_density"]
NEIGHBORS_HEADER = ["title", "neighbors"]
# Joins an article's neighbor titles in one field; clean_title discards any title with it.
NEIGHBOR_SEP = "|"
RESULTS_HEADER = ["hoax_title", "delta_v", "cohort_mean", "cohort_n", "D"]


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
    histogram_bins: int = 20

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
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
            if key in ("span", "resamples", "seed", "histogram_bins"):
                # bool is a subclass of int; JSON true and 2.0 are not integers.
                if type(value) is not int:
                    raise InputError(f"config {path}: {key!r} must be an integer, not {value!r}")
                if key == "seed" and not _seed_fits(value):
                    raise InputError(f"config {path}: {SEED_RULE}, not {value}")
                if key != "seed" and value < 1:
                    raise InputError(f"config {path}: {key!r} must be >= 1, not {value}")
                setattr(cfg, key, value)
            elif value is None:
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _iter_csv(path: Path, what: str, width: int, stage: str = "the earlier pipeline stage"):
    """(line number, row) for each non-blank row after the header, read as it is
    yielded; each row has width fields."""
    if not path.exists():
        raise InputError(f"missing {what}: {path} (run {stage} first)")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise InputError(
                        f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}"
                    )
                yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def _read_csv(path: Path, what: str, width: int) -> list[tuple[int, list[str]]]:
    return list(_iter_csv(path, what, width))


def _csv_float(path: Path, lineno: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{path}:{lineno}: not a number: {text!r}") from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _log_files(path: Path) -> list[Path]:
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if logstore.HOUR_FILE_RE.match(p.name))
    else:
        files = [path]
    if not files:
        raise InputError(f"no log files matched {str(path)!r}")
    return files


def _load_hoaxes_unique(path: Path) -> list[corpus.ArticleMeta]:
    hoaxes = corpus.load_hoaxes(path)
    seen: dict[str, corpus.ArticleMeta] = {}
    for hoax in hoaxes:
        if hoax.title in seen:
            log.warning("duplicate hoax entry %s; keeping the first", hoax.title)
            continue
        seen[hoax.title] = hoax
    return [seen[t] for t in sorted(seen)]


def _check_store_dir(directory: Path) -> None:
    """Refuse a store directory holding anything save_store would not overwrite,
    such as the shard files of an older layout, which would stay beside the new store."""
    if not directory.is_dir():
        return
    others = sorted(p.name for p in directory.iterdir() if p.name not in logstore.STORE_FILES)
    if others:
        raise InputError(
            f"store directory {str(directory)!r} holds {len(others)} entries that are not "
            f"store files, such as {others[0]!r}; remove them or choose another store"
        )


def cmd_ingest(cfg: RunConfig) -> int:
    files = _log_files(_require(cfg.logs, "logs"))
    filter_path = _require(cfg.filter_config, "filter_config")
    redirect_path = _require(cfg.redirect_table, "redirect_table")
    _check_store_dir(cfg.store_dir())
    try:
        filter_cfg = logstore.FilterConfig.load(filter_path)
        table = logstore.RedirectTable.load(redirect_path)
        store = logstore.ingest(files, table, filter_cfg)
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
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    rows: list[list[str]] = []
    exclusions: list[list[str]] = []
    n_cohorts = 0
    for hoax in hoaxes:
        same_day = by_day.get(hoax.creation_date, [])
        try:
            record = corpus.build_cohort(hoax, same_day, redirects, hoax_titles)
        except corpus.EmptyCohort:
            exclusions.append([hoax.title, "empty_cohort"])
            continue
        n_cohorts += 1
        for member in record.members:
            rows.append([hoax.title, record.creation_date.isoformat(), member.title])
    _write_csv(out / COHORTS_CSV, ["hoax_title", "creation_date", "member_title"], rows)
    _write_csv(out / COHORT_EXCLUSIONS_CSV, ["hoax_title", "reason"], exclusions)
    print(f"built {n_cohorts} cohorts ({len(rows)} member rows), {len(exclusions)} hoaxes excluded")
    return 0


def _read_cohorts(out: Path) -> tuple[dict[str, date], dict[str, list[str]], dict[str, str]]:
    """Cohort membership and carried-over exclusions from the cohort stage."""
    path = out / COHORTS_CSV
    creation: dict[str, date] = {}
    members: dict[str, list[str]] = {}
    for lineno, (hoax_title, day_s, member_title) in _read_csv(path, "cohort table", 3):
        try:
            creation[hoax_title] = date.fromisoformat(day_s)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad creation date {day_s!r}") from None
        members.setdefault(hoax_title, []).append(member_title)
    excluded: dict[str, str] = {}
    exc_path = out / COHORT_EXCLUSIONS_CSV
    if exc_path.exists():
        for _, (title, reason) in _read_csv(exc_path, "cohort exclusions", 2):
            excluded[title] = reason
    return creation, members, excluded


def cmd_features(cfg: RunConfig) -> int:
    hoaxes = _load_hoaxes_unique(_require(cfg.hoax_list, "hoax_list"))
    hoax_titles = {h.title for h in hoaxes}
    fixtures = _require(cfg.fixtures, "fixtures")
    out = cfg.out_dir()
    _, members, _ = _read_cohorts(out)
    titles = set(members)
    for member_list in members.values():
        titles.update(member_list)
    computed: dict[str, wikitext.ArticleFeatures] = {}
    neighbor_rows: list[list[str]] = []
    exclusions: list[list[str]] = []
    for title in sorted(titles):
        try:
            source = wikitext.load_article(fixtures, title)
        except FileNotFoundError:
            exclusions.append([title, "no_fixture"])
            continue
        except ValueError as exc:  # not UTF-8
            raise InputError(str(exc)) from None
        # One parse serves both the link density here and the neighborhood attention scores.
        links = wikitext.extract_wikilinks(source.markup)
        try:
            neighbors = sorted(corpus.neighbor_set(title, links, hoax_titles))
        except corpus.NoNeighbors:
            neighbors = []
        neighbor_rows.append([title, NEIGHBOR_SEP.join(neighbors)])
        try:
            computed[title] = wikitext.compute_features(source, links)
        except wikitext.EmptyArticle:
            exclusions.append([title, "empty_article"])
    feature_rows = []
    for title in sorted(computed):
        f = computed[title]
        feature_rows.append(
            [title, f.plain_length, f.plain_to_markup_ratio, f.wikilink_density, f.extlink_density]
        )
    _write_csv(out / FEATURES_CSV, FEATURES_HEADER, feature_rows)
    values = {title: wikitext.feature_values(f) for title, f in computed.items()}
    z_rows: list[list] = []
    for hoax_title in sorted(members):
        if hoax_title not in hoax_titles or hoax_title not in values:
            continue
        hoax_values = values[hoax_title]
        cohort_features = [values[m] for m in members[hoax_title] if m in values]
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
    _write_csv(out / FEATURE_EXCLUSIONS_CSV, ["title", "reason"], exclusions)
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
    for lineno, (title, field) in _iter_csv(path, "neighbor table", 2, stage="features"):
        names = [intern(name) for name in field.split(NEIGHBOR_SEP)] if field else []
        if not title or title in neighbors:
            raise InputError(f"{path}:{lineno}: empty or repeated title {title!r}")
        if not all(a < b for a, b in zip(names, names[1:])) or "" in names:
            raise InputError(f"{path}:{lineno}: neighbors not sorted, distinct and non-empty")
        neighbors[title] = names
    return neighbors


def cmd_attention(cfg: RunConfig) -> int:
    store_dir = cfg.store_dir()
    if not (store_dir / logstore.MANIFEST_NAME).exists():
        raise InputError(f"missing traffic store: {store_dir} (run ingest first)")
    try:
        store = logstore.load_store(store_dir)
    except (OSError, EOFError, ValueError) as exc:
        raise InputError(f"unreadable traffic store {store_dir}: {exc}") from None
    hoaxes = _load_hoaxes_unique(_require(cfg.hoax_list, "hoax_list"))
    out = cfg.out_dir()
    creation, members, cohort_excluded = _read_cohorts(out)
    neighbors = _read_neighbors(out)
    no_fixture = {
        title
        for _, (title, reason) in _iter_csv(out / FEATURE_EXCLUSIONS_CSV, "feature exclusions", 2)
        if reason == "no_fixture"
    }
    span = cfg.span

    # Scores are per (title, day); hoaxes created the same day share member scores.
    score_cache: dict[tuple[str, date], attention.AttentionScore | None | str] = {}

    def article_score(title: str, day0: date):
        key = (title, day0)
        if key in score_cache:
            return score_cache[key]
        titles = neighbors.get(title)
        if titles is None:
            if title not in no_fixture:
                raise InputError(
                    f"{out / NEIGHBORS_CSV} has no row for {title!r}, which the features stage "
                    "did not exclude as no_fixture; rerun features"
                )
            result = "no_fixture"
        elif not titles:
            result = "no_neighbors"
        else:
            try:
                before, after = logstore.window_totals(store, titles, day0, span)
                result = attention.delta_v(before, after, span=span, title=title)
            except logstore.OutOfCoverage:
                result = "out_of_coverage"
        score_cache[key] = result
        return result

    results: list[attention.CohortAttentionResult] = []
    member_rows: list[list] = []
    exclusions: list[list[str]] = []
    for hoax in hoaxes:
        title = hoax.title
        if title in cohort_excluded:
            exclusions.append([title, cohort_excluded[title]])
            continue
        if title not in members:
            exclusions.append([title, "no_cohort"])
            continue
        day0 = creation[title]
        hoax_score = article_score(title, day0)
        if isinstance(hoax_score, str):
            exclusions.append([title, hoax_score])
            continue
        if hoax_score is None:
            exclusions.append([title, "undefined_delta_v"])
            continue
        cohort_scores = []
        for member in members[title]:
            score = article_score(member, day0)
            if isinstance(score, str) or score is None:
                continue
            cohort_scores.append(score)
        try:
            result = attention.cohort_d(hoax_score, cohort_scores)
        except attention.EmptyCohortScores:
            exclusions.append([title, "empty_cohort_scores"])
            continue
        results.append(result)
        for score in result.cohort_scores:
            member_rows.append([title, score.title, score.delta_v])
    result_rows = [
        [r.hoax_score.title, r.hoax_score.delta_v, r.cohort_mean, r.cohort_n, r.d]
        for r in results
    ]
    _write_csv(out / RESULTS_CSV, RESULTS_HEADER, result_rows)
    _write_csv(out / COHORT_SCORES_CSV, ["hoax_title", "member_title", "delta_v"], member_rows)
    _write_csv(out / ATTENTION_EXCLUSIONS_CSV, ["hoax_title", "reason"], exclusions)
    d_values = [r.d for r in results]
    summary: dict = {
        "n_hoaxes": len(hoaxes),
        "n_results": len(results),
        "n_excluded": len(exclusions),
        "d_positive": sum(1 for d in d_values if d > 0),
        "seed": cfg.seed,
        "resamples": cfg.resamples,
    }
    if d_values:
        boot = attention.bootstrap_mean_ci(d_values, resamples=cfg.resamples, seed=cfg.seed)
        summary["sample_mean"] = boot.sample_mean
        summary["ci"] = [boot.ci_low, boot.ci_high]
        edges, counts = svgplot.compute_histogram(d_values, bins=cfg.histogram_bins)
        _write_csv(
            out / D_HISTOGRAM_CSV,
            ["bin_left", "bin_right", "count"],
            [[l, r, c] for l, r, c in zip(edges[:-1], edges[1:], counts)],
        )
        m_edges, m_counts = svgplot.compute_histogram(boot.means, bins=cfg.histogram_bins)
        _write_csv(
            out / BOOT_HISTOGRAM_CSV,
            ["bin_left", "bin_right", "count"],
            [[l, r, c] for l, r, c in zip(m_edges[:-1], m_edges[1:], m_counts)],
        )
    else:
        summary["sample_mean"] = None
        summary["ci"] = None
    _write_json(out / SUMMARY_JSON, summary)
    mean_s = f"{summary['sample_mean']:.4f}" if d_values else "n/a"
    print(
        f"attention scores for {len(results)} hoaxes "
        f"({summary['d_positive']} with D > 0, mean D {mean_s}), "
        f"{len(exclusions)} excluded"
    )
    return 0


def cmd_report(cfg: RunConfig) -> int:
    out = cfg.out_dir()
    results_path = out / RESULTS_CSV
    scores_path = out / COHORT_SCORES_CSV
    results = _read_csv(results_path, "attention results", len(RESULTS_HEADER))
    scores = _read_csv(scores_path, "cohort scores", 3)
    summary_path = out / SUMMARY_JSON
    if not summary_path.exists():
        raise InputError(f"missing attention summary: {summary_path} (run attention first)")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    member_scores: dict[str, list[float]] = {}
    for lineno, (hoax_title, _, dv) in scores:
        member_scores.setdefault(hoax_title, []).append(_csv_float(scores_path, lineno, dv))
    plots = out / PLOTS_DIR
    plots.mkdir(parents=True, exist_ok=True)
    n_plots = 0
    d_values = []
    for lineno, (hoax_title, dv, cohort_mean, _, d) in results:
        dv, cohort_mean, d = (_csv_float(results_path, lineno, v) for v in (dv, cohort_mean, d))
        d_values.append(d)
        cohort = member_scores.get(hoax_title, [])
        if not cohort:
            continue
        edges, counts = svgplot.compute_histogram(cohort, bins=cfg.histogram_bins)
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
        safe = wikitext.fixture_filename(hoax_title, ".svg")
        (plots / f"cohort_{safe}").write_text(svg, encoding="utf-8")
        n_plots += 1
    if not d_values:
        raise InputError(f"no rows in {results_path}; nothing to plot")
    edges, counts = svgplot.compute_histogram(d_values, bins=cfg.histogram_bins)
    band = tuple(summary["ci"]) if summary.get("ci") else None
    vlines = []
    if summary.get("sample_mean") is not None:
        vlines.append(
            (summary["sample_mean"], "#d62728", f"mean D {summary['sample_mean']:.3f}")
        )
    svg = svgplot.render_histogram(
        edges,
        counts,
        title="Attention precedence across hoaxes",
        x_label="D (article drop minus cohort mean drop)",
        vlines=vlines,
        band=band,
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=_seed_type, metavar="U64", help="override config seed")
    common.add_argument("--out", metavar="DIR", help="override output directory")
    common.add_argument("--verbose", "-v", action="store_true", help="chatty logging")
    parser = argparse.ArgumentParser(
        prog="hoaxlens",
        description="Measure whether attention to a topic preceded its article's creation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (func, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
        return args.func(cfg)
    except (InputError, corpus.MalformedRecord, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
