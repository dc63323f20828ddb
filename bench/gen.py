"""Seeded input generator for the pipeline benchmark.

Writes a complete hoaxlens run directory (hourly logs, filter config, redirect
table, hoax list, creation list, article fixtures, run config) and returns the
ground truth it knows by construction: the ingest tallies per line kind, the
daily totals per canonical title after redirect folding, each article's
neighbor set, cohort membership and each fixture's wikilink and word counts.
Nothing here imports hoaxlens; the truth never comes from the program.
"""

from __future__ import annotations

import csv
import gzip
import json
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from urllib.parse import quote

import numpy as np

SPAN = 7
RESAMPLES = 10000
FIRST_DAY = date(2009, 3, 2)
NAMESPACES = ("Talk:", "User:", "Wikipedia:", "File:", "Category:", "Template:", "Special:")
FOREIGN = ("de", "fr", "ja", "es", "ru", "it", "pl", "zh", "pt", "nl", "en.b", "en.d", "commons.m")
# The benchmark's own definition of a word, used only to count fixture words.
WORD_RE = re.compile(r"[^\W_]+")

STEMS = (
    "Harbor", "Quartz", "Orbit", "Meadow", "Lantern", "Glacier", "Café", "Zürich",
    "Łódź", "Ñandú", "Basalt", "Cobalt", "Falcon", "Juniper", "Mosaic", "Nebula",
    "Prairie", "Rivet", "Saffron", "Tundra", "Vortex", "Willow", "Ærø", "Ostrava",
)
SUFFIXES = ("", "", "", "_(band)", "_(album)", "_(river)", "_(1998_film)", "_station")
VOCAB = (
    "the of and in to was for on as with by is at from that his it an were are which "
    "this be or has had first also its after new one two their who been other year "
    "city river album band film station village county known between during under "
    "built century early later population music history record north south east west "
    "game season league team school church railway island mountain district released"
).split()


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; every count is exact, every draw comes from the seed."""

    suspect_days: int          # creation days carrying suspects
    suspects_per_day: int
    members_per_day: int       # same-day non-suspect creations per day
    pool: int                  # canonical titles that articles link to
    links: int                 # distinct neighbors per article
    hours: int                 # hourly log files per coverage day
    noise_per_file: int        # lines per file beyond the pool's own traffic
    noise_shares: tuple[float, float, float, float, float]  # foreign, tail, namespace, bad title, malformed
    rich: bool                 # multi-KB markup with templates, refs, tables, comments
    redirect_rows: int         # unrelated redirect-table rows besides the pool's chains


@dataclass
class Truth:
    """What the generator knows by construction about one run directory."""

    config: Path
    coverage: list[date]
    tallies: dict[str, int] = field(default_factory=dict)
    file_tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    daily: dict[str, np.ndarray] = field(default_factory=dict)  # canonical title -> per coverage day
    neighbors: dict[str, frozenset[str]] = field(default_factory=dict)
    has_fixture: set[str] = field(default_factory=set)
    link_words: dict[str, tuple[int, int]] = field(default_factory=dict)  # title -> (wikilinks, markup words)
    hoaxes: dict[str, date] = field(default_factory=dict)
    cohorts: dict[str, list[str]] = field(default_factory=dict)
    log_bytes: int = 0


def _pool_titles(rng, n: int, prefix: str) -> list[str]:
    stems = rng.integers(0, len(STEMS), n)
    sufs = rng.integers(0, len(SUFFIXES), n)
    return [f"{STEMS[s]}_{prefix}{k}{SUFFIXES[x]}" for k, (s, x) in enumerate(zip(stems, sufs))]


def _lower_first(title: str) -> str:
    return title[0].lower() + title[1:]


def _log_form(title: str, variant: int) -> str:
    """A raw log spelling of a canonical title; every form cleans back to it."""
    if variant == 1:
        return _lower_first(title)
    if variant == 2:
        return quote(title, safe="")
    if variant == 3:
        return quote(quote(title, safe=""), safe="")
    if variant == 4:
        return title.replace("_", "%20")
    if variant == 5:
        return title + "#History"
    return title


class Words:
    """A seeded stream of vocabulary words; prose is cut from it in order."""

    def __init__(self, rng, size: int = 1 << 20):
        self.stream = [VOCAB[i] for i in rng.integers(0, len(VOCAB), size).tolist()]
        self.pos = 0

    def __call__(self, n: int) -> str:
        if self.pos + n > len(self.stream):
            self.pos = 0
        self.pos += n
        return " ".join(self.stream[self.pos - n : self.pos])


def _link_form(words: Words, title: str, form: int) -> str:
    """A wikilink to a canonical title in one of the spellings editors use."""
    if form == 0:
        return f"[[{title}|{words(2)}]]"
    if form == 1:
        return f"[[{_lower_first(title).replace('_', ' ')}]]"
    if form == 2:
        return f"[[{title}#Background|{words(1)}]]"
    return f"[[{title}]]"


def _markup(rng, words: Words, title: str, links: list[str], rich: bool, k: int) -> str:
    """Article markup holding exactly the given counted wikilinks plus uncounted
    category, file and interlanguage links."""
    spaced = title.replace("_", " ")
    links = list(links)
    rng.shuffle(links)
    if not rich:
        half = len(links) // 2
        body = " ".join(f"{words(4)} {link}" for link in links[:half])
        see_also = "".join(f"* {link}\n" for link in links[half:])
        return (
            f"'''{spaced}''' is a {words(12)}. {body}.\n\n"
            f"== See also ==\n{see_also}\n"
            f"[http://www.example.org/a{k} {words(2)}]\n"
            f"[[Category:{STEMS[k % len(STEMS)]} topics]]\n[[de:{spaced}]]\n"
        )
    # Rich layout: links spread over templates, refs, tables, comments and prose.
    chunks = np.array_split(np.array(links, dtype=object), 5)
    infobox = "".join(f"|related{i}={link}\n" for i, link in enumerate(chunks[0]))
    refs = "".join(
        f"<ref name=\"r{i}\">{{{{cite web|url=http://news.example.com/{k}/{i}"
        f"|title={words(4)} {link}|date={{{{date|2008|{1 + i % 12}|3}}}}}}}}</ref>"
        for i, link in enumerate(chunks[1])
    )
    rows = "".join(f"|-\n| {link} || {int(rng.integers(1, 999))}\n" for link in chunks[2])
    comments = "".join(f"<!-- check {link} against {words(3)} -->\n" for link in chunks[3])
    prose = "".join(f"{words(int(rng.integers(20, 60)))} {link}. " for link in chunks[4])
    sections = "".join(
        f"\n== {words(2).title()} ==\n{words(int(rng.integers(60, 160)))} "
        f"''{words(3)}'' https://archive.example.net/{k}/{s} "
        f"{{{{citation needed|date=May 2009}}}} <ref name=\"r0\"/>\n"
        for s in range(int(rng.integers(3, 7)))
    )
    return (
        f"{{{{Infobox {words(1)}\n|name={spaced}\n{infobox}"
        f"|coordinates={{{{coord|{k % 90}|{k % 60}|N|{{{{nowrap|{k % 180} E}}}}}}}}\n}}}}\n"
        f"'''{spaced}''' is a {words(30)}.{refs}\n{prose}\n"
        f"[[File:{STEMS[k % len(STEMS)]}_{k}.jpg|thumb|{words(5)}]]\n"
        f"{comments}{sections}\n"
        f"{{| class=\"wikitable\"\n! {words(1)} !! {words(1)}\n{rows}|}}\n"
        f"== External links ==\n* [http://www.example.org/{k} {words(3)}]\n"
        f"[[Category:{STEMS[k % len(STEMS)]} topics]]\n[[fr:{spaced}]]\n"
    )


def _noise_pools(rng) -> list[list[str]]:
    """String pools per noise kind; all but malformed lack the count fields."""
    n = 4000
    foreign = [
        f"{FOREIGN[int(p)]} {t}"
        for p, t in zip(rng.integers(0, len(FOREIGN), n), _pool_titles(rng, n, "Seite_"))
    ]
    tail = [f"en {_log_form(t, int(v))}" for t, v in zip(
        _pool_titles(rng, 3 * n, "Tail_"), rng.choice(6, 3 * n, p=[0.8, 0.05, 0.05, 0.02, 0.04, 0.04])
    )]
    namespace = [
        f"en {ns if k % 5 else ns.lower()}{t}"
        for k, (ns, t) in enumerate(zip(
            (NAMESPACES[int(i)] for i in rng.integers(0, len(NAMESPACES), n // 4)),
            _pool_titles(rng, n // 4, "Ns_"),
        ))
    ]
    bad = [
        f"en {form.format(k)}"
        for k in range(n // 8)
        for form in ("#Anchor_{}", "Bad|Pipe_{}", "%7CEncoded_{}", "Brace{{{}}}", "Tag<{}>", "%23Frag_{}")
    ]
    return [foreign, tail, namespace, bad]


def _malformed(k: int, c: int) -> str:
    forms = (
        f"en Only_three_{k} {c}\n",
        f"en Two words_{k} {c} {c * 300}\n",
        f"en Bad_count_{k} x{c} {c * 300}\n",
        f"en Negative_{k} -{c} {c * 300}\n",
        f" No_project_{k} {c} {c * 300}\n",
        f"en  {c} {c * 300}\n",
        "\n",
    )
    return forms[k % len(forms)]


def generate(spec: Spec, seed: int, root: Path) -> Truth:
    """Write the run directory under root and return its ground truth."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    logs_dir = root / "logs"
    fixtures_dir = root / "fixtures"
    logs_dir.mkdir()
    fixtures_dir.mkdir()

    n_days = spec.suspect_days + 2 * SPAN
    coverage = [FIRST_DAY + timedelta(days=i) for i in range(n_days)]
    truth = Truth(config=root / "config.json", coverage=coverage)

    # Canonical traffic titles, a few redirect chains into them, and dead titles
    # that articles link to but no log mentions.
    pool = _pool_titles(rng, spec.pool, "P")
    dead = _pool_titles(rng, max(8, spec.pool // 50), "Dead_")
    rates = 3.0 + 600.0 / np.arange(1, spec.pool + 1) ** 0.8
    rng.shuffle(rates)
    sources: dict[int, list[str]] = {}
    redirect_rows: list[tuple[str, str]] = []
    for i in rng.choice(spec.pool, spec.pool // 6, replace=False):
        chain = [f"Formerly_{i}_{j}" for j in range(int(rng.integers(1, 4)))]
        sources[int(i)] = chain
        for a, b in zip(chain, chain[1:] + [pool[i]]):
            redirect_rows.append((a, b))
    redirect_rows += [(f"Alias_{k}", f"Target_{k % 997}") for k in range(spec.redirect_rows)]
    redirect_rows += [("Loop_a", "Loop_b"), ("Loop_b", "Loop_a")]
    order = rng.permutation(len(redirect_rows))
    (root / "redirects.tsv").write_text(
        "".join(f"{redirect_rows[i][0]}\t{redirect_rows[i][1]}\n" for i in order), encoding="utf-8"
    )
    (root / "filter.conf").write_text(
        "# project to keep, then namespace prefixes to drop\nen\n" + "\n".join(NAMESPACES) + "\n",
        encoding="utf-8",
    )

    # Hourly logs: the pool's traffic in mixed spellings, plus noise lines of
    # known kinds. Each day's first hour is gzipped.
    pools = _noise_pools(rng)
    daily = np.zeros((spec.pool, n_days), dtype=np.int64)
    totals = dict.fromkeys(
        ("lines_total", "lines_kept", "lines_dropped_filter", "lines_dropped_title", "lines_malformed"), 0
    )
    variant_p = [0.84, 0.04, 0.03, 0.01, 0.02, 0.02, 0.04]  # last: a redirect source
    for d, day in enumerate(coverage):
        for h in range(spec.hours):
            hour = h * (24 // spec.hours)
            counts = rng.poisson(rates / spec.hours)
            present = np.flatnonzero(counts)
            variants = rng.choice(7, present.size, p=variant_p)
            lines = []
            for i, v in zip(present.tolist(), variants.tolist()):
                c = int(counts[i])
                name = pool[i]
                if v == 6 and i in sources:
                    chain = sources[i]
                    name = chain[c % len(chain)]
                elif v < 6:
                    name = _log_form(name, v)
                lines.append(f"en {name} {c} {c * 2741}\n")
                daily[i, d] += c
            kinds = rng.choice(5, spec.noise_per_file, p=spec.noise_shares)
            per_kind = np.bincount(kinds, minlength=5)
            nc = rng.integers(1, 40, spec.noise_per_file)
            j = 0
            for kind in range(4):
                picks = rng.integers(0, len(pools[kind]), per_kind[kind])
                src = pools[kind]
                lines += [f"{src[p]} {c} {c * 731}\n" for p, c in zip(picks.tolist(), nc[j : j + picks.size].tolist())]
                j += picks.size
            lines += [_malformed(int(k), int(c)) for k, c in zip(rng.integers(0, 10**6, per_kind[4]), nc[j:])]
            lines.sort()
            name = f"pagecounts-{day:%Y%m%d}-{hour:02d}0000"
            body = "".join(lines).encode("utf-8")
            if h == 0:
                name += ".gz"
                body = gzip.compress(body, compresslevel=6, mtime=0)
            (logs_dir / name).write_bytes(body)
            truth.log_bytes += len(body)
            tally = {
                "lines_total": len(lines),
                "lines_kept": present.size + int(per_kind[1]),
                "lines_dropped_filter": int(per_kind[0] + per_kind[2]),
                "lines_dropped_title": int(per_kind[3]),
                "lines_malformed": int(per_kind[4]),
            }
            truth.file_tallies[name] = tally
            for key, value in tally.items():
                totals[key] += value
    truth.tallies = {"files_processed": len(truth.file_tallies), "files_unreadable": 0, **totals}
    truth.daily = {title: daily[i] for i, title in enumerate(pool)}

    # Articles: suspects and same-day members, each linking a Zipf-drawn
    # neighborhood of the pool, so neighborhoods overlap as in real link graphs.
    words = Words(rng)
    zipf = 1.0 / np.arange(1, spec.pool + 1)
    zipf /= zipf.sum()
    days = [SPAN + d for d in range(spec.suspect_days)] + [n_days - 3]
    articles: list[tuple[str, int, bool]] = []  # title, coverage-day index, is suspect
    k = 0
    for di, d in enumerate(days):
        edge = di == len(days) - 1
        n_sus = 1 if edge else spec.suspects_per_day
        n_mem = 4 if edge else spec.members_per_day
        for j in range(n_sus + n_mem):
            stem = "AC/DC" if k % 97 == 5 else STEMS[k % len(STEMS)]
            articles.append((f"{stem}_page_{k}", d, j < n_sus))
            k += 1
    suspects = {t for t, _, s in articles if s}
    suspect_list = sorted(suspects)

    creation_rows = []
    for idx, (title, d, is_suspect) in enumerate(articles):
        stamp = f"{coverage[d].isoformat()}T{idx % 24:02d}:{idx % 60:02d}:00" + ("Z" if idx % 3 else "")
        creation_rows.append([title, stamp, "0", ""])
        if is_suspect:
            truth.hoaxes[title] = coverage[d]
        r = rng.random()
        if not is_suspect and r < 0.02:
            continue  # listed in the creation log, but no fixture
        if r < 0.04:
            chosen, extra = [], []  # links to nothing usable
        elif r < 0.06:
            chosen = list(rng.choice(dead, min(3, len(dead)), replace=False))
            extra = []
        else:
            chosen = [pool[i] for i in rng.choice(spec.pool, spec.links, replace=False, p=zipf)]
            extra = [chosen[0]] if r < 0.5 else []  # a repeated link
        if r > 0.9:
            extra.append(suspect_list[int(rng.integers(0, len(suspect_list)))])  # link to a suspect
        if r > 0.97:
            extra.append(title)  # self link
        targets = chosen + extra
        links = [_link_form(words, t, f) for t, f in zip(targets, rng.integers(0, 6, len(targets)).tolist())]
        markup = _markup(rng, words, title, links, spec.rich, idx)
        fname = title.replace("/", "%2F")
        (fixtures_dir / f"{fname}.wiki").write_text(markup, encoding="utf-8")
        if spec.rich and 0.4 < r < 0.43:
            (fixtures_dir / f"{fname}.txt").write_text(words(200), encoding="utf-8")
        truth.has_fixture.add(title)
        truth.neighbors[title] = frozenset(chosen) - suspects - {title}
        truth.link_words[title] = (len(links), len(WORD_RE.findall(markup)))
    # Same-day redirect rows point at real members and must collapse away.
    for d in days:
        same = [t for t, dd, s in articles if dd == d and not s]
        for j in range(min(3, len(same))):
            creation_rows.append([f"Moved_{d}_{j}", f"{coverage[d].isoformat()}T12:00:00Z", "1", same[j]])
    for title, d, is_suspect in articles:
        if is_suspect:
            truth.cohorts[title] = sorted(t for t, dd, s in articles if dd == d and not s)
    order = rng.permutation(len(creation_rows))
    with open(root / "creations.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["title", "created_at", "is_redirect", "redirect_target"])
        writer.writerows(creation_rows[i] for i in order)
    with open(root / "hoaxes.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["title", "created_at"])
        writer.writerows(row[:2] for row in creation_rows if row[0] in suspects)

    config = {
        "logs": "logs",
        "filter_config": "filter.conf",
        "redirect_table": "redirects.tsv",
        "hoax_list": "hoaxes.csv",
        "creation_lists": "creations.csv",
        "fixtures": "fixtures",
        "out": "out",
        "span": SPAN,
        "resamples": RESAMPLES,
        "seed": seed,
    }
    truth.config.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return truth
