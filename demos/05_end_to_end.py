"""
End to end: corpus on disk to attention report
==============================================

Writes a miniature two-suspect corpus in the exact on-disk formats the CLI
reads, then runs every pipeline stage and walks through the outputs.

Both suspects get neighbors whose traffic runs three times hotter in the week
before creation day than after, so each should land near delta_v = 0.5 while
the flat-traffic cohort sits at 0.
"""

import json
import tempfile
from datetime import date, timedelta
from pathlib import Path

from hoaxlens import cli
from hoaxlens.wikitext import fixture_filename

with tempfile.TemporaryDirectory(prefix="pipeline_demo_") as tmp:
    root = Path(tmp)
    day0 = date(2007, 3, 10)
    span = 7

    # Traffic titles and their daily rates. Suspect neighbors are elevated before
    # day zero, cohort neighbors are flat, and one alias redirects into Nbr_A.
    elevated = ["Nbr_A", "Nbr_B", "Nbr_C", "Nbr_D"]
    rate = {title: (90, 30) for title in elevated}       # (before, day0 and after)
    rate["Nbr_A_alias"] = (30, 10)
    rate["Flat_X"] = (30, 30)
    rate["Flat_Y"] = (30, 30)

    logs_dir = root / "logs"
    logs_dir.mkdir()
    for offset in range(-span, span + 1):
        day = day0 + timedelta(days=offset)
        for hour in (3, 15):
            lines = []
            for title, (before_rate, after_rate) in sorted(rate.items()):
                daily = before_rate if offset < 0 else after_rate
                count = daily // 2
                lines.append(f"en {title} {count} {count * 97}\n")
            name = f"pagecounts-{day:%Y%m%d}-{hour:02d}0000"
            (logs_dir / name).write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(list(logs_dir.iterdir()))} hourly files under {logs_dir}")

    (root / "filter.conf").write_text("en\nTalk:\nUser:\nWikipedia:\n")
    (root / "redirects.tsv").write_text("Nbr_A_alias\tNbr_A\n")

    (root / "hoaxes.csv").write_text(
        "title,created_at\n"
        f"Suspect_one,{day0}T04:00:00Z\n"
        f"Suspect_two,{day0}T16:30:00Z\n"
    )

    creation_rows = ["title,created_at,is_redirect,redirect_target"]
    creation_rows.append(f"Suspect_one,{day0}T04:00:00Z,0,")
    creation_rows.append(f"Suspect_two,{day0}T16:30:00Z,0,")
    members = [f"Bystander_{i}" for i in range(8)]
    for i, member in enumerate(members):
        creation_rows.append(f"{member},{day0}T0{i}:10:00Z,0,")
    (root / "creations.csv").write_text("\n".join(creation_rows) + "\n")

    fixtures = root / "fixtures"
    fixtures.mkdir()
    articles = {
        "Suspect_one": "'''Suspect one''' cites [[Nbr A]] and [[Nbr B]] at length.\n",
        "Suspect_two": "'''Suspect two''' covers [[Nbr C]] and [[Nbr D]] briefly.\n",
    }
    for member in members:
        articles[member] = (
            f"'''{member.replace('_', ' ')}''' is about [[Flat X]] and [[Flat Y]].\n"
        )
    for title, markup in articles.items():
        (fixtures / fixture_filename(title, ".wiki")).write_text(markup, encoding="utf-8")

    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "logs": "logs",
        "filter_config": "filter.conf",
        "redirect_table": "redirects.tsv",
        "hoax_list": "hoaxes.csv",
        "creation_lists": "creations.csv",
        "fixtures": "fixtures",
        "out": "out",
        "span": span,
        "resamples": 2000,
        "seed": 11,
    }, indent=2))

    for command in ["ingest", "cohort", "features", "attention", "report"]:
        rc = cli.main([command, "--config", str(config_path)])
        print(f"hoaxlens {command}: exit {rc}")
        assert rc == 0

    out = root / "out"
    print("\nresults.csv:")
    print((out / "results.csv").read_text())

    summary = json.loads((out / "summary.json").read_text())
    print(f"{summary['n_results']} suspects scored, {summary['d_positive']} with D > 0")
    print(f"mean D {summary['sample_mean']:.4f}, CI {summary['ci']}")

    plots = sorted(p.name for p in (out / "plots").iterdir())
    print(f"\nplots: {plots}")
    print(f"outputs under {out}, removed when the demo exits")
