"""Run one hoaxlens stage with spans around the calls into each module.

Usage: python3 launch.py SPANS_JSON SPAWN_CLOCK STAGE --config PATH ...

The wrappers replace names where the pipeline looks them up (the module
attributes cli calls through, corpus's imported extract_wikilinks, the
RedirectTable methods), so nothing under src/ changes. Spans stay in memory
and are written once, when the stage returns. The root span opens at
SPAWN_CLOCK, the parent's time.monotonic() reading just before it started this
process, so interpreter start-up and imports are inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.monotonic

# Each span: [name, start, end, parent index, note]; index 0 is the stage root.
spans: list[list] = []
stack: list[int] = [0]


def _open(name: str, start: float) -> int:
    spans.append([name, start, 0.0, stack[-1], None])
    return len(spans) - 1


def traced(name: str, fn, note=None):
    """fn wrapped in a span; note(args, kwargs, result) may attach counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = _open(name, clock())
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            spans[idx][4] = {"raised": type(exc).__name__}
            raise
        finally:
            spans[idx][2] = clock()
            stack.pop()
        if note is not None:
            spans[idx][4] = note(args, kwargs, result)
        return result

    return wrapper


def _utf8_len(text) -> int:
    return len(text.encode("utf-8")) if text else 0


def install() -> None:
    from hoaxlens import attention, cli, corpus, logstore, svgplot, wikitext

    def wrap(owner, attr, name, note=None):
        setattr(owner, attr, traced(name, getattr(owner, attr), note))

    def wrap_classmethod(cls, attr, name):
        setattr(cls, attr, staticmethod(traced(name, getattr(cls, attr))))

    wrap(cli.logstore, "ingest", "logstore.ingest")
    wrap(cli.logstore, "save_store", "logstore.save_store")
    wrap(cli.logstore, "load_store", "logstore.load_store")
    wrap(cli.logstore, "window_totals", "logstore.window_totals")
    wrap_classmethod(logstore.RedirectTable, "load", "logstore.RedirectTable.load")
    wrap(logstore.RedirectTable, "flattened", "logstore.RedirectTable.flattened")

    wrap(cli.wikitext, "load_article", "wikitext.load_article",
         lambda a, k, r: {"bytes": _utf8_len(r.markup) + _utf8_len(r.plain)})
    wrap(cli.wikitext, "compute_features", "wikitext.compute_features",
         lambda a, k, r: {"bytes": _utf8_len(a[0].markup)})
    wrap(wikitext, "strip_markup", "wikitext.strip_markup")
    links = traced("wikitext.extract_wikilinks", wikitext.extract_wikilinks)
    wikitext.extract_wikilinks = links
    corpus.extract_wikilinks = links

    wrap(cli.corpus, "load_hoaxes", "corpus.load_hoaxes")
    wrap(cli.corpus, "load_creation_list", "corpus.load_creation_list")
    wrap(cli.corpus, "build_cohort", "corpus.build_cohort")
    wrap(cli.corpus, "neighbor_set", "corpus.neighbor_set", lambda a, k, r: {"neighbors": len(r)})

    wrap(cli.attention, "delta_v", "attention.delta_v", lambda a, k, r: {"undefined": int(r is None)})
    wrap(cli.attention, "cohort_d", "attention.cohort_d")
    wrap(cli.attention, "modified_z", "attention.modified_z")
    wrap(cli.attention, "bootstrap_mean_ci", "attention.bootstrap_mean_ci")
    wrap(attention, "bootstrap_resample_means", "attention.bootstrap_resample_means",
         lambda a, k, r: {"n": len(a[0]), "resamples": k.get("resamples", 10000)})

    wrap(cli.svgplot, "compute_histogram", "svgplot.compute_histogram")
    wrap(svgplot, "render_histogram", "svgplot.render_histogram",
         lambda a, k, r: {"bytes": _utf8_len(r)})


def main() -> int:
    out_path, spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    spans.append([f"cli.{argv[0]}", spawn, 0.0, -1, None])
    startup = _open("cli.startup", spawn)
    from hoaxlens import cli

    install()
    spans[startup][2] = clock()
    try:
        return cli.main(argv)
    finally:
        spans[0][2] = clock()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
