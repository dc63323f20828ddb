"""hoaxlens: did attention to a topic precede its article's creation?

The pipeline: ingest hourly traffic logs into a daily per-title store, strip
article markup into appearance features, build same-day creation cohorts, then
compare each article's link-neighborhood traffic drop against its cohort.
"""

from importlib import import_module

# Each export and the module that defines it. The package imports a module on
# first use of one of its names, so a stage pays only for what it runs.
_EXPORTS = {
    "bootstrap_mean_ci": "attention",
    "cohort_d": "attention",
    "delta_v": "attention",
    "modified_z": "attention",
    "build_cohort": "corpus",
    "load_creation_list": "corpus",
    "neighbor_set": "corpus",
    "FilterConfig": "logstore",
    "ingest": "logstore",
    "load_store": "logstore",
    "save_store": "logstore",
    "window_totals": "logstore",
    "RedirectTable": "titles",
    "clean_title": "titles",
    "ArticleSource": "wikitext",
    "compute_features": "wikitext",
    "count_words": "wikitext",
    "extract_external_links": "wikitext",
    "extract_wikilinks": "wikitext",
    "strip_markup": "wikitext",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
