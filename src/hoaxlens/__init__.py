"""hoaxlens: did attention to a topic precede its article's creation?

The pipeline: ingest hourly traffic logs into a daily per-title store, strip
article markup into appearance features, build same-day creation cohorts, then
compare each article's link-neighborhood traffic drop against its cohort.
"""

from .attention import (
    bootstrap_mean_ci,
    cohort_d,
    delta_v,
    modified_z,
)
from .corpus import (
    build_cohort,
    load_creation_list,
    neighbor_set,
)
from .logstore import (
    FilterConfig,
    RedirectTable,
    clean_title,
    ingest,
    load_store,
    save_store,
    window_totals,
)
from .wikitext import (
    ArticleSource,
    compute_features,
    count_words,
    extract_external_links,
    extract_wikilinks,
    strip_markup,
)

__version__ = "0.1.0"

__all__ = [
    "ArticleSource",
    "FilterConfig",
    "RedirectTable",
    "bootstrap_mean_ci",
    "build_cohort",
    "clean_title",
    "cohort_d",
    "compute_features",
    "count_words",
    "delta_v",
    "extract_external_links",
    "extract_wikilinks",
    "ingest",
    "load_creation_list",
    "load_store",
    "modified_z",
    "neighbor_set",
    "save_store",
    "strip_markup",
    "window_totals",
]
