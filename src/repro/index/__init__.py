"""Per-document secondary indexes over the shredded node tables.

Three index families (see DESIGN.md, "Indexing"):

* the **value index** — element string-values, probed by rewritten
  value predicates;
* the **path index** — the root-path dictionary plus occurrences,
  probed by rewritten structural queries;
* **catalog statistics** — tag counts, depth histograms and
  distinct-value estimates feeding the scan-vs-index cost model.

An index is used when it exists: ``IndexManager.create(doc)`` builds
one, ``drop(doc)`` removes it, and the planner consults whatever is
there — an indexed and an unindexed store must answer every query
byte-identically.  Updates repair an existing index from their touched
set, or rebuild it when the touched set is too large; either way the
rows come from one producer and are checked by the invariant auditor
(:mod:`repro.check.invariants`), which derives them independently.
"""

from repro.index.advisor import (
    IndexAdvisor,
    IndexRecommendation,
    is_indexable_xpath,
)
from repro.index.cost import (
    INDEX_PROBE_COST,
    PATH_INDEX,
    SCAN,
    VALUE_INDEX,
    PlanChoice,
    choose_path_plan,
    choose_value_plan,
    estimate_value_matches,
)
from repro.index.manager import (
    INCR_FALLBACK_FRACTION,
    STATS_REFRESH_THRESHOLD,
    IndexContext,
    IndexManager,
)

__all__ = [
    "INCR_FALLBACK_FRACTION",
    "INDEX_PROBE_COST",
    "PATH_INDEX",
    "SCAN",
    "STATS_REFRESH_THRESHOLD",
    "VALUE_INDEX",
    "IndexAdvisor",
    "IndexContext",
    "IndexManager",
    "IndexRecommendation",
    "PlanChoice",
    "choose_path_plan",
    "choose_value_plan",
    "estimate_value_matches",
    "is_indexable_xpath",
]
