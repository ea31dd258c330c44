"""Per-document secondary indexes over the shredded node tables.

Two index families (see DESIGN.md, "Indexing"):

* the **value index** — element string-values, probed by rewritten
  value predicates;
* the **path index** — the root-path dictionary plus occurrences,
  probed by rewritten structural queries.

An index is used when it exists: ``IndexManager.create(doc)`` builds
one, ``drop(doc)`` removes it, and every eligible fragment of a query
over an indexed document probes it — an indexed and an unindexed store
must answer every query byte-identically.  Updates repair an existing
index from their touched set, or rebuild it when the touched set is too
large; either way the rows come from one producer and are checked by
the invariant auditor (:mod:`repro.check.invariants`), which derives
them independently.
"""

from repro.index.advisor import IndexAdvisor, IndexRecommendation
from repro.index.manager import INCR_FALLBACK_FRACTION, IndexManager

__all__ = [
    "INCR_FALLBACK_FRACTION",
    "IndexAdvisor",
    "IndexManager",
    "IndexRecommendation",
]
