"""Per-document secondary indexes over the shredded node tables.

Two index families (see DESIGN.md, "Indexing"):

* the **value index** — the string-values of the elements with no
  element child, probed by rewritten value predicates;
* the **path index** — each element's rooted path, kept in the same
  row, probed by rewritten structural queries.

An index is used when it exists: ``IndexManager.create(doc)`` builds
one, ``drop(doc)`` removes it, and every eligible fragment of a query
over an indexed document probes it — an indexed and an unindexed store
must answer every query byte-identically.  Each insert, delete and
rename repairs the index rows it changed where it writes, and only a
corrupt index (a parent with no row) is rebuilt instead; either way
the rows come from one producer and are checked by the invariant
auditor (:mod:`repro.check.invariants`), which derives them
independently.
"""

from repro.index.advisor import IndexAdvisor, IndexRecommendation
from repro.index.manager import IndexManager

__all__ = [
    "IndexAdvisor",
    "IndexManager",
    "IndexRecommendation",
]
