"""Workloads: document generators, query suites, update streams, mixes."""

from repro.workload.docgen import (
    article_corpus,
    catalog_corpus,
    document_stats,
    random_document,
    sized_article_corpus,
)
from repro.workload.mixer import (
    MixedWorkload,
    MixedWorkloadResult,
)
from repro.workload.queries import (
    ALL_QUERIES,
    CATALOG_QUERIES,
    ORDERED_QUERIES,
    UNORDERED_QUERIES,
    WorkloadQuery,
)
from repro.workload.update_ops import (
    UpdateStreamResult,
    UpdateWorkload,
    make_fragment,
)

__all__ = [
    "ALL_QUERIES",
    "CATALOG_QUERIES",
    "MixedWorkload",
    "MixedWorkloadResult",
    "ORDERED_QUERIES",
    "UNORDERED_QUERIES",
    "UpdateStreamResult",
    "UpdateWorkload",
    "WorkloadQuery",
    "article_corpus",
    "catalog_corpus",
    "document_stats",
    "make_fragment",
    "random_document",
    "sized_article_corpus",
]
