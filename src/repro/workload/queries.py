"""Query workloads for the benchmark suite.

Two suites over the article corpus, mirroring the paper's split:

* ``ORDERED_QUERIES`` (Q1–Q8) exercise order: positional predicates,
  ``last()``, sibling axes, and the document-order axes ``following``/
  ``preceding`` — where the encodings differ;
* ``UNORDERED_QUERIES`` (U1–U4) are plain structural/value queries where
  the encodings should be comparable.

``CATALOG_QUERIES`` give the data-centric examples a realistic mix.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadQuery:
    """A named query with the feature class it exercises."""

    id: str
    xpath: str
    feature: str


ORDERED_QUERIES: tuple[WorkloadQuery, ...] = (
    WorkloadQuery(
        "Q1", "/journal/article[5]/title", "positional child"
    ),
    WorkloadQuery(
        "Q2", "/journal/article/section[2]/para[1]",
        "nested positional",
    ),
    WorkloadQuery(
        "Q3", "/journal/article/section[position() <= 3]/title",
        "positional range",
    ),
    WorkloadQuery(
        "Q4", "/journal/article/author[last()]", "last()"
    ),
    WorkloadQuery(
        "Q5",
        "/journal/article/section[1]/following-sibling::section",
        "following-sibling",
    ),
    WorkloadQuery(
        "Q6",
        "/journal/article/section[3]/preceding-sibling::section/title",
        "preceding-sibling",
    ),
    WorkloadQuery(
        "Q7", "/journal/article[3]/following::author",
        "following (document order)",
    ),
    WorkloadQuery(
        "Q8", "/journal/article[2]/preceding::title",
        "preceding (document order)",
    ),
)

UNORDERED_QUERIES: tuple[WorkloadQuery, ...] = (
    WorkloadQuery("U1", "/journal/article/title", "simple path"),
    WorkloadQuery("U2", "//para", "descendant"),
    WorkloadQuery(
        "U3", "//article[@year >= 1998]/title", "attribute value filter"
    ),
    WorkloadQuery("U4", "//section[para]/title", "existential"),
)

CATALOG_QUERIES: tuple[WorkloadQuery, ...] = (
    WorkloadQuery("C1", "/catalog/product/name", "simple path"),
    WorkloadQuery("C2", "//product[price < 50]/name", "value filter"),
    WorkloadQuery(
        "C3", "//product[review]/review[1]/comment", "positional"
    ),
    WorkloadQuery(
        "C4", "//product[@category = 'books']/price", "attribute filter"
    ),
    WorkloadQuery(
        "C5", "//review[@rating >= 4]/comment/text()", "deep attribute"
    ),
)

ALL_QUERIES = ORDERED_QUERIES + UNORDERED_QUERIES
