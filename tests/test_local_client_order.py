"""Local's client order walks up only until the results' chains meet.

A Local row knows only its place among its siblings, so the store puts
Local results in document order by fetching ancestors.  Every result's
chain moves up one level per step, and the walk stops as soon as all
chains stand on one node; the sort keys are the sibling-order paths
below it.  A single result and a single sibling list fetch nothing.
"""

import pytest

from repro.store import XmlStore
from repro.workload.docgen import sized_article_corpus

from tests.conftest import BACKENDS, assert_query_matches_oracle, counters


@pytest.fixture(scope="module", params=BACKENDS)
def local_store(request):
    document = sized_article_corpus(1114)
    store = XmlStore(backend=request.param, encoding="local")
    return store, store.load(document), document


@pytest.mark.parametrize(
    ("xpath", "statements"),
    [
        # One result is already in order.
        ("/journal/article[2]/title", 1),
        # One sibling list sorts by the lpos its rows carry.
        ("/journal/article[2]/section", 1),
        # The titles' chains meet at the journal: one fetch of the
        # articles, none of the journal.
        ("/journal/article/title", 2),
    ],
)
def test_the_walk_stops_where_the_chains_meet(
    local_store, xpath, statements
):
    store, doc, _document = local_store
    store.document_info(doc)  # the catalogue row is cached
    with counters() as count:
        items = store.query(xpath, doc)
        assert count("backend.statements") == statements
    assert items


@pytest.mark.parametrize(
    "xpath",
    [
        # Chains of unequal depth meet only at the document node.
        "//*",
        "//title | //article",
        "//para/ancestor-or-self::*",
        "//@*",
        "/journal | //para[1]",
        "//para/.. | //title",
        "//section/@no | //article/@id",
        # The axes across articles, and results in one article, whose
        # chains meet below the root.
        "/journal/article[3]/following::*",
        "/journal/article[2]/preceding::*",
    ],
)
def test_mixed_depth_results_come_back_in_document_order(local_store, xpath):
    store, doc, document = local_store
    assert_query_matches_oracle(store, doc, document, xpath)
