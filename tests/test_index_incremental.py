"""Incremental secondary-index maintenance.

Four guards around the touched-set maintenance path:

* **equivalence** — after every op of a seeded update script the
  maintained index must pass the invariant audit (which derives the
  expected rows from the node tables on its own) and its tables must
  be byte-identical to those of a twin that rebuilds its index with
  ``indexes.create`` after every op, across all four encodings and
  both backends;
* **scaling** — maintenance row writes, and the rows any single write
  reads, must track the update's touched rows, not the document size
  (the counter-based regressions that pin the complexity claim);
* **fallback** — deltas past the invalidation budget fall back to the
  full rebuild and still converge on the twin's tables;
* **satellites** — zero-row no-op updates skip maintenance entirely.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import ALL_ENCODINGS, BACKENDS
from repro.check import audit_document
from repro.check.fuzz import apply_operation, plan_operation
from repro.index import manager
from repro.obs import METRICS
from repro.store import XmlStore
from repro.workload import catalog_corpus
from repro.workload.docgen import random_document, sized_article_corpus

IDX_TABLES = ("idx_sval", "idx_paths", "idx_pathmap", "idx_stats")


def index_tables(store: XmlStore, doc: int) -> tuple:
    return tuple(
        tuple(sorted(store.backend.execute(
            f"SELECT * FROM {table} WHERE doc = ?", (doc,)
        ).rows))
        for table in IDX_TABLES
    )


@pytest.fixture
def whole_document_budget(monkeypatch):
    """Keep tiny fuzz documents on the repair path: the default budget
    would route most ops through the fallback rebuild, which trivially
    matches the rebuilt twin."""
    monkeypatch.setattr(manager, "INCR_FALLBACK_FRACTION", 1.0)


def twin_pair(backend: str, encoding: str, document):
    """Two indexed stores of *document*: ``(incr, doc, eager, doc)``.
    The first is only ever maintained by its updates; callers rebuild
    the second (``indexes.create``) after every op."""
    pair = []
    for _ in range(2):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(document)
        store.indexes.create(doc)
        pair += [store, doc]
    return pair


def apply_to_both(incr, doc_i, eager, doc_e, op) -> None:
    apply_operation(incr, doc_i, op)
    apply_operation(eager, doc_e, op)
    eager.indexes.create(doc_e)
    assert audit_document(incr, doc_i) == [], op["describe"]
    assert index_tables(incr, doc_i) == index_tables(eager, doc_e), (
        f"tables diverged after {op['describe']}"
    )


@pytest.mark.usefixtures("whole_document_budget")
class TestIncrementalVsEager:
    """The equivalence property: a clean audit and byte-identical data
    tables after every op."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_seeded_script_leaves_identical_tables(
        self, backend, encoding
    ):
        document = random_document(13, max_depth=4, max_children=3)
        incr, doc_i, eager, doc_e = twin_pair(backend, encoding, document)
        assert index_tables(incr, doc_i) == index_tables(eager, doc_e)
        rng = random.Random(1301)
        for _ in range(12):
            op = plan_operation(rng, incr, doc_i, update_heavy=True)
            apply_to_both(incr, doc_i, eager, doc_e, op)
        incr.close()
        eager.close()

    def test_incremental_path_actually_taken(self):
        document = random_document(13, max_depth=4, max_children=3)
        incr, doc, eager, _doc_e = twin_pair("sqlite", "dewey", document)
        eager.close()
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            rng = random.Random(1301)
            for _ in range(8):
                op = plan_operation(rng, incr, doc, update_heavy=True)
                apply_operation(incr, doc, op)
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert counters["index.incremental"] >= 1
        assert counters.get("index.fallback_rebuild", 0) == 0
        incr.close()


class TestMaintenanceScaling:
    """Row writes track the touched set, not the document."""

    def _writes_for_one_set_text(self, products: int) -> int:
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=products))
        store.indexes.create(doc)
        catalog = store.fetch_children(doc, 0)[0]
        product = store.fetch_children(doc, catalog["id"])[0]
        name = store.fetch_children(doc, product["id"])[0]
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store.updates.set_text(doc, name["id"], "renamed")
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        store.close()
        assert counters["index.incremental"] == 1
        assert counters.get("index.fallback_rebuild", 0) == 0
        return counters["index.row_writes"]

    def test_row_writes_independent_of_document_size(self):
        small = self._writes_for_one_set_text(products=8)
        large = self._writes_for_one_set_text(products=160)
        # Same op shape at the same depth: identical repair cost, and
        # nowhere near the 160-product document's element count.
        assert small == large
        assert large < 40

    def test_eager_rebuild_writes_scale_with_document(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=160))
        store.indexes.create(doc)
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store.indexes.create(doc)  # the rebuild an update avoids
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        store.close()
        incremental = self._writes_for_one_set_text(products=160)
        assert counters["index.row_writes"] > 10 * incremental

    @pytest.mark.parametrize("encoding", ("dewey", "local"))
    def test_no_write_reads_the_whole_document(self, encoding):
        """On minidb's deterministic counters: 100 single-node inserts
        into an indexed 3000-node document, each appended under a
        different paragraph (so no sibling is renumbered).  Every write
        reads about what the median write reads — nothing surveys the
        document on a schedule."""
        store = XmlStore(backend="minidb", encoding=encoding)
        doc = store.load(sized_article_corpus(3000))
        store.indexes.create(doc)
        paras = [item.node_id for item in store.query("//para", doc)]
        stats = store.backend.db.stats
        reads = []
        for n in range(100):
            parent = paras[(n * 7) % len(paras)]
            position = len(store.fetch_children(doc, parent))
            before = stats.rows_read
            store.updates.insert(doc, parent, position, "<i/>")
            reads.append(stats.rows_read - before)
        median = sorted(reads)[len(reads) // 2]
        assert max(reads) <= 2 * median, (
            f"write #{reads.index(max(reads)) + 1} read {max(reads)} "
            f"rows, the median write {median}"
        )
        assert median < store.document_info(doc).node_count / 5
        store.close()


class TestFallbackPolicy:
    def test_large_delete_falls_back_and_still_converges(self):
        document = random_document(1, max_depth=4, max_children=3)
        incr, doc_i, eager, doc_e = twin_pair("sqlite", "global", document)
        # Delete the bulkiest top-level subtree: far past the default
        # invalidation budget on a small document.
        root = incr.fetch_children(doc_i, 0)[0]
        target = max(
            (
                child
                for child in incr.fetch_children(doc_i, root["id"])
                if child["kind"] == "elem"
            ),
            key=lambda child: len(incr.updates._subtree_ids(doc_i, child)),
        )
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            incr.updates.delete(doc_i, target["id"])
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        eager.updates.delete(doc_e, target["id"])
        eager.indexes.create(doc_e)
        assert counters.get("index.fallback_rebuild", 0) >= 1
        assert audit_document(incr, doc_i) == []
        assert index_tables(incr, doc_i) == index_tables(eager, doc_e)
        incr.close()
        eager.close()


class TestSatelliteFixes:
    def _indexed_catalog(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=6))
        store.indexes.create(doc)
        return store, doc

    def test_noop_update_skips_maintenance(self):
        store, doc = self._indexed_catalog()
        catalog = store.fetch_children(doc, 0)[0]
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            # Removing an attribute that does not exist touches zero
            # rows: no repair, no rebuild.
            report = store.updates.set_attribute(
                doc, catalog["id"], "nope", None
            )
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert report.rows_touched() == 0
        assert counters.get("index.maintained", 0) == 0
        assert counters.get("index.row_writes", 0) == 0
        store.close()

    def test_noop_update_skips_eager_rebuild_too(self, monkeypatch):
        """With the budget at its floor a real multi-row update
        rebuilds; the zero-row no-op still does nothing at all."""
        monkeypatch.setattr(manager, "INCR_FALLBACK_FRACTION", 0.0)
        store, doc = self._indexed_catalog()
        catalog = store.fetch_children(doc, 0)[0]
        product = store.fetch_children(doc, catalog["id"])[0]
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store.updates.set_attribute(doc, catalog["id"], "nope", None)
            noop = METRICS.snapshot()["counters"]
            store.updates.delete(doc, product["id"])
            real = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert noop.get("index.maintained", 0) == 0
        assert noop.get("index.row_writes", 0) == 0
        assert real["index.fallback_rebuild"] == 1
        store.close()
