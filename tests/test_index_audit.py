"""The invariant auditor's secondary-index checks.

``audit_document`` derives, from the node rows alone, what an indexed
document's ``idx_sval`` rows must be.  Each violation
code is provoked here by hand-corrupting exactly one row, on both
backends; the clean direction — no finding on a correctly maintained
index — is asserted after every operation of a fixed-seed index-twin
matrix (and by the autouse post-test audit of every other test).
"""

from __future__ import annotations

import pytest

from tests.conftest import ALL_ENCODINGS, BACKENDS, BIB_XML
from repro.check import audit_document, audit_store
from repro.check.fuzz import FuzzConfig, run_fuzz
from repro.store import XmlStore

#: In BIB_XML: the first book is node 2 (root path ``/bib/book``), its
#: title node 3 (``/bib/book/title``).
BOOK, TITLE = 2, 3


def _indexed_bib(backend: str) -> tuple[XmlStore, int]:
    store = XmlStore(backend=backend, encoding="dewey")
    doc = store.load(BIB_XML)
    store.indexes.create(doc)
    assert audit_store(store) == []
    return store, doc


def _sql(store: XmlStore, sql: str, params: tuple = ()):
    with store.backend.transaction():
        return store.backend.execute(sql, params)


def _findings(store: XmlStore, doc: int) -> list[tuple[str, int]]:
    return [(v.code, v.node_id) for v in audit_document(store, doc)]


@pytest.mark.skip_audit  # every test here corrupts its store on purpose
@pytest.mark.parametrize("backend", BACKENDS)
class TestIndexCorruptionIsReported:
    def test_stale_string_value(self, backend):
        store, doc = _indexed_bib(backend)
        _sql(store,
             "UPDATE idx_sval SET leaf_text = 'x' WHERE doc = ? AND id = ?",
             (doc, TITLE))
        assert _findings(store, doc) == [("index-sval-stale", TITLE)]

    def test_element_with_an_element_child_holding_a_value(self, backend):
        """The book has element children: its row holds NULL, not the
        string-value a build that kept it would have written."""
        store, doc = _indexed_bib(backend)
        _sql(store,
             "UPDATE idx_sval SET leaf_text = 'x' WHERE doc = ? AND id = ?",
             (doc, BOOK))
        assert _findings(store, doc) == [("index-sval-stale", BOOK)]

    def test_leaf_holding_null(self, backend):
        """The title has no element child: its row holds its text."""
        store, doc = _indexed_bib(backend)
        _sql(store,
             "UPDATE idx_sval SET leaf_text = ? WHERE doc = ? AND id = ?",
             (None, doc, TITLE))
        assert _findings(store, doc) == [("index-sval-stale", TITLE)]

    def test_stale_numeric_value(self, backend):
        store, doc = _indexed_bib(backend)
        _sql(store, "UPDATE idx_sval SET nval = 7 WHERE doc = ? AND id = ?",
             (doc, TITLE))
        assert _findings(store, doc) == [("index-sval-stale", TITLE)]

    def test_missing_value_row(self, backend):
        store, doc = _indexed_bib(backend)
        _sql(store, "DELETE FROM idx_sval WHERE doc = ? AND id = ?",
             (doc, BOOK))
        assert _findings(store, doc) == [("index-row-missing", BOOK)]

    def test_repointed_path_occurrence(self, backend):
        """A stale ``path`` text naming another element's path."""
        store, doc = _indexed_bib(backend)
        (book_path,), = _sql(
            store, "SELECT path FROM idx_sval WHERE doc = ? AND id = ?",
            (doc, BOOK),
        ).rows
        _sql(store,
             "UPDATE idx_sval SET path = ? WHERE doc = ? AND id = ?",
             (book_path, doc, TITLE))
        assert _findings(store, doc) == [("index-path-stale", TITLE)]

    def test_occurrence_of_unknown_path(self, backend):
        """A stale ``path`` text no element of the document has."""
        store, doc = _indexed_bib(backend)
        _sql(store,
             "UPDATE idx_sval SET path = '/bib/nowhere' "
             "WHERE doc = ? AND id = ?",
             (doc, TITLE))
        assert _findings(store, doc) == [("index-path-stale", TITLE)]

    def test_occurrence_rows_of_a_deleted_node(self, backend):
        """What a delete that forgot index maintenance leaves behind."""
        store, doc = _indexed_bib(backend)
        kept, = _sql(
            store, "SELECT * FROM idx_sval WHERE doc = ? AND id = ?",
            (doc, TITLE),
        ).rows
        store.updates.delete(doc, TITLE)
        _sql(store, "INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?, ?)",
             kept)
        assert _findings(store, doc) == [("index-orphan-row", TITLE)]

    def test_duplicate_occurrence_row(self, backend):
        store, doc = _indexed_bib(backend)
        row, = _sql(
            store, "SELECT * FROM idx_sval WHERE doc = ? AND id = ?",
            (doc, BOOK),
        ).rows
        _sql(store, "INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?, ?)", row)
        assert _findings(store, doc) == [("index-duplicate-row", BOOK)]

    def test_occurrence_rows_without_an_index(self, backend):
        """``drop`` clears ``indexed`` and removes the rows together;
        rows that outlive the flag are orphans, not a half-present
        index."""
        store, doc = _indexed_bib(backend)
        _sql(store, "UPDATE documents SET indexed = 0 WHERE doc = ?", (doc,))
        codes = {code for code, _node in _findings(store, doc)}
        assert codes == {"index-orphan-row"}

    def test_rows_of_a_dropped_document(self, backend):
        store, doc = _indexed_bib(backend)
        other = store.load("<keep/>")
        encoding = store.encoding_for(doc)
        for table in (encoding.node_table.name, encoding.attr_table.name,
                      "documents"):
            _sql(store, f"DELETE FROM {table} WHERE doc = ?", (doc,))
        found = {(v.code, v.doc) for v in audit_store(store)}
        assert found == {("catalog-missing-doc", doc)}
        assert audit_document(store, other) == []


class TestCleanIndexReportsNothing:
    @pytest.mark.parametrize("update_heavy", (False, True))
    def test_audit_after_every_op_of_the_index_twin_matrix(
        self, update_heavy
    ):
        """``check_every=1``: the fuzz cell audits every indexed store
        after each operation, so one stale index row anywhere in the
        stream is an ``invariant`` failure naming its code."""
        config = FuzzConfig(
            seeds=1, ops=10, encodings=ALL_ENCODINGS, backends=BACKENDS,
            base_seed=11, queries_per_check=2, check_every=1,
            index_twin=True, update_heavy=update_heavy,
        )
        report = run_fuzz(config)
        assert report.ok(), "\n".join(str(f) for f in report.failures)
        assert report.operations == 10
        assert report.index_plans["path-index"] > 0
        assert report.index_plans["value-index"] > 0
