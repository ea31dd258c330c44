"""Store query tests: SQL execution vs the native oracle, over every
encoding (sqlite backend for speed; backend parity is covered separately).
"""

import pytest

from repro.store import XmlStore
from repro.workload import article_corpus
from repro.workload.queries import ORDERED_QUERIES, UNORDERED_QUERIES
from tests.conftest import (
    ALL_ENCODINGS,
    ENCODINGS,
    assert_query_matches_oracle,
    oracle_identities,
    store_identities,
    stored_depth,
)
from tests.test_golden_sql import INDEX_SNAPSHOT_QUERIES, SNAPSHOT_QUERIES

FIXED_QUERIES = [
    "/bib",
    "/bib/book",
    "/bib/book/title",
    "/bib/book[2]",
    "/bib/book[2]/author[1]",
    "/bib/book[last()]",
    "/bib/book[position() <= 2]/title",
    "//author",
    "//author/text()",
    "//book[@year = 2000]/title",
    "//book[@year < 2000]/title",
    "//book[author = 'Buneman']/title",
    "//book[price > 20]/title",
    "//book[count(author) > 1]/@year",
    "//book[contains(title, 'Web')]",
    "//book[starts-with(title, 'TCP')]/author",
    "//book[not(@year = 1994)]/title",
    "//book[@year = 1994 or author = 'Smith']/title",
    "//book[@year > 1995 and price < 50]/title",
    "//title/following-sibling::author",
    "//author[1]/following-sibling::author",
    "//author[3]/preceding-sibling::author",
    "/bib/book[1]/following::author",
    "/bib/book[3]/preceding::title",
    "/bib/book/author[last()]",
    "//book/*",
    "//book/node()",
    "//@year",
    "/bib/book[2]/@*",
    "//book[title]/title",
    "//book[author][price]/title",
    "/bib/book/descendant::text()",
    "/bib/descendant-or-self::book/title",
    "//author/parent::book/@id",
    "//price/ancestor::book/title",
    "//book/title/..",
    "//book[2]/self::book/title",
]


class TestFixedQueriesMatchOracle:
    @pytest.mark.parametrize("xpath", FIXED_QUERIES)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_query(self, encoding, xpath, bib_document):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(bib_document)
        assert_query_matches_oracle(store, doc, bib_document, xpath)


class TestBackendParity:
    """Both backends must return identical results for every encoding."""

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_minidb_equals_sqlite(self, encoding, bib_document):
        queries = [
            "/bib/book[2]/author[1]",
            "//book[@year < 2000]/title",
            "//title/following-sibling::author",
            "/bib/book[1]/following::author",
            "//book[count(author) > 1]/@year",
            "//book/author[last()]",
            # The corpus whose SQL text tests/data/golden_sql.json pins:
            # the engines get that one text each, so they must agree on
            # its answer — scan plans first, index plans after create().
            *SNAPSHOT_QUERIES,
            *INDEX_SNAPSHOT_QUERIES,
        ]
        lite = XmlStore(backend="sqlite", encoding=encoding)
        mini = XmlStore(backend="minidb", encoding=encoding)
        doc_l = lite.load(bib_document)
        doc_m = mini.load(bib_document)
        for indexed in (False, True):
            if indexed:
                lite.indexes.create(doc_l)
                mini.indexes.create(doc_m)
            for xpath in queries:
                assert store_identities(lite, doc_l, xpath) == \
                    store_identities(mini, doc_m, xpath), (xpath, indexed)


class TestWorkloadQueriesMatchOracle:
    """The benchmark query suites are correct on the benchmark corpus."""

    @pytest.mark.parametrize(
        "query", ORDERED_QUERIES + UNORDERED_QUERIES,
        ids=lambda q: q.id,
    )
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_workload_query(self, encoding, query):
        document = article_corpus(articles=6)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        got = store_identities(store, doc, query.xpath)
        want = oracle_identities(document, query.xpath)
        assert got == want


class TestQueryApi:
    def test_result_items_carry_values(self, bib_store):
        store, doc, _document = bib_store
        items = store.query("/bib/book/title", doc)
        assert [i.value for i in items] == [
            "TCP/IP Illustrated", "Data on the Web", "Economics",
        ]
        assert all(i.kind == "elem" for i in items)
        assert all(i.label == "title" for i in items)

    def test_text_results(self, bib_store):
        store, doc, _document = bib_store
        items = store.query("//price/text()", doc)
        assert [i.value for i in items] == ["65.95", "39.95", "10"]
        assert all(i.kind == "text" for i in items)

    def test_attribute_results(self, bib_store):
        store, doc, _document = bib_store
        items = store.query("//book/@year", doc)
        assert [i.value for i in items] == ["1994", "2000", "1999"]
        assert all(i.kind == "attribute" for i in items)
        assert [i.label for i in items] == ["year"] * 3

    def test_query_values_helper(self, bib_store):
        store, doc, _document = bib_store
        assert store.query_values("//author", doc) == [
            "Stevens", "Abiteboul", "Buneman", "Suciu", "Smith",
        ]

    def test_empty_result(self, bib_store):
        store, doc, _document = bib_store
        assert store.query("/bib/magazine", doc) == []

    def test_multiple_documents_are_isolated(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc1 = store.load("<a><x>1</x></a>")
        doc2 = store.load("<a><x>2</x><x>3</x></a>")
        assert store.query_values("//x/text()", doc1) == ["1"]
        assert store.query_values("//x/text()", doc2) == ["2", "3"]
        infos = store.documents()
        assert [i.doc for i in infos] == [doc1, doc2]

    def test_document_info(self, bib_store):
        store, doc, document = bib_store
        info = store.document_info(doc)
        assert info.node_count == document.node_count()
        assert stored_depth(store, doc) == 4  # bib / book / title / text()
        assert info.next_id == info.node_count + 1
        assert (info.encoding, info.indexed) == (store.encoding.name, False)

    def test_unknown_document_raises(self, bib_store):
        store, _doc, _document = bib_store
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            store.document_info(999)

    @pytest.mark.skip_audit  # the catalogue row names no known encoding
    @pytest.mark.parametrize("value", ["bogus", None])
    def test_unknown_catalogued_encoding_raises(self, value, tmp_path, capsys):
        from repro.backends.sqlite_backend import SqliteBackend
        from repro.cli import main
        from repro.errors import StorageError

        db, xml = str(tmp_path / "e.db"), tmp_path / "e.xml"
        xml.write_text("<r><a/></r>")
        assert main(["load", str(xml), "--db", db]) == 0
        store = XmlStore(backend=SqliteBackend(db))
        store.backend.execute("UPDATE documents SET encoding = ?", (value,))
        message = (
            f"document 1 is catalogued under unknown encoding {value!r}; "
            "expected one of ['dewey', 'global', 'local', 'ordpath']"
        )
        for read in (
            store.documents,
            lambda: store.query("/r", 1),
            lambda: store.updates.delete(1, 2),
        ):
            with pytest.raises(StorageError) as raised:
                read()
            assert str(raised.value) == message
        store.close()
        capsys.readouterr()
        for command in (["dump"], ["check"], ["query", "/r"]):
            assert main([*command, "--db", db]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {message}"]

    def test_invalid_gap_rejected(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            XmlStore(backend="sqlite", encoding="global", gap=0)


class TestDocumentManagement:
    def test_delete_document_removes_all_rows(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc1 = store.load("<a><b x='1'>t</b></a>")
        doc2 = store.load("<c><d>u</d></c>")
        removed = store.delete_document(doc1)
        assert removed >= 4  # nodes + attribute
        assert [i.doc for i in store.documents()] == [doc2]
        # The other document is untouched.
        assert store.query_values("//d/text()", doc2) == ["u"]
        count = store.backend.execute(
            f"SELECT COUNT(*) FROM {store.node_table} WHERE doc = ?",
            (doc1,),
        )
        assert count.rows[0][0] == 0

    def test_delete_unknown_document_raises(self, encoding):
        from repro.errors import StorageError

        store = XmlStore(backend="sqlite", encoding=encoding)
        with pytest.raises(StorageError):
            store.delete_document(42)

    def test_reload_after_delete_gets_fresh_id(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc1 = store.load("<a/>")
        store.delete_document(doc1)
        doc2 = store.load("<b/>")
        assert store.query("/b", doc2)
