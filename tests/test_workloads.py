"""Tests for the workload package: generators, update streams, mixer."""

import pytest

from repro.store import XmlStore
from repro.workload import (
    MixedWorkload,
    ORDERED_QUERIES,
    UNORDERED_QUERIES,
    UpdateWorkload,
    article_corpus,
    catalog_corpus,
    document_stats,
    make_fragment,
    random_document,
    sized_article_corpus,
)
from repro.workload.queries import CATALOG_QUERIES
from repro.xmldom import Document, Element, Text, serialize


class TestDocGen:
    def test_article_corpus_shape(self):
        doc = article_corpus(articles=5)
        assert doc.root.tag == "journal"
        articles = [c for c in doc.root.element_children()
                    if c.tag == "article"]
        assert len(articles) == 5
        first = articles[0]
        assert first.get("id") == "a1"
        tags = {c.tag for c in first.element_children()}
        assert {"title", "section"} <= tags

    def test_article_corpus_deterministic(self):
        a = serialize(article_corpus(articles=3, seed=9))
        b = serialize(article_corpus(articles=3, seed=9))
        assert a == b
        c = serialize(article_corpus(articles=3, seed=10))
        assert a != c

    def test_catalog_corpus_shape(self):
        doc = catalog_corpus(products=4)
        products = [c for c in doc.root.element_children()
                    if c.tag == "product"]
        assert len(products) == 4
        for product in products:
            assert product.get("sku")
            (price,) = [c for c in product.element_children()
                        if c.tag == "price"]
            float(price.text_value())  # numeric simple content

    def test_sized_corpus_hits_target(self):
        doc = sized_article_corpus(3000)
        nodes = document_stats(doc)["nodes"]
        assert 1500 <= nodes <= 6000

    def test_random_document_no_adjacent_text(self):
        for seed in range(30):
            doc = random_document(seed)
            for node in doc.iter_preorder():
                if isinstance(node, Element):
                    for left, right in zip(node.children,
                                           node.children[1:]):
                        assert not (
                            isinstance(left, Text)
                            and isinstance(right, Text)
                        )

    def test_document_stats(self):
        doc = article_corpus(articles=2)
        stats = document_stats(doc)
        assert stats["nodes"] > stats["elements"] > 0
        assert stats["max_depth"] >= 4

    def test_simple_content_fields(self):
        """Value-bearing fields must have a single text child (the
        direct-text materialisation requirement)."""
        doc = article_corpus(articles=4)
        for node in doc.iter_preorder():
            if isinstance(node, Element) and node.tag in (
                "title", "author", "para",
            ):
                assert len(node.children) == 1
                assert isinstance(node.children[0], Text)


class TestQuerySuites:
    def test_suites_are_nonempty_and_distinct(self):
        ids = [q.id for q in ORDERED_QUERIES + UNORDERED_QUERIES
               + CATALOG_QUERIES]
        assert len(ids) == len(set(ids))
        assert len(ORDERED_QUERIES) == 8
        assert len(UNORDERED_QUERIES) == 4

    def test_all_queries_parse(self):
        from repro.xpath import parse_xpath

        for query in ORDERED_QUERIES + UNORDERED_QUERIES + \
                CATALOG_QUERIES:
            parse_xpath(query.xpath)

    def test_queries_return_results_on_default_corpus(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(article_corpus(articles=10))
        for query in ORDERED_QUERIES + UNORDERED_QUERIES:
            assert store.query(query.xpath, doc), query.id

    def test_catalog_queries_return_results(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=20))
        for query in CATALOG_QUERIES:
            assert store.query(query.xpath, doc), query.id


class TestUpdateWorkload:
    def _store(self, encoding="dewey", gap=None):
        store = XmlStore(backend="sqlite", encoding=encoding, gap=gap)
        doc = store.load(article_corpus(articles=4))
        return store, doc

    def test_make_fragment_size(self):
        fragment = make_fragment(payload_nodes=4)
        carrier = Document()
        carrier.append(fragment)
        assert carrier.node_count() >= 3

    def test_insert_positions(self):
        store, doc = self._store()
        workload = UpdateWorkload(store, doc, seed=1)
        root = store.query("/journal", doc)[0].node_id
        n_before = store.node_count(doc)
        for where in ("first", "middle", "last", "random"):
            workload.insert_at(root, where)
        assert store.node_count(doc) > n_before

    def test_insert_stream_accumulates(self):
        store, doc = self._store("global", gap=1)
        workload = UpdateWorkload(store, doc)
        root = store.query("/journal", doc)[0].node_id
        result = workload.insert_stream(root, "first", 3)
        assert result.operations == 3
        assert result.inserted >= 3
        assert result.relabeled > 0  # dense global front inserts

    def test_delete_random(self):
        store, doc = self._store()
        workload = UpdateWorkload(store, doc, seed=2)
        before = store.node_count(doc)
        report = workload.delete_random("/journal/article/section")
        assert report is not None
        assert store.node_count(doc) < before

    def test_delete_random_no_candidates(self):
        store, doc = self._store()
        workload = UpdateWorkload(store, doc)
        assert workload.delete_random("//nonexistent") is None


class TestMixedWorkload:
    def test_zero_fraction_runs_only_queries(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(article_corpus(articles=4))
        mix = MixedWorkload(
            store, doc, ORDERED_QUERIES,
            insert_parent_xpath="/journal/article/section[1]",
        )
        result = mix.run(operations=10, update_fraction=0.0)
        assert result.query_operations == 10
        assert result.update_operations == 0

    def test_full_fraction_runs_only_updates(self):
        store = XmlStore(backend="sqlite", encoding="local")
        doc = store.load(article_corpus(articles=4))
        mix = MixedWorkload(
            store, doc, ORDERED_QUERIES,
            insert_parent_xpath="/journal/article/section[1]",
        )
        result = mix.run(operations=10, update_fraction=1.0)
        assert result.update_operations == 10
        assert result.query_operations == 0

    def test_schedule_is_seed_deterministic(self):
        counts = []
        for _ in range(2):
            store = XmlStore(backend="sqlite", encoding="dewey")
            doc = store.load(article_corpus(articles=4))
            mix = MixedWorkload(
                store, doc, UNORDERED_QUERIES,
                insert_parent_xpath="/journal/article/section[1]",
                seed=7,
            )
            result = mix.run(operations=20, update_fraction=0.5)
            counts.append(
                (result.query_operations, result.update_operations)
            )
        assert counts[0] == counts[1]

    def test_bad_parent_xpath_rejected(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(article_corpus(articles=2))
        with pytest.raises(ValueError):
            MixedWorkload(
                store, doc, ORDERED_QUERIES,
                insert_parent_xpath="//nothing",
            )
