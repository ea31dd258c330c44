"""The way out is the way in, backwards.

A stored document reads back as the events its text parses to:
``row_events(ordered_rows(...))`` against ``xmldom.parser.events``, on
every encoding, both backends, dense and sparse, and — against the
events of an independently maintained DOM — after every operation of an
update stream.  The rest pins what that buys: a reconstruct is two
statements at any size with no sort step, and a stored document is
relabelled by the labeler that labels a loaded one.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.fuzz import apply_operation, plan_operation
from repro.core.reconstruct import (
    ordered_rows, row_events, stored_attributes,
)
from repro.core.shredder import _dom_events, relabel, shred
from repro.errors import StorageError
from repro.store import XmlStore
from repro.workload.docgen import (
    article_corpus, catalog_corpus, random_document, sized_article_corpus,
)
from repro.xmldom import Element, Text, parse, parse_fragment, serialize
from repro.xmldom.parser import events
from repro.xpath import Evaluator

from tests.conftest import ALL_ENCODINGS, BACKENDS
from tests.test_cache import counters
from tests.test_golden_xml import indexed_corpus

GAPS = (1, 64)

CORPUS = {
    **indexed_corpus(),
    "docgen-article": serialize(article_corpus(articles=3, seed=21)),
    "docgen-catalog": serialize(
        catalog_corpus(products=5, seed=22), pretty=True
    ),
}


def stored_events(store, doc, root_row=None) -> list:
    return list(row_events(
        ordered_rows(store, doc, root_row), stored_attributes(store, doc)
    ))


class TestStoredRowsReadBackAsTheReadersEvents:
    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_corpus_round_trips_event_for_event(
        self, encoding, backend, gap
    ):
        store = XmlStore(backend=backend, encoding=encoding, gap=gap)
        assert len(CORPUS) > 30
        for name, text in CORPUS.items():
            doc = store.load(text)
            assert stored_events(store, doc) == list(events(text)), name

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), strip=st.booleans())
    def test_random_documents_round_trip_event_for_event(
        self, seed, strip
    ):
        text = serialize(random_document(seed), pretty=strip)
        store = XmlStore(
            backend=BACKENDS[seed % 2],
            encoding=ALL_ENCODINGS[seed // 2 % 4],
            gap=GAPS[seed // 8 % 2],
        )
        doc = store.load(text, strip_whitespace=strip)
        assert stored_events(store, doc) == list(events(text, strip))

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_a_subtree_reads_back_as_its_own_events(self, encoding):
        text = CORPUS["rows-document"]
        store = XmlStore(encoding=encoding)
        doc = store.load(text)
        xpath = "//section | //wide | //p/text()"
        items = store.query(xpath, doc)
        oracle = Evaluator(parse(text)).evaluate(xpath)
        assert len(items) == len(oracle) > 10
        for item, node in zip(items, oracle):
            root_row = store.fetch_node(doc, item.node_id)
            assert stored_events(store, doc, root_row) == list(
                events(serialize(node), fragment=True)
            )


class DomMirror:
    """The fuzz stream's operations applied to a DOM, keyed by the
    surrogate ids the store allocates (dense, preorder, never reused)."""

    def __init__(self, text: str) -> None:
        self.document = parse(text)
        self.nodes = dict(enumerate(self.document.iter_preorder(), 1))
        self.next_id = len(self.nodes) + 1

    def _adopt(self, node) -> None:
        below = node.iter_preorder() if isinstance(node, Element) else ()
        for new in (node, *below):
            self.nodes[self.next_id] = new
            self.next_id += 1

    def apply(self, op: dict) -> None:
        kind = op["kind"]
        if kind == "insert":
            node = parse_fragment(op["fragment"])
            self.nodes[op["parent"]].insert(op["index"], node)
            self._adopt(node)
            return
        target = self.nodes[op["target"]]
        if kind == "delete":
            target.detach()
        elif kind == "set_text":
            for child in [c for c in target.children if isinstance(c, Text)]:
                child.detach()
            self._adopt(target.insert(0, Text(op["text"])))
        elif kind == "rename":
            target.tag = op["tag"]
        elif op["value"] is None:
            target.attributes.pop(op["name"], None)
        else:
            target.set(op["name"], op["value"])


#: One pinned stream per encoding: (document seed, gap, backend).
STREAMS = {
    "global": (3, 1, "sqlite"),
    "local": (5, 1, "minidb"),
    "dewey": (8, 1, "sqlite"),
    "ordpath": (13, 64, "minidb"),
}


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_after_every_update_the_store_reads_back_as_the_oracle_dom(
    encoding
):
    seed, gap, backend = STREAMS[encoding]
    text = serialize(random_document(seed))
    store = XmlStore(backend=backend, encoding=encoding, gap=gap)
    doc = store.load(text)
    mirror = DomMirror(text)
    rng = random.Random(seed)
    kinds = set()
    for step in range(40):
        op = plan_operation(rng, store, doc, update_heavy=step % 2 == 0)
        apply_operation(store, doc, op)
        mirror.apply(op)
        kinds.add(op["kind"])
        assert stored_events(store, doc) == list(
            _dom_events(mirror.document)
        ), (step, op["describe"])
    assert kinds == {"insert", "delete", "set_text", "rename", "set_attr"}
    store.updates.rebalance(doc)
    assert stored_events(store, doc) == list(_dom_events(mirror.document))


#: The index whose key order is document order.
ORDER_INDEX = {
    "global": "ix_node_global_pos",
    "dewey": "ix_node_dewey_key",
    "ordpath": "ix_node_ordpath_key",
}


class TestReconstructIsTwoStatements:
    @pytest.mark.parametrize("encoding", ("global", "dewey", "ordpath"))
    def test_node_scan_and_attribute_scan_whatever_the_size(self, encoding):
        store = XmlStore(encoding=encoding)
        small = store.load(sized_article_corpus(300))
        large = store.load(sized_article_corpus(3000))
        for doc in (small, large):
            store.document_info(doc)  # the catalogue row is cached
            with counters() as count:
                tree = store.reconstruct(doc)
                assert count("backend.statements") == 2
            assert tree.node_count() == store.node_count(doc)
        assert store.node_count(large) > 8 * store.node_count(small)

    @pytest.mark.parametrize("encoding", ("global", "dewey", "ordpath"))
    def test_the_node_scan_walks_the_order_index(
        self, encoding, monkeypatch
    ):
        store = XmlStore(encoding=encoding)
        doc = store.load(sized_article_corpus(3000))
        seen = []
        execute = store.backend.execute
        monkeypatch.setattr(
            store.backend, "execute",
            lambda sql, params=(): seen.append((sql, params))
            or execute(sql, params),
        )
        root = store.fetch_node(
            doc, store.query("//article[5]", doc)[0].node_id
        )
        del seen[:]
        ordered_rows(store, doc)
        ordered_rows(store, doc, root)
        assert len(seen) == 2
        column = store.encoding.order_by_column
        for sql, params in seen:
            assert sql.endswith(f"ORDER BY {column}")
            plan = " | ".join(row[-1] for row in execute(
                f"EXPLAIN QUERY PLAN {sql}", params
            ).rows)
            assert f"USING INDEX {ORDER_INDEX[encoding]}" in plan, plan
            assert "TEMP B-TREE" not in plan, plan


class TestRelabelIsTheLoadPathsLabeler:
    @staticmethod
    def assert_relabels_as_a_fresh_shred(store, doc):
        rows = ordered_rows(store, doc)
        relabelled = relabel(rows)
        fresh = shred(store.reconstruct(doc)).nodes
        assert len(relabelled) == len(fresh) == len(rows)
        for record, expected, row in zip(relabelled, fresh, rows):
            assert (record.id, record.parent) == row[:2]
            record.id, record.parent = expected.id, expected.parent
            assert record == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_after_forty_mixed_updates(self, encoding, backend):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(random_document(17))
        rng = random.Random(17)
        for _ in range(40):
            apply_operation(store, doc, plan_operation(rng, store, doc))
        self.assert_relabels_as_a_fresh_shred(store, doc)

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_on_a_chain_deeper_than_the_recursion_limit(self, encoding):
        depth = 1200
        assert depth > sys.getrecursionlimit()
        store = XmlStore(encoding=encoding)
        doc = store.load("<a>" * depth + "x" + "</a>" * depth)
        self.assert_relabels_as_a_fresh_shred(store, doc)
        assert relabel(ordered_rows(store, doc))[-1].depth == depth + 1
        store.updates.rebalance(doc)
        assert serialize(store.reconstruct(doc)).count("<a>") == depth


def test_row_events_close_elements_from_parent_pointers_alone():
    rows = [(1, 0, "elem", "a", None), (2, 1, "text", None, "t"),
            (3, 1, "elem", "b", None), (7, 3, "pi", "p", "d"),
            (4, 0, "comment", None, "c")]
    assert list(row_events(rows, {3: {"k": "v"}})) == [
        ("start", "a", {}), ("text", "t", None), ("start", "b", {"k": "v"}),
        ("pi", "p", "d"), ("end", None, None), ("end", None, None),
        ("comment", "c", None),
    ]
    with pytest.raises(StorageError, match="unknown node kind"):
        list(row_events([(1, 0, "entity", None, None)], {}))
