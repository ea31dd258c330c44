"""Tests for value-level operations: set_text / rename / set_attribute
and the string_value retrieval API."""

import pytest

from repro.errors import StorageError, UpdateError
from repro.store import XmlStore
from repro.xpath import Evaluator, string_value
from repro.xmldom import parse
from tests.conftest import ALL_ENCODINGS

XML = (
    '<shop><item sku="a1"><name>Lamp</name><price>10</price></item>'
    '<item sku="a2"><name>Desk</name><price>250</price></item></shop>'
)


def make_store(encoding):
    store = XmlStore(backend="sqlite", encoding=encoding)
    doc = store.load(XML)
    return store, doc


class TestSetText:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_replaces_text(self, encoding):
        store, doc = make_store(encoding)
        price = store.query("/shop/item[1]/price", doc)[0].node_id
        store.updates.set_text(doc, price, "12.50")
        assert store.query_values(
            "/shop/item[1]/price/text()", doc
        ) == ["12.50"]
        # The materialised direct-text value follows.
        assert store.query_values(
            "//item[price = '12.50']/@sku", doc
        ) == ["a1"]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_never_renumbers_other_nodes(self, encoding):
        store, doc = make_store(encoding)
        price = store.query("/shop/item[1]/price", doc)[0].node_id
        report = store.updates.set_text(doc, price, "99")
        # Only the old text out, the new text in, plus value upkeep.
        assert report.relabeled == 0

    def test_set_text_on_empty_element(self):
        store, doc = make_store("dewey")
        store.updates.insert(
            doc, store.query("/shop", doc)[0].node_id, 0, "<note/>"
        )
        note = store.query("/shop/note", doc)[0].node_id
        store.updates.set_text(doc, note, "hello")
        assert store.query_values("/shop/note/text()", doc) == ["hello"]

    def test_rejects_non_elements(self):
        store, doc = make_store("dewey")
        text_id = store.query("//name/text()", doc)[0].node_id
        with pytest.raises(UpdateError):
            store.updates.set_text(doc, text_id, "x")


class TestRename:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_rename_element(self, encoding):
        store, doc = make_store(encoding)
        name = store.query("/shop/item[2]/name", doc)[0].node_id
        report = store.updates.rename(doc, name, "label")
        assert report.value_updates == 1
        assert store.query_values("/shop/item[2]/label/text()", doc) == \
            ["Desk"]
        assert store.query("/shop/item[2]/name", doc) == []

    def test_rename_unknown_node(self):
        store, doc = make_store("global")
        with pytest.raises(UpdateError):
            store.updates.rename(doc, 999, "x")


class TestSetAttribute:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_add_attribute(self, encoding):
        store, doc = make_store(encoding)
        item = store.query("/shop/item[1]", doc)[0].node_id
        report = store.updates.set_attribute(doc, item, "color", "red")
        assert report.inserted == 1
        assert store.query_values(
            "//item[@color = 'red']/@sku", doc
        ) == ["a1"]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_overwrite_attribute(self, encoding):
        store, doc = make_store(encoding)
        item = store.query("/shop/item[1]", doc)[0].node_id
        store.updates.set_attribute(doc, item, "sku", "b9")
        assert store.query_values("/shop/item[1]/@sku", doc) == ["b9"]
        # Still exactly one sku attribute.
        assert len(store.query("/shop/item[1]/@sku", doc)) == 1

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_remove_attribute(self, encoding):
        store, doc = make_store(encoding)
        item = store.query("/shop/item[2]", doc)[0].node_id
        report = store.updates.set_attribute(doc, item, "sku", None)
        assert report.deleted == 1
        assert store.query("/shop/item[2]/@sku", doc) == []

    def test_roundtrip_after_attribute_ops(self):
        store, doc = make_store("dewey")
        item = store.query("/shop/item[1]", doc)[0].node_id
        store.updates.set_attribute(doc, item, "color", "red")
        store.updates.set_attribute(doc, item, "sku", None)
        rebuilt = store.reconstruct(doc)
        first = rebuilt.root.children[0]
        assert first.attributes == {"color": "red"}


class TestStringValue:
    NESTED = "<a>x<b>y<c>z</c></b>w</a>"

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_matches_xpath_semantics(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(self.NESTED)
        root_id = store.query("/a", doc)[0].node_id
        assert store.string_value(doc, root_id) == "xyzw"

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_of_text_and_leaf_nodes(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(self.NESTED)
        text = store.query("/a/text()", doc)[0].node_id
        assert store.string_value(doc, text) == "x"
        c_node = store.query("//c", doc)[0].node_id
        assert store.string_value(doc, c_node) == "z"

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_query_string_values_matches_oracle(self, encoding):
        document = parse(self.NESTED)
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(document)
        evaluator = Evaluator(document)
        for xpath in ("//b", "/a/node()", "//c | /a/b"):
            got = [
                store.string_value(doc, item.node_id)
                for item in store.query(xpath, doc)
            ]
            want = [
                string_value(n) for n in evaluator.evaluate(xpath)
            ]
            assert got == want, (encoding, xpath)

    def test_unknown_node(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(self.NESTED)
        with pytest.raises(StorageError):
            store.string_value(doc, 12345)
