"""Tests for the DOM model and serializer."""

from hypothesis import given, settings, strategies as st

from repro.workload.docgen import random_document
from repro.xmldom import (
    Comment,
    Element,
    Text,
    document_order,
    new_document,
    parse,
    serialize,
)


class TestTreeOperations:
    def test_append_sets_parent(self):
        doc, root = new_document("r")
        child = root.append(Element("c"))
        assert child.parent is root
        assert root.children == [child]

    def test_insert_at_index(self):
        _doc, root = new_document("r")
        a, b = Element("a"), Element("b")
        root.append(a)
        root.insert(0, b)
        assert [c.tag for c in root.element_children()] == ["b", "a"]

    def test_append_moves_node(self):
        _doc, root = new_document("r")
        a = root.append(Element("a"))
        b = root.append(Element("b"))
        b.append(a)  # re-parent
        assert root.children == [b]
        assert a.parent is b

    def test_remove(self):
        _doc, root = new_document("r")
        a = root.append(Element("a"))
        root.remove(a)
        assert root.children == []
        assert a.parent is None

    def test_detach_noop_when_detached(self):
        node = Element("x")
        assert node.detach() is node

    def test_sibling_index(self):
        _doc, root = new_document("r")
        children = [root.append(Element(t)) for t in "abc"]
        assert [c.sibling_index() for c in children] == [0, 1, 2]

    def test_ancestors(self):
        doc, root = new_document("r")
        mid = root.append(Element("m"))
        leaf = mid.append(Element("l"))
        assert list(leaf.ancestors()) == [mid, root, doc]

    def test_depth(self):
        doc, root = new_document("r")
        leaf = root.append(Element("m")).append(Element("l"))
        assert root.depth() == 1
        assert leaf.depth() == 3


class TestPreorder:
    def test_preorder_matches_document_order(self):
        doc = parse("<a><b><c/>t</b><d/></a>")
        names = [
            getattr(n, "tag", getattr(n, "content", None))
            for n in doc.iter_preorder()
        ]
        assert names == ["a", "b", "c", "t", "d"]

    def test_subtree_size(self):
        doc = parse("<a><b><c/></b><d/></a>")
        assert doc.subtree_size() == 4
        assert doc.root.subtree_size() == 3

    def test_document_order_positions(self):
        doc = parse("<a><b/><c/></a>")
        order = document_order(doc)
        a, b, c = doc.root, *doc.root.children
        assert order[id(a)] < order[id(b)] < order[id(c)]


class TestValues:
    def test_element_text_value_concatenates_descendants(self):
        doc = parse("<a>x<b>y<c>z</c></b>w</a>")
        assert doc.root.text_value() == "xyzw"

    def test_attribute_get_set(self):
        element = Element("e", {"a": "1"})
        assert element.get("a") == "1"
        assert element.get("missing") is None
        assert element.get("missing", "d") == "d"
        element.set("b", "2")
        assert element.attributes == {"a": "1", "b": "2"}


class TestStructuralEquality:
    def test_equal_documents(self):
        a = parse("<r><x y='1'>t</x><!--c--></r>")
        b = parse('<r><x y="1">t</x><!--c--></r>')
        assert a.structurally_equal(b)

    def test_attribute_order_irrelevant(self):
        a = parse("<r a='1' b='2'/>")
        b = parse("<r b='2' a='1'/>")
        assert a.structurally_equal(b)

    def test_child_order_matters(self):
        a = parse("<r><x/><y/></r>")
        b = parse("<r><y/><x/></r>")
        assert not a.structurally_equal(b)

    def test_text_difference(self):
        assert not parse("<r>a</r>").structurally_equal(parse("<r>b</r>"))

    def test_tag_difference(self):
        assert not parse("<r><a/></r>").structurally_equal(
            parse("<r><b/></r>")
        )

    def test_different_node_kinds(self):
        assert not Text("x").structurally_equal(Comment("x"))


class TestSerializer:
    def test_simple_roundtrip(self):
        source = '<a x="1"><b>text</b><!--c--><?pi d?></a>'
        assert serialize(parse(source)) == source

    def test_escaping_in_text(self):
        doc, root = new_document("a")
        root.append(Text("1 < 2 & 3"))
        assert serialize(doc) == "<a>1 &lt; 2 &amp; 3</a>"

    def test_escaping_in_attribute(self):
        doc, root = new_document("a")
        root.set("t", 'say "<hi>"')
        assert parse(serialize(doc)).root.get("t") == 'say "<hi>"'

    def test_empty_element_self_closes(self):
        doc, _root = new_document("a")
        assert serialize(doc) == "<a/>"

    def test_xml_declaration(self):
        doc, _root = new_document("a")
        out = serialize(doc, xml_declaration=True)
        assert out.startswith('<?xml version="1.0"')

    def test_pretty_print_indents_elements(self):
        doc = parse("<a><b><c/></b></a>")
        pretty = serialize(doc, pretty=True)
        assert "\n  <b>" in pretty
        assert "\n    <c/>" in pretty

    def test_pretty_print_preserves_mixed_content(self):
        doc = parse("<p>one<b>two</b>three</p>")
        pretty = serialize(doc, pretty=True)
        assert "one<b>two</b>three" in pretty

    def test_serialize_subtree(self):
        doc = parse("<a><b>x</b></a>")
        assert serialize(doc.root.children[0]) == "<b>x</b>"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_random_documents(self, seed):
        doc = random_document(seed)
        again = parse(serialize(doc))
        assert doc.structurally_equal(again)
