"""Tests for the XML tokenizer and parser."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmldom import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    parse,
    parse_fragment,
)
from repro.xmldom.tokenizer import (
    CommentToken,
    EndTagToken,
    PIToken,
    StartTagToken,
    TextToken,
    Tokenizer,
)


def tokens(source):
    return list(Tokenizer(source).tokens())


class TestTokenizer:
    def test_simple_element(self):
        result = tokens("<a>x</a>")
        assert isinstance(result[0], StartTagToken)
        assert result[0].name == "a"
        assert isinstance(result[1], TextToken)
        assert result[1].content == "x"
        assert isinstance(result[2], EndTagToken)

    def test_self_closing(self):
        (tag,) = tokens("<br/>")
        assert tag.self_closing

    def test_attributes_both_quote_styles(self):
        (tag,) = tokens("<a x=\"1\" y='2'/>")
        assert tag.attributes == {"x": "1", "y": "2"}

    def test_attribute_entity_unescaped(self):
        (tag,) = tokens('<a t="a&amp;b"/>')
        assert tag.attributes["t"] == "a&b"

    def test_attribute_whitespace_around_equals(self):
        (tag,) = tokens('<a x = "1"/>')
        assert tag.attributes == {"x": "1"}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError):
            tokens('<a x="1" x="2"/>')

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError):
            tokens("<a x=1/>")

    def test_comment(self):
        result = tokens("<a><!-- hi --></a>")
        assert isinstance(result[1], CommentToken)
        assert result[1].content == " hi "

    def test_double_hyphen_in_comment_rejected(self):
        with pytest.raises(XmlSyntaxError):
            tokens("<a><!-- a -- b --></a>")

    def test_cdata_preserves_markup(self):
        result = tokens("<a><![CDATA[<b>&amp;</b>]]></a>")
        assert isinstance(result[1], TextToken)
        assert result[1].content == "<b>&amp;</b>"
        assert result[1].is_cdata

    def test_processing_instruction(self):
        result = tokens('<?style href="x"?><a/>')
        assert isinstance(result[0], PIToken)
        assert result[0].target == "style"
        assert result[0].data == 'href="x"'

    def test_xml_declaration_skipped(self):
        result = tokens('<?xml version="1.0"?><a/>')
        assert len(result) == 1
        assert isinstance(result[0], StartTagToken)

    def test_doctype_skipped(self):
        result = tokens("<!DOCTYPE html><a/>")
        assert len(result) == 1

    def test_doctype_with_internal_subset_skipped(self):
        source = '<!DOCTYPE r [<!ENTITY x "y">]><a/>'
        result = tokens(source)
        assert len(result) == 1

    @pytest.mark.parametrize(
        "doctype",
        [
            '<!DOCTYPE a [<!ENTITY x "]>">]>',
            "<!DOCTYPE a [<!ENTITY x ']>'>]>",
            "<!DOCTYPE a [<!-- > ] --> <!ELEMENT a ANY>]>",
            "<!DOCTYPE a [<!-- it's --><?pi ]> '?><!ELEMENT a ANY> ] >",
            "<!DOCTYPE a SYSTEM \"odd>name.dtd\" [<!ELEMENT a ANY>]>",
        ],
    )
    def test_doctype_literals_and_comments_may_hold_brackets(self, doctype):
        # Quoted literals, comments and PIs inside the declaration are
        # opaque: a '>' or ']' in one does not end anything.
        (tag,) = tokens(doctype + "<a/>")
        assert tag.name == "a"
        assert (tag.line, tag.column) == (1, len(doctype) + 1)
        assert parse(doctype + "<a/>").root.tag == "a"

    @pytest.mark.parametrize(
        "source",
        [
            '<!DOCTYPE a [<!ENTITY x "]>><a/>',
            "<!DOCTYPE a [<!-- > ] -> <a/>",
            "<!DOCTYPE a [<?pi ]><a/>",
            "<!DOCTYPE a [<!ELEMENT a ANY>]",
        ],
    )
    def test_unterminated_doctype_pieces_rejected(self, source):
        with pytest.raises(XmlSyntaxError) as excinfo:
            tokens(source)
        assert "unterminated DOCTYPE" in str(excinfo.value)
        assert excinfo.value.column == len(source) + 1

    def test_leading_byte_order_mark_ignored(self):
        # What Path.read_text() returns for a BOM-prefixed UTF-8 file.
        result = tokens("\ufeff<a>x</a>")
        assert [type(t) for t in result] == [
            StartTagToken, TextToken, EndTagToken,
        ]
        assert (result[0].line, result[0].column) == (1, 1)
        assert parse('\ufeff<?xml version="1.0"?>\n<a/>').root.tag == "a"

    def test_byte_order_mark_elsewhere_is_character_data(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse("\ufeff\ufeff<a/>")
        assert "character data outside the root" in str(excinfo.value)
        assert parse("<a>\ufeff</a>").root.text_value() == "\ufeff"

    def test_text_entities_unescaped(self):
        result = tokens("<a>1 &lt; 2</a>")
        assert result[1].content == "1 < 2"

    def test_position_tracking(self):
        result = tokens("<a>\n  <b/>\n</a>")
        b_token = result[2]
        assert (b_token.line, b_token.column) == (2, 3)

    def test_unterminated_tag(self):
        with pytest.raises(XmlSyntaxError):
            tokens("<a")

    def test_unterminated_comment(self):
        with pytest.raises(XmlSyntaxError):
            tokens("<a><!-- never closed")

    def test_lt_in_attribute_value_rejected(self):
        with pytest.raises(XmlSyntaxError):
            tokens('<a x="<"/>')


class TestParser:
    def test_single_element(self):
        doc = parse("<root/>")
        assert doc.root is not None
        assert doc.root.tag == "root"
        assert doc.root.children == []

    def test_nested_structure(self):
        doc = parse("<a><b><c/></b><d/></a>")
        a = doc.root
        assert [e.tag for e in a.element_children()] == ["b", "d"]
        assert a.children[0].children[0].tag == "c"

    def test_text_content(self):
        doc = parse("<a>hello</a>")
        (text,) = doc.root.children
        assert isinstance(text, Text)
        assert text.content == "hello"

    def test_mixed_content_order_preserved(self):
        doc = parse("<p>one<b>two</b>three</p>")
        kinds = [type(c).__name__ for c in doc.root.children]
        assert kinds == ["Text", "Element", "Text"]

    def test_adjacent_text_and_cdata_merged(self):
        doc = parse("<a>one<![CDATA[two]]>three</a>")
        (text,) = doc.root.children
        assert text.content == "onetwothree"

    def test_attributes(self):
        doc = parse('<a id="1" lang="en"/>')
        assert doc.root.attributes == {"id": "1", "lang": "en"}

    def test_comment_and_pi_in_tree(self):
        doc = parse("<a><!--c--><?p d?></a>")
        comment, pi = doc.root.children
        assert isinstance(comment, Comment)
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "p"

    def test_prolog_comment_attached_to_document(self):
        doc = parse("<!--before--><a/><!--after-->")
        assert isinstance(doc.children[0], Comment)
        assert isinstance(doc.children[2], Comment)
        assert doc.root.tag == "a"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse("<a><b></a></b>")
        assert "mismatched" in str(excinfo.value)

    def test_unclosed_element_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse("<a><b></b>")

    def test_extra_close_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse("<a/></a>")

    def test_two_roots_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse("<a/><b/>")

    def test_empty_document_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse("")
        with pytest.raises(XmlSyntaxError):
            parse("<!--only a comment-->")

    def test_text_outside_root_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse("<a/>stray")

    def test_blank_text_outside_root_allowed(self):
        doc = parse("  <a/>  \n")
        assert doc.root.tag == "a"

    def test_strip_whitespace_drops_blank_text(self):
        doc = parse("<a>\n  <b/>\n</a>", strip_whitespace=True)
        assert [type(c).__name__ for c in doc.root.children] == ["Element"]

    def test_strip_whitespace_keeps_mixed_text(self):
        doc = parse("<a> x <b/></a>", strip_whitespace=True)
        assert isinstance(doc.root.children[0], Text)

    def test_parse_fragment(self):
        element = parse_fragment("<x><y/></x>")
        assert isinstance(element, Element)
        assert element.tag == "x"

    def test_deeply_nested(self):
        depth = 200
        source = "".join(f"<n{i}>" for i in range(depth))
        source += "".join(f"</n{i}>" for i in reversed(range(depth)))
        doc = parse(source)
        assert doc.node_count() == depth

    def test_unicode_content(self):
        doc = parse("<a>héllo wörld — 中文</a>")
        assert doc.root.text_value() == "héllo wörld — 中文"
