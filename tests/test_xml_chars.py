"""Tests for repro.xmldom.chars: escaping, entities, name classes."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmldom import chars, parse


class TestNameClasses:
    def test_ascii_letters_start_names(self):
        assert chars.is_name_start_char("a")
        assert chars.is_name_start_char("Z")
        assert chars.is_name_start_char("_")
        assert chars.is_name_start_char(":")

    def test_digits_do_not_start_names(self):
        assert not chars.is_name_start_char("1")
        assert not chars.is_name_start_char("-")

    def test_digits_and_hyphen_continue_names(self):
        assert chars.is_name_char("1")
        assert chars.is_name_char("-")
        assert chars.is_name_char(".")

    def test_space_is_not_a_name_char(self):
        assert not chars.is_name_char(" ")
        assert not chars.is_name_char("<")

    def test_unicode_name_start(self):
        assert chars.is_name_start_char("é")
        assert chars.is_name_start_char("名")

    @pytest.mark.parametrize(
        "name,valid",
        [
            ("book", True),
            ("book-list", True),
            ("_private", True),
            ("ns:tag", True),
            ("", False),
            ("1tag", False),
            ("bad name", False),
            ("-lead", False),
        ],
    )
    def test_is_valid_name(self, name, valid):
        """The reader takes exactly the well-formed XML Names as
        element names."""
        try:
            parse(f"<{name}/>")
        except XmlSyntaxError:
            assert not valid
        else:
            assert valid


class TestWhitespace:
    @pytest.mark.parametrize("ch", [" ", "\t", "\r", "\n"])
    def test_xml_whitespace(self, ch):
        assert ch in chars.WHITESPACE

    def test_nbsp_is_not_xml_whitespace(self):
        assert " " not in chars.WHITESPACE


class TestEscaping:
    def test_escape_text_basic(self):
        assert chars.escape_text("a < b & c > d") == \
            "a &lt; b &amp; c &gt; d"

    def test_escape_text_noop(self):
        text = "plain text with 'quotes' and \"doubles\""
        assert chars.escape_text(text) == text

    def test_escape_attribute_quotes(self):
        assert chars.escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_escape_attribute_keeps_apostrophes(self):
        assert chars.escape_attribute("it's") == "it's"

    def test_escape_roundtrip(self):
        original = '<a b="c&d">'
        assert chars.unescape(chars.escape_attribute(original)) == original


class TestEntities:
    @pytest.mark.parametrize(
        "entity,expected",
        [("lt", "<"), ("gt", ">"), ("amp", "&"), ("apos", "'"),
         ("quot", '"')],
    )
    def test_predefined(self, entity, expected):
        assert chars.resolve_entity(entity) == expected

    def test_decimal_reference(self):
        assert chars.resolve_entity("#65") == "A"

    def test_hex_reference(self):
        assert chars.resolve_entity("#x41") == "A"
        assert chars.resolve_entity("#X41") == "A"

    def test_unicode_reference(self):
        assert chars.resolve_entity("#x1F600") == "\U0001f600"

    def test_unknown_entity_raises(self):
        with pytest.raises(XmlSyntaxError):
            chars.resolve_entity("nbsp")

    def test_bad_numeric_reference_raises(self):
        with pytest.raises(XmlSyntaxError):
            chars.resolve_entity("#xZZ")
        with pytest.raises(XmlSyntaxError):
            chars.resolve_entity("#x110000")  # beyond Unicode


class TestUnescape:
    def test_mixed_references(self):
        assert chars.unescape("1 &lt; 2 &amp;&amp; 3 &gt; 2") == \
            "1 < 2 && 3 > 2"

    def test_no_ampersand_fast_path(self):
        assert chars.unescape("hello") == "hello"

    def test_numeric_in_text(self):
        assert chars.unescape("&#72;&#105;") == "Hi"

    def test_unterminated_reference_raises(self):
        with pytest.raises(XmlSyntaxError):
            chars.unescape("a &lt b")

    def test_adjacent_references(self):
        assert chars.unescape("&amp;amp;") == "&amp;"
