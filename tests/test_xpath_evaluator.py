"""Tests for the native XPath evaluator (the oracle itself)."""

import math


from repro.xmldom import parse
from repro.xpath import (
    AttributeNode,
    Evaluator,
    evaluate,
    string_value,
    to_boolean,
    to_number,
    to_string,
)

DOC = parse(
    '<bib><book year="1994" id="b1"><title>TCP/IP</title>'
    "<author>Stevens</author><price>65.95</price></book>"
    '<book year="2000" id="b2"><title>Data on the Web</title>'
    "<author>Abiteboul</author><author>Buneman</author>"
    "<author>Suciu</author><price>39.95</price></book>"
    '<book year="1999" id="b3"><title>Economics</title>'
    "<author>Smith</author><price>10</price></book></bib>"
)


def strings(xpath, doc=DOC):
    return [string_value(n) for n in evaluate(doc, xpath)]


class TestChildAndDescendant:
    def test_absolute_child_path(self):
        assert strings("/bib/book/title") == [
            "TCP/IP", "Data on the Web", "Economics",
        ]

    def test_descendant_any_depth(self):
        assert len(evaluate(DOC, "//author")) == 5

    def test_wildcard(self):
        assert len(evaluate(DOC, "/bib/*")) == 3

    def test_text_nodes(self):
        assert strings("/bib/book[1]/title/text()") == ["TCP/IP"]

    def test_missing_path_is_empty(self):
        assert strings("/bib/magazine") == []

    def test_document_order_of_results(self):
        # //title and //author interleave in document order when unioned
        # via a broad query.
        values = strings("/bib/book[2]/*")
        assert values == [
            "Data on the Web", "Abiteboul", "Buneman", "Suciu", "39.95",
        ]


class TestPositionalPredicates:
    def test_index(self):
        assert strings("/bib/book[2]/title") == ["Data on the Web"]

    def test_position_function(self):
        assert strings("/bib/book[position() = 3]/title") == ["Economics"]

    def test_position_range(self):
        assert strings("/bib/book[position() <= 2]/title") == [
            "TCP/IP", "Data on the Web",
        ]

    def test_last(self):
        assert strings("/bib/book[last()]/title") == ["Economics"]

    def test_position_equals_last(self):
        assert strings("//book/author[position() = last()]") == [
            "Stevens", "Suciu", "Smith",
        ]

    def test_positions_count_per_context(self):
        # author[2] means second author *within each book*.
        assert strings("//book/author[2]") == ["Buneman"]

    def test_position_on_descendant_axis(self):
        result = evaluate(DOC, "/bib/descendant::author[2]")
        assert [string_value(n) for n in result] == ["Abiteboul"]

    def test_predicate_after_predicate(self):
        assert strings("//author[position() > 1][1]") == ["Buneman"]


class TestSiblingAxes:
    def test_following_sibling(self):
        assert strings("//book[1]/following-sibling::book/title") == [
            "Data on the Web", "Economics",
        ]

    def test_following_sibling_position(self):
        assert strings("//book[1]/following-sibling::book[1]/title") == \
            ["Data on the Web"]

    def test_preceding_sibling_reverse_position(self):
        # preceding-sibling::book[1] is the *nearest* preceding sibling.
        assert strings("//book[3]/preceding-sibling::book[1]/title") == \
            ["Data on the Web"]

    def test_preceding_sibling_results_in_document_order(self):
        assert strings("//book[3]/preceding-sibling::book/title") == [
            "TCP/IP", "Data on the Web",
        ]

    def test_title_following_siblings(self):
        assert strings("//book[2]/title/following-sibling::author") == [
            "Abiteboul", "Buneman", "Suciu",
        ]


class TestDocumentOrderAxes:
    def test_following(self):
        assert strings("//book[2]/following::title") == ["Economics"]

    def test_following_excludes_descendants(self):
        result = strings("//book[1]/following::author")
        assert "Stevens" not in result
        assert result == ["Abiteboul", "Buneman", "Suciu", "Smith"]

    def test_preceding(self):
        assert strings("//book[2]/preceding::author") == ["Stevens"]

    def test_preceding_excludes_ancestors(self):
        result = evaluate(DOC, "/bib/book[2]/author[1]/preceding::*")
        tags = [n.tag for n in result]
        # book 1 (fully before) is included; book 2 (an ancestor) is not.
        assert tags.count("book") == 1
        assert "bib" not in tags

    def test_preceding_position_is_reverse(self):
        assert strings("//book[3]/preceding::author[1]") == ["Suciu"]


class TestParentAncestor:
    def test_parent(self):
        assert strings("/bib/book[1]/title/../author") == ["Stevens"]

    def test_parent_matches_per_context(self):
        # //title[1] is every title that is the first title of *its*
        # parent, so /.. yields all three books.
        assert len(evaluate(DOC, "//title[1]/..")) == 3

    def test_ancestor(self):
        result = evaluate(DOC, "/bib/book[1]/author[1]/ancestor::*")
        tags = [n.tag for n in result]
        assert tags == ["bib", "book"]

    def test_ancestor_or_self(self):
        result = evaluate(DOC, "//book[1]/ancestor-or-self::*")
        assert [n.tag for n in result] == ["bib", "book"]

    def test_self(self):
        assert strings("/bib/book[1]/title/self::title") == ["TCP/IP"]
        assert strings("/bib/book[1]/title/self::author") == []


class TestAttributes:
    def test_attribute_values(self):
        assert strings("//book/@year") == ["1994", "2000", "1999"]

    def test_attribute_name_order(self):
        # id and year sorted by name within one element.
        result = evaluate(DOC, "//book[1]/@*")
        assert [n.name for n in result] == ["id", "year"]

    def test_attribute_existence_predicate(self):
        assert len(evaluate(DOC, "//book[@id]")) == 3

    def test_attribute_comparison(self):
        assert strings("//book[@year = 2000]/title") == ["Data on the Web"]

    def test_attribute_numeric_comparison(self):
        assert strings("//book[@year < 2000]/title") == [
            "TCP/IP", "Economics",
        ]

    def test_attribute_parent(self):
        result = evaluate(DOC, "//@id")
        assert all(isinstance(n, AttributeNode) for n in result)


class TestValueComparisons:
    def test_element_string_equality(self):
        assert strings("//book[author = 'Buneman']/title") == [
            "Data on the Web",
        ]

    def test_node_set_existential_semantics(self):
        # book 2 has three authors; equality holds if ANY matches.
        assert strings("//book[author = 'Suciu']/title") == [
            "Data on the Web",
        ]

    def test_numeric_comparison_on_element(self):
        assert strings("//book[price < 40]/title") == [
            "Data on the Web", "Economics",
        ]

    def test_inequality(self):
        # != is existential too: any author != 'Stevens'.
        titles = strings("//book[author != 'Stevens']/title")
        assert titles == ["Data on the Web", "Economics"]

    def test_text_node_comparison(self):
        assert strings("//title[text() = 'Economics']") == ["Economics"]

    def test_boolean_connectives(self):
        assert strings(
            "//book[@year > 1995 and price < 40]/title"
        ) == ["Data on the Web", "Economics"]
        assert strings(
            "//book[@year = 1994 or author = 'Smith']/title"
        ) == ["TCP/IP", "Economics"]

    def test_not_function(self):
        assert strings("//book[not(@year = 2000)]/title") == [
            "TCP/IP", "Economics",
        ]


class TestFunctions:
    def test_count(self):
        assert strings("//book[count(author) = 3]/title") == [
            "Data on the Web",
        ]

    def test_count_greater(self):
        assert strings("//book[count(author) > 1]/@id") == ["b2"]

    def test_contains(self):
        assert strings("//book[contains(title, 'Web')]/@id") == ["b2"]

    def test_starts_with(self):
        assert strings("//book[starts-with(title, 'TCP')]/@id") == ["b1"]

    def test_string_function_on_attribute(self):
        assert strings("//book[starts-with(@id, 'b')]/@id") == [
            "b1", "b2", "b3",
        ]


class TestConversions:
    def test_to_boolean(self):
        assert to_boolean(1.0) and not to_boolean(0.0)
        assert not to_boolean(math.nan)
        assert to_boolean("x") and not to_boolean("")
        assert to_boolean([object()]) and not to_boolean([])

    def test_to_number(self):
        assert to_number("42") == 42.0
        assert to_number("  3.5 ") == 3.5
        assert math.isnan(to_number("abc"))
        assert to_number(True) == 1.0

    def test_to_string(self):
        assert to_string(2.0) == "2"
        assert to_string(2.5) == "2.5"
        assert to_string(True) == "true"
        assert to_string(math.nan) == "NaN"

    def test_string_value_of_element_concatenates(self):
        doc = parse("<a>x<b>y</b>z</a>")
        assert string_value(doc.root) == "xyz"


class TestEvaluatorObject:
    def test_relative_evaluation_from_context(self):
        evaluator = Evaluator(DOC)
        book2 = evaluator.evaluate("/bib/book[2]")[0]
        authors = evaluator.evaluate("author", context=book2)
        assert [string_value(a) for a in authors] == [
            "Abiteboul", "Buneman", "Suciu",
        ]

    def test_results_deduplicated(self):
        # Two different paths reach the same titles; node-set dedupes.
        result = evaluate(DOC, "//book/ancestor::bib/book/title")
        assert len(result) == 3
