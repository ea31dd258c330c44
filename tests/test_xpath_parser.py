"""Tests for the XPath lexer and parser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath import parse_xpath
from repro.xpath.parser import MAX_DEPTH
from repro.xpath.ast import (
    BinaryOp,
    FunctionCall,
    NodeTest,
    NumberLiteral,
    PathExpr,
    StringLiteral,
)
from repro.xpath.lexer import tokenize


class TestLexer:
    def test_simple_path(self):
        kinds = [t.kind for t in tokenize("/a/b")]
        assert kinds == ["/", "name", "/", "name"]

    def test_double_slash(self):
        kinds = [t.kind for t in tokenize("//x")]
        assert kinds == ["//", "name"]

    def test_axis_tokens(self):
        kinds = [t.kind for t in tokenize("following-sibling::a")]
        assert kinds == ["name", "::", "name"]
        assert tokenize("following-sibling::a")[0].value == \
            "following-sibling"

    def test_number_and_dotdot(self):
        values = [t.kind for t in tokenize("a[1]/..")]
        assert values == ["name", "[", "number", "]", "/", ".."]

    def test_decimal_number(self):
        token = tokenize("3.14")[0]
        assert token.kind == "number"
        assert token.value == "3.14"

    def test_string_literals_both_quotes(self):
        assert tokenize("'it'")[0].value == "it"
        assert tokenize('"x y"')[0].value == "x y"

    def test_unterminated_string(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("'oops")

    def test_comparison_operators(self):
        kinds = [t.kind for t in tokenize("a != b <= c >= d")]
        assert "!=" in kinds and "<=" in kinds and ">=" in kinds

    def test_unexpected_character(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("a # b")


class TestParserPaths:
    def test_relative_child_steps(self):
        path = parse_xpath("a/b/c")
        assert not path.absolute
        assert [s.test.name for s in path.steps] == ["a", "b", "c"]
        assert all(s.axis == "child" for s in path.steps)

    def test_absolute_path(self):
        path = parse_xpath("/a")
        assert path.absolute
        assert len(path.steps) == 1

    def test_bare_root(self):
        path = parse_xpath("/")
        assert path.absolute
        assert path.steps == ()

    def test_double_slash_expansion(self):
        path = parse_xpath("//b")
        assert path.absolute
        assert path.steps[0].axis == "descendant-or-self"
        assert path.steps[0].test.kind == "node"
        assert path.steps[1].test.name == "b"

    def test_inner_double_slash(self):
        path = parse_xpath("/a//b")
        assert len(path.steps) == 3
        assert path.steps[1].axis == "descendant-or-self"

    def test_explicit_axes(self):
        path = parse_xpath("ancestor::x/following-sibling::y")
        assert path.steps[0].axis == "ancestor"
        assert path.steps[1].axis == "following-sibling"

    def test_attribute_abbreviation(self):
        path = parse_xpath("a/@id")
        assert path.steps[1].axis == "attribute"
        assert path.steps[1].test.name == "id"

    def test_dot_and_dotdot(self):
        path = parse_xpath("./../x")
        assert path.steps[0].axis == "self"
        assert path.steps[1].axis == "parent"

    def test_wildcard(self):
        path = parse_xpath("a/*")
        assert path.steps[1].test.kind == "wildcard"

    def test_node_type_tests(self):
        path = parse_xpath("a/text()")
        assert path.steps[1].test.kind == "text"
        path = parse_xpath("a/comment()")
        assert path.steps[1].test.kind == "comment"
        path = parse_xpath("a/node()")
        assert path.steps[1].test.kind == "node"

    def test_element_named_like_node_test_without_parens(self):
        path = parse_xpath("a/text")
        assert path.steps[1].test == NodeTest("name", "text")

    def test_unknown_axis_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("sideways::x")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("a/b]")

    def test_empty_expression_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("")


class TestParserPredicates:
    def test_number_predicate(self):
        step = parse_xpath("a[3]").steps[0]
        assert step.predicates == (NumberLiteral(3.0),)

    def test_multiple_predicates(self):
        step = parse_xpath("a[1][@x]").steps[0]
        assert len(step.predicates) == 2

    def test_position_comparison(self):
        (pred,) = parse_xpath("a[position() <= 5]").steps[0].predicates
        assert isinstance(pred, BinaryOp)
        assert pred.op == "<="
        assert pred.left == FunctionCall("position")

    def test_last_function(self):
        (pred,) = parse_xpath("a[last()]").steps[0].predicates
        assert pred == FunctionCall("last")

    def test_existence_path_predicate(self):
        (pred,) = parse_xpath("book[author]").steps[0].predicates
        assert isinstance(pred, PathExpr)
        assert pred.path.steps[0].test.name == "author"

    def test_attribute_comparison(self):
        (pred,) = parse_xpath('book[@year = "2000"]').steps[0].predicates
        assert isinstance(pred, BinaryOp)
        assert isinstance(pred.left, PathExpr)
        assert pred.right == StringLiteral("2000")

    def test_and_or_precedence(self):
        (pred,) = parse_xpath("a[@x = 1 or @y = 2 and @z = 3]").steps[0] \
            .predicates
        assert pred.op == "or"
        assert pred.right.op == "and"

    def test_parenthesised_expression(self):
        (pred,) = parse_xpath("a[(@x = 1 or @y = 2) and @z = 3]") \
            .steps[0].predicates
        assert pred.op == "and"
        assert pred.left.op == "or"

    def test_not_function(self):
        (pred,) = parse_xpath("a[not(@x)]").steps[0].predicates
        assert pred == FunctionCall("not", (PathExpr(
            parse_xpath("@x")),))

    def test_count_function(self):
        (pred,) = parse_xpath("a[count(b) > 2]").steps[0].predicates
        assert pred.left.name == "count"

    def test_contains_function(self):
        (pred,) = parse_xpath("a[contains(title, 'xml')]").steps[0] \
            .predicates
        assert pred.name == "contains"
        assert len(pred.args) == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("a[position(1)]")
        with pytest.raises(XPathSyntaxError):
            parse_xpath("a[contains(x)]")

    def test_nested_path_predicate(self):
        (pred,) = parse_xpath("a[b/c = 'x']").steps[0].predicates
        assert isinstance(pred.left, PathExpr)
        assert len(pred.left.path.steps) == 2

    def test_absolute_path_in_predicate(self):
        (pred,) = parse_xpath("a[/root/flag = '1']").steps[0].predicates
        assert pred.left.path.absolute

    def test_predicate_on_attribute_step(self):
        path = parse_xpath("a/@id")
        assert path.steps[1].axis == "attribute"

    def test_text_comparison(self):
        (pred,) = parse_xpath("a[text() = 'x']").steps[0].predicates
        assert pred.left.path.steps[0].test.kind == "text"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "expr",
        [
            "/a/b[2]/c",
            "//x[@id = \"7\"]",
            "a/following-sibling::b[last()]",
            "book[author and price]",
            "a[position() <= 3]/text()",
            "ancestor::x",
        ],
    )
    def test_str_reparses_equal(self, expr):
        path = parse_xpath(expr)
        assert parse_xpath(str(path)) == path


class TestNestingDepth:
    """An expression nested past :data:`MAX_DEPTH` is a syntax error,
    raised on the way down, before any pass over the tree can recurse
    past Python's stack."""

    TOO_DEEP = {
        "predicates": "/a" + "[b" * 2000 + "]" * 2000,
        "parentheses": "/a[" + "(" * 3000 + "b" + ")" * 3000 + "]",
        "or-arms": "/a[" + " or ".join(["b"] * 3000) + "]",
    }

    @pytest.mark.parametrize("shape", sorted(TOO_DEEP))
    def test_too_deep_is_a_syntax_error(self, shape):
        with pytest.raises(XPathSyntaxError, match="nests deeper than"):
            parse_xpath(self.TOO_DEEP[shape])

    @pytest.mark.parametrize("shape, make", [
        ("predicates", lambda n: "/a" + "[b" * n + "]" * n),
        ("parentheses",
         lambda n: "/a[" + "(" * (n - 1) + "b" + ")" * (n - 1) + "]"),
        ("or-arms", lambda n: "/a[" + " or ".join(["b"] * n) + "]"),
        ("and-arms", lambda n: "/a[" + " and ".join(["b"] * n) + "]"),
        ("not-calls",
         lambda n: "/a[" + "not(" * (n - 1) + "b" + ")" * (n - 1) + "]"),
    ])
    def test_the_limit_is_exact(self, shape, make):
        parse_xpath(make(MAX_DEPTH))
        with pytest.raises(XPathSyntaxError, match="nests deeper than"):
            parse_xpath(make(MAX_DEPTH + 1))

    def test_the_offset_names_the_expression_past_the_limit(self):
        text = "/a" + "[b" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1)
        with pytest.raises(XPathSyntaxError) as raised:
            parse_xpath(text)
        # The "b" inside the first bracket past the limit.
        assert raised.value.position == len("/a" + "[b" * MAX_DEPTH + "[")
