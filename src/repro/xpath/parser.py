"""Recursive-descent parser for the XPath fragment.

Produces the AST in :mod:`repro.xpath.ast`.  The grammar is the classic
abbreviated XPath 1.0 syntax restricted to location paths, predicates and
the supported function library (``position``, ``last``, ``count``, ``not``,
``contains``, ``starts-with``, ``text`` via node tests).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AXES,
    BinaryOp,
    Expr,
    FunctionCall,
    LocationPath,
    NodeTest,
    NumberLiteral,
    Step,
    StringLiteral,
    PathExpr,
    UnionPath,
)
from repro.xpath.lexer import XPathToken, tokenize

#: Functions callable in predicates.  ``text``/``node``/``comment`` are
#: node tests, not functions, and are handled in step parsing.
FUNCTIONS = frozenset(
    {"position", "last", "count", "not", "contains", "starts-with"}
)

_COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">")

_NODE_TYPE_TESTS = {"text", "node", "comment"}

#: How deep an expression may nest: a predicate, a parenthesis or a
#: function argument opens one level, and each further ``and`` / ``or``
#: arm deepens the left-leaning tree it builds by one.  Every later
#: pass over the tree (shape extraction, translation, SQL execution)
#: recurses on it, so a deeper one is refused here, as a syntax error,
#: instead of failing somewhere below with Python's ``RecursionError``.
#: sqlite's own parser stack gives out at a fraction of this depth;
#: minidb answers up to it.
MAX_DEPTH = 64


def parse_xpath(expression: str) -> Union[LocationPath, UnionPath]:
    """Parse *expression* into a location path (or a top-level union).

    Raises :class:`XPathSyntaxError` for malformed input.
    """
    parser = _Parser(tokenize(expression), expression)
    paths = [parser.parse_path()]
    while parser._accept("|"):
        paths.append(parser.parse_path())
    parser.expect_end()
    if len(paths) == 1:
        return paths[0]
    return UnionPath(tuple(paths))


class _Parser:
    def __init__(self, tokens: list[XPathToken], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._pos = 0
        self._depth = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[XPathToken]:
        index = self._pos + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _accept(self, kind: str) -> Optional[XPathToken]:
        token = self._peek()
        if token is not None and token.kind == kind:
            self._pos += 1
            return token
        return None

    def _expect(self, kind: str) -> XPathToken:
        token = self._peek()
        if token is None or token.kind != kind:
            at = token.position if token else len(self._source)
            found = token.kind if token else "end of expression"
            raise XPathSyntaxError(f"expected {kind!r}, found {found}", at)
        self._pos += 1
        return token

    def expect_end(self) -> None:
        token = self._peek()
        if token is not None:
            raise XPathSyntaxError(
                f"unexpected trailing token {token.value!r}", token.position
            )

    # -- grammar ---------------------------------------------------------

    def parse_path(self) -> LocationPath:
        steps: list[Step] = []
        absolute = False
        if self._accept("//"):
            absolute = True
            steps.append(Step("descendant-or-self", NodeTest("node")))
            steps.append(self._parse_step())
        elif self._accept("/"):
            absolute = True
            if self._starts_step():
                steps.append(self._parse_step())
            else:
                # Bare "/" selects the document itself.
                return LocationPath((), absolute=True)
        else:
            steps.append(self._parse_step())

        while True:
            if self._accept("//"):
                steps.append(Step("descendant-or-self", NodeTest("node")))
                steps.append(self._parse_step())
            elif self._accept("/"):
                steps.append(self._parse_step())
            else:
                break
        return LocationPath(tuple(steps), absolute=absolute)

    def _starts_step(self) -> bool:
        token = self._peek()
        if token is None:
            return False
        return token.kind in ("name", "*", "@", ".", "..")

    def _parse_step(self) -> Step:
        if self._accept("."):
            return Step("self", NodeTest("node"),
                        tuple(self._parse_predicates()))
        if self._accept(".."):
            return Step("parent", NodeTest("node"),
                        tuple(self._parse_predicates()))

        axis = "child"
        if self._accept("@"):
            axis = "attribute"
        else:
            token = self._peek()
            nxt = self._peek(1)
            if (
                token is not None
                and token.kind == "name"
                and nxt is not None
                and nxt.kind == "::"
            ):
                if token.value not in AXES:
                    raise XPathSyntaxError(
                        f"unknown axis {token.value!r}", token.position
                    )
                axis = token.value
                self._pos += 2

        test = self._parse_node_test(axis)
        predicates = self._parse_predicates()
        return Step(axis, test, tuple(predicates))

    def _parse_node_test(self, axis: str) -> NodeTest:
        if self._accept("*"):
            return NodeTest("wildcard")
        token = self._expect("name")
        nxt = self._peek()
        if (
            token.value in _NODE_TYPE_TESTS
            and nxt is not None
            and nxt.kind == "("
        ):
            self._expect("(")
            self._expect(")")
            return NodeTest(token.value)
        return NodeTest("name", token.value)

    def _parse_predicates(self) -> list[Expr]:
        predicates: list[Expr] = []
        while self._accept("["):
            predicates.append(self._parse_expr())
            self._expect("]")
        return predicates

    # expression grammar: or > and > comparison > primary

    def _parse_expr(self) -> Expr:
        outer = self._deeper()
        expr = self._parse_or()
        self._depth = outer
        return expr

    def _deeper(self) -> int:
        """Open one more level of nesting; returns the depth to restore
        when the construct that opened it is done."""
        outer = self._depth
        self._depth += 1
        if self._depth > MAX_DEPTH:
            token = self._peek()
            raise XPathSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels",
                token.position if token else len(self._source),
            )
        return outer

    def _parse_or(self) -> Expr:
        outer = self._depth
        left = self._parse_and()
        while self._at_operator_name("or"):
            self._pos += 1
            self._deeper()
            left = BinaryOp("or", left, self._parse_and())
        self._depth = outer
        return left

    def _parse_and(self) -> Expr:
        outer = self._depth
        left = self._parse_comparison()
        while self._at_operator_name("and"):
            self._pos += 1
            self._deeper()
            left = BinaryOp("and", left, self._parse_comparison())
        self._depth = outer
        return left

    def _at_operator_name(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "name" and token.value == word

    def _parse_comparison(self) -> Expr:
        left = self._parse_primary()
        token = self._peek()
        if token is not None and token.kind in _COMPARISON_OPS:
            self._pos += 1
            right = self._parse_primary()
            return BinaryOp(token.kind, left, right)
        return left

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token is None:
            raise XPathSyntaxError(
                "expected an expression", len(self._source)
            )
        if token.kind == "number":
            self._pos += 1
            return NumberLiteral(float(token.value))
        if token.kind == "string":
            self._pos += 1
            return StringLiteral(token.value)
        if token.kind == "(":
            self._pos += 1
            inner = self._parse_expr()
            self._expect(")")
            return inner
        if token.kind == "name":
            nxt = self._peek(1)
            is_call = (
                nxt is not None
                and nxt.kind == "("
                and token.value in FUNCTIONS
            )
            if is_call:
                return self._parse_function_call()
        # Anything else must be a relative (or absolute) location path.
        if token.kind in ("name", "*", "@", ".", "..", "/", "//"):
            return PathExpr(self.parse_path())
        raise XPathSyntaxError(
            f"unexpected token {token.value!r}", token.position
        )

    def _parse_function_call(self) -> Expr:
        name_token = self._expect("name")
        self._expect("(")
        args: list[Expr] = []
        if not self._accept(")"):
            args.append(self._parse_expr())
            while self._accept(","):
                args.append(self._parse_expr())
            self._expect(")")
        name = name_token.value
        arity = {"position": 0, "last": 0, "count": 1, "not": 1,
                 "contains": 2, "starts-with": 2}[name]
        if len(args) != arity:
            raise XPathSyntaxError(
                f"{name}() takes {arity} argument(s), got {len(args)}",
                name_token.position,
            )
        return FunctionCall(name, tuple(args))
