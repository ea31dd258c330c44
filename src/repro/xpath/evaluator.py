"""Native in-memory XPath evaluator.

This evaluator walks the DOM directly and implements XPath 1.0 semantics
for the supported fragment.  It is the *correctness oracle* of the
reproduction: the property-test suite checks that, for random documents and
queries, SQL over shredded relations returns exactly the node set this
evaluator returns — for all three order encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.core.numeric import xpath_number_value
from repro.errors import XPathError
from repro.xpath.ast import (
    AXES,
    BinaryOp,
    Expr,
    FunctionCall,
    LocationPath,
    NodeTest,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    UnionPath,
)
from repro.xpath.parser import parse_xpath
from repro.xmldom.dom import (
    Comment,
    Document,
    Element,
    Node,
    ParentNode,
    ProcessingInstruction,
    Text,
)


@dataclass(frozen=True)
class AttributeNode:
    """An attribute as a first-class XPath node.

    Attribute nodes sort immediately after their owner element and before
    the element's children, ordered among themselves by name (the XML data
    model leaves attribute order implementation-defined; name order makes
    results deterministic).
    """

    owner: Element
    name: str
    value: str

    def text_value(self) -> str:
        return self.value


XPathNode = Union[Node, AttributeNode]
XPathValue = Union[float, str, bool, list]


def string_value(node: XPathNode) -> str:
    """Return the XPath string-value of *node*."""
    if isinstance(node, Element):
        return node.text_value()
    if isinstance(node, Text):
        return node.content
    if isinstance(node, Comment):
        return node.content
    if isinstance(node, ProcessingInstruction):
        return node.data
    if isinstance(node, AttributeNode):
        return node.value
    if isinstance(node, Document):
        return "".join(
            n.content for n in node.iter_preorder() if isinstance(n, Text)
        )
    raise TypeError(f"not an XPath node: {node!r}")


def to_boolean(value: XPathValue) -> bool:
    """XPath boolean() conversion."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, str):
        return len(value) > 0
    return len(value) > 0  # node-set


def to_number(value: XPathValue) -> float:
    """XPath number() conversion (NaN for non-numeric strings)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        # Shared with the backends' xpath_number scalar function, so
        # the SQL path and this oracle can never disagree on what
        # counts as a number (the scalar returns None where we say NaN).
        number = xpath_number_value(value)
        return math.nan if number is None else number
    if value:
        return to_number(string_value(value[0]))
    return math.nan


def to_string(value: XPathValue) -> str:
    """XPath string() conversion."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(value, str):
        return value
    if value:
        return string_value(value[0])
    return ""


class Evaluator:
    """Evaluates location paths against one document.

    The evaluator precomputes the document-order position of every node so
    node sets can be deduplicated and sorted, which the relational
    translations also guarantee.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self._order: dict[int, int] = {id(document): -1}
        self._subtree_end: dict[int, int] = {}
        self._index_document()

    def _index_document(self) -> None:
        # One pass assigns preorder positions; a second pass computes, for
        # every node, the position just past its subtree (used by the
        # `following`/`preceding` axes).
        nodes = list(self.document.iter_preorder())
        for pos, node in enumerate(nodes):
            self._order[id(node)] = pos
        self._subtree_end[id(self.document)] = len(nodes)
        for pos, node in enumerate(nodes):
            end = pos + 1
            if isinstance(node, ParentNode):
                end += node.subtree_size()
            self._subtree_end[id(node)] = end

    # -- public API ------------------------------------------------------

    def evaluate(
        self,
        path: Union[str, LocationPath, UnionPath],
        context: Optional[XPathNode] = None,
    ) -> list[XPathNode]:
        """Evaluate *path* and return the node-set in document order."""
        if isinstance(path, str):
            path = parse_xpath(path)
        if isinstance(path, UnionPath):
            merged: list[XPathNode] = []
            for arm in path.paths:
                merged.extend(self.evaluate(arm, context))
            return self._sorted_unique(merged)
        if path.absolute or context is None:
            contexts: list[XPathNode] = [self.document]
        else:
            contexts = [context]
        result = self._eval_path(path, contexts)
        return self._sorted_unique(result)

    # -- node ordering -----------------------------------------------------

    def order_key(self, node: XPathNode) -> tuple:
        """Total-order key over nodes and attribute nodes."""
        if isinstance(node, AttributeNode):
            return (self._order[id(node.owner)], 1, node.name)
        return (self._order[id(node)], 0, "")

    def _sorted_unique(self, nodes: Iterable[XPathNode]) -> list[XPathNode]:
        seen: set = set()
        unique: list[XPathNode] = []
        for node in nodes:
            key = (
                (id(node.owner), node.name)
                if isinstance(node, AttributeNode)
                else id(node)
            )
            if key not in seen:
                seen.add(key)
                unique.append(node)
        unique.sort(key=self.order_key)
        return unique

    # -- path evaluation ---------------------------------------------------

    def _eval_path(
        self, path: LocationPath, contexts: list[XPathNode]
    ) -> list[XPathNode]:
        current = contexts
        for step in path.steps:
            next_nodes: list[XPathNode] = []
            for node in self._sorted_unique(current):
                next_nodes.extend(self._eval_step(step, node))
            current = next_nodes
        return current

    def _eval_step(self, step: Step, context: XPathNode) -> list[XPathNode]:
        candidates = [
            n
            for n in self._axis_nodes(step.axis, context)
            if _matches_test(step.test, n, step.axis)
        ]
        for predicate in step.predicates:
            size = len(candidates)
            kept = []
            for position, node in enumerate(candidates, start=1):
                if self._predicate_holds(predicate, node, position, size):
                    kept.append(node)
            candidates = kept
        return candidates

    # -- axes --------------------------------------------------------------

    def _axis_nodes(
        self, axis: str, context: XPathNode
    ) -> list[XPathNode]:
        if axis not in AXES:  # pragma: no cover - parser guarantees this
            raise XPathError(f"unknown axis {axis!r}")
        if isinstance(context, AttributeNode):
            return self._attribute_context_axis(axis, context)

        node = context
        if axis == "self":
            return [node]
        if axis == "child":
            return list(node.children) if isinstance(node, ParentNode) else []
        if axis == "descendant":
            if isinstance(node, ParentNode):
                return list(node.iter_preorder())
            return []
        if axis == "descendant-or-self":
            out: list[XPathNode] = [node]
            if isinstance(node, ParentNode):
                out.extend(node.iter_preorder())
            return out
        if axis == "parent":
            return [node.parent] if node.parent is not None else []
        if axis == "ancestor":
            return list(node.ancestors())
        if axis == "ancestor-or-self":
            return [node, *node.ancestors()]
        if axis == "attribute":
            if isinstance(node, Element):
                return [
                    AttributeNode(node, name, value)
                    for name, value in sorted(node.attributes.items())
                ]
            return []
        if axis == "following-sibling":
            return self._siblings_after(node)
        if axis == "preceding-sibling":
            return list(reversed(self._siblings_before(node)))
        if axis == "following":
            start = self._subtree_end[id(node)]
            return [
                n
                for n in self.document.iter_preorder()
                if self._order[id(n)] >= start
            ]
        if axis == "preceding":
            pos = self._order[id(node)]
            ancestor_ids = {id(a) for a in node.ancestors()}
            out = [
                n
                for n in self.document.iter_preorder()
                if self._order[id(n)] < pos and id(n) not in ancestor_ids
            ]
            out.reverse()
            return out
        raise XPathError(f"axis {axis!r} not implemented")  # pragma: no cover

    def _attribute_context_axis(
        self, axis: str, context: AttributeNode
    ) -> list[XPathNode]:
        if axis == "self":
            return [context]
        if axis == "parent":
            return [context.owner]
        if axis == "ancestor":
            return [context.owner, *context.owner.ancestors()]
        if axis == "ancestor-or-self":
            return [context, context.owner, *context.owner.ancestors()]
        # Attributes have no children, siblings, or following/preceding.
        return []

    def _siblings_after(self, node: Node) -> list[Node]:
        if node.parent is None:
            return []
        siblings = node.parent.children
        index = siblings.index(node)
        return siblings[index + 1 :]

    def _siblings_before(self, node: Node) -> list[Node]:
        if node.parent is None:
            return []
        siblings = node.parent.children
        index = siblings.index(node)
        return siblings[:index]

    # -- predicates and expressions -----------------------------------------

    def _predicate_holds(
        self, expr: Expr, context: XPathNode, position: int, size: int
    ) -> bool:
        value = self._eval_expr(expr, context, position, size)
        if isinstance(value, float):
            # A bare number predicate means position() = number.
            return float(position) == value
        return to_boolean(value)

    def _eval_expr(
        self, expr: Expr, context: XPathNode, position: int, size: int
    ) -> XPathValue:
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, PathExpr):
            return self._eval_path(
                expr.path,
                [self.document] if expr.path.absolute else [context],
            )
        if isinstance(expr, FunctionCall):
            return self._eval_function(expr, context, position, size)
        if isinstance(expr, BinaryOp):
            if expr.op == "and":
                left = self._eval_expr(expr.left, context, position, size)
                if not to_boolean(left):
                    return False
                right = self._eval_expr(expr.right, context, position, size)
                return to_boolean(right)
            if expr.op == "or":
                left = self._eval_expr(expr.left, context, position, size)
                if to_boolean(left):
                    return True
                right = self._eval_expr(expr.right, context, position, size)
                return to_boolean(right)
            left = self._eval_expr(expr.left, context, position, size)
            right = self._eval_expr(expr.right, context, position, size)
            return _compare(expr.op, left, right)
        raise XPathError(f"cannot evaluate {expr!r}")  # pragma: no cover

    def _eval_function(
        self, call: FunctionCall, context: XPathNode, position: int, size: int
    ) -> XPathValue:
        if call.name == "position":
            return float(position)
        if call.name == "last":
            return float(size)
        args = [
            self._eval_expr(a, context, position, size) for a in call.args
        ]
        if call.name == "count":
            if not isinstance(args[0], list):
                raise XPathError("count() requires a node-set argument")
            return float(len(args[0]))
        if call.name == "not":
            return not to_boolean(args[0])
        if call.name == "contains":
            return to_string(args[1]) in to_string(args[0])
        if call.name == "starts-with":
            return to_string(args[0]).startswith(to_string(args[1]))
        raise XPathError(f"unknown function {call.name}()")  # pragma: no cover


def _matches_test(test: NodeTest, node: XPathNode, axis: str) -> bool:
    if axis == "attribute":
        if not isinstance(node, AttributeNode):
            return False
        if test.kind == "name":
            return node.name == test.name
        return test.kind in ("wildcard", "node")
    if isinstance(node, AttributeNode):
        return test.kind == "node"
    if test.kind == "name":
        return isinstance(node, Element) and node.tag == test.name
    if test.kind == "wildcard":
        return isinstance(node, Element)
    if test.kind == "text":
        return isinstance(node, Text)
    if test.kind == "comment":
        return isinstance(node, Comment)
    if test.kind == "node":
        return True
    raise XPathError(f"unknown node test {test.kind!r}")  # pragma: no cover


def _compare(op: str, left: XPathValue, right: XPathValue) -> bool:
    """XPath 1.0 comparison semantics, including node-set existentials."""
    left_is_set = isinstance(left, list)
    right_is_set = isinstance(right, list)
    if left_is_set and right_is_set:
        return any(
            _compare_atomic(op, string_value(a), string_value(b))
            for a in left
            for b in right
        )
    if left_is_set:
        return any(
            _compare_atomic(op, string_value(n), right) for n in left
        )
    if right_is_set:
        return any(
            _compare_atomic(op, left, string_value(n)) for n in right
        )
    return _compare_atomic(op, left, right)


def _compare_atomic(op: str, left: XPathValue, right: XPathValue) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result
    lnum, rnum = to_number(left), to_number(right)
    if math.isnan(lnum) or math.isnan(rnum):
        return False
    if op == "<":
        return lnum < rnum
    if op == "<=":
        return lnum <= rnum
    if op == ">":
        return lnum > rnum
    if op == ">=":
        return lnum >= rnum
    raise XPathError(f"unknown operator {op!r}")  # pragma: no cover


def evaluate(
    document: Document, path: Union[str, LocationPath]
) -> list[XPathNode]:
    """One-shot convenience wrapper around :class:`Evaluator`."""
    return Evaluator(document).evaluate(path)
