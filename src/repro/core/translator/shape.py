"""Query-shape extraction: abstract safe predicate literals into slots.

Two XPath queries that differ only in predicate literal values —
``//item[@id = 'a']`` vs ``//item[@id = 'b']`` — translate to the same
SQL shape with different bound parameters.  :func:`extract_shape`
rewrites a parsed path, replacing each *safe* literal with an indexed
slot node and collecting the raw values; ``str()`` of the rewritten
path is the shape key the plan cache shares across documents and
literal values.

A literal is *safe* when the translator's output structure does not
depend on its value:

* bare positional predicates (``[3]``) and comparisons against
  ``position()`` / ``last()`` / ``count(..)``;
* path-vs-literal value comparisons — numbers under any operator,
  strings under ``=`` / ``!=`` only (a string under a relational
  operator branches on whether it parses as a number);
* the needle of ``contains()`` / ``starts-with()``.

Everything else — literal-vs-literal comparisons and literals in
boolean context, which the translator constant-folds — stays inline
and remains part of the shape.

The slot nodes subclass the literal nodes they replace, so the
translator's ``isinstance`` dispatch is unchanged; their ``value``
field is a placeholder and must never be read (the translator raises
if a slot reaches a constant-folding position).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from repro.xpath.ast import (
    BinaryOp,
    Expr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    UnionPath,
)

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


@dataclass(frozen=True)
class StringSlot(StringLiteral):
    """A slotted string literal; ``value`` is a placeholder."""

    index: int = -1

    def __str__(self) -> str:
        return f"${self.index}"


@dataclass(frozen=True)
class NumberSlot(NumberLiteral):
    """A slotted number literal; ``value`` is a placeholder.  It prints
    apart from a string slot: ``[y = '1']`` and ``[y = 1]`` compile to
    different comparisons, so they must not share a shape key."""

    index: int = -1

    def __str__(self) -> str:
        return f"#{self.index}"


def is_slot(expr: object) -> bool:
    return isinstance(expr, (StringSlot, NumberSlot))


def extract_shape(
    path: Union[LocationPath, UnionPath],
) -> tuple[Union[LocationPath, UnionPath], tuple]:
    """Rewrite *path* with literal slots; return it plus the literals."""
    extractor = _Extractor()
    if isinstance(path, UnionPath):
        shaped: Union[LocationPath, UnionPath] = UnionPath(
            tuple(extractor.rewrite_path(p) for p in path.paths)
        )
    else:
        shaped = extractor.rewrite_path(path)
    return shaped, tuple(extractor.literals)


class _Extractor:
    def __init__(self) -> None:
        self.literals: list = []

    def _slot(self, literal: Union[NumberLiteral, StringLiteral]) -> Expr:
        index = len(self.literals)
        self.literals.append(literal.value)
        if isinstance(literal, NumberLiteral):
            return NumberSlot(0.0, index)
        return StringSlot("", index)

    # -- structure ---------------------------------------------------------

    def rewrite_path(self, path: LocationPath) -> LocationPath:
        return replace(
            path,
            steps=tuple(self.rewrite_step(s) for s in path.steps),
        )

    def rewrite_step(self, step: Step) -> Step:
        return replace(
            step,
            predicates=tuple(
                self.rewrite_predicate(p) for p in step.predicates
            ),
        )

    # -- predicate positions ----------------------------------------------

    def rewrite_predicate(self, expr: Expr) -> Expr:
        # A bare number predicate is positional: structure is the same
        # for every k (k only binds a count or a pick's ``?``).  Exact type
        # checks keep extraction idempotent (slots subclass literals).
        if type(expr) is NumberLiteral:
            return self._slot(expr)
        if isinstance(expr, FunctionCall) and expr.name == "last":
            return expr
        return self.rewrite_boolean(expr)

    def rewrite_boolean(self, expr: Expr) -> Expr:
        if isinstance(expr, BinaryOp):
            if expr.op in ("and", "or"):
                return BinaryOp(
                    expr.op,
                    self.rewrite_boolean(expr.left),
                    self.rewrite_boolean(expr.right),
                )
            if expr.op in _COMPARISON_OPS:
                return self.rewrite_comparison(expr)
            return expr
        if isinstance(expr, PathExpr):
            return PathExpr(self.rewrite_path(expr.path))
        if isinstance(expr, FunctionCall):
            return self.rewrite_function(expr)
        # A bare literal in boolean context constant-folds on its value:
        # structural, so it stays inline.
        return expr

    def rewrite_function(self, call: FunctionCall) -> Expr:
        if call.name == "not" and len(call.args) == 1:
            return FunctionCall(
                "not", (self.rewrite_boolean(call.args[0]),)
            )
        if call.name == "count" and len(call.args) == 1:
            return FunctionCall(
                "count", (self._rewrite_operand(call.args[0]),)
            )
        if call.name in ("contains", "starts-with") and len(call.args) == 2:
            target, needle = call.args
            new_target = self._rewrite_operand(target)
            new_needle = (
                self._slot(needle)
                if type(needle) is StringLiteral
                else needle
            )
            return FunctionCall(call.name, (new_target, new_needle))
        return call

    # -- comparisons -------------------------------------------------------

    def rewrite_comparison(self, expr: BinaryOp) -> Expr:
        left, right, op = expr.left, expr.right, expr.op
        lit_left = _is_plain_literal(left)
        lit_right = _is_plain_literal(right)
        if lit_left and lit_right:
            # Constant-folded by the translator; structural.
            return expr
        if lit_left:
            # The translator flips so the literal lands on the right;
            # mirror that flip when judging safety.
            return BinaryOp(
                op,
                self._rewrite_literal_side(left, right, _FLIP[op]),
                self._rewrite_operand(right),
            )
        if lit_right:
            return BinaryOp(
                op,
                self._rewrite_operand(left),
                self._rewrite_literal_side(right, left, op),
            )
        return BinaryOp(
            op,
            self._rewrite_operand(left),
            self._rewrite_operand(right),
        )

    def _rewrite_operand(self, expr: Expr) -> Expr:
        """The non-literal side of a comparison (or a function arg)."""
        if isinstance(expr, PathExpr):
            return PathExpr(self.rewrite_path(expr.path))
        if isinstance(expr, FunctionCall) and expr.name == "count":
            return self.rewrite_function(expr)
        return expr

    def _rewrite_literal_side(
        self, literal: Expr, other: Expr, op: str
    ) -> Expr:
        """Slot *literal* if the translation is value-independent.

        *other* is the non-literal side, *op* the operator as the
        translator sees it (literal on the right).
        """
        if isinstance(other, FunctionCall) and other.name in (
            "position", "last", "count",
        ):
            if type(literal) is NumberLiteral:
                return self._slot(literal)
            return literal
        if isinstance(other, PathExpr):
            if type(literal) is NumberLiteral:
                return self._slot(literal)
            if type(literal) is StringLiteral and op in ("=", "!="):
                return self._slot(literal)
            return literal
        return literal


def _is_plain_literal(expr: Expr) -> bool:
    return isinstance(expr, (NumberLiteral, StringLiteral))
