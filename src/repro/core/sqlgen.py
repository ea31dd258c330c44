"""Query-construction helpers for the XPath translator.

The translator assembles :mod:`repro.core.relalg` expression nodes; this
module provides the mutable :class:`SelectBuilder` that accumulates one
SELECT's pieces and the subquery wrappers.  Rendering to SQL text
happens later, in :class:`~repro.core.relalg.SqlTextDialect` — the
builder never touches strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.relalg import (
    And,
    Bool,
    Col,
    CountStar,
    Exists,
    RelExpr,
    ScalarCount,
    Select,
    SelectItem,
    TranslationStats,
    sql_string_literal,
)

__all__ = [
    "AliasGenerator",
    "SelectBuilder",
    "TranslationStats",
    "all_of",
    "exists",
    "scalar_count",
    "sql_string_literal",
]


def all_of(parts: Iterable[Optional[RelExpr]]) -> Optional[RelExpr]:
    """AND-combine conditions, dropping empties."""
    items = tuple(p for p in parts if p is not None)
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(items)


class AliasGenerator:
    """Yields unique table aliases across one whole translation."""

    def __init__(self, prefix: str = "n") -> None:
        self._prefix = prefix
        self._counter = 0

    def next(self) -> str:
        alias = f"{self._prefix}{self._counter}"
        self._counter += 1
        return alias


@dataclass
class SelectBuilder:
    """Accumulates one SELECT statement as relalg nodes."""

    select: list[SelectItem] = field(default_factory=list)
    from_items: list[tuple[str, str]] = field(default_factory=list)
    where: list[RelExpr] = field(default_factory=list)
    order_by: list[Col] = field(default_factory=list)
    distinct: bool = False
    count_joins: bool = True

    def add_from(self, table: str, alias: str) -> None:
        self.from_items.append((table, alias))

    def add_where(self, condition: Optional[RelExpr]) -> None:
        if condition is not None:
            self.where.append(condition)

    def build(self) -> Select:
        """Snapshot the accumulated pieces as an immutable Select."""
        return Select(
            columns=tuple(self.select),
            from_items=tuple(self.from_items),
            where=tuple(self.where),
            order_by=tuple(self.order_by),
            distinct=self.distinct,
            count_joins=self.count_joins,
        )


def exists(
    builder: SelectBuilder, negated: bool = False, counted: bool = True
) -> Exists:
    """Wrap a built subquery in (NOT) EXISTS."""
    return Exists(builder.build(), negated=negated, counted=counted)


def scalar_count(builder: SelectBuilder) -> ScalarCount:
    """A correlated COUNT(*) scalar subquery over the builder's rows.

    The projection is replaced in the immutable snapshot only; the
    builder itself is never mutated, so no exception path can leave it
    corrupted for subsequent renders (the old fragment-based version
    swapped ``builder.select`` in place without try/finally).
    """
    snapshot = builder.build()
    counted = Select(
        columns=(SelectItem(CountStar()),),
        from_items=snapshot.from_items,
        where=snapshot.where,
        order_by=(),
        distinct=False,
        count_joins=snapshot.count_joins,
    )
    return ScalarCount(counted)


def true_condition() -> Bool:
    """The constant-true condition (``1 = 1``)."""
    return Bool(True)


def false_condition() -> Bool:
    """The constant-false condition (``1 = 0``)."""
    return Bool(False)
