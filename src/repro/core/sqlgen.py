"""Query-construction helpers for the XPath translator.

The translator assembles :mod:`repro.core.relalg` expression nodes; this
module provides the mutable :class:`SelectBuilder` that accumulates one
SELECT's pieces and the subquery wrappers.  Rendering to SQL text
happens later, in :class:`~repro.core.relalg.SqlTextDialect` — the
builder never touches strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.relalg import (
    Col,
    CountStar,
    Exists,
    FromItem,
    RelExpr,
    ScalarSubquery,
    Select,
    SelectItem,
    TranslationStats,
    sql_string_literal,
)

__all__ = [
    "AliasGenerator",
    "SelectBuilder",
    "TranslationStats",
    "exists",
    "scalar_count",
    "sql_string_literal",
]


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
    from_items: list[tuple[FromItem, str]] = field(default_factory=list)
    where: list[RelExpr] = field(default_factory=list)
    order_by: list[Col] = field(default_factory=list)
    distinct: bool = False
    count_joins: bool = True
    limit: Optional[RelExpr] = None
    offset: Optional[RelExpr] = None

    def add_from(self, table: FromItem, alias: str) -> None:
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
            limit=self.limit,
            offset=self.offset,
        )


def exists(
    builder: SelectBuilder, negated: bool = False, counted: bool = True
) -> Exists:
    """Wrap a built subquery in (NOT) EXISTS."""
    return Exists(builder.build(), negated=negated, counted=counted)


def scalar_count(builder: SelectBuilder) -> ScalarSubquery:
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
    return ScalarSubquery(counted)
