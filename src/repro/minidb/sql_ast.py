"""Statement and expression AST for the minidb SQL subset.

The subset is exactly what the paper's translations and the store's
own statements need: DDL (CREATE TABLE / CREATE [UNIQUE] INDEX, both
``IF NOT EXISTS``), single-row INSERT, single-table UPDATE/DELETE, and
SELECT over comma joins and derived tables with WHERE, correlated
EXISTS and scalar subqueries, ``IN (…)`` lists, COUNT(*) / MIN / MAX /
GROUP_CONCAT over every row of the select, DISTINCT, compound UNION,
ascending ORDER BY, ``LIMIT … [OFFSET …]`` on a single SELECT, and
``WITH RECURSIVE`` — one self-referencing step — in front of any
SELECT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # int | float | str


@dataclass(frozen=True)
class Param:
    """A positional ``?`` placeholder; ``index`` is 0-based."""

    index: int


@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally qualified with a table alias."""

    table: Optional[str]
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Binary:
    """Binary operator: comparison, AND/OR, ``+`` or ``||``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class FunctionExpr:
    """A scalar function or MIN / MAX / GROUP_CONCAT call."""

    name: str  # lower-cased
    args: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class CountStar:
    """``COUNT(*)``."""


@dataclass(frozen=True)
class IsNull:
    expr: "Expr"


@dataclass(frozen=True)
class Exists:
    select: "SelectLike"


@dataclass(frozen=True)
class InList:
    expr: "Expr"
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class ScalarSubquery:
    select: "SelectLike"


Expr = Union[
    Literal,
    Param,
    ColumnRef,
    Binary,
    Not,
    FunctionExpr,
    CountStar,
    IsNull,
    Exists,
    InList,
    ScalarSubquery,
]


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class Star:
    """``*`` in a select list."""


@dataclass(frozen=True)
class TableSource:
    name: str


@dataclass(frozen=True)
class SubquerySource:
    select: "SelectLike"


@dataclass(frozen=True)
class FromItem:
    """One element of a comma-separated FROM list."""

    source: Union[TableSource, SubquerySource]
    alias: str


@dataclass(frozen=True)
class Select:
    """One SELECT; ``limit`` / ``offset`` are a ``?`` or an integer
    literal."""

    items: tuple[Union[SelectItem, Star], ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expr] = None
    order_by: tuple[ColumnRef, ...] = ()
    distinct: bool = False
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None


@dataclass(frozen=True)
class Union_:
    """Compound select: ``arms[0] UNION arms[1] ...``, ordered by
    output-column names."""

    arms: tuple[Select, ...]
    order_by: tuple[ColumnRef, ...] = ()


@dataclass(frozen=True)
class With:
    """``WITH RECURSIVE name(columns) AS (anchor UNION step) body``.

    *step* selects from *name* exactly once, in its own FROM, and is
    evaluated again on the rows the round before produced until a round
    produces none; *body* reads them all.  Anchor and step may
    reference the enclosing query.
    """

    name: str
    columns: tuple[str, ...]
    anchor: Select
    step: Select
    body: "SelectLike"


SelectLike = Union[Select, Union_, With]

#: For ``isinstance``: every statement that yields rows.
SELECT_TYPES = (Select, Union_, With)


# ---------------------------------------------------------------------------
# Other statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True)
class Insert:
    """One row, every column in table order."""

    table: str
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...] = ()
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None


Statement = Union[
    CreateTable, CreateIndex, Insert, Update, Delete, Select, Union_, With,
]
