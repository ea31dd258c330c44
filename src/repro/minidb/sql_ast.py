"""Statement and expression AST for the minidb SQL subset.

The subset is exactly what the paper's translations and the benchmark
harness need: DDL (CREATE TABLE / CREATE INDEX / DROP TABLE), INSERT with
literals/parameters, single-table UPDATE/DELETE, and SELECT with inner and
left joins, derived tables, WHERE, correlated EXISTS / IN / scalar
subqueries, aggregates with GROUP BY / HAVING, DISTINCT, compound UNION
[ALL], ORDER BY and LIMIT, and one common table expression — recursive
or not — in front of any SELECT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object  # None | int | float | str | bytes


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
    """Binary operator: comparison, arithmetic, AND/OR, LIKE, ``||``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Unary:
    """Unary operator: NOT or numeric negation."""

    op: str  # "NOT" | "-"
    operand: "Expr"


@dataclass(frozen=True)
class FunctionExpr:
    """Function call; ``star`` marks ``COUNT(*)``."""

    name: str  # lower-cased
    args: tuple["Expr", ...] = ()
    star: bool = False


@dataclass(frozen=True)
class Cast:
    expr: "Expr"
    target: str  # INTEGER | REAL | TEXT | BLOB


@dataclass(frozen=True)
class IsNull:
    expr: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class Exists:
    select: "SelectLike"
    negated: bool = False


@dataclass(frozen=True)
class InList:
    expr: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class InSelect:
    expr: "Expr"
    select: "SelectLike"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery:
    select: "SelectLike"


Expr = Union[
    Literal,
    Param,
    ColumnRef,
    Binary,
    Unary,
    FunctionExpr,
    Cast,
    IsNull,
    Exists,
    InList,
    InSelect,
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
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class TableSource:
    name: str


@dataclass(frozen=True)
class SubquerySource:
    select: "SelectLike"


@dataclass(frozen=True)
class FromItem:
    """One FROM element.  ``join_type`` relates it to the previous item."""

    source: Union[TableSource, SubquerySource]
    alias: str
    join_type: str = "inner"  # "inner" | "left"
    on: Optional[Expr] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[Union[SelectItem, Star], ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expr] = None
    distinct: bool = False


@dataclass(frozen=True)
class Union_:
    """Compound select: ``arms[0] UNION [ALL] arms[1] ...``."""

    arms: tuple[Select, ...]
    all: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expr] = None


@dataclass(frozen=True)
class With:
    """``WITH [RECURSIVE] name(columns) AS (query [UNION [ALL] step])
    body``.

    Without *step* the table is an ordinary named subquery.  With it,
    *query* is the anchor and *step* — which selects from *name*
    exactly once, in its own FROM — is evaluated again on the rows the
    round before produced until a round produces none; *body* reads
    them all.  Anchor and step may reference the enclosing query.
    """

    name: str
    columns: tuple[str, ...]
    query: "SelectLike"
    step: Optional[Select]
    union_all: bool
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
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...] = ()  # empty means "all, in table order"
    values: tuple[tuple[Expr, ...], ...] = ()


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
    CreateTable, CreateIndex, DropTable, Insert, Update, Delete, Select,
    Union_, With,
]
