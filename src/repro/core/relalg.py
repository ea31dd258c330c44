"""Relational expression AST and its SQL text renderer.

The XPath translators do not emit SQL text directly.  They build a
small relational algebra AST — tables with aliases, comparisons, AND/OR,
EXISTS and correlated COUNT subqueries, and the recursive closure the
Local encoding walks its parent pointers with — which
:class:`SqlTextDialect` renders as
parameterized SQL with ``?`` placeholders.  That text is the only thing
either engine sees: sqlite prepares it (and reuses the prepared
statement through the connection-level statement cache), minidb parses
it once per text behind its own statement cache.

Run-time values never appear in the compiled form.  Every value the SQL
depends on — the document id, the context-node id, and the safe XPath
predicate literals — compiles to a :class:`Param` carrying a *slot*, and
:meth:`CompiledPlan.bind` turns slots into a concrete parameter tuple.
Compiled plans are therefore keyed on query *shape* and shared across
documents and across differing predicate literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import TranslationError

# ---------------------------------------------------------------------------
# Parameter slots
# ---------------------------------------------------------------------------


class _DocSlot:
    """The document id (bound per :meth:`CompiledPlan.bind` call)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DOC"


class _CtxSlot:
    """The context-node surrogate id (relative paths only)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "CTX"


#: Singleton slots: every doc/context parameter is the same object.
DOC = _DocSlot()
CTX = _CtxSlot()


@dataclass(frozen=True)
class FixedSlot:
    """A parameter whose value is fixed at compile time.

    Used for values that are part of the query shape (tag names,
    attribute names) but are still passed as ``?`` parameters so the
    SQL text stays stable and statement caches stay warm.
    """

    value: object


@dataclass(frozen=True)
class LitSlot:
    """A parameter fed from the query's extracted literal list.

    ``index`` addresses the literal (in extraction order); ``transform``
    names how the raw literal becomes the bound value:

    * ``raw``   — the literal itself;
    * ``num``   — as int when integral, else float;
    * ``int``   — truncated to int;
    * ``posm1`` — ``int(v) - 1`` (positions compare against a count of
      *preceding* axis-mates);
    * ``len``   — ``len(v)`` (the ``starts-with`` prefix length).
    """

    index: int
    transform: str = "raw"


ParamSlot = Union[_DocSlot, _CtxSlot, FixedSlot, LitSlot]


def _apply_transform(transform: str, value: object) -> object:
    if transform == "raw":
        return value
    if transform == "num":
        number = float(value)  # type: ignore[arg-type]
        return int(number) if number == int(number) else number
    if transform == "int":
        return int(value)  # type: ignore[arg-type]
    if transform == "posm1":
        return int(value) - 1  # type: ignore[arg-type]
    if transform == "len":
        return len(value)  # type: ignore[arg-type]
    raise TranslationError(f"unknown literal transform {transform!r}")


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """A column reference through a table alias."""

    alias: str
    name: str


@dataclass(frozen=True)
class Const:
    """A structural constant, inlined into the SQL text."""

    value: object  # int | float | str


@dataclass(frozen=True)
class Param:
    """A ``?`` placeholder fed from a :data:`ParamSlot` at bind time."""

    slot: ParamSlot


@dataclass(frozen=True)
class Bool:
    """A constant truth value (rendered ``1 = 1`` / ``1 = 0``)."""

    value: bool


@dataclass(frozen=True)
class Cmp:
    """A binary comparison: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``."""

    op: str
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class And:
    items: tuple["RelExpr", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["RelExpr", ...]


@dataclass(frozen=True)
class Not:
    item: "RelExpr"


@dataclass(frozen=True)
class Arith:
    """Binary arithmetic or concatenation: ``+``, ``-``, ``||``."""

    op: str
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class Func:
    """A scalar function call (``INSTR``, ``SUBSTR``, ``dewey_parent``...)."""

    name: str
    args: tuple["RelExpr", ...]


@dataclass(frozen=True)
class CountStar:
    """``COUNT(*)``."""


@dataclass(frozen=True)
class Cast:
    item: "RelExpr"
    type_name: str  # "REAL"


@dataclass(frozen=True)
class IsNull:
    """``expr IS NULL`` — pairs with ``xpath_number``, whose NULL result
    stands for XPath NaN (``NaN != x`` is true, so ``!=`` needs the
    disjunct)."""

    item: "RelExpr"


@dataclass(frozen=True)
class Exists:
    """(NOT) EXISTS subquery.

    ``counted`` mirrors the historical stats accounting: the EXISTS
    that only wraps one of the Local encoding's recursive walks is not
    counted as an EXISTS subquery (the walk counts as a recursion).
    """

    query: "RelQuery"
    negated: bool = False
    counted: bool = True


@dataclass(frozen=True)
class ScalarCount:
    """A correlated ``(SELECT COUNT(*) ...)`` scalar subquery."""

    query: "Select"


@dataclass(frozen=True)
class StringValueAgg:
    """The XPath *string-value* of an element, computed in SQL.

    ``query`` is a correlated subquery yielding the element's descendant
    text values in document order as a column named ``v`` (plus any sort
    keys); the aggregate concatenates them:

    ``COALESCE((SELECT GROUP_CONCAT(v, '') FROM (<query>) <alias>), '')``

    The inner derived table keeps the ORDER BY effective: both engines
    feed the aggregate rows in derived-table order (sqlite cannot
    flatten an ordered subquery under an aggregate), so concatenation
    happens in document order.  Elements with no descendant text
    coalesce to ``''`` — the string-value of an empty element.
    """

    query: "RelQuery"
    alias: str


@dataclass(frozen=True)
class SelectItem:
    expr: "RelExpr"
    as_name: Optional[str] = None


@dataclass(frozen=True)
class Select:
    """One SELECT.

    ``count_joins`` mirrors the historical stats accounting: FROM items
    beyond the first count as joins for step/exists/count selects, but
    not for the plumbing of a string-value scan or a recursive walk.
    """

    columns: tuple[SelectItem, ...]
    from_items: tuple[tuple[str, str], ...] = ()  # (table, alias)
    where: tuple["RelExpr", ...] = ()
    order_by: tuple[Col, ...] = ()
    distinct: bool = False
    count_joins: bool = True


@dataclass(frozen=True)
class UnionQuery:
    """``SELECT .. UNION SELECT ..`` ordered by output-column names."""

    selects: tuple[Select, ...]
    order_by: tuple[str, ...] = ()


@dataclass(frozen=True)
class Recursive:
    """``WITH RECURSIVE name(columns) AS (anchor UNION step) body``.

    The transitive closure plain joins cannot express: *step* selects
    from *name* (the rows the previous round produced) and feeds its
    rows back until a round adds none; *body* then reads the whole
    closure.  ``UNION``, not ``UNION ALL``: a row already produced is
    not produced again, so a walk over corrupt, cyclic rows ends.
    *anchor* and *step* may reference aliases of the enclosing query.
    """

    name: str
    columns: tuple[str, ...]
    anchor: Select
    step: Select
    body: Select


RelExpr = Union[
    Col, Const, Param, Bool, Cmp, And, Or, Not, Arith, Func, CountStar,
    Cast, IsNull, Exists, ScalarCount, StringValueAgg,
]

RelQuery = Union[Select, UnionQuery, Recursive]


# ---------------------------------------------------------------------------
# Statistics (experiment E9), computed on the AST
# ---------------------------------------------------------------------------


@dataclass
class TranslationStats:
    """Static complexity of one translated query (experiment E9)."""

    joins: int = 0  # FROM items beyond the first, across all queries
    exists_subqueries: int = 0
    count_subqueries: int = 0
    recursions: int = 0  # recursive closures (Local encoding)

    def total_relational_operations(self) -> int:
        return (
            self.joins
            + self.exists_subqueries
            + self.count_subqueries
            + self.recursions
        )


def compute_stats(query: RelQuery) -> TranslationStats:
    """Derive the E9 complexity statistics from a compiled AST."""
    stats = TranslationStats()
    _collect_stats(query, stats)
    return stats


def _collect_stats(node: object, stats: TranslationStats) -> None:
    if isinstance(node, (Col, Param, Const)):
        return  # most of any plan; the other leaves fall off the end
    if isinstance(node, (Cmp, Arith)):
        _collect_stats(node.left, stats)
        _collect_stats(node.right, stats)
    elif isinstance(node, UnionQuery):
        for arm in node.selects:
            _collect_stats(arm, stats)
    elif isinstance(node, Recursive):
        stats.recursions += 1
        for part in (node.anchor, node.step, node.body):
            _collect_stats(part, stats)
    elif isinstance(node, Select):
        if node.count_joins:
            stats.joins += max(0, len(node.from_items) - 1)
        for item in node.columns:
            _collect_stats(item.expr, stats)
        for cond in node.where:
            _collect_stats(cond, stats)
    elif isinstance(node, Exists):
        if node.counted:
            stats.exists_subqueries += 1
        _collect_stats(node.query, stats)
    elif isinstance(node, ScalarCount):
        stats.count_subqueries += 1
        _collect_stats(node.query, stats)
    elif isinstance(node, (And, Or)):
        for item in node.items:
            _collect_stats(item, stats)
    elif isinstance(node, Not):
        _collect_stats(node.item, stats)
    elif isinstance(node, Func):
        for arg in node.args:
            _collect_stats(arg, stats)
    elif isinstance(node, Cast):
        _collect_stats(node.item, stats)
    elif isinstance(node, IsNull):
        _collect_stats(node.item, stats)
    # Bool/CountStar are leaves as well.  StringValueAgg is
    # deliberately a leaf too: it is a scalar evaluation detail of one
    # comparison, not part of the E9 structural-complexity accounting
    # (counting its internals would shift the historical baselines).


# ---------------------------------------------------------------------------
# SQL text dialect
# ---------------------------------------------------------------------------


def sql_string_literal(text: str) -> str:
    """Escape *text* as a single-quoted SQL literal (quotes doubled)."""
    return "'" + text.replace("'", "''") + "'"


def _render_const(value: object) -> str:
    if isinstance(value, str):
        return sql_string_literal(value)
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


class SqlTextDialect:
    """Compile the AST to SQL text with ``?`` placeholders.

    The slot list is collected in placeholder order, so binding the
    slots left to right yields the parameter tuple for the statement.
    """

    def compile(self, query: RelQuery) -> tuple[str, tuple[ParamSlot, ...]]:
        slots: list[ParamSlot] = []
        sql = self._query(query, slots)
        return sql, tuple(slots)

    def _query(self, query: RelQuery, slots: list) -> str:
        if isinstance(query, UnionQuery):
            sql = " UNION ".join(
                self._select(arm, slots) for arm in query.selects
            )
            if query.order_by:
                sql += " ORDER BY " + ", ".join(query.order_by)
            return sql
        if isinstance(query, Recursive):
            return (
                f"WITH RECURSIVE {query.name}"
                f"({', '.join(query.columns)}) AS ("
                f"{self._select(query.anchor, slots)} UNION "
                f"{self._select(query.step, slots)}) "
                f"{self._select(query.body, slots)}"
            )
        return self._select(query, slots)

    def _select(self, select: Select, slots: list) -> str:
        parts = ["SELECT "]
        if select.distinct:
            parts.append("DISTINCT ")
        rendered_items = []
        for item in select.columns:
            text = self._expr(item.expr, slots)
            if item.as_name is not None:
                text += f" AS {item.as_name}"
            rendered_items.append(text)
        parts.append(", ".join(rendered_items))
        if select.from_items:
            parts.append(" FROM ")
            # A recursive table is its own alias.
            parts.append(
                ", ".join(
                    t if t == a else f"{t} {a}"
                    for t, a in select.from_items
                )
            )
        if select.where:
            parts.append(" WHERE ")
            parts.append(
                " AND ".join(self._expr(c, slots) for c in select.where)
            )
        if select.order_by:
            parts.append(" ORDER BY ")
            parts.append(
                ", ".join(f"{c.alias}.{c.name}" for c in select.order_by)
            )
        return "".join(parts)

    def _expr(self, node: RelExpr, slots: list) -> str:
        if isinstance(node, Col):
            return f"{node.alias}.{node.name}"
        if isinstance(node, Const):
            return _render_const(node.value)
        if isinstance(node, Param):
            slots.append(node.slot)
            return "?"
        if isinstance(node, Bool):
            return "1 = 1" if node.value else "1 = 0"
        if isinstance(node, (Cmp, Arith)):
            left = self._expr(node.left, slots)
            right = self._expr(node.right, slots)
            return f"{left} {node.op} {right}"
        if isinstance(node, And):
            inner = " AND ".join(self._expr(i, slots) for i in node.items)
            return f"({inner})"
        if isinstance(node, Or):
            inner = " OR ".join(self._expr(i, slots) for i in node.items)
            return f"({inner})"
        if isinstance(node, Not):
            return f"NOT ({self._expr(node.item, slots)})"
        if isinstance(node, Func):
            args = ", ".join(self._expr(a, slots) for a in node.args)
            return f"{node.name}({args})"
        if isinstance(node, CountStar):
            return "COUNT(*)"
        if isinstance(node, Cast):
            return f"CAST({self._expr(node.item, slots)} AS {node.type_name})"
        if isinstance(node, IsNull):
            return f"{self._expr(node.item, slots)} IS NULL"
        if isinstance(node, Exists):
            keyword = "NOT EXISTS" if node.negated else "EXISTS"
            return f"{keyword} ({self._query(node.query, slots)})"
        if isinstance(node, ScalarCount):
            return f"({self._select(node.query, slots)})"
        if isinstance(node, StringValueAgg):
            inner = self._query(node.query, slots)
            return (
                "COALESCE((SELECT GROUP_CONCAT(v, '') "
                f"FROM ({inner}) {node.alias}), '')"
            )
        raise TranslationError(f"cannot render node {node!r}")


# ---------------------------------------------------------------------------
# Compiled plans and bound queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslatedQuery:
    """The *bound* SQL form of one XPath query (ready to execute)."""

    sql: str
    params: tuple
    result_kind: str  # "node" | "attribute"
    needs_client_order: bool
    encoding: str
    columns: tuple[str, ...]
    stats: TranslationStats
    #: "scan" (translated joins over the node table), or the ``+``-joined
    #: ``path-index`` / ``value-index`` rewrites an indexed document's
    #: plan probes the secondary-index side tables through.
    access_path: str = "scan"
    #: Not a field.  The frozen probe benchmarks/perf/workloads.py:477
    #: passes ``statement=t.statement``; nothing else reads it (ROADMAP,
    #: "One benchmark system", lists it for deletion).
    statement = None


@dataclass(frozen=True)
class CompiledPlan:
    """A document-independent compiled query, keyed on query shape.

    The plan embeds no document id, context id, or predicate literal:
    those arrive through :meth:`bind`, which resolves the slot list
    into a concrete parameter tuple.
    """

    sql: str
    param_slots: tuple[ParamSlot, ...]
    result_kind: str
    needs_client_order: bool
    encoding: str
    columns: tuple[str, ...]
    stats: TranslationStats
    #: See :attr:`TranslatedQuery.access_path`.
    access_path: str = "scan"
    #: Compiled for an unindexed document although a fragment was
    #: eligible for an index rewrite (counted as ``index.miss``).
    index_miss: bool = False

    def bind(
        self,
        doc: int,
        context_id: Optional[int] = None,
        literals: tuple = (),
    ) -> TranslatedQuery:
        """Resolve slots into parameters for one concrete execution."""
        params = []
        for slot in self.param_slots:
            if slot is DOC:
                params.append(doc)
            elif slot is CTX:
                if context_id is None:
                    raise TranslationError(
                        "relative paths need a context node "
                        "(pass context_id) or an absolute path"
                    )
                params.append(context_id)
            elif isinstance(slot, FixedSlot):
                params.append(slot.value)
            elif isinstance(slot, LitSlot):
                if slot.index >= len(literals):
                    raise TranslationError(
                        "literal slot out of range: plan compiled from "
                        "a different query shape"
                    )
                params.append(
                    _apply_transform(slot.transform, literals[slot.index])
                )
            else:  # pragma: no cover - defensive
                raise TranslationError(f"unknown parameter slot {slot!r}")
        return TranslatedQuery(
            sql=self.sql,
            params=tuple(params),
            result_kind=self.result_kind,
            needs_client_order=self.needs_client_order,
            encoding=self.encoding,
            columns=self.columns,
            stats=self.stats,
            access_path=self.access_path,
        )
