"""Relational expression AST and its SQL text renderer.

The XPath translators do not emit SQL text directly.  They build a
small relational algebra AST — tables with aliases, comparisons, AND/OR,
EXISTS and correlated scalar subqueries, and the recursive closure the
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

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

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
    * ``posm1`` — ``num(v) - 1`` (positions compare against a count of
      *preceding* axis-mates; a fractional ``v`` stays fractional, so
      ``count = 0.5`` matches nothing, as ``position() = 1.5`` does);
    * ``skip:<op>`` / ``take:<op>`` — the ``OFFSET`` and ``LIMIT`` that
      pick the siblings whose positions satisfy ``position() <op> v``
      (see :func:`position_range`);
    * ``len``   — ``len(v)`` (the ``starts-with`` prefix length).
    """

    index: int
    transform: str = "raw"


ParamSlot = Union[_DocSlot, _CtxSlot, FixedSlot, LitSlot]


def position_range(op: str, k: float) -> tuple[int, float]:
    """The positions ``p`` with ``p <op> k``, as ``[first, last]``.

    Positions are integers from 1, so each bound is rounded the way
    XPath compares a position with a number: ``p >= 2.5`` is ``p >= 3``,
    ``p < 1.5`` is ``p <= 1``, and ``p = 1.5`` holds for no position
    (an empty range, ``first > last``).  ``last`` may be infinite.
    """
    if op == "=":
        return (int(k), k) if k == int(k) else (1, 0)
    if op == ">=":
        return math.ceil(k), math.inf
    if op == ">":
        return math.floor(k) + 1, math.inf
    if op == "<=":
        return 1, math.floor(k)
    if op == "<":
        return 1, math.ceil(k) - 1
    raise TranslationError(f"no position range for {op!r}")


#: Integers both engines bind: sqlite's are 64-bit.  A bound past this
#: admits or excludes the same rows as any larger one.
_MAX_INT = 2**62


def _number(value: object) -> Union[int, float]:
    """An integral number as an int the engines bind, else a float."""
    number = float(value)  # type: ignore[arg-type]
    if abs(number) < _MAX_INT and number == int(number):
        return int(number)
    return number


def _position_bound(kind: str, op: str, value: object) -> int:
    """The ``OFFSET`` (*kind* ``skip``) or ``LIMIT`` (``take``) that
    picks the siblings whose positions satisfy ``position() <op> v``."""
    # Both engines read a negative OFFSET as 0 and a negative LIMIT as
    # no limit at all, so neither may reach them.
    first, last = position_range(op, float(value))  # type: ignore[arg-type]
    first, last = min(max(first, 1), _MAX_INT), min(last, _MAX_INT)
    if kind == "skip":
        return first - 1
    return int(max(last - first + 1, 0))


def _transform(name: str) -> Optional[Callable[[object], object]]:
    """The function a :class:`LitSlot` transform applies to its raw
    literal, or ``None`` for ``raw``."""
    if name == "raw":
        return None
    if name == "num":
        return _number
    if name == "posm1":
        return lambda value: _number(value) - 1
    if name == "len":
        return len
    kind, _, op = name.partition(":")
    if kind in ("skip", "take"):
        return partial(_position_bound, kind, op)
    raise TranslationError(f"unknown literal transform {name!r}")


def _apply_transform(transform: str, value: object) -> object:
    function = _transform(transform)
    return value if function is None else function(value)


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
class ScalarSubquery:
    """A correlated scalar subquery ``(SELECT ...)``: a ``COUNT(*)`` of
    axis-mates, or the order value a positional predicate picks."""

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
    A FROM item is a table name or a derived query (:data:`FromItem`).
    ``limit`` / ``offset`` keep that many rows of the ordered result
    and skip that many first.
    """

    columns: tuple[SelectItem, ...]
    from_items: tuple[tuple["FromItem", str], ...] = ()
    where: tuple["RelExpr", ...] = ()
    order_by: tuple[Col, ...] = ()
    distinct: bool = False
    count_joins: bool = True
    limit: Optional["RelExpr"] = None
    offset: Optional["RelExpr"] = None


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
    It renders wherever a query goes: under ``EXISTS``, and as a derived
    FROM item (Local's descendant and ancestor steps read their
    candidates from one).
    """

    name: str
    columns: tuple[str, ...]
    anchor: Select
    step: Select
    body: Select


RelExpr = Union[
    Col, Const, Param, Bool, Cmp, And, Or, Not, Arith, Func, CountStar,
    IsNull, Exists, ScalarSubquery, StringValueAgg,
]

RelQuery = Union[Select, UnionQuery, Recursive]

#: What a SELECT reads from: a table name, or a derived query.
FromItem = Union[str, RelQuery]


# ---------------------------------------------------------------------------
# Statistics (experiment E9), computed on the AST
# ---------------------------------------------------------------------------


@dataclass
class TranslationStats:
    """Static complexity of one translated query (experiment E9)."""

    joins: int = 0  # FROM items beyond the first, across all queries
    exists_subqueries: int = 0
    scalar_subqueries: int = 0  # COUNT(*) and positional picks
    recursions: int = 0  # recursive closures (Local encoding)

    def total_relational_operations(self) -> int:
        return (
            self.joins
            + self.exists_subqueries
            + self.scalar_subqueries
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
        for table, _alias in node.from_items:
            if not isinstance(table, str):
                _collect_stats(table, stats)
        for item in node.columns:
            _collect_stats(item.expr, stats)
        for cond in node.where:
            _collect_stats(cond, stats)
    elif isinstance(node, Exists):
        if node.counted:
            stats.exists_subqueries += 1
        _collect_stats(node.query, stats)
    elif isinstance(node, ScalarSubquery):
        stats.scalar_subqueries += 1
        _collect_stats(node.query, stats)
    elif isinstance(node, (And, Or)):
        for item in node.items:
            _collect_stats(item, stats)
    elif isinstance(node, Not):
        _collect_stats(node.item, stats)
    elif isinstance(node, Func):
        for arg in node.args:
            _collect_stats(arg, stats)
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
    if isinstance(value, float) and math.isinf(value):
        # SQL has no infinity literal; both engines read one that
        # overflows a double as infinite.
        return "1e999" if value > 0 else "-1e999"
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
            parts.append(
                ", ".join(
                    self._from_item(t, a, slots)
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
        if select.limit is not None:
            parts.append(f" LIMIT {self._expr(select.limit, slots)}")
        if select.offset is not None:
            parts.append(f" OFFSET {self._expr(select.offset, slots)}")
        return "".join(parts)

    def _from_item(self, table: FromItem, alias: str, slots: list) -> str:
        if not isinstance(table, str):
            return f"({self._query(table, slots)}) {alias}"
        # A recursive table is its own alias.
        return table if table == alias else f"{table} {alias}"

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
        if isinstance(node, IsNull):
            return f"{self._expr(node.item, slots)} IS NULL"
        if isinstance(node, Exists):
            keyword = "NOT EXISTS" if node.negated else "EXISTS"
            return f"{keyword} ({self._query(node.query, slots)})"
        if isinstance(node, ScalarSubquery):
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


class TranslatedQuery(NamedTuple):
    """The *bound* SQL form of one XPath query (ready to execute)."""

    sql: str
    params: tuple
    result_kind: str  # "node" | "attribute"
    encoding: str
    columns: tuple[str, ...]
    stats: TranslationStats
    #: "scan" (translated joins over the node table), or the ``+``-joined
    #: ``path-index`` / ``value-index`` rewrites an indexed document's
    #: plan probes the secondary-index side tables through.
    access_path: str = "scan"
    #: Not a field.  The frozen probe benchmarks/perf/workloads.py:477
    #: passes ``statement=t.statement``; nothing else reads it (ROADMAP,
    #: "`[benchmark]` re-base", lists it for deletion).
    statement = None


@dataclass(frozen=True)
class CompiledPlan:
    """A document-independent compiled query, keyed on query shape.

    The plan embeds no document id, context id, or predicate literal:
    those arrive through :meth:`bind`, which fills them into a
    parameter template built once per plan.
    """

    sql: str
    param_slots: tuple[ParamSlot, ...]
    result_kind: str
    encoding: str
    columns: tuple[str, ...]
    stats: TranslationStats
    #: See :attr:`TranslatedQuery.access_path`.
    access_path: str = "scan"
    #: Compiled for an unindexed document although a fragment was
    #: eligible for an index rewrite (counted as ``index.miss``).
    index_miss: bool = False
    #: The bind template: the parameter list with every ``FixedSlot``
    #: value in place, and where the ``DOC`` / ``CTX`` slots sit, and
    #: each ``LitSlot``'s position, literal index and transform.
    _template: list = field(init=False, repr=False, compare=False)
    _doc_at: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ctx_at: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _lit_at: tuple = field(init=False, repr=False, compare=False)
    _literals_needed: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        template: list = []
        doc_at, ctx_at, lit_at = [], [], []
        for at, slot in enumerate(self.param_slots):
            value = None
            if slot is DOC:
                doc_at.append(at)
            elif slot is CTX:
                ctx_at.append(at)
            elif isinstance(slot, FixedSlot):
                value = slot.value
            elif isinstance(slot, LitSlot):
                lit_at.append((at, slot.index, _transform(slot.transform)))
            else:  # pragma: no cover - defensive
                raise TranslationError(f"unknown parameter slot {slot!r}")
            template.append(value)
        # Frozen: the template is set once, here, and only read after.
        set_ = object.__setattr__
        set_(self, "_template", template)
        set_(self, "_doc_at", tuple(doc_at))
        set_(self, "_ctx_at", tuple(ctx_at))
        set_(self, "_lit_at", tuple(lit_at))
        set_(self, "_literals_needed",
             max((index + 1 for _at, index, _f in lit_at), default=0))

    def bind(
        self,
        doc: int,
        context_id: Optional[int] = None,
        literals: tuple = (),
    ) -> TranslatedQuery:
        """Fill the template's slots for one concrete execution."""
        params = self._template.copy()
        for at in self._doc_at:
            params[at] = doc
        if self._ctx_at:
            if context_id is None:
                raise TranslationError(
                    "relative paths need a context node "
                    "(pass context_id) or an absolute path"
                )
            if not isinstance(context_id, int):
                raise TranslationError(
                    "context_id is a node id, an int, not "
                    f"{type(context_id).__name__}"
                )
            for at in self._ctx_at:
                params[at] = context_id
        if self._literals_needed > len(literals):
            raise TranslationError(
                "literal slot out of range: plan compiled from "
                "a different query shape"
            )
        for at, index, transform in self._lit_at:
            value = literals[index]
            params[at] = value if transform is None else transform(value)
        return TranslatedQuery(
            self.sql, tuple(params), self.result_kind, self.encoding,
            self.columns, self.stats, self.access_path,
        )
