"""Access-path planning for minidb SELECT evaluation.

The planner is deliberately simple (the translator writes its joins in a
sensible order): FROM items are joined left to right, and for each base
table the planner picks the best index given the conjuncts whose other
side is already bound.  An access path is an equality prefix over the
index's leading columns, optionally an IN-list on the next column, and
optionally a range (lower/upper bounds) on the column after the equality
prefix.  Everything else becomes a residual filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.minidb.sql_ast import (
    Binary,
    Cast,
    ColumnRef,
    Exists,
    Expr,
    FunctionExpr,
    InList,
    InSelect,
    IsNull,
    ScalarSubquery,
    Select,
    SelectItem,
    SubquerySource,
    Union_,
    Unary,
    With,
)
from repro.minidb.tables import HeapTable, TableIndex

_RANGE_OPS = {"<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def free_column_refs(expr: Expr) -> set[tuple[Optional[str], str]]:
    """Column references in *expr* that are free (not bound by a nested
    subquery's own FROM aliases).

    Unqualified references inside subqueries are reported as free too —
    a conservative choice that only delays conjunct placement, never
    breaks it.
    """
    refs: set[tuple[Optional[str], str]] = set()
    _collect_refs(expr, frozenset(), refs)
    return refs


def _collect_refs(
    node: object, bound: frozenset, refs: set
) -> None:
    if isinstance(node, ColumnRef):
        if node.table is None or node.table not in bound:
            refs.add((node.table, node.column))
    elif isinstance(node, Binary):
        _collect_refs(node.left, bound, refs)
        _collect_refs(node.right, bound, refs)
    elif isinstance(node, Unary):
        _collect_refs(node.operand, bound, refs)
    elif isinstance(node, FunctionExpr):
        for arg in node.args:
            _collect_refs(arg, bound, refs)
    elif isinstance(node, Cast):
        _collect_refs(node.expr, bound, refs)
    elif isinstance(node, IsNull):
        _collect_refs(node.expr, bound, refs)
    elif isinstance(node, InList):
        _collect_refs(node.expr, bound, refs)
        for item in node.items:
            _collect_refs(item, bound, refs)
    elif isinstance(node, InSelect):
        _collect_refs(node.expr, bound, refs)
        _collect_select_refs(node.select, bound, refs)
    elif isinstance(node, Exists):
        _collect_select_refs(node.select, bound, refs)
    elif isinstance(node, ScalarSubquery):
        _collect_select_refs(node.select, bound, refs)
    # Literal / Param contribute nothing.


def _collect_select_refs(
    select: Union[Select, Union_, With], bound: frozenset, refs: set
) -> None:
    if isinstance(select, Union_):
        for arm in select.arms:
            _collect_select_refs(arm, bound, refs)
        return
    if isinstance(select, With):
        _collect_select_refs(select.query, bound, refs)
        if select.step is not None:
            _collect_select_refs(select.step, bound, refs)
        _collect_select_refs(select.body, bound, refs)
        return
    inner_bound = bound | {f.alias for f in select.from_items}
    for item in select.items:
        if isinstance(item, SelectItem):
            _collect_refs(item.expr, inner_bound, refs)
    for from_item in select.from_items:
        if isinstance(from_item.source, SubquerySource):
            _collect_select_refs(from_item.source.select, inner_bound, refs)
        if from_item.on is not None:
            _collect_refs(from_item.on, inner_bound, refs)
    if select.where is not None:
        _collect_refs(select.where, inner_bound, refs)
    for expr in select.group_by:
        _collect_refs(expr, inner_bound, refs)
    if select.having is not None:
        _collect_refs(select.having, inner_bound, refs)
    for order in select.order_by:
        _collect_refs(order.expr, inner_bound, refs)


@dataclass
class AccessPath:
    """How to read rows of one FROM table.

    ``eq_exprs`` bind the index's leading columns by equality.
    ``in_exprs`` (optional) is an IN-list probed value-by-value on the next
    column.  ``lower``/``upper`` (optional) bound the column after the
    equality prefix; each is a list of (op, expr) pairs all of which must
    hold (the executor intersects them at runtime).
    """

    index: Optional[TableIndex] = None
    eq_exprs: list[Expr] = field(default_factory=list)
    in_exprs: Optional[list[Expr]] = None
    lower: list[tuple[str, Expr]] = field(default_factory=list)
    upper: list[tuple[str, Expr]] = field(default_factory=list)
    #: Conjuncts not absorbed by the index; applied after binding.
    residual: list[Expr] = field(default_factory=list)

    @property
    def is_index_scan(self) -> bool:
        return self.index is not None


def _binding_side(
    conjunct: Expr, alias: str, bound: set[str]
) -> Optional[tuple[str, str, Expr]]:
    """If *conjunct* is ``alias.col <op> bound-expr`` (either side),
    return (column, op, bound_expr); else None."""
    if not isinstance(conjunct, Binary):
        return None
    if conjunct.op not in _RANGE_OPS and conjunct.op != "=":
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    for this, other, flipped in (
        (left, right, op),
        (right, left, _FLIP.get(op, op)),
    ):
        if (
            isinstance(this, ColumnRef)
            and this.table == alias
            and _is_bound(other, alias, bound)
        ):
            return this.column, flipped, other
    return None


def _is_bound(expr: Expr, alias: str, bound: set[str]) -> bool:
    """True when *expr*'s value is available before *alias* binds.

    Every free column reference must belong to an already-bound alias;
    references to *alias* itself, to unbound aliases, or unqualified
    names (which might belong to *alias*) disqualify the expression
    from driving an index probe.
    """
    for table, _column in free_column_refs(expr):
        if table is None or table == alias or table not in bound:
            return False
    return True


def choose_access_path(
    table: HeapTable,
    alias: str,
    conjuncts: list[Expr],
    bound: set[str],
) -> AccessPath:
    """Pick the best index access for *alias* given available conjuncts."""
    eq: dict[str, Expr] = {}
    ranges: dict[str, list[tuple[str, Expr]]] = {}
    in_lists: dict[str, InList] = {}
    # id(conjunct) -> ("eq"|"range"|"in", column) for absorption checks.
    used: dict[int, tuple[str, str]] = {}

    for conjunct in conjuncts:
        bind = _binding_side(conjunct, alias, bound)
        if bind is not None:
            column, op, other = bind
            if op == "=":
                if column not in eq:
                    eq[column] = other
                    used[id(conjunct)] = ("eq", column)
            else:
                ranges.setdefault(column, []).append((op, other))
                used[id(conjunct)] = ("range", column)
            continue
        if (
            isinstance(conjunct, InList)
            and not conjunct.negated
            and isinstance(conjunct.expr, ColumnRef)
            and conjunct.expr.table == alias
            and all(_is_bound(i, alias, bound) for i in conjunct.items)
        ):
            column = conjunct.expr.column
            if column not in in_lists:
                in_lists[column] = conjunct
                used[id(conjunct)] = ("in", column)

    best: Optional[AccessPath] = None
    best_score = (0, 0, 0)
    for index in table.indexes:
        columns = [table.columns[i] for i in index.column_positions]
        eq_len = 0
        for column in columns:
            if column in eq:
                eq_len += 1
            else:
                break
        path = AccessPath(index=index,
                          eq_exprs=[eq[c] for c in columns[:eq_len]])
        has_in = 0
        has_range = 0
        if eq_len < len(columns):
            next_column = columns[eq_len]
            if next_column in in_lists:
                path.in_exprs = list(in_lists[next_column].items)
                has_in = 1
            elif next_column in ranges:
                for op, other in ranges[next_column]:
                    if op in (">", ">="):
                        path.lower.append((op, other))
                    else:
                        path.upper.append((op, other))
                has_range = 1
        score = (eq_len, has_in, has_range)
        if score > best_score:
            best_score = score
            best = path

    if best is None or best_score == (0, 0, 0):
        return AccessPath(residual=list(conjuncts))

    # Work out which conjuncts the chosen path absorbed.  Only the first
    # matching eq conjunct per column went into ``eq``, so any duplicate
    # equality conjuncts on the same column stay residual (harmless).
    index_columns = [
        best.index.table.columns[i] for i in best.index.column_positions
    ]
    eq_columns = set(index_columns[: len(best.eq_exprs)])
    extra_kind = None
    extra_column = None
    if len(best.eq_exprs) < len(index_columns):
        extra_column = index_columns[len(best.eq_exprs)]
        if best.in_exprs is not None:
            extra_kind = "in"
        elif best.lower or best.upper:
            extra_kind = "range"
    residual = []
    for conjunct in conjuncts:
        usage = used.get(id(conjunct))
        absorbed = usage is not None and (
            (usage[0] == "eq" and usage[1] in eq_columns
             and eq.get(usage[1]) is not None)
            or (usage[0] == extra_kind and usage[1] == extra_column)
        )
        if not absorbed:
            residual.append(conjunct)
    best.residual = residual
    return best
