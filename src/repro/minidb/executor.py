"""Compilation and execution of minidb statements.

Statements are compiled once into closures over a row *environment*
(``dict`` alias -> row tuple) and an :class:`ExecState` (parameters, stats
counters, derived-table cache).  The compiled form is cached per SQL text
by the engine, so repeated benchmark queries pay parsing/planning once.

Evaluation model:

* FROM items join left to right; base tables go through the
  :mod:`repro.minidb.planner` access-path selection (index equality
  prefix + optional IN probe or range), everything else is a residual
  filter applied as soon as its aliases are bound;
* LEFT JOIN emits a NULL row when no right row matches its ON condition;
* subqueries (EXISTS / IN / scalar) compile recursively with the outer
  scope chained, and see the outer row bindings through the shared
  environment at run time;
* ``WITH RECURSIVE`` is evaluated semi-naively: the step runs over the
  rows the round before added (its *delta*) until a round adds none,
  and the rows so far travel in the environment, so a recursion may be
  correlated and nested like any other subquery;
* aggregates group materialised rows, then evaluate the select list and
  HAVING in post-aggregate mode.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import CatalogError, ExecutionError
from repro.minidb import planner
from repro.minidb.catalog import Catalog
from repro.minidb.expressions import (
    AGGREGATE_NAMES,
    arithmetic,
    like_match,
    make_aggregate,
)
from repro.minidb.sql_ast import (
    Binary,
    Cast,
    ColumnRef,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Exists,
    Expr,
    FromItem,
    FunctionExpr,
    InList,
    InSelect,
    Insert,
    IsNull,
    Literal,
    OrderItem,
    Param,
    SELECT_TYPES,
    ScalarSubquery,
    Select,
    SelectItem,
    SelectLike,
    Star,
    Statement,
    TableSource,
    Union_,
    Unary,
    Update,
    With,
)
from repro.minidb.tables import HeapTable, coerce_row
from repro.minidb.values import (
    NATIVE_ORDER_TYPES,
    SqlValue,
    cast_value,
    compare,
    is_true,
    logical_and,
    logical_not,
    logical_or,
    row_sort_key,
    sort_key,
)

Env = dict  # alias -> row tuple
ExprFn = Callable[[Env, "ExecState"], SqlValue]


@dataclass
class Stats:
    """Engine-wide counters; the benchmarks read these."""

    rows_read: int = 0
    rows_written: int = 0
    index_scans: int = 0
    full_scans: int = 0
    statements: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "rows_read": self.rows_read,
            "rows_written": self.rows_written,
            "index_scans": self.index_scans,
            "full_scans": self.full_scans,
            "statements": self.statements,
        }


@dataclass
class ExecState:
    """Per-execution context threaded through compiled closures."""

    params: tuple
    stats: Stats
    derived_cache: dict = field(default_factory=dict)


@dataclass
class Result:
    """The outcome of executing one statement."""

    columns: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = -1


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


class Scope:
    """Compile-time name resolution: alias -> column -> position.

    Scopes chain outward for correlated subqueries.  ``ctes`` (name ->
    columns) are the common table expressions visible from here, the
    enclosing scopes' included.
    """

    def __init__(
        self,
        aliases: dict[str, tuple[str, ...]],
        parent: Optional["Scope"] = None,
        ctes: Optional[dict[str, tuple[str, ...]]] = None,
    ) -> None:
        self.aliases = aliases
        self.parent = parent
        self.ctes = {**(parent.ctes if parent is not None else {}),
                     **(ctes or {})}

    def resolve(
        self, table: Optional[str], column: str
    ) -> tuple[str, int]:
        scope: Optional[Scope] = self
        while scope is not None:
            if table is not None:
                columns = scope.aliases.get(table)
                if columns is not None:
                    if column in columns:
                        return table, columns.index(column)
                    raise CatalogError(
                        f"no column {column!r} in {table!r}"
                    )
            else:
                matches = [
                    alias
                    for alias, columns in scope.aliases.items()
                    if column in columns
                ]
                if len(matches) == 1:
                    alias = matches[0]
                    return alias, scope.aliases[alias].index(column)
                if len(matches) > 1:
                    raise CatalogError(f"ambiguous column {column!r}")
            scope = scope.parent
        where = f"{table}.{column}" if table else column
        raise CatalogError(f"cannot resolve column {where}")


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


class Compiler:
    """Compiles statements against one catalog + function registry."""

    def __init__(
        self, catalog: Catalog, functions: dict[str, Callable]
    ) -> None:
        self.catalog = catalog
        self.functions = functions
        #: Plans of the EXISTS / IN / scalar subqueries compiled since
        #: the enclosing select began, for its plan summary.
        self._subquery_plans: list[CompiledSelect] = []

    # -- expressions ------------------------------------------------------

    def compile_expr(self, expr: Expr, scope: Scope) -> ExprFn:
        if isinstance(expr, Literal):
            value = expr.value
            return lambda env, state: value
        if isinstance(expr, Param):
            index = expr.index
            def param_fn(env: Env, state: ExecState) -> SqlValue:
                try:
                    return state.params[index]
                except IndexError:
                    raise ExecutionError(
                        f"missing bind parameter {index + 1}"
                    ) from None
            return param_fn
        if isinstance(expr, ColumnRef):
            alias, position = scope.resolve(expr.table, expr.column)
            def column_fn(env: Env, state: ExecState) -> SqlValue:
                row = env[alias]
                return row[position]
            return column_fn
        if isinstance(expr, Binary):
            return self._compile_binary(expr, scope)
        if isinstance(expr, Unary):
            operand = self.compile_expr(expr.operand, scope)
            if expr.op == "NOT":
                return lambda env, state: logical_not(
                    _to_logic(operand(env, state))
                )
            if expr.op == "-":
                def neg_fn(env: Env, state: ExecState) -> SqlValue:
                    value = operand(env, state)
                    if value is None:
                        return None
                    if not isinstance(value, (int, float)):
                        raise ExecutionError(f"cannot negate {value!r}")
                    return -value
                return neg_fn
            raise ExecutionError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Cast):
            inner = self.compile_expr(expr.expr, scope)
            target = expr.target
            return lambda env, state: cast_value(inner(env, state), target)
        if isinstance(expr, IsNull):
            inner = self.compile_expr(expr.expr, scope)
            if expr.negated:
                return lambda env, state: inner(env, state) is not None
            return lambda env, state: inner(env, state) is None
        if isinstance(expr, FunctionExpr):
            return self._compile_function(expr, scope)
        if isinstance(expr, InList):
            return self._compile_in_list(expr, scope)
        if isinstance(expr, InSelect):
            return self._compile_in_select(expr, scope)
        if isinstance(expr, Exists):
            plan = self._compile_subquery(expr.select, scope)
            negated = expr.negated
            def exists_fn(env: Env, state: ExecState) -> SqlValue:
                found = False
                for _row in plan.rows(env, state):
                    found = True
                    break
                return (not found) if negated else found
            return exists_fn
        if isinstance(expr, ScalarSubquery):
            plan = self._compile_subquery(expr.select, scope)
            def scalar_fn(env: Env, state: ExecState) -> SqlValue:
                for row in plan.rows(env, state):
                    return row[0]
                return None
            return scalar_fn
        raise ExecutionError(f"cannot compile expression {expr!r}")

    def _compile_binary(self, expr: Binary, scope: Scope) -> ExprFn:
        op = expr.op
        if op == "AND":
            left = self.compile_expr(expr.left, scope)
            right = self.compile_expr(expr.right, scope)
            def and_fn(env: Env, state: ExecState) -> SqlValue:
                lval = _to_logic(left(env, state))
                if lval is False:
                    return False
                return logical_and(lval, _to_logic(right(env, state)))
            return and_fn
        if op == "OR":
            left = self.compile_expr(expr.left, scope)
            right = self.compile_expr(expr.right, scope)
            def or_fn(env: Env, state: ExecState) -> SqlValue:
                lval = _to_logic(left(env, state))
                if lval is True:
                    return True
                return logical_or(lval, _to_logic(right(env, state)))
            return or_fn
        if op == "LIKE":
            left = self.compile_expr(expr.left, scope)
            right = self.compile_expr(expr.right, scope)
            return lambda env, state: like_match(
                left(env, state), right(env, state)
            )
        if op in ("+", "-", "*", "/", "||"):
            left = self.compile_expr(expr.left, scope)
            right = self.compile_expr(expr.right, scope)
            return lambda env, state: arithmetic(
                op, left(env, state), right(env, state)
            )
        if op in _COMPARISONS:
            return _compile_comparison(
                op,
                self.compile_expr(expr.left, scope),
                self.compile_expr(expr.right, scope),
            )
        raise ExecutionError(f"unknown operator {op!r}")

    def _compile_function(self, expr: FunctionExpr, scope: Scope) -> ExprFn:
        if expr.name in AGGREGATE_NAMES:
            raise ExecutionError(
                f"aggregate {expr.name}() used outside an aggregate query"
            )
        fn = self.functions.get(expr.name)
        if fn is None:
            raise ExecutionError(f"unknown function {expr.name}()")
        arg_fns = [self.compile_expr(a, scope) for a in expr.args]
        def call_fn(env: Env, state: ExecState) -> SqlValue:
            return fn(*[a(env, state) for a in arg_fns])
        return call_fn

    def _compile_in_list(self, expr: InList, scope: Scope) -> ExprFn:
        value_fn = self.compile_expr(expr.expr, scope)
        item_fns = [self.compile_expr(i, scope) for i in expr.items]
        negated = expr.negated
        def in_fn(env: Env, state: ExecState) -> SqlValue:
            value = value_fn(env, state)
            if value is None:
                return None
            found = False
            saw_null = False
            for item_fn in item_fns:
                item = item_fn(env, state)
                if item is None:
                    saw_null = True
                    continue
                try:
                    if compare(value, item) == 0:
                        found = True
                        break
                except ExecutionError:
                    continue  # different type class: not equal
            if found:
                return not negated
            if saw_null:
                return None
            return negated
        return in_fn

    def _compile_in_select(self, expr: InSelect, scope: Scope) -> ExprFn:
        value_fn = self.compile_expr(expr.expr, scope)
        plan = self._compile_subquery(expr.select, scope)
        negated = expr.negated
        def in_select_fn(env: Env, state: ExecState) -> SqlValue:
            value = value_fn(env, state)
            if value is None:
                return None
            saw_null = False
            for row in plan.rows(env, state):
                item = row[0]
                if item is None:
                    saw_null = True
                    continue
                try:
                    if compare(value, item) == 0:
                        return not negated
                except ExecutionError:
                    continue
            if saw_null:
                return None
            return negated
        return in_select_fn

    # -- SELECT ------------------------------------------------------------

    def _compile_subquery(
        self, select: SelectLike, scope: Scope
    ) -> "CompiledSelect":
        plan = self.compile_select(select, scope)
        self._subquery_plans.append(plan)
        return plan

    def compile_select(
        self, select: SelectLike, outer: Optional[Scope] = None
    ) -> "CompiledSelect":
        if isinstance(select, Union_):
            return self._compile_union(select, outer)
        if isinstance(select, With):
            return self._compile_with(select, outer)
        return self._compile_select_core(select, outer)

    def _compile_with(
        self, node: With, outer: Optional[Scope]
    ) -> "CompiledSelect":
        anchor = self.compile_select(node.query, outer)
        if len(anchor.columns) != len(node.columns):
            raise ExecutionError(
                f"{node.name!r} names {len(node.columns)} columns, its "
                f"select yields {len(anchor.columns)}"
            )
        scope = Scope({}, outer, {node.name: node.columns})
        step = (
            self._compile_select_core(node.step, scope)
            if node.step is not None else None
        )
        if step is not None and len(step.columns) != len(node.columns):
            raise ExecutionError("UNION arms have different widths")
        body = self.compile_select(node.body, scope)
        key = _cte_key(node.name)
        dedupe = step is not None and not node.union_all

        def rows(env: Env, state: ExecState) -> Iterator[tuple]:
            seen: set = set()

            def fresh(produced: Iterator[tuple]) -> list[tuple]:
                if not dedupe:
                    return list(produced)
                out = []
                for row in produced:
                    if row not in seen:
                        seen.add(row)
                        out.append(row)
                return out

            delta = fresh(anchor.rows(env, state))
            table = list(delta)
            while step is not None and delta:
                delta = fresh(step.rows({**env, key: delta}, state))
                table.extend(delta)
            return body.rows({**env, key: table}, state)

        plan_lines = [
            f"WITH{' RECURSIVE' if step is not None else ''} "
            f"{node.name}({', '.join(node.columns)}):"
        ]
        plan_lines.extend(f"  anchor: {line}" for line in anchor.plan_lines)
        if step is not None:
            plan_lines.extend(f"  step: {line}" for line in step.plan_lines)
        plan_lines.extend(body.plan_lines)
        return CompiledSelect(body.columns, rows, plan_lines)

    def _compile_union(
        self, union: Union_, outer: Optional[Scope]
    ) -> "CompiledSelect":
        arms = [self._compile_select_core(a, outer) for a in union.arms]
        columns = arms[0].columns
        for arm in arms[1:]:
            if len(arm.columns) != len(columns):
                raise ExecutionError("UNION arms have different widths")
        order_keys = _union_order_keys(union.order_by, columns)
        limit_fn = (
            self.compile_expr(union.limit, Scope({}, outer))
            if union.limit is not None
            else None
        )
        dedupe = not union.all

        def rows(env: Env, state: ExecState) -> Iterator[tuple]:
            out: list[tuple] = []
            for arm in arms:
                out.extend(arm.rows(env, state))
            if dedupe:
                seen = set()
                unique = []
                for row in out:
                    if row not in seen:
                        seen.add(row)
                        unique.append(row)
                out = unique
            for position, descending in reversed(order_keys):
                out.sort(
                    key=lambda r: row_sort_key((r[position],)),
                    reverse=descending,
                )
            if limit_fn is not None:
                limit = limit_fn(env, state)
                out = out[: int(limit)] if limit is not None else out
            return iter(out)

        plan_lines = [f"UNION{' ALL' if union.all else ''} of "
                      f"{len(arms)} arms:"]
        for position, arm in enumerate(arms):
            plan_lines.extend(
                f"  arm {position}: {line}" for line in arm.plan_lines
            )
        return CompiledSelect(columns, rows, plan_lines)

    def _compile_select_core(
        self, select: Select, outer: Optional[Scope]
    ) -> "CompiledSelect":
        first_subquery = len(self._subquery_plans)
        # 1. Resolve FROM sources and build the local scope.
        sources: list[tuple[FromItem, object]] = []
        aliases: dict[str, tuple[str, ...]] = {}
        for from_item in select.from_items:
            if isinstance(from_item.source, TableSource):
                name = from_item.source.name
                columns = outer.ctes.get(name) if outer is not None else None
                if columns is not None:
                    sources.append((from_item, _cte_key(name)))
                else:
                    table = self.catalog.get_table(name)
                    columns = table.columns
                    sources.append((from_item, table))
            else:
                subplan = self.compile_select(from_item.source.select, outer)
                columns = subplan.columns
                sources.append((from_item, subplan))
            if from_item.alias in aliases:
                raise CatalogError(
                    f"duplicate alias {from_item.alias!r} in FROM"
                )
            aliases[from_item.alias] = tuple(columns)
        scope = Scope(aliases, outer)

        # 2. Distribute WHERE conjuncts over the join pipeline.  Column
        # refs are qualified first so access-path planning can see them.
        conjuncts = [
            _qualify_with_scope(c, scope)
            for c in planner.split_conjuncts(select.where)
        ]
        local_aliases = set(aliases)
        placement: dict[int, list[Expr]] = {i: [] for i in
                                            range(len(sources))}
        gates: list[Expr] = []  # reference no local alias
        for conjunct in conjuncts:
            refs = planner.free_column_refs(conjunct)
            needed = {t for t, _c in refs if t in local_aliases}
            unqualified = any(t is None for t, _c in refs)
            if unqualified:
                # Resolve unqualified names to their alias for placement.
                for _t, column in refs:
                    if _t is None:
                        try:
                            alias, _pos = scope.resolve(None, column)
                            if alias in local_aliases:
                                needed.add(alias)
                        except CatalogError:
                            pass
            if not needed:
                gates.append(conjunct)
                continue
            last = max(
                i for i, (item, _src) in enumerate(sources)
                if item.alias in needed
            )
            placement[last].append(conjunct)

        # 3. Build join steps.
        steps: list[_JoinStep] = []
        bound: set[str] = set()
        if outer is not None:
            outer_scope: Optional[Scope] = outer
            while outer_scope is not None:
                bound.update(outer_scope.aliases)
                outer_scope = outer_scope.parent
        for position, (from_item, source) in enumerate(sources):
            step_conjuncts = list(placement[position])
            on_conjuncts = [
                _qualify_with_scope(c, scope)
                for c in planner.split_conjuncts(from_item.on)
            ]
            if from_item.join_type == "inner":
                step_conjuncts.extend(on_conjuncts)
                on_fns: list[ExprFn] = []
            else:
                on_fns = [
                    self.compile_expr(c, scope) for c in on_conjuncts
                ]
            step = self._build_join_step(
                from_item, source, step_conjuncts, on_fns, bound, scope
            )
            steps.append(step)
            bound.add(from_item.alias)

        gate_fns = [self.compile_expr(c, scope) for c in gates]

        # 4. Select list, aggregation, ordering.
        has_aggregates = bool(select.group_by) or _contains_aggregate(
            select
        )
        if has_aggregates:
            compiled = self._finish_aggregate_select(
                select, scope, steps, gate_fns
            )
        else:
            compiled = self._finish_plain_select(
                select, scope, steps, gate_fns
            )
        compiled.plan_lines = [_describe_step(s) for s in steps]
        for from_item, source in sources:
            if isinstance(source, CompiledSelect):
                compiled.plan_lines.extend(
                    f"  [{from_item.alias}] {line}"
                    for line in source.plan_lines
                )
        for subquery in self._subquery_plans[first_subquery:]:
            compiled.plan_lines.extend(
                f"  [subquery] {line}" for line in subquery.plan_lines
            )
        del self._subquery_plans[first_subquery:]
        return compiled

    def _build_join_step(
        self,
        from_item: FromItem,
        source: object,
        conjuncts: list[Expr],
        on_fns: list[ExprFn],
        bound: set[str],
        scope: Scope,
    ) -> "_JoinStep":
        alias = from_item.alias
        if isinstance(source, HeapTable):
            path = planner.choose_access_path(
                source, alias, conjuncts, bound
            )
            residual_fns = [
                self.compile_expr(c, scope) for c in path.residual
            ]
            eq_fns = [self.compile_expr(e, scope) for e in path.eq_exprs]
            in_fns = (
                [self.compile_expr(e, scope) for e in path.in_exprs]
                if path.in_exprs is not None
                else None
            )
            lower_fns = [
                (op, self.compile_expr(e, scope)) for op, e in path.lower
            ]
            upper_fns = [
                (op, self.compile_expr(e, scope)) for op, e in path.upper
            ]
            return _JoinStep(
                alias=alias,
                table=source,
                index=path.index if path.is_index_scan else None,
                eq_fns=eq_fns,
                in_fns=in_fns,
                lower_fns=lower_fns,
                upper_fns=upper_fns,
                residual_fns=residual_fns,
                on_fns=on_fns,
                left=from_item.join_type == "left",
                width=len(source.columns),
            )
        if isinstance(source, str):
            # A common table expression: its rows so far (the step of
            # a recursion sees the round's delta) ride in the
            # environment under this key.
            return _JoinStep(
                alias=alias,
                cte_key=source,
                residual_fns=[self.compile_expr(c, scope) for c in conjuncts],
                on_fns=on_fns,
                left=from_item.join_type == "left",
                width=len(scope.aliases[alias]),
            )
        # Derived table: materialised once per execution — unless the
        # subquery is correlated (it references an outer alias or any
        # unqualified name, conservatively), in which case its rows
        # depend on the current environment and must be recomputed per
        # outer row.  Caching a correlated derived table would replay
        # the first outer row's rows for every subsequent one.
        subplan = source
        free_refs: set = set()
        planner._collect_select_refs(
            from_item.source.select, frozenset(), free_refs
        )
        residual_fns = [self.compile_expr(c, scope) for c in conjuncts]
        return _JoinStep(
            alias=alias,
            subplan=subplan,  # type: ignore[arg-type]
            # ... or might read a common table, whose rows change
            # from one round (and one outer row) to the next.
            correlated=bool(free_refs) or bool(scope.ctes),
            residual_fns=residual_fns,
            on_fns=on_fns,
            left=from_item.join_type == "left",
            width=len(subplan.columns),  # type: ignore[union-attr]
        )

    def _finish_plain_select(
        self,
        select: Select,
        scope: Scope,
        steps: list["_JoinStep"],
        gate_fns: list[ExprFn],
    ) -> "CompiledSelect":
        columns, item_fns = self._compile_select_items(select, scope)
        alias_fns = {
            item.alias: fn
            for item, fn in zip(
                [i for i in select.items if isinstance(i, SelectItem)],
                item_fns,
            )
            if isinstance(item, SelectItem) and item.alias
        } if not any(isinstance(i, Star) for i in select.items) else {}
        order_fns = [
            (self._compile_order_expr(o.expr, scope, alias_fns),
             o.descending)
            for o in select.order_by
        ]
        limit_fn = (
            self.compile_expr(select.limit, scope)
            if select.limit is not None
            else None
        )
        distinct = select.distinct

        def rows(env: Env, state: ExecState) -> Iterator[tuple]:
            for gate in gate_fns:
                if not is_true(gate(env, state)):
                    return iter(())
            envs = _run_pipeline(steps, env, state)
            if order_fns:
                materialised = [
                    (
                        tuple(
                            row_sort_key((fn(e, state),))
                            for fn, _d in order_fns
                        ),
                        tuple(fn(e, state) for fn in item_fns),
                    )
                    for e in envs
                ]
                for position, (_fn, descending) in list(
                    enumerate(order_fns)
                )[::-1]:
                    materialised.sort(
                        key=lambda pair: pair[0][position],
                        reverse=descending,
                    )
                out = [row for _k, row in materialised]
            else:
                out = [
                    tuple(fn(e, state) for fn in item_fns) for e in envs
                ]
            if distinct:
                seen = set()
                unique = []
                for row in out:
                    if row not in seen:
                        seen.add(row)
                        unique.append(row)
                out = unique
            if limit_fn is not None:
                limit = limit_fn(env, state)
                if limit is not None:
                    out = out[: int(limit)]
            return iter(out)

        return CompiledSelect(tuple(columns), rows)

    def _finish_aggregate_select(
        self,
        select: Select,
        scope: Scope,
        steps: list["_JoinStep"],
        gate_fns: list[ExprFn],
    ) -> "CompiledSelect":
        if _is_scalar_count_star(select):
            # The correlated COUNT(*) of every positional predicate:
            # count the pipeline's rows as they stream, no groups.
            item = select.items[0]
            column = item.alias or _item_name(item.expr, 0)  # type: ignore[union-attr]

            def count_rows(env: Env, state: ExecState) -> Iterator[tuple]:
                count = 0
                if all(is_true(g(env, state)) for g in gate_fns):
                    for _e in _run_pipeline(steps, env, state):
                        count += 1
                return iter(((count,),))

            return CompiledSelect((column,), count_rows)
        group_fns = [self.compile_expr(e, scope) for e in select.group_by]

        # Find every aggregate call in the select list and HAVING; compile
        # its argument; assign it a slot.
        agg_nodes: list[FunctionExpr] = []
        _collect_aggregates(select, agg_nodes)
        slots: dict[int, int] = {}
        agg_arg_fns: list[Optional[ExprFn]] = []
        agg_separators: list[str] = []
        for node in agg_nodes:
            slots[id(node)] = len(agg_arg_fns)
            if node.star:
                agg_arg_fns.append(None)
            else:
                agg_arg_fns.append(
                    self.compile_expr(node.args[0], scope)
                )
            separator = ","
            if node.name == "group_concat" and len(node.args) > 1:
                sep_expr = node.args[1]
                if not isinstance(sep_expr, Literal):
                    raise ExecutionError(
                        "group_concat separator must be a literal"
                    )
                separator = str(sep_expr.value)
            agg_separators.append(separator)

        post = _PostAggregateCompiler(self, scope, slots)
        columns: list[str] = []
        item_fns: list[ExprFn] = []
        for index, item in enumerate(select.items):
            if isinstance(item, Star):
                raise ExecutionError("SELECT * with aggregates")
            columns.append(item.alias or _item_name(item.expr, index))
            item_fns.append(post.compile(item.expr))
        having_fn = (
            post.compile(select.having)
            if select.having is not None
            else None
        )
        alias_fns = {
            item.alias: fn
            for item, fn in zip(select.items, item_fns)
            if isinstance(item, SelectItem) and item.alias
        }
        order_fns = []
        for o in select.order_by:
            if (
                isinstance(o.expr, ColumnRef)
                and o.expr.table is None
                and o.expr.column in alias_fns
            ):
                order_fns.append((alias_fns[o.expr.column], o.descending))
            else:
                order_fns.append((post.compile(o.expr), o.descending))
        limit_fn = (
            self.compile_expr(select.limit, scope)
            if select.limit is not None
            else None
        )

        def rows(env: Env, state: ExecState) -> Iterator[tuple]:
            gate_ok = all(is_true(g(env, state)) for g in gate_fns)
            if not gate_ok and group_fns:
                return iter(())
            groups: dict[tuple, list[Env]] = {}
            if gate_ok:
                for e in _run_pipeline(steps, env, state):
                    key = tuple(
                        row_sort_key((fn(e, state),)) for fn in group_fns
                    )
                    # A copy: the pipeline rebinds e for its next row.
                    groups.setdefault(key, []).append(dict(e))
            if not group_fns and not groups:
                groups[()] = []  # global aggregate over zero rows
            out = []
            for _key, group_envs in groups.items():
                accumulators = [
                    make_aggregate(node.name, node.star, separator)
                    for node, separator in zip(agg_nodes, agg_separators)
                ]
                for e in group_envs:
                    for accumulator, arg_fn in zip(
                        accumulators, agg_arg_fns
                    ):
                        if arg_fn is None:
                            accumulator.add(None)
                        else:
                            accumulator.add(arg_fn(e, state))
                agg_values = [a.result() for a in accumulators]
                group_env = dict(group_envs[0]) if group_envs else dict(env)
                group_env["__agg__"] = agg_values
                if having_fn is not None and not is_true(
                    having_fn(group_env, state)
                ):
                    continue
                out.append(
                    (
                        tuple(
                            row_sort_key((fn(group_env, state),))
                            for fn, _d in order_fns
                        ),
                        tuple(fn(group_env, state) for fn in item_fns),
                    )
                )
            for position, (_fn, descending) in list(
                enumerate(order_fns)
            )[::-1]:
                out.sort(key=lambda pair: pair[0][position],
                         reverse=descending)
            result = [row for _k, row in out]
            if limit_fn is not None:
                limit = limit_fn(env, state)
                if limit is not None:
                    result = result[: int(limit)]
            return iter(result)

        return CompiledSelect(tuple(columns), rows)

    def _compile_order_expr(
        self, expr: Expr, scope: Scope, alias_fns: dict[str, ExprFn]
    ) -> ExprFn:
        """ORDER BY may reference a select-list alias by bare name."""
        if (
            isinstance(expr, ColumnRef)
            and expr.table is None
            and expr.column in alias_fns
        ):
            try:
                return self.compile_expr(expr, scope)
            except CatalogError:
                return alias_fns[expr.column]
        return self.compile_expr(expr, scope)

    def _compile_select_items(
        self, select: Select, scope: Scope
    ) -> tuple[list[str], list[ExprFn]]:
        columns: list[str] = []
        fns: list[ExprFn] = []
        for index, item in enumerate(select.items):
            if isinstance(item, Star):
                for alias, alias_columns in scope.aliases.items():
                    if item.table is not None and alias != item.table:
                        continue
                    for position, name in enumerate(alias_columns):
                        columns.append(name)
                        fns.append(_make_column_fn(alias, position))
                continue
            columns.append(item.alias or _item_name(item.expr, index))
            fns.append(self.compile_expr(item.expr, scope))
        return columns, fns


def _cte_key(name: str) -> str:
    """Where a common table expression's rows ride in the environment."""
    return f"__cte_{name}"


def _make_column_fn(alias: str, position: int) -> ExprFn:
    def fn(env: Env, state: ExecState) -> SqlValue:
        return env[alias][position]
    return fn


def _item_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    return f"col{index + 1}"


_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compile_comparison(op: str, left: ExprFn, right: ExprFn) -> ExprFn:
    """``left <op> right`` under :func:`compare`'s three-valued rules.

    Two values of one exact type in :data:`NATIVE_ORDER_TYPES` compare
    with Python's operator directly; everything else (NULL, bool, float,
    int against float, cross-type) goes through ``compare``, whose
    -1/0/1 the same operator then tests against 0.
    """
    test = _COMPARISONS[op]

    def compare_fn(env: Env, state: ExecState) -> SqlValue:
        lval = left(env, state)
        rval = right(env, state)
        kind = type(lval)
        if kind is type(rval) and kind in NATIVE_ORDER_TYPES:
            return test(lval, rval)
        result = compare(lval, rval)
        return None if result is None else test(result, 0)
    return compare_fn


def _to_logic(value: SqlValue) -> Optional[bool]:
    """Interpret an SQL value as a three-valued boolean."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _union_order_keys(
    order_by: Sequence[OrderItem], columns: tuple[str, ...]
) -> list[tuple[int, bool]]:
    """Compound-select ORDER BY: by output name or 1-based position."""
    keys: list[tuple[int, bool]] = []
    for item in order_by:
        if isinstance(item.expr, Literal) and isinstance(
            item.expr.value, int
        ):
            keys.append((item.expr.value - 1, item.descending))
        elif isinstance(item.expr, ColumnRef) and item.expr.table is None:
            try:
                keys.append(
                    (columns.index(item.expr.column), item.descending)
                )
            except ValueError:
                raise ExecutionError(
                    f"ORDER BY column {item.expr.column!r} not in output"
                ) from None
        else:
            raise ExecutionError(
                "compound ORDER BY must use output names or positions"
            )
    return keys


def _is_scalar_count_star(select: Select) -> bool:
    """``SELECT COUNT(*) FROM …`` with nothing after the WHERE."""
    if len(select.items) != 1 or select.group_by or select.order_by:
        return False
    if select.having is not None or select.limit is not None:
        return False
    item = select.items[0]
    return (
        isinstance(item, SelectItem)
        and isinstance(item.expr, FunctionExpr)
        and item.expr.name == "count"
        and item.expr.star
    )


def _contains_aggregate(select: Select) -> bool:
    nodes: list[FunctionExpr] = []
    _collect_aggregates(select, nodes)
    return bool(nodes)


def _collect_aggregates(
    select: Select, out: list[FunctionExpr]
) -> None:
    for item in select.items:
        if isinstance(item, SelectItem):
            _collect_aggregates_expr(item.expr, out)
    if select.having is not None:
        _collect_aggregates_expr(select.having, out)
    for order in select.order_by:
        _collect_aggregates_expr(order.expr, out)


def _collect_aggregates_expr(expr: Expr, out: list[FunctionExpr]) -> None:
    if isinstance(expr, FunctionExpr):
        if expr.name in AGGREGATE_NAMES:
            out.append(expr)
            return
        for arg in expr.args:
            _collect_aggregates_expr(arg, out)
    elif isinstance(expr, Binary):
        _collect_aggregates_expr(expr.left, out)
        _collect_aggregates_expr(expr.right, out)
    elif isinstance(expr, Unary):
        _collect_aggregates_expr(expr.operand, out)
    elif isinstance(expr, Cast):
        _collect_aggregates_expr(expr.expr, out)
    elif isinstance(expr, IsNull):
        _collect_aggregates_expr(expr.expr, out)
    elif isinstance(expr, InList):
        _collect_aggregates_expr(expr.expr, out)
        for item in expr.items:
            _collect_aggregates_expr(item, out)
    # Aggregates inside subqueries belong to the subquery.


class _PostAggregateCompiler:
    """Compiles select-list/HAVING expressions after grouping.

    Aggregate calls read their slot from ``env["__agg__"]``; everything
    else compiles normally (column refs read the group's first row,
    SQLite-style).
    """

    def __init__(
        self, compiler: Compiler, scope: Scope, slots: dict[int, int]
    ) -> None:
        self._compiler = compiler
        self._scope = scope
        self._slots = slots

    def compile(self, expr: Expr) -> ExprFn:
        slot = self._slots.get(id(expr))
        if slot is not None:
            def agg_fn(env: Env, state: ExecState) -> SqlValue:
                return env["__agg__"][slot]
            return agg_fn
        if isinstance(expr, Binary):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            rebuilt = Binary(expr.op, Literal(None), Literal(None))
            return self._combine_binary(expr.op, left, right, rebuilt)
        if isinstance(expr, Unary):
            inner = self.compile(expr.operand)
            if expr.op == "NOT":
                return lambda env, state: logical_not(
                    _to_logic(inner(env, state))
                )
            return lambda env, state: (
                None
                if inner(env, state) is None
                else -inner(env, state)  # type: ignore[operator]
            )
        if isinstance(expr, Cast):
            inner = self.compile(expr.expr)
            target = expr.target
            return lambda env, state: cast_value(inner(env, state), target)
        if isinstance(expr, FunctionExpr) and expr.name not in AGGREGATE_NAMES:
            fn = self._compiler.functions.get(expr.name)
            if fn is None:
                raise ExecutionError(f"unknown function {expr.name}()")
            arg_fns = [self.compile(a) for a in expr.args]
            def call_fn(env: Env, state: ExecState) -> SqlValue:
                return fn(*[a(env, state) for a in arg_fns])
            return call_fn
        return self._compiler.compile_expr(expr, self._scope)

    def _combine_binary(
        self, op: str, left: ExprFn, right: ExprFn, _node: Binary
    ) -> ExprFn:
        if op == "AND":
            return lambda env, state: logical_and(
                _to_logic(left(env, state)), _to_logic(right(env, state))
            )
        if op == "OR":
            return lambda env, state: logical_or(
                _to_logic(left(env, state)), _to_logic(right(env, state))
            )
        if op in ("+", "-", "*", "/", "||"):
            return lambda env, state: arithmetic(
                op, left(env, state), right(env, state)
            )
        if op == "LIKE":
            return lambda env, state: like_match(
                left(env, state), right(env, state)
            )
        return _compile_comparison(op, left, right)


# ---------------------------------------------------------------------------
# Join pipeline
# ---------------------------------------------------------------------------


@dataclass
class _JoinStep:
    alias: str
    table: Optional[HeapTable] = None
    subplan: Optional["CompiledSelect"] = None
    correlated: bool = False  # derived table references outer aliases
    cte_key: Optional[str] = None  # environment key of a WITH table's rows
    index: Optional[object] = None  # TableIndex
    eq_fns: list[ExprFn] = field(default_factory=list)
    in_fns: Optional[list[ExprFn]] = None
    lower_fns: list[tuple[str, ExprFn]] = field(default_factory=list)
    upper_fns: list[tuple[str, ExprFn]] = field(default_factory=list)
    residual_fns: list[ExprFn] = field(default_factory=list)
    on_fns: list[ExprFn] = field(default_factory=list)
    left: bool = False
    width: int = 0

    def __post_init__(self) -> None:
        self.rowid_key = f"__rowid_{self.alias}"
        #: What a candidate row must pass: the ON conditions, then the
        #: WHERE conjuncts placed here.
        self.filters = (*self.on_fns, *self.residual_fns)

    def matches(self, env: Env, state: ExecState) -> Iterator[Env]:
        """Bind this step's alias in *env* to each matching row, in turn,
        and yield *env* itself each time.

        The binding is overwritten by the next row: a consumer reads what
        it needs before it resumes the generator, or copies the
        environment (aggregate groups do).  :func:`_run_pipeline` hands
        the steps one private copy of the caller's environment, so a
        subquery's bindings never leak into the query that runs it.

        Base-table rows also record their heap rowid under a reserved
        ``__rowid_<alias>`` key, which UPDATE/DELETE use to locate the
        target rows without a second scan.
        """
        alias = self.alias
        rowid_key = self.rowid_key
        filters = self.filters
        matched = False
        for rowid, row in self._candidate_rows(env, state):
            env[alias] = row
            if rowid is not None:
                env[rowid_key] = rowid
            for fn in filters:
                if not fn(env, state):  # NULL or false
                    break
            else:
                matched = True
                yield env
        if self.left and not matched:
            env[alias] = (None,) * self.width
            env.pop(rowid_key, None)
            for fn in self.residual_fns:
                if not is_true(fn(env, state)):
                    return
            yield env

    def _candidate_rows(
        self, env: Env, state: ExecState
    ) -> Iterator[tuple[Optional[int], tuple]]:
        if self.subplan is not None:
            if self.correlated:
                # Rows depend on the current outer environment: never
                # serve one outer row's materialisation to another.
                for row in self.subplan.rows(env, state):
                    yield None, row
                return
            cache_key = id(self)
            rows = state.derived_cache.get(cache_key)
            if rows is None:
                rows = list(self.subplan.rows(env, state))
                state.derived_cache[cache_key] = rows
            for row in rows:
                yield None, row
            return
        table = self.table
        if table is None:
            for row in env[self.cte_key]:
                yield None, row
            return
        stats = state.stats
        if self.index is None:
            stats.full_scans += 1
            for rowid, row in table.scan():
                stats.rows_read += 1
                yield rowid, row
            return
        stats.index_scans += 1
        eq_values = [fn(env, state) for fn in self.eq_fns]
        if None in eq_values:
            return  # '=' with NULL matches nothing
        probes: list[list[SqlValue]]
        if self.in_fns is not None:
            probes = []
            for fn in self.in_fns:
                value = fn(env, state)
                if value is not None:
                    probes.append([*eq_values, value])
        elif self.lower_fns or self.upper_fns:
            yield from self._range_scan(env, state, eq_values)
            return
        else:
            probes = [eq_values]
        index = self.index
        width = len(index.column_positions)  # type: ignore[attr-defined]
        get = table.get
        for probe in probes:
            if len(probe) == width:
                rowids = index.lookup(tuple(probe))  # type: ignore[attr-defined]
            else:
                rowids = list(index.scan_prefix(tuple(probe)))  # type: ignore[attr-defined]
            for rowid in rowids:
                stats.rows_read += 1
                yield rowid, get(rowid)

    def _range_scan(
        self, env: Env, state: ExecState, eq_values: list[SqlValue]
    ) -> Iterator[tuple]:
        table = self.table
        index = self.index
        assert table is not None and index is not None
        # The tightest bound on each side, as a total-order key.
        low_key: Optional[tuple] = None
        low_inclusive = True
        for op, fn in self.lower_fns:
            value = fn(env, state)
            if value is None:
                return  # NULL bound matches nothing
            key = sort_key(value)
            if low_key is None or key > low_key:
                low_key, low_inclusive = key, op == ">="
            elif key == low_key and op == ">":
                low_inclusive = False
        high_key: Optional[tuple] = None
        high_inclusive = True
        for op, fn in self.upper_fns:
            value = fn(env, state)
            if value is None:
                return
            key = sort_key(value)
            if high_key is None or key < high_key:
                high_key, high_inclusive = key, op == "<="
            elif key == high_key and op == "<":
                high_inclusive = False

        # Index keys may be wider than the bound prefix (e.g. a range on
        # the first column of a two-column index).  A short tuple sorts
        # *before* any equal-prefix longer key, so exclusive lower bounds
        # and inclusive upper bounds must be padded with a sentinel that
        # sorts after every real component.
        sentinel = (4,)  # type rank 4 > blob rank; see values.sort_key
        eq_key = row_sort_key(eq_values)
        if low_key is not None:
            low = (*eq_key, low_key)
            if not low_inclusive:
                low = (*low, sentinel)
                low_inclusive = True
        else:
            low = eq_key or None
        if high_key is not None:
            high = (*eq_key, high_key)
            if high_inclusive:
                high = (*high, sentinel)
        else:
            high = None
        prefix_len = len(eq_key)
        stats = state.stats
        get = table.get
        for key, rowid in index.tree.scan(  # type: ignore[attr-defined]
            low, high, low_inclusive, high_inclusive
        ):
            if prefix_len and key[:prefix_len] != eq_key:
                break  # ran past the equality prefix
            stats.rows_read += 1
            yield rowid, get(rowid)


def _run_pipeline(
    steps: list[_JoinStep], env: Env, state: ExecState
) -> Iterator[Env]:
    if not steps:
        return iter((env,))
    return _extend(steps, 0, dict(env), state)


def _extend(
    steps: list[_JoinStep], position: int, env: Env, state: ExecState
) -> Iterator[Env]:
    """Environments extended by ``steps[position:]``, depth first.

    A module-level generator, not a closure that calls itself: such a
    closure is a reference cycle per execution, left for the cyclic
    collector.
    """
    step = steps[position]
    if position == len(steps) - 1:
        yield from step.matches(env, state)
        return
    for extended in step.matches(env, state):
        yield from _extend(steps, position + 1, extended, state)


@dataclass
class CompiledSelect:
    """A compiled SELECT: output column names + a row generator.

    ``plan_lines`` is a human-readable access-plan summary (one line per
    FROM item), surfaced through ``MiniDb.explain``.
    """

    columns: tuple[str, ...]
    rows: Callable[[Env, ExecState], Iterator[tuple]]
    plan_lines: list[str] = field(default_factory=list)


def _describe_step(step: _JoinStep) -> str:
    join = "LEFT JOIN" if step.left else "JOIN"
    if step.cte_key is not None:
        return (f"{join} common table {step.alias}, "
                f"{len(step.residual_fns)} filter(s)")
    if step.subplan is not None:
        return f"{join} derived {step.alias} (materialised subquery)"
    if step.index is None:
        return (f"{join} {step.table.name} {step.alias}: FULL SCAN, "
                f"{len(step.residual_fns)} filter(s)")
    index = step.index
    parts = [f"eq[{len(step.eq_fns)}]"]
    if step.in_fns is not None:
        parts.append(f"in[{len(step.in_fns)}]")
    if step.lower_fns or step.upper_fns:
        parts.append("range")
    return (
        f"{join} {step.table.name} {step.alias}: INDEX "
        f"{index.name} ({', '.join(parts)}), "  # type: ignore[attr-defined]
        f"{len(step.residual_fns)} filter(s)"
    )


# ---------------------------------------------------------------------------
# DML / DDL execution
# ---------------------------------------------------------------------------


class StatementRunner:
    """Executes compiled statements against the catalog.

    When ``journal`` is a list, every row mutation appends an undo entry
    ``(kind, table, rowid, old_row)`` used by the engine's transaction
    rollback.
    """

    def __init__(
        self, catalog: Catalog, functions: dict[str, Callable],
        stats: Stats,
    ) -> None:
        self.catalog = catalog
        self.functions = functions
        self.stats = stats
        self.journal: Optional[list] = None

    def compiler(self) -> Compiler:
        return Compiler(self.catalog, self.functions)

    def run(self, statement: Statement, params: tuple) -> Result:
        self.stats.statements += 1
        state = ExecState(params=params, stats=self.stats)
        if isinstance(statement, SELECT_TYPES):
            plan = self.compiler().compile_select(statement)
            rows = list(plan.rows({}, state))
            return Result(plan.columns, rows, -1)
        if isinstance(statement, Insert):
            return self._run_insert(statement, state)
        if isinstance(statement, Update):
            return self._run_update(statement, state)
        if isinstance(statement, Delete):
            return self._run_delete(statement, state)
        if self.journal is not None and isinstance(
            statement, (CreateTable, CreateIndex, DropTable)
        ):
            raise ExecutionError(
                "DDL is not allowed inside a transaction"
            )
        if isinstance(statement, CreateTable):
            self.catalog.create_table(
                statement.name,
                tuple(c.name for c in statement.columns),
                tuple(c.type for c in statement.columns),
                statement.if_not_exists,
            )
            return Result()
        if isinstance(statement, CreateIndex):
            self.catalog.create_index(
                statement.name,
                statement.table,
                statement.columns,
                statement.unique,
                statement.if_not_exists,
            )
            return Result()
        if isinstance(statement, DropTable):
            self.catalog.drop_table(statement.name, statement.if_exists)
            return Result()
        raise ExecutionError(f"cannot execute {statement!r}")

    def _run_insert(self, statement: Insert, state: ExecState) -> Result:
        table = self.catalog.get_table(statement.table)
        compiler = self.compiler()
        scope = Scope({})
        if statement.columns:
            positions = [
                table.column_position(c) for c in statement.columns
            ]
        else:
            positions = list(range(len(table.columns)))
        count = 0
        for value_row in statement.values:
            if len(value_row) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, "
                    f"got {len(value_row)}"
                )
            full: list[SqlValue] = [None] * len(table.columns)
            for position, expr in zip(positions, value_row):
                fn = compiler.compile_expr(expr, scope)
                full[position] = fn({}, state)
            rowid = table.insert(coerce_row(table.types, tuple(full)))
            if self.journal is not None:
                self.journal.append(("insert", table, rowid, None))
            count += 1
        self.stats.rows_written += count
        return Result(rowcount=count)

    def _plan_target_rows(
        self, table: HeapTable, where, state: ExecState
    ) -> list[int]:
        """Row ids matching a single-table WHERE (index-assisted)."""
        compiler = self.compiler()
        alias = table.name
        scope = Scope({alias: tuple(table.columns)})
        conjuncts = planner.split_conjuncts(where)
        # Rewrite unqualified refs to the table alias for planning.
        path = planner.choose_access_path(
            table, alias, [_qualify(c, alias, table) for c in conjuncts],
            set(),
        )
        step = _JoinStep(
            alias=alias,
            table=table,
            index=path.index if path.is_index_scan else None,
            eq_fns=[compiler.compile_expr(e, scope) for e in path.eq_exprs],
            in_fns=(
                [compiler.compile_expr(e, scope) for e in path.in_exprs]
                if path.in_exprs is not None
                else None
            ),
            lower_fns=[
                (op, compiler.compile_expr(e, scope))
                for op, e in path.lower
            ],
            upper_fns=[
                (op, compiler.compile_expr(e, scope))
                for op, e in path.upper
            ],
            residual_fns=[
                compiler.compile_expr(c, scope) for c in path.residual
            ],
            width=len(table.columns),
        )
        rowid_key = f"__rowid_{alias}"
        return [env[rowid_key] for env in step.matches({}, state)]

    def _run_update(self, statement: Update, state: ExecState) -> Result:
        table = self.catalog.get_table(statement.table)
        compiler = self.compiler()
        alias = table.name
        scope = Scope({alias: tuple(table.columns)})
        assignment_fns = [
            (table.column_position(column), compiler.compile_expr(
                _qualify(expr, alias, table), scope))
            for column, expr in statement.assignments
        ]
        where = (
            _qualify(statement.where, alias, table)
            if statement.where is not None
            else None
        )
        rowids = self._plan_target_rows(table, where, state)
        for rowid in rowids:
            old = table.get(rowid)
            row = list(old)
            env = {alias: tuple(row)}
            for position, fn in assignment_fns:
                row[position] = fn(env, state)
            table.update(rowid, coerce_row(table.types, tuple(row)))
            if self.journal is not None:
                self.journal.append(("update", table, rowid, old))
        self.stats.rows_written += len(rowids)
        return Result(rowcount=len(rowids))

    def _run_delete(self, statement: Delete, state: ExecState) -> Result:
        table = self.catalog.get_table(statement.table)
        where = (
            _qualify(statement.where, table.name, table)
            if statement.where is not None
            else None
        )
        rowids = self._plan_target_rows(table, where, state)
        for rowid in rowids:
            if self.journal is not None:
                self.journal.append(
                    ("delete", table, rowid, table.get(rowid))
                )
            table.delete(rowid)
        self.stats.rows_written += len(rowids)
        return Result(rowcount=len(rowids))


def _qualify_with_scope(expr: Expr, scope: Scope) -> Expr:
    """Qualify unqualified column refs using compile-time scopes.

    Subquery expressions are left untouched — they resolve against their
    own scopes when compiled.  Unresolvable names are also left as-is so
    the normal compilation error surfaces with context.
    """
    if isinstance(expr, ColumnRef):
        if expr.table is not None:
            return expr
        try:
            alias, _position = scope.resolve(None, expr.column)
        except CatalogError:
            return expr
        return ColumnRef(alias, expr.column)
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            _qualify_with_scope(expr.left, scope),
            _qualify_with_scope(expr.right, scope),
        )
    if isinstance(expr, Unary):
        return Unary(expr.op, _qualify_with_scope(expr.operand, scope))
    if isinstance(expr, Cast):
        return Cast(_qualify_with_scope(expr.expr, scope), expr.target)
    if isinstance(expr, IsNull):
        return IsNull(_qualify_with_scope(expr.expr, scope), expr.negated)
    if isinstance(expr, FunctionExpr):
        return FunctionExpr(
            expr.name,
            tuple(_qualify_with_scope(a, scope) for a in expr.args),
            expr.star,
        )
    if isinstance(expr, InList):
        return InList(
            _qualify_with_scope(expr.expr, scope),
            tuple(_qualify_with_scope(i, scope) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, InSelect):
        return InSelect(
            _qualify_with_scope(expr.expr, scope),
            expr.select,
            expr.negated,
        )
    return expr


def _qualify(expr, alias: str, table: HeapTable):
    """Qualify unqualified column refs with the table alias (UPDATE and
    DELETE resolve names against their single target table)."""
    if expr is None:
        return None
    if isinstance(expr, ColumnRef):
        if expr.table is None and table.has_column(expr.column):
            return ColumnRef(alias, expr.column)
        return expr
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            _qualify(expr.left, alias, table),
            _qualify(expr.right, alias, table),
        )
    if isinstance(expr, Unary):
        return Unary(expr.op, _qualify(expr.operand, alias, table))
    if isinstance(expr, Cast):
        return Cast(_qualify(expr.expr, alias, table), expr.target)
    if isinstance(expr, IsNull):
        return IsNull(_qualify(expr.expr, alias, table), expr.negated)
    if isinstance(expr, FunctionExpr):
        return FunctionExpr(
            expr.name,
            tuple(_qualify(a, alias, table) for a in expr.args),
            expr.star,
        )
    if isinstance(expr, InList):
        return InList(
            _qualify(expr.expr, alias, table),
            tuple(_qualify(i, alias, table) for i in expr.items),
            expr.negated,
        )
    # Subquery forms keep their own scoping.
    return expr
