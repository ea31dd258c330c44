"""Compilation and execution of minidb statements.

Statements are compiled once into closures over a row *environment*
(``dict`` alias -> row tuple) and an :class:`ExecState` (parameters, stats
counters, derived-table cache).  The compiled form is cached per SQL text
by the engine, so repeated benchmark queries pay parsing/planning once.

Evaluation model:

* FROM items join left to right as nested loops; base tables go through
  the :mod:`repro.minidb.planner` access-path selection (index equality
  prefix + optional IN probe or range), everything else is a residual
  filter applied as soon as its aliases are bound; each FROM item is
  given one of three row loops when the plan is compiled: an index read
  over the row ids of a point, prefix, IN-list or range lookup, a heap
  scan, or the listed rows of a common or derived table;
* subqueries (EXISTS / scalar) compile recursively with the outer scope
  chained, and see the outer row bindings through the shared
  environment at run time;
* ``WITH RECURSIVE`` is evaluated semi-naively: the step runs over the
  rows the round before added (its *delta*) until a round adds none,
  and the rows so far travel in the environment, so a recursion may be
  correlated and nested like any other subquery;
* an aggregate select folds every row of its pipeline into one output
  row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import CatalogError, ExecutionError
from repro.minidb import planner
from repro.minidb.catalog import Catalog
from repro.minidb.expressions import AGGREGATE_NAMES, aggregate, arithmetic
from repro.minidb.sql_ast import (
    Binary,
    ColumnRef,
    CountStar,
    CreateIndex,
    CreateTable,
    Delete,
    Exists,
    Expr,
    FromItem,
    FunctionExpr,
    InList,
    Insert,
    IsNull,
    Literal,
    Not,
    Param,
    ScalarSubquery,
    Select,
    SelectItem,
    SelectLike,
    Star,
    Statement,
    TableSource,
    Union_,
    Update,
    With,
)
from repro.minidb.tables import HeapTable, TableIndex, coerce_row
from repro.minidb.values import (
    AFTER_EVERY_VALUE,
    FIRST_NON_NULL,
    NATIVE_ORDER_TYPES,
    SqlValue,
    compare,
    is_true,
    logical_and,
    logical_not,
    logical_or,
    sort_key,
)

Env = dict  # alias -> row tuple
ExprFn = Callable[[Env, "ExecState"], SqlValue]
#: A step's row loop: binds its alias in the environment to each
#: matching row in turn and yields the environment.
RowLoop = Callable[[Env, "ExecState"], Iterator[Env]]


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
        if isinstance(expr, Not):
            operand = self.compile_expr(expr.operand, scope)
            return lambda env, state: logical_not(
                _to_logic(operand(env, state))
            )
        if isinstance(expr, IsNull):
            inner = self.compile_expr(expr.expr, scope)
            return lambda env, state: inner(env, state) is None
        if isinstance(expr, FunctionExpr):
            return self._compile_function(expr, scope)
        if isinstance(expr, CountStar):
            raise ExecutionError(
                "COUNT(*) used outside an aggregate query"
            )
        if isinstance(expr, InList):
            return self._compile_in_list(expr, scope)
        if isinstance(expr, Exists):
            first_row = self._compile_subquery(expr.select, scope).first_row
            def exists_fn(env: Env, state: ExecState) -> SqlValue:
                return first_row(env, state) is not None
            return exists_fn
        if isinstance(expr, ScalarSubquery):
            first_row = self._compile_subquery(expr.select, scope).first_row
            def scalar_fn(env: Env, state: ExecState) -> SqlValue:
                row = first_row(env, state)
                return None if row is None else row[0]
            return scalar_fn
        raise ExecutionError(f"cannot compile expression {expr!r}")

    def _compile_binary(self, expr: Binary, scope: Scope) -> ExprFn:
        op = expr.op
        if op in _COMPARISONS:
            return self._compile_comparison(op, expr.left, expr.right, scope)
        left = self.compile_expr(expr.left, scope)
        right = self.compile_expr(expr.right, scope)
        if op == "AND":
            def and_fn(env: Env, state: ExecState) -> SqlValue:
                lval = _to_logic(left(env, state))
                if lval is False:
                    return False
                return logical_and(lval, _to_logic(right(env, state)))
            return and_fn
        if op == "OR":
            def or_fn(env: Env, state: ExecState) -> SqlValue:
                lval = _to_logic(left(env, state))
                if lval is True:
                    return True
                return logical_or(lval, _to_logic(right(env, state)))
            return or_fn
        return lambda env, state: arithmetic(
            op, left(env, state), right(env, state)
        )

    def _compile_comparison(
        self, op: str, left: Expr, right: Expr, scope: Scope
    ) -> ExprFn:
        """``left <op> right``, compiled by the shape of its operands.

        A column compared with a parameter, a literal or another column
        is one closure that reads ``env[alias][position]`` (and the
        parameter or literal) itself, with the literal's type checked
        at compile time; a parameter or literal on the left is mirrored
        to the right first.  Any other operand goes through its own
        compiled closure (:func:`_compare_closures`).
        """
        if not isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            left, right, op = right, left, _MIRRORED[op]
        if not isinstance(left, ColumnRef) or not isinstance(
            right, (ColumnRef, Param, Literal)
        ):
            return _compare_closures(
                op,
                self.compile_expr(left, scope),
                self.compile_expr(right, scope),
            )
        test = _COMPARISONS[op]
        alias, position = scope.resolve(left.table, left.column)
        if isinstance(right, ColumnRef):
            other, other_position = scope.resolve(right.table, right.column)

            def column_column(env: Env, state: ExecState) -> SqlValue:
                lval = env[alias][position]
                rval = env[other][other_position]
                kind = type(lval)
                if kind is type(rval) and kind in NATIVE_ORDER_TYPES:
                    return test(lval, rval)
                result = compare(lval, rval)
                return None if result is None else test(result, 0)
            return column_column
        if isinstance(right, Param):
            index = right.index

            def column_param(env: Env, state: ExecState) -> SqlValue:
                lval = env[alias][position]
                try:
                    rval = state.params[index]
                except IndexError:
                    raise ExecutionError(
                        f"missing bind parameter {index + 1}"
                    ) from None
                kind = type(lval)
                if kind is type(rval) and kind in NATIVE_ORDER_TYPES:
                    return test(lval, rval)
                result = compare(lval, rval)
                return None if result is None else test(result, 0)
            return column_param
        value = right.value
        native = type(value) if type(value) in NATIVE_ORDER_TYPES else None

        def column_literal(env: Env, state: ExecState) -> SqlValue:
            lval = env[alias][position]
            if type(lval) is native:
                return test(lval, value)
            result = compare(lval, value)
            return None if result is None else test(result, 0)
        return column_literal

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
        """``x IN (…)``: true on a match, else NULL when an item (a bound
        parameter) is NULL, else false."""
        value_fn = self.compile_expr(expr.expr, scope)
        item_fns = [self.compile_expr(i, scope) for i in expr.items]
        def in_fn(env: Env, state: ExecState) -> SqlValue:
            value = value_fn(env, state)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                item = item_fn(env, state)
                if item is None:
                    saw_null = True
                    continue
                try:
                    if compare(value, item) == 0:
                        return True
                except ExecutionError:
                    continue  # different type class: not equal
            return None if saw_null else False
        return in_fn

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
        anchor = self.compile_select(node.anchor, outer)
        if len(anchor.columns) != len(node.columns):
            raise ExecutionError(
                f"{node.name!r} names {len(node.columns)} columns, its "
                f"select yields {len(anchor.columns)}"
            )
        scope = Scope({}, outer, {node.name: node.columns})
        step = self._compile_select_core(node.step, scope)
        if len(step.columns) != len(node.columns):
            raise ExecutionError("UNION arms have different widths")
        body = self.compile_select(node.body, scope)
        key = _cte_key(node.name)

        def rows(env: Env, state: ExecState) -> list[tuple]:
            seen: set = set()

            def fresh(produced: Iterable[tuple]) -> list[tuple]:
                out = []
                for row in produced:
                    if row not in seen:
                        seen.add(row)
                        out.append(row)
                return out

            delta = fresh(anchor.rows(env, state))
            table = list(delta)
            while delta:
                delta = fresh(step.rows({**env, key: delta}, state))
                table.extend(delta)
            return body.rows({**env, key: table}, state)

        plan_lines = [
            f"WITH RECURSIVE {node.name}({', '.join(node.columns)}):"
        ]
        plan_lines.extend(f"  anchor: {line}" for line in anchor.plan_lines)
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
        row_key = _row_key(_union_order_positions(union.order_by, columns))

        def rows(env: Env, state: ExecState) -> list[tuple]:
            seen = set()
            out = []
            for arm in arms:
                for row in arm.rows(env, state):
                    if row not in seen:
                        seen.add(row)
                        out.append(row)
            if row_key is not None:
                out.sort(key=row_key)
            return out

        plan_lines = [f"UNION of {len(arms)} arms:"]
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
            steps.append(self._build_join_step(
                from_item, source, placement[position], bound, scope
            ))
            bound.add(from_item.alias)

        gate_fns = [self.compile_expr(c, scope) for c in gates]

        # 4. Select list, aggregation, ordering.
        ordering: list[str] = []
        if _contains_aggregate(select):
            compiled = self._finish_aggregate_select(
                select, scope, steps, gate_fns
            )
        else:
            # An ORDER BY the one table's index already delivers sorts
            # nothing: its rows stream, and a LIMIT stops the scan.
            presorted = _delivers_order(select, scope, steps)
            if select.order_by:
                ordering.append(
                    f"ORDER BY: {'index order' if presorted else 'sort'}"
                )
            compiled = self._finish_plain_select(
                select, scope, steps, gate_fns, presorted
            )
        if select.limit is not None:
            compiled = self._limited(compiled, select, scope)
        compiled.plan_lines = [_describe_step(s) for s in steps] + ordering
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
        bound: set[str],
        scope: Scope,
    ) -> "_JoinStep":
        alias = from_item.alias
        if isinstance(source, HeapTable):
            path = planner.choose_access_path(
                source, alias, conjuncts, bound
            )
            return self._table_step(alias, source, path, scope)
        residual_fns = [self.compile_expr(c, scope) for c in conjuncts]
        if isinstance(source, str):
            # A common table expression: its rows so far (the step of
            # a recursion sees the round's delta) ride in the
            # environment under this key.
            return _JoinStep(
                alias=alias, cte_key=source, residual_fns=residual_fns
            )
        # Derived table: materialised once per execution — unless the
        # subquery is correlated (it references an outer alias or any
        # unqualified name, conservatively), in which case its rows
        # depend on the current environment and must be recomputed per
        # outer row.  Caching a correlated derived table would replay
        # the first outer row's rows for every subsequent one.
        free_refs: set = set()
        planner._collect_select_refs(
            from_item.source.select, frozenset(), free_refs
        )
        return _JoinStep(
            alias=alias,
            subplan=source,  # type: ignore[arg-type]
            # ... or might read a common table, whose rows change
            # from one round (and one outer row) to the next.
            correlated=bool(free_refs) or bool(scope.ctes),
            residual_fns=residual_fns,
        )

    def _table_step(
        self,
        alias: str,
        table: HeapTable,
        path: planner.AccessPath,
        scope: Scope,
    ) -> "_JoinStep":
        """A base table read along *path*, its expressions compiled (the
        filters first: their subqueries list first in the plan)."""
        compile_expr = self.compile_expr
        residual_fns = [compile_expr(c, scope) for c in path.residual]
        return _JoinStep(
            alias=alias,
            table=table,
            index=path.index,
            eq_fns=[compile_expr(e, scope) for e in path.eq_exprs],
            in_fns=(
                [compile_expr(e, scope) for e in path.in_exprs]
                if path.in_exprs is not None
                else None
            ),
            lower_fns=[(op, compile_expr(e, scope)) for op, e in path.lower],
            upper_fns=[(op, compile_expr(e, scope)) for op, e in path.upper],
            residual_fns=residual_fns,
            order_positions=path.order_positions,
        )

    def _limited(
        self, compiled: "CompiledSelect", select: Select, scope: Scope
    ) -> "CompiledSelect":
        """*compiled* with ``LIMIT`` / ``OFFSET`` applied to its rows.

        As in sqlite, a negative LIMIT keeps every row and a negative
        OFFSET skips none; LIMIT 0 runs nothing.
        """
        limit_fn = self.compile_expr(select.limit, scope)  # type: ignore[arg-type]
        offset_fn = (
            None if select.offset is None
            else self.compile_expr(select.offset, scope)
        )
        rows, stream = compiled.rows, compiled.stream

        def window(env: Env, state: ExecState) -> tuple[int, Optional[int]]:
            """The ``(start, stop)`` of the rows kept; stop 0 keeps none,
            None keeps the rest."""
            limit = _row_count(limit_fn(env, state))
            start = 0
            if offset_fn is not None:
                start = max(_row_count(offset_fn(env, state)), 0)
            if limit == 0:
                return 0, 0
            return start, None if limit < 0 else start + limit

        def limited(env: Env, state: ExecState) -> list[tuple]:
            start, stop = window(env, state)
            if stop == 0:
                return []
            if stream is not None:
                return list(islice(stream(env, state), start, stop))
            return rows(env, state)[start:stop]

        if stream is None:
            return CompiledSelect(compiled.columns, limited)

        def first_row(env: Env, state: ExecState) -> Optional[tuple]:
            start, stop = window(env, state)
            if stop == 0:
                return None
            return next(islice(stream(env, state), start, None), None)

        return CompiledSelect(compiled.columns, limited, first_row=first_row)

    def _finish_plain_select(
        self,
        select: Select,
        scope: Scope,
        steps: list["_JoinStep"],
        gate_fns: list[ExprFn],
        presorted: bool,
    ) -> "CompiledSelect":
        """The rows of a select without aggregates.  *presorted* says
        its pipeline already yields them in ORDER BY order."""
        columns, item_fns = self._compile_select_items(select, scope)
        order_fns = (
            [] if presorted
            else [self.compile_expr(c, scope) for c in select.order_by]
        )
        pipeline = _pipeline(steps)
        plain = _plain_columns(select, scope)
        distinct = select.distinct

        def finish(out: list[tuple]) -> list[tuple]:
            if not distinct:
                return out
            return list(dict.fromkeys(out))

        def first_row(env: Env, state: ExecState) -> Optional[tuple]:
            """The pipeline's first row, which is the result's first
            row when nothing reorders it."""
            for gate in gate_fns:
                if not is_true(gate(env, state)):
                    return None
            for e in pipeline(env, state):
                return tuple(fn(e, state) for fn in item_fns)
            return None

        def stream(env: Env, state: ExecState) -> Iterator[tuple]:
            """The result rows one at a time, for a LIMIT to stop."""
            for gate in gate_fns:
                if not is_true(gate(env, state)):
                    return
            seen: set = set()
            for e in pipeline(env, state):
                row = tuple(fn(e, state) for fn in item_fns)
                if distinct:
                    if row in seen:
                        continue
                    seen.add(row)
                yield row

        if order_fns:
            # The rows must be sorted first: first_row takes the first
            # of rows(), and LIMIT slices them.
            first_row = stream = None  # type: ignore[assignment]

        if plain is not None:
            # Every output and ORDER BY column is a column of one alias:
            # sort that alias's rows, then project them with one getter.
            alias, positions, order_positions = plain
            project = _tuple_getter(positions)
            row_key = _row_key(order_positions) if order_fns else None

            def plain_rows(env: Env, state: ExecState) -> list[tuple]:
                for gate in gate_fns:
                    if not is_true(gate(env, state)):
                        return []
                source = [e[alias] for e in pipeline(env, state)]
                if row_key is not None:
                    source.sort(key=row_key)
                return finish(list(map(project, source)))

            return CompiledSelect(
                tuple(columns), plain_rows, first_row=first_row,
                stream=stream,
            )

        def rows(env: Env, state: ExecState) -> list[tuple]:
            for gate in gate_fns:
                if not is_true(gate(env, state)):
                    return []
            envs = pipeline(env, state)
            if order_fns:
                materialised = [
                    (
                        tuple(sort_key(fn(e, state)) for fn in order_fns),
                        tuple(fn(e, state) for fn in item_fns),
                    )
                    for e in envs
                ]
                materialised.sort(key=_FIRST)
                out = [row for _k, row in materialised]
            else:
                out = [
                    tuple(fn(e, state) for fn in item_fns) for e in envs
                ]
            return finish(out)

        return CompiledSelect(
            tuple(columns), rows, first_row=first_row, stream=stream
        )

    def _finish_aggregate_select(
        self,
        select: Select,
        scope: Scope,
        steps: list["_JoinStep"],
        gate_fns: list[ExprFn],
    ) -> "CompiledSelect":
        """One output row over every row of the pipeline.  Outside its
        aggregates, a select item sees the enclosing query only."""
        pipeline = _pipeline(steps)
        first = select.items[0]
        if len(select.items) == 1 and isinstance(first, SelectItem) \
                and isinstance(first.expr, CountStar):
            # The correlated COUNT(*) of every positional predicate:
            # count the pipeline's rows as they stream.
            column = first.alias or "col1"

            def count_rows(env: Env, state: ExecState) -> list[tuple]:
                count = 0
                if all(is_true(g(env, state)) for g in gate_fns):
                    for _e in pipeline(env, state):
                        count += 1
                return [(count,)]

            return CompiledSelect((column,), count_rows)

        # Every aggregate call of the select list gets a slot; its
        # argument is compiled against the rows it folds.
        agg_nodes: list[Expr] = []
        for item in select.items:
            if isinstance(item, Star):
                raise ExecutionError("SELECT * with aggregates")
            _collect_aggregates(item.expr, agg_nodes)
        slots = {id(node): slot for slot, node in enumerate(agg_nodes)}
        folds = [_aggregate_fold(self, node, scope) for node in agg_nodes]
        outer = Scope({}, scope.parent)
        columns = tuple(
            item.alias or _item_name(item.expr, index)
            for index, item in enumerate(select.items)
        )
        item_fns = [
            self._compile_post_aggregate(item.expr, outer, slots)
            for item in select.items
        ]

        arg_fns = [arg_fn for arg_fn, _finish in folds]

        def rows(env: Env, state: ExecState) -> list[tuple]:
            values: list[list] = [[] for _ in folds]
            count = 0
            if all(is_true(g(env, state)) for g in gate_fns):
                for e in pipeline(env, state):
                    count += 1
                    for bucket, arg_fn in zip(values, arg_fns):
                        if arg_fn is not None:
                            value = arg_fn(e, state)
                            if value is not None:
                                bucket.append(value)
            results = [
                count if finish is None else finish(bucket)
                for bucket, (_arg_fn, finish) in zip(values, folds)
            ]
            group_env = {**env, "__agg__": results}
            return [tuple(fn(group_env, state) for fn in item_fns)]

        return CompiledSelect(columns, rows)

    def _compile_post_aggregate(
        self, expr: Expr, scope: Scope, slots: dict[int, int]
    ) -> ExprFn:
        """A select item of an aggregate query: its aggregate calls read
        their slot from ``env["__agg__"]``, the functions around them
        compile here, everything else against *scope*."""
        slot = slots.get(id(expr))
        if slot is not None:
            return lambda env, state: env["__agg__"][slot]
        if isinstance(expr, FunctionExpr) and expr.name not in \
                AGGREGATE_NAMES:
            fn = self.functions.get(expr.name)
            if fn is None:
                raise ExecutionError(f"unknown function {expr.name}()")
            arg_fns = [
                self._compile_post_aggregate(a, scope, slots)
                for a in expr.args
            ]
            def call_fn(env: Env, state: ExecState) -> SqlValue:
                return fn(*[a(env, state) for a in arg_fns])
            return call_fn
        return self.compile_expr(expr, scope)

    def _compile_select_items(
        self, select: Select, scope: Scope
    ) -> tuple[list[str], list[ExprFn]]:
        columns: list[str] = []
        fns: list[ExprFn] = []
        for index, item in enumerate(select.items):
            if isinstance(item, Star):
                for alias, alias_columns in scope.aliases.items():
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


def _plain_columns(
    select: Select, scope: Scope
) -> Optional[tuple[str, list[int], list[int]]]:
    """``(alias, output positions, ORDER BY positions)`` when every
    select item and ORDER BY column is a plain column of one alias,
    else None."""
    pairs: list[tuple[str, int]] = []
    for item in select.items:
        if isinstance(item, Star):
            pairs.extend(
                (alias, position)
                for alias, columns in scope.aliases.items()
                for position in range(len(columns))
            )
            continue
        if not isinstance(item.expr, ColumnRef):
            return None
        pairs.append(scope.resolve(item.expr.table, item.expr.column))
    order = [scope.resolve(c.table, c.column) for c in select.order_by]
    aliases = {alias for alias, _position in (*pairs, *order)}
    if len(aliases) != 1 or not pairs:
        return None
    return (
        aliases.pop(),
        [position for _alias, position in pairs],
        [position for _alias, position in order],
    )


def _delivers_order(
    select: Select, scope: Scope, steps: list[_JoinStep]
) -> bool:
    """True when a one-table select's ORDER BY is the order its access
    path delivers: every term a column of that table, in the order of
    the index columns that follow the probe's equality prefix.

    Index keys order by ``sort_key``, as ORDER BY does, and rows with
    equal keys arrive in insertion order, as a stable sort keeps them:
    skipping the sort returns the same rows in the same order.
    """
    if not select.order_by or len(steps) != 1:
        return False
    step = steps[0]
    order = [scope.resolve(c.table, c.column) for c in select.order_by]
    if any(alias != step.alias for alias, _position in order):
        return False
    positions = tuple(position for _alias, position in order)
    return positions == step.order_positions[:len(positions)]


def _tuple_getter(positions: list[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[p] for p in positions)``, as one C call."""
    if len(positions) == 1:
        position = positions[0]

        def get(row: tuple) -> tuple:
            return (row[position],)
        return get
    return operator.itemgetter(*positions)


def _row_key(positions: list[int]) -> Optional[Callable[[tuple], tuple]]:
    """The ORDER BY key of a row whose terms are its *positions*."""
    if not positions:
        return None
    if len(positions) == 1:
        position = positions[0]

        def key(row: tuple) -> tuple:
            return sort_key(row[position])
        return key
    get = operator.itemgetter(*positions)

    def keys(row: tuple) -> tuple:
        return tuple(map(sort_key, get(row)))
    return keys


_FIRST = operator.itemgetter(0)


_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

#: ``a <op> b`` is ``b <mirrored op> a``.
_MIRRORED = {
    "=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}


def _compare_closures(op: str, left: ExprFn, right: ExprFn) -> ExprFn:
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


def _row_count(value: SqlValue) -> int:
    """A LIMIT or OFFSET value, which must be an integer."""
    if type(value) is not int:
        raise ExecutionError(
            f"LIMIT and OFFSET take an integer, not {value!r}"
        )
    return value


def _to_logic(value: SqlValue) -> Optional[bool]:
    """Interpret an SQL value as a three-valued boolean."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _union_order_positions(
    order_by: Sequence[ColumnRef], columns: tuple[str, ...]
) -> list[int]:
    """Compound-select ORDER BY: output positions, by output name."""
    positions: list[int] = []
    for column in order_by:
        if column.table is not None or column.column not in columns:
            raise ExecutionError(
                f"compound ORDER BY {column} is not an output column"
            )
        positions.append(columns.index(column.column))
    return positions


def _contains_aggregate(select: Select) -> bool:
    nodes: list[Expr] = []
    for item in select.items:
        if isinstance(item, SelectItem):
            _collect_aggregates(item.expr, nodes)
    return bool(nodes)


def _collect_aggregates(expr: Expr, out: list[Expr]) -> None:
    """The aggregate calls in *expr*, directly or as function arguments
    (an aggregate inside a subquery belongs to the subquery)."""
    if isinstance(expr, CountStar) or (
        isinstance(expr, FunctionExpr) and expr.name in AGGREGATE_NAMES
    ):
        out.append(expr)
    elif isinstance(expr, FunctionExpr):
        for arg in expr.args:
            _collect_aggregates(arg, out)


def _aggregate_fold(
    compiler: Compiler, node: Expr, scope: Scope
) -> tuple[Optional[ExprFn], Optional[Callable[[list], SqlValue]]]:
    """``(argument, finish)`` of one aggregate call: the value each row
    contributes and what folds the non-NULL ones.  COUNT(*) has neither:
    it counts rows."""
    if isinstance(node, CountStar):
        return None, None
    name, args = node.name, node.args  # type: ignore[union-attr]
    separator = ","
    if name == "group_concat" and len(args) == 2:
        if not isinstance(args[1], Literal):
            raise ExecutionError("group_concat separator must be a literal")
        separator = str(args[1].value)
    elif len(args) != 1:
        raise ExecutionError(f"{name}() takes one argument")
    return (
        compiler.compile_expr(args[0], scope),
        lambda values: aggregate(name, values, separator),
    )


# ---------------------------------------------------------------------------
# Join pipeline
# ---------------------------------------------------------------------------


@dataclass
class _JoinStep:
    """One FROM item of a compiled select: where its rows come from,
    what they must pass, and — bound once, when the plan is compiled —
    :attr:`matches`, the row loop of its access path.

    ``matches(env, state)`` binds the step's alias in *env* to each
    matching row in turn and yields *env* itself each time.  The binding
    is overwritten by the next row: a consumer reads what it needs before
    it resumes the loop.  A pipeline hands its steps one private copy of
    the caller's environment, so a subquery's bindings never leak into
    the query that runs it.  Base-table rows also record their heap rowid under a
    reserved ``__rowid_<alias>`` key, which UPDATE/DELETE use to locate
    the target rows without a second scan.
    """

    alias: str
    table: Optional[HeapTable] = None
    subplan: Optional["CompiledSelect"] = None
    correlated: bool = False  # derived table references outer aliases
    cte_key: Optional[str] = None  # environment key of a WITH table's rows
    index: Optional[TableIndex] = None
    eq_fns: list[ExprFn] = field(default_factory=list)
    in_fns: Optional[list[ExprFn]] = None
    lower_fns: list[tuple[str, ExprFn]] = field(default_factory=list)
    upper_fns: list[tuple[str, ExprFn]] = field(default_factory=list)
    residual_fns: list[ExprFn] = field(default_factory=list)
    #: The columns whose order the rows arrive in (see
    #: :attr:`planner.AccessPath.order_positions`).
    order_positions: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.rowid_key = f"__rowid_{self.alias}"
        #: What a candidate row must pass: the WHERE conjuncts placed
        #: here — one callable, or None.
        self.test = _all_true(self.residual_fns)
        if self.table is None:
            self.matches = _listed_rows(self)
        elif self.index is None:
            self.matches = _full_scan(self)
        else:
            self.matches = _index_read(self)


# The row loops: an index read, a heap scan and listed rows.  Each
# counts what the engine reports (``index_scans`` / ``full_scans`` once
# per run, ``rows_read`` once per heap row fetched) when the consumer
# first advances it.  The kind of index read is chosen when the plan
# compiles (:func:`_lookup`): the body each row runs stays flat.


def _all_true(fns: Sequence[ExprFn]) -> Optional[ExprFn]:
    """One test for a row that must pass every one of *fns* (None when
    there is nothing to pass).  NULL and false both fail."""
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]

    def every(env: Env, state: ExecState) -> bool:
        for fn in fns:
            if not fn(env, state):
                return False
        return True
    return every


def _probe_key(
    fns: Sequence[ExprFn], env: Env, state: ExecState
) -> Optional[tuple]:
    """The equality prefix as a total-order key, or None if a value is
    NULL ('=' with NULL matches nothing).  Every value is computed
    either way."""
    values = [fn(env, state) for fn in fns]
    return None if None in values else tuple(map(sort_key, values))


def _index_read(step: _JoinStep) -> RowLoop:
    """The heap rows at the row ids :func:`_lookup` lists, in order."""
    alias, rowid_key, test = step.alias, step.rowid_key, step.test
    rows = step.table.rows
    lookup = _lookup(step)

    def matches(env: Env, state: ExecState) -> Iterator[Env]:
        stats = state.stats
        stats.index_scans += 1
        for rowid in lookup(env, state):
            stats.rows_read += 1
            env[alias] = rows[rowid]
            env[rowid_key] = rowid
            if test is None or test(env, state):
                yield env
    return matches


def _lookup(step: _JoinStep) -> Callable[[Env, ExecState], Sequence[int]]:
    """The row ids an index read walks, as one list: a point ``get``
    for a key as wide as the index, else the range a key prefix spans;
    one of those per distinct non-NULL IN value, in list order; or the
    range between the tightest bounds on the column after the prefix.
    Each read is its own closure: a call less per probe is measurable."""
    tree, eq_fns, in_fns = step.index.tree, step.eq_fns, step.in_fns
    lower_fns, upper_fns = step.lower_fns, step.upper_fns
    get, between = tree.get, tree.range_rowids
    width = len(eq_fns) + (in_fns is not None)
    point = width == len(step.index.column_positions)
    if lower_fns or upper_fns:
        def range_read(env: Env, state: ExecState) -> Sequence[int]:
            prefix = _probe_key(eq_fns, env, state)
            if prefix is None:
                return ()
            bounds = _range_bounds(prefix, lower_fns, upper_fns, env, state)
            return () if bounds is None else between(*bounds)
        return range_read
    if in_fns is not None:
        def in_probe(env: Env, state: ExecState) -> Sequence[int]:
            prefix = _probe_key(eq_fns, env, state)
            if prefix is None:
                return ()
            keys = {}  # a value listed twice matches its rows once
            for fn in in_fns:
                value = fn(env, state)
                if value is not None:
                    keys[(*prefix, sort_key(value))] = None
            rowids: list[int] = []
            for key in keys:
                rowids += get(key) if point else between(
                    key, (*key, AFTER_EVERY_VALUE), True, False
                )
            return rowids
        return in_probe
    if point:
        def point_read(env: Env, state: ExecState) -> Sequence[int]:
            key = _probe_key(eq_fns, env, state)
            return () if key is None else get(key)
        return point_read

    def prefix_read(env: Env, state: ExecState) -> Sequence[int]:
        key = _probe_key(eq_fns, env, state)
        return () if key is None else between(
            key, (*key, AFTER_EVERY_VALUE), True, False
        )
    return prefix_read


def _range_bounds(
    eq_key: tuple,
    lower_fns: list[tuple[str, ExprFn]],
    upper_fns: list[tuple[str, ExprFn]],
    env: Env,
    state: ExecState,
) -> Optional[tuple[tuple, Optional[tuple], bool, bool]]:
    """``range_rowids`` arguments for the keys that start with *eq_key*
    and whose next column lies within every bound — None when a bound is
    NULL, which matches nothing."""
    # The tightest bound on each side, as a total-order key.
    low_key: Optional[tuple] = None
    low_inclusive = True
    for op, fn in lower_fns:
        value = fn(env, state)
        if value is None:
            return None
        key = sort_key(value)
        if low_key is None or key > low_key:
            low_key, low_inclusive = key, op == ">="
        elif key == low_key and op == ">":
            low_inclusive = False
    high_key: Optional[tuple] = None
    high_inclusive = True
    for op, fn in upper_fns:
        value = fn(env, state)
        if value is None:
            return None
        key = sort_key(value)
        if high_key is None or key < high_key:
            high_key, high_inclusive = key, op == "<="
        elif key == high_key and op == "<":
            high_inclusive = False
    # Index keys may be wider than the bounded prefix (a range on the
    # first column of a two-column index): a short tuple sorts before
    # every longer key it starts, so an exclusive lower bound and an
    # inclusive upper bound end in AFTER_EVERY_VALUE.  With no lower
    # bound the range starts at the first non-NULL value (NULL fails
    # every comparison), with no upper bound it ends with the prefix.
    if low_key is None:
        low = (*eq_key, FIRST_NON_NULL)
    elif low_inclusive:
        low = (*eq_key, low_key)
    else:
        low = (*eq_key, low_key, AFTER_EVERY_VALUE)
    if high_key is None:
        high = (*eq_key, AFTER_EVERY_VALUE) if eq_key else None
    elif high_inclusive:
        high = (*eq_key, high_key, AFTER_EVERY_VALUE)
    else:
        high = (*eq_key, high_key)
    return low, high, True, False


def _full_scan(step: _JoinStep) -> RowLoop:
    """Every live heap row, in heap order."""
    alias, rowid_key, test, table = (
        step.alias, step.rowid_key, step.test, step.table
    )

    def matches(env: Env, state: ExecState) -> Iterator[Env]:
        stats = state.stats
        stats.full_scans += 1
        for rowid, row in enumerate(table.rows):
            if row is None:
                continue
            stats.rows_read += 1
            env[alias] = row
            env[rowid_key] = rowid
            if test is None or test(env, state):
                yield env
    return matches


def _listed_rows(step: _JoinStep) -> RowLoop:
    """A common table's rows so far, which ride in the environment (the
    step of a recursion sees the round's delta), or a derived table's,
    materialised once per execution — or per outer row when correlated:
    never serve one outer row's rows to another."""
    alias, test, subplan = step.alias, step.test, step.subplan
    cte_key, correlated, cache_key = step.cte_key, step.correlated, id(step)

    def matches(env: Env, state: ExecState) -> Iterator[Env]:
        if cte_key is not None:
            rows = env[cte_key]
        elif correlated:
            rows = subplan.rows(env, state)
        else:
            rows = state.derived_cache.get(cache_key)
            if rows is None:
                rows = subplan.rows(env, state)
                state.derived_cache[cache_key] = rows
        for row in rows:
            env[alias] = row
            if test is None or test(env, state):
                yield env
    return matches


def _pipeline(steps: list[_JoinStep]) -> RowLoop:
    """The environments the join of *steps* produces, depth first, each
    run on a private copy of the caller's environment.  The nesting is
    built here, once per plan, so a run recurses through no index."""
    if not steps:
        return lambda env, state: iter((env,))
    run = steps[-1].matches
    for step in reversed(steps[:-1]):
        run = _nested(step.matches, run)

    def pipeline(env: Env, state: ExecState) -> Iterator[Env]:
        return run(dict(env), state)
    return pipeline


def _nested(outer: RowLoop, inner: RowLoop) -> RowLoop:
    """*inner* run for each environment *outer* yields."""
    def matches(env: Env, state: ExecState) -> Iterator[Env]:
        for extended in outer(env, state):
            yield from inner(extended, state)
    return matches


@dataclass
class CompiledSelect:
    """A compiled SELECT: output column names + a function from an
    environment to the result rows (a new list per call).

    ``first_row`` answers the first result row, or None when there is
    none — what ``EXISTS`` and a scalar subquery ask.  ``stream``, when
    set, yields the result rows lazily in result order; a select whose
    rows need no sort (none asked, or its index delivers the ORDER BY)
    has one, so its LIMIT and its first row stop the scan.  Any other
    takes the first of :attr:`rows`.

    ``plan_lines`` is a human-readable access-plan summary (one line per
    FROM item), surfaced through ``MiniDb.explain``.
    """

    columns: tuple[str, ...]
    rows: Callable[[Env, ExecState], list[tuple]]
    plan_lines: list[str] = field(default_factory=list)
    first_row: Optional[Callable[[Env, ExecState], Optional[tuple]]] = None
    stream: Optional[Callable[[Env, ExecState], Iterator[tuple]]] = None

    def __post_init__(self) -> None:
        if self.first_row is None:
            rows = self.rows

            def first_row(env: Env, state: ExecState) -> Optional[tuple]:
                out = rows(env, state)
                return out[0] if out else None
            self.first_row = first_row


def _describe_step(step: _JoinStep) -> str:
    if step.cte_key is not None:
        return (f"JOIN common table {step.alias}, "
                f"{len(step.residual_fns)} filter(s)")
    if step.subplan is not None:
        return f"JOIN derived {step.alias} (materialised subquery)"
    if step.index is None:
        return (f"JOIN {step.table.name} {step.alias}: FULL SCAN, "
                f"{len(step.residual_fns)} filter(s)")
    index = step.index
    parts = [f"eq[{len(step.eq_fns)}]"]
    if step.in_fns is not None:
        parts.append(f"in[{len(step.in_fns)}]")
    if step.lower_fns or step.upper_fns:
        parts.append("range")
    return (
        f"JOIN {step.table.name} {step.alias}: INDEX "
        f"{index.name} ({', '.join(parts)}), "  # type: ignore[attr-defined]
        f"{len(step.residual_fns)} filter(s)"
    )


# ---------------------------------------------------------------------------
# DML / DDL execution
# ---------------------------------------------------------------------------


class StatementRunner:
    """Executes DML and DDL statements against the catalog.

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
        return self.prepare(statement)(params)

    def run_many(
        self, statement: Statement, param_rows: Iterable[Sequence]
    ) -> int:
        """Execute *statement* once per parameter row, compiled once (at
        the first row); the rows affected, summed.  Each row counts as
        one statement, as it would through :meth:`run`."""
        execute: Optional[Callable[[tuple], Result]] = None
        total = 0
        for params in param_rows:
            self.stats.statements += 1
            if execute is None:
                execute = self.prepare(statement)
            rowcount = execute(tuple(params)).rowcount
            if rowcount > 0:
                total += rowcount
        return total

    def prepare(self, statement: Statement) -> Callable[[tuple], Result]:
        """Compile *statement* into a function from one parameter tuple
        to its :class:`Result`.  The function reads the counters and the
        transaction journal when it runs, not when it was compiled.
        (SELECTs run through the engine's plan cache, not here.)"""
        if isinstance(statement, Insert):
            return self._prepare_insert(statement)
        if isinstance(statement, Update):
            return self._prepare_update(statement)
        if isinstance(statement, Delete):
            return self._prepare_delete(statement)
        if isinstance(statement, (CreateTable, CreateIndex)):
            return lambda params: self._run_ddl(statement)
        raise ExecutionError(f"cannot execute {statement!r}")

    def _run_ddl(self, statement: Statement) -> Result:
        if self.journal is not None:
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
        else:
            self.catalog.create_index(
                statement.name,
                statement.table,
                statement.columns,
                statement.unique,
                statement.if_not_exists,
            )
        return Result()

    def _prepare_insert(
        self, statement: Insert
    ) -> Callable[[tuple], Result]:
        table = self.catalog.get_table(statement.table)
        compiler = self.compiler()
        value_fns = [
            compiler.compile_expr(expr, Scope({}))
            for expr in statement.values
        ]

        def insert(params: tuple) -> Result:
            state = ExecState(params=params, stats=self.stats)
            row = tuple(fn({}, state) for fn in value_fns)
            rowid = table.insert(coerce_row(table.types, row))
            if self.journal is not None:
                self.journal.append(("insert", table, rowid, None))
            self.stats.rows_written += 1
            return Result(rowcount=1)
        return insert

    def _target_rows(
        self, table: HeapTable, where: Optional[Expr], scope: Scope
    ) -> Callable[[ExecState], list[int]]:
        """Row ids matching a single-table WHERE (index-assisted)."""
        alias = table.name
        conjuncts = [
            _qualify_with_scope(c, scope)
            for c in planner.split_conjuncts(where)
        ]
        path = planner.choose_access_path(table, alias, conjuncts, set())
        step = self.compiler()._table_step(alias, table, path, scope)
        rowid_key = step.rowid_key
        matches = step.matches
        return lambda state: [env[rowid_key] for env in matches({}, state)]

    def _prepare_update(
        self, statement: Update
    ) -> Callable[[tuple], Result]:
        table = self.catalog.get_table(statement.table)
        compiler = self.compiler()
        alias = table.name
        scope = Scope({alias: tuple(table.columns)})
        assignment_fns = [
            (table.column_position(column), compiler.compile_expr(expr, scope))
            for column, expr in statement.assignments
        ]
        target_rows = self._target_rows(table, statement.where, scope)

        def update(params: tuple) -> Result:
            state = ExecState(params=params, stats=self.stats)
            rowids = target_rows(state)
            for rowid in rowids:
                old = table.get(rowid)
                row = list(old)
                env = {alias: old}
                for position, fn in assignment_fns:
                    row[position] = fn(env, state)
                table.update(rowid, coerce_row(table.types, tuple(row)))
                if self.journal is not None:
                    self.journal.append(("update", table, rowid, old))
            self.stats.rows_written += len(rowids)
            return Result(rowcount=len(rowids))
        return update

    def _prepare_delete(
        self, statement: Delete
    ) -> Callable[[tuple], Result]:
        table = self.catalog.get_table(statement.table)
        scope = Scope({table.name: tuple(table.columns)})
        target_rows = self._target_rows(table, statement.where, scope)

        def delete(params: tuple) -> Result:
            state = ExecState(params=params, stats=self.stats)
            rowids = target_rows(state)
            for rowid in rowids:
                if self.journal is not None:
                    self.journal.append(
                        ("delete", table, rowid, table.get(rowid))
                    )
                table.delete(rowid)
            self.stats.rows_written += len(rowids)
            return Result(rowcount=len(rowids))
        return delete


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
    if isinstance(expr, Not):
        return Not(_qualify_with_scope(expr.operand, scope))
    if isinstance(expr, IsNull):
        return IsNull(_qualify_with_scope(expr.expr, scope))
    if isinstance(expr, FunctionExpr):
        return FunctionExpr(
            expr.name,
            tuple(_qualify_with_scope(a, scope) for a in expr.args),
        )
    if isinstance(expr, InList):
        return InList(
            _qualify_with_scope(expr.expr, scope),
            tuple(_qualify_with_scope(i, scope) for i in expr.items),
        )
    return expr
