"""The minidb engine facade.

:class:`MiniDb` glues the catalog, parser, planner, and executor together
behind a DB-API-flavoured interface::

    db = MiniDb()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("INSERT INTO t VALUES (?, ?)", (1, "x"))
    result = db.execute("SELECT b FROM t WHERE a = ?", (1,))
    result.rows  # [("x",)]

Two caches, both keyed on the SQL text, make a repeated statement pay
parsing and planning once: statement ASTs (valid for ever — parsing
depends on nothing but the text) and compiled SELECT plans (valid for
one ``catalog.version``, dropped together when DDL moves it).  Neither
evicts; a cache that reaches :data:`_CACHE_CAP` entries starts over, so
neither can fill up and stop caching.  The scalar functions are fixed at
construction: the built-ins plus the helpers translated plans call
(:mod:`repro.core.scalars`), which the sqlite3 backend registers too.

The engine is single-threaded: it takes no lock of its own.
:class:`~repro.backends.minidb_backend.MiniDbBackend` runs every
statement under the backend's writer lock, and holds it from BEGIN to
COMMIT/ROLLBACK.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.scalars import SCALAR_FUNCTIONS
from repro.errors import ExecutionError
from repro.minidb.catalog import Catalog
from repro.minidb.executor import (
    CompiledSelect,
    ExecState,
    Result,
    StatementRunner,
    Stats,
)
from repro.minidb.expressions import BUILTIN_SCALARS
from repro.minidb.sql_ast import SELECT_TYPES, Statement
from repro.minidb.sql_parser import parse_sql
from repro.obs import METRICS

#: Entries either statement cache holds before it starts over.
_CACHE_CAP = 4096


class MiniDb:
    """One in-memory minidb database instance."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.stats = Stats()
        self.functions: dict[str, Callable] = {
            **BUILTIN_SCALARS,
            **{name: fn for name, _arity, fn in SCALAR_FUNCTIONS},
        }
        self._ast_cache: dict[str, Statement] = {}
        self._plan_cache: dict[str, CompiledSelect] = {}
        #: The ``catalog.version`` every cached plan was compiled at.
        self._plan_version = self.catalog.version
        self._runner = StatementRunner(
            self.catalog, self.functions, self.stats
        )

    # -- execution --------------------------------------------------------

    def _parse(self, sql: str) -> Statement:
        statement = self._ast_cache.get(sql)
        if statement is None:
            statement = parse_sql(sql)
            if len(self._ast_cache) >= _CACHE_CAP:
                self._ast_cache.clear()
            self._ast_cache[sql] = statement
        return statement

    def _plan(self, sql: str, statement: Statement) -> CompiledSelect:
        """The compiled plan of a SELECT, recompiled once DDL has moved
        ``catalog.version``."""
        if self._plan_version != self.catalog.version:
            self._plan_cache.clear()
            self._plan_version = self.catalog.version
        plan = self._plan_cache.get(sql)
        if plan is None:
            plan = self._runner.compiler().compile_select(statement)
            if len(self._plan_cache) >= _CACHE_CAP:
                self._plan_cache.clear()
            self._plan_cache[sql] = plan
        return plan

    def execute(self, sql: str, params: Sequence = ()) -> Result:
        """Execute one statement; returns a :class:`Result`."""
        keyword = sql.strip().rstrip(";").upper()
        if keyword in ("BEGIN", "BEGIN TRANSACTION"):
            self.begin()
            return Result()
        if keyword == "COMMIT":
            self.commit()
            return Result()
        if keyword == "ROLLBACK":
            self.rollback()
            return Result()
        statement = self._parse(sql)
        params = tuple(params)
        if isinstance(statement, SELECT_TYPES):
            plan = self._plan(sql, statement)
            self.stats.statements += 1
            state = ExecState(params=params, stats=self.stats)
            rows = plan.rows({}, state)
            METRICS.inc("minidb.selects")
            METRICS.inc("minidb.rows_returned", len(rows))
            return Result(plan.columns, rows, -1)
        METRICS.inc("minidb.dml")
        return self._runner.run(statement, params)

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> Result:
        """Execute a DML statement once per parameter row, compiled
        once."""
        statement = self._parse(sql)
        if isinstance(statement, SELECT_TYPES):
            raise ExecutionError("executemany() does not accept SELECT")
        return Result(rowcount=self._runner.run_many(statement, param_rows))

    def explain(self, sql: str) -> list[str]:
        """Describe the access plan of a SELECT without executing it.

        One line per FROM item: the table, the index chosen (with its
        equality/IN/range usage) or FULL SCAN, and the residual filter
        count; then, for an ORDER BY, whether the rows are sorted or
        arrive in index order.  Derived tables, subqueries and UNION
        arms are indented.
        """
        statement = self._parse(sql)
        if not isinstance(statement, SELECT_TYPES):
            raise ExecutionError("explain() only accepts SELECT")
        plan = self._runner.compiler().compile_select(statement)
        return list(plan.plan_lines)

    # -- transactions ---------------------------------------------------------

    def begin(self) -> None:
        """Start a transaction: row mutations are journalled for undo."""
        if self._runner.journal is not None:
            raise ExecutionError("transaction already in progress")
        self._runner.journal = []

    def commit(self) -> None:
        """Commit: discard the undo journal (changes are in place)."""
        if self._runner.journal is None:
            raise ExecutionError("no transaction in progress")
        self._runner.journal = None

    def rollback(self) -> None:
        """Undo every row mutation made since :meth:`begin`."""
        journal = self._runner.journal
        if journal is None:
            raise ExecutionError("no transaction in progress")
        self._runner.journal = None
        for kind, table, rowid, old_row in reversed(journal):
            if kind == "insert":
                table.delete(rowid)
            elif kind == "delete":
                # Restore the tombstoned slot and its index entries.
                table.rows[rowid] = old_row
                table.live_count += 1
                for index in table.indexes:
                    index.insert(old_row, rowid)
            else:  # update
                table.update(rowid, old_row)

    @property
    def in_transaction(self) -> bool:
        return self._runner.journal is not None

    # -- introspection -----------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(self.catalog.tables)

    def row_count(self, table: str) -> int:
        return len(self.catalog.get_table(table))

    def reset_stats(self) -> None:
        self.stats = Stats()
        self._runner.stats = self.stats
