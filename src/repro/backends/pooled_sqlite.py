"""Pooled sqlite backend: one connection per worker thread.

The shared-connection :class:`~repro.backends.sqlite_backend.
SqliteBackend` is thread-*safe* but fully serialized — every statement
waits on one RLock.  This backend holds a
:class:`~repro.concurrent.pool.ConnectionPool` over the same fully
configured connections (WAL, busy timeout, Dewey/ORDPATH functions), so
reader threads run genuinely in parallel and — because the file is in
WAL mode — keep reading while the single writer commits.

Transactions pin one connection to the opening thread from BEGIN to
COMMIT/ROLLBACK, and take the backend's writer lock for that whole
span: one transaction at a time, as on the shared connection (its
RLock) and on minidb (its exclusive latch), while statements outside a
transaction never wait for it.  :meth:`Backend.transaction` keeps its
scope depth per thread, so a second thread's scope is a transaction of
its own that begins once the first one has ended.  Requires a file
path: private ``:memory:`` databases are invisible across connections,
so there is nothing to pool.
"""

from __future__ import annotations

import sqlite3
import threading
from functools import partial
from typing import Iterable, Sequence

from repro.backends.base import Backend, BackendResult, is_write_statement
from repro.backends.sqlite_backend import (
    LIST_TABLES, connect_sqlite, execute_typed, executemany_typed,
)
from repro.concurrent.pool import ConnectionPool
from repro.errors import StorageError
from repro.obs import METRICS


class PooledSqliteBackend(Backend):
    """File-backed sqlite storage with a per-thread connection pool."""

    name = "sqlite"

    def __init__(
        self,
        path: str,
        capacity: int = 8,
        acquire_timeout: float = 30.0,
    ) -> None:
        if not path or path == ":memory:":
            raise StorageError(
                "PooledSqliteBackend needs a file path: a private "
                ":memory: database is invisible to other connections"
            )
        self.path = path
        self._rows_written = 0
        self._written_lock = threading.Lock()
        #: Held from BEGIN to COMMIT/ROLLBACK by the thread whose
        #: transaction is open.  An RLock so that releasing it from a
        #: thread that never took it raises instead of admitting a
        #: second writer.  Statements outside a transaction (DDL, say)
        #: do not take it, so BEGIN IMMEDIATE takes sqlite's write lock
        #: too: a transaction's snapshot then starts where its writes
        #: will, and no such statement can commit in between and fail
        #: the transaction's first write with "database is locked".
        self._writer = threading.RLock()
        self._closed = False
        self.pool: ConnectionPool[sqlite3.Connection] = ConnectionPool(
            partial(connect_sqlite, path),
            capacity=capacity,
            acquire_timeout=acquire_timeout,
        )
        # Open (and return) one connection eagerly so the database file
        # and its WAL mode exist before any worker thread races in.
        with self.pool.connection():
            pass

    # -- statements --------------------------------------------------------

    def execute(self, sql: str, params: Sequence = ()) -> BackendResult:
        with self.pool.connection() as conn:
            rows, rowcount = execute_typed(conn, sql, tuple(params))
            if rowcount > 0 and is_write_statement(sql):
                with self._written_lock:
                    self._rows_written += rowcount
                METRICS.inc("backend.rows_written", rowcount)
            METRICS.inc("backend.statements")
            METRICS.inc("backend.rows_read", len(rows))
            return BackendResult(rows=[tuple(r) for r in rows],
                                 rowcount=rowcount)

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        with self.pool.connection() as conn:
            rowcount = executemany_typed(conn, sql, param_rows)
            if rowcount > 0:
                with self._written_lock:
                    self._rows_written += rowcount
                METRICS.inc("backend.rows_written", rowcount)
            METRICS.inc("backend.statements")
            return BackendResult(rowcount=rowcount)

    def rows_written(self) -> int:
        return self._rows_written

    def analyze(self) -> None:
        with self.pool.connection() as conn:
            execute_typed(conn, "ANALYZE", ())

    def list_tables(self) -> list[str]:
        with self.pool.connection() as conn:
            rows, _ = execute_typed(conn, LIST_TABLES, ())
        return sorted(row[0] for row in rows)

    # -- transactions ------------------------------------------------------

    def begin(self) -> None:
        self._writer.acquire()
        try:
            conn = self.pool.pin()
            try:
                execute_typed(conn, "BEGIN IMMEDIATE", ())
            except BaseException:
                self.pool.unpin()
                raise
        except BaseException:
            self._writer.release()
            raise

    def commit_transaction(self) -> None:
        self._finish("COMMIT")

    def rollback(self) -> None:
        self._finish("ROLLBACK")

    def _finish(self, statement: str) -> None:
        """End this thread's transaction and let the next writer in,
        whatever happens: after :meth:`abandon` there is no pinned
        connection left to end it on, but the lock is still held."""
        try:
            conn = self.pool.pinned()
            if conn is None:
                raise StorageError(
                    f"{statement} without a pinned transaction"
                )
            execute_typed(conn, statement, ())
        finally:
            self.pool.unpin()
            self._writer.release()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Checkpoint the WAL, then drain and close every connection."""
        if self._closed:
            return
        self._closed = True
        try:
            with self.pool.connection() as conn:
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except Exception:
            pass  # pool already drained, or another process holds it
        self.pool.close()

    def abandon(self) -> None:
        """Process-death simulation: every connection closes abruptly,
        uncommitted transactions are lost (WAL discards them on the
        next open).  Used by the fault injector."""
        self._closed = True
        self.pool.abandon()
