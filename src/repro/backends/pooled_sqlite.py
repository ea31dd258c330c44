"""Pooled sqlite backend: one connection per worker thread.

The shared-connection :class:`~repro.backends.sqlite_backend.
SqliteBackend` is thread-*safe* but fully serialized — every statement
waits on one RLock.  This backend holds a
:class:`~repro.concurrent.pool.ConnectionPool` over the same fully
configured connections (WAL, busy timeout, Dewey/ORDPATH functions), so
reader threads run genuinely in parallel and — because the file is in
WAL mode — keep reading while the single writer commits.

Transactions pin one connection to the opening thread from BEGIN to
COMMIT/ROLLBACK; :meth:`Backend.transaction` keeps its scope depth per
thread, so concurrent threads each get an independent transaction.
Requires a file path: private ``:memory:`` databases are invisible
across connections, so there is nothing to pool.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Iterable, Sequence

from repro.backends.base import Backend, BackendResult, is_write_statement
from repro.backends.sqlite_backend import connect_sqlite, execute_typed
from repro.concurrent.pool import ConnectionPool
from repro.errors import StorageError
from repro.obs import METRICS


class PooledSqliteBackend(Backend):
    """File-backed sqlite storage with a per-thread connection pool."""

    name = "sqlite"

    def __init__(
        self,
        path: str,
        busy_timeout_ms: int = 5000,
        capacity: int = 8,
        acquire_timeout: float = 30.0,
    ) -> None:
        if not path or path == ":memory:":
            raise StorageError(
                "PooledSqliteBackend needs a file path: a private "
                ":memory: database is invisible to other connections"
            )
        self.path = path
        self.busy_timeout_ms = busy_timeout_ms
        self._rows_written = 0
        self._written_lock = threading.Lock()
        self._closed = False
        self.pool: ConnectionPool[sqlite3.Connection] = ConnectionPool(
            self._connect,
            capacity=capacity,
            acquire_timeout=acquire_timeout,
        )
        # Open (and return) one connection eagerly so the database file
        # and its WAL mode exist before any worker thread races in.
        with self.pool.connection():
            pass

    def _connect(self) -> sqlite3.Connection:
        return connect_sqlite(self.path, self.busy_timeout_ms)

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
            cursor = conn.executemany(
                sql, [tuple(p) for p in param_rows]
            )
            if cursor.rowcount > 0:
                with self._written_lock:
                    self._rows_written += cursor.rowcount
                METRICS.inc("backend.rows_written", cursor.rowcount)
            METRICS.inc("backend.statements")
            return BackendResult(rowcount=cursor.rowcount)

    def rows_written(self) -> int:
        return self._rows_written

    def analyze(self) -> None:
        with self.pool.connection() as conn:
            conn.execute("ANALYZE")

    def list_tables(self) -> list[str]:
        with self.pool.connection() as conn:
            rows = conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%'"
            ).fetchall()
        return sorted(row[0] for row in rows)

    # -- transactions ------------------------------------------------------

    def begin(self) -> None:
        conn = self.pool.pin()
        try:
            conn.execute("BEGIN")
        except BaseException:
            self.pool.unpin()
            raise

    def commit_transaction(self) -> None:
        conn = self.pool.pinned()
        if conn is None:
            raise StorageError("commit without a pinned transaction")
        try:
            conn.execute("COMMIT")
        finally:
            self.pool.unpin()

    def rollback(self) -> None:
        conn = self.pool.pinned()
        if conn is None:
            raise StorageError("rollback without a pinned transaction")
        try:
            conn.execute("ROLLBACK")
        finally:
            self.pool.unpin()

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
