"""sqlite3-backed storage backend.

SQLite stands in for the commercial RDBMS of the paper.  BLOB comparison
in SQLite is bytewise (memcmp), which is exactly what the Dewey binary
codec was designed for — an ordinary B-tree index on the ``dkey`` column
yields document order and subtree ranges.  The scalar helpers of
:mod:`repro.core.scalars` are registered as deterministic functions.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Iterable, Optional, Sequence

from repro.backends.base import Backend, BackendResult, is_write_statement
from repro.core.scalars import SCALAR_FUNCTIONS
from repro.errors import ReproError
from repro.obs import METRICS

#: ``raised``: the library error a scalar function raised on this
#: thread inside the statement now executing (see :func:`execute_typed`).
_scalar_failure = threading.local()


def _remembering(fn):
    """*fn* as registered with sqlite: a library error it raises is
    kept for :func:`execute_typed` before sqlite discards it."""

    def scalar(*args):
        try:
            return fn(*args)
        except ReproError as exc:
            _scalar_failure.raised = exc
            raise

    return scalar


def execute_typed(
    conn: sqlite3.Connection, sql: str, params: tuple
) -> tuple[list, int]:
    """Run one statement to its end — ``(rows, rowcount)`` — so that a
    scalar function's own error survives.

    sqlite reports whatever a user-defined function raises as
    ``OperationalError: user-defined function raised exception`` and
    drops the exception; a scalar runs on the thread that executes the
    statement, so the typed error (a key leaving the codec's range
    under ``dewey_shift``, a corrupt stored key) is remembered per
    thread and re-raised in its place, as minidb raises it directly.
    """
    try:
        cursor = conn.execute(sql, params)
        return cursor.fetchall(), cursor.rowcount
    except sqlite3.OperationalError as exc:
        raised = _scalar_failure.__dict__.pop("raised", None)
        if raised is None:
            raise
        raise raised from exc


def connect_sqlite(
    path: Optional[str], busy_timeout_ms: int = 5000
) -> sqlite3.Connection:
    """Open a fully configured sqlite connection for this store.

    Shared by the single-connection backend and every connection a
    :class:`~repro.concurrent.pool.ConnectionPool` creates, so pooled
    connections are interchangeable: same pragmas, same busy timeout,
    same Dewey/ORDPATH scalar functions.

    Autocommit mode: transactions are controlled explicitly by the
    Backend.transaction protocol (python's implicit-BEGIN legacy mode
    would collide with our explicit BEGIN).
    """
    # cached_statements sizes sqlite's per-connection prepared-statement
    # cache; compiled plans have stable parameterized SQL text (literals
    # arrive as bound parameters), so repeated query shapes skip
    # re-preparation entirely.
    conn = sqlite3.connect(path or ":memory:",
                           isolation_level=None,
                           check_same_thread=False,
                           cached_statements=512)
    if path is not None:
        # Crash safety for file-backed stores: WAL survives abrupt
        # process death (uncommitted tail discarded on reopen) and
        # lets readers proceed during a write.  synchronous=NORMAL
        # is WAL's durable-at-checkpoint setting.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    # Wait instead of failing immediately when another connection
    # holds a conflicting lock (sqlite raises BUSY past the timeout;
    # the RetryPolicy layer classifies that as transient).
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
    for fn_name, arity, fn in SCALAR_FUNCTIONS:
        conn.create_function(
            fn_name, arity, _remembering(fn), deterministic=True
        )
    return conn


class SqliteBackend(Backend):
    """In-memory (default) or file-backed sqlite3 storage."""

    name = "sqlite"

    def __init__(
        self,
        path: Optional[str] = None,
        busy_timeout_ms: int = 5000,
    ) -> None:
        # sqlite3 connections are thread-bound by default; an RLock plus
        # check_same_thread=False makes statements safe to issue from
        # any thread, and begin() holds the lock until commit/rollback
        # so whole transactions serialize too.  For true concurrency
        # use PooledSqliteBackend (one connection per worker thread).
        self._lock = threading.RLock()
        self.path = path
        self._conn = connect_sqlite(path, busy_timeout_ms)
        self._rows_written = 0
        self._closed = False

    def execute(self, sql: str, params: Sequence = ()) -> BackendResult:
        with self._lock:
            rows, rowcount = execute_typed(self._conn, sql, tuple(params))
            if rowcount > 0 and is_write_statement(sql):
                self._rows_written += rowcount
                METRICS.inc("backend.rows_written", rowcount)
            METRICS.inc("backend.statements")
            METRICS.inc("backend.rows_read", len(rows))
            return BackendResult(rows=[tuple(r) for r in rows],
                                 rowcount=rowcount)

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        with self._lock:
            cursor = self._conn.executemany(
                sql, [tuple(p) for p in param_rows]
            )
            if cursor.rowcount > 0:
                self._rows_written += cursor.rowcount
                METRICS.inc("backend.rows_written", cursor.rowcount)
            METRICS.inc("backend.statements")
            return BackendResult(rowcount=cursor.rowcount)

    def rows_written(self) -> int:
        return self._rows_written

    def analyze(self) -> None:
        """Collect index statistics so the query planner picks the
        selective (parent/pos) indexes for correlated subqueries."""
        with self._lock:
            self._conn.execute("ANALYZE")

    def list_tables(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%'"
            ).fetchall()
        return sorted(row[0] for row in rows)

    def begin(self) -> None:
        # Hold the lock for the whole transaction (released again by
        # commit_transaction/rollback), so statements from other
        # threads cannot interleave with an open transaction on the
        # shared connection.  The RLock keeps the owning thread's own
        # per-statement acquisitions reentrant.
        self._lock.acquire()
        try:
            self._conn.execute("BEGIN")
        except BaseException:
            self._lock.release()
            raise

    def commit_transaction(self) -> None:
        try:
            with self._lock:
                self._conn.execute("COMMIT")
        finally:
            self._lock.release()

    def rollback(self) -> None:
        try:
            with self._lock:
                self._conn.execute("ROLLBACK")
        finally:
            self._lock.release()

    def close(self) -> None:
        """Checkpoint the WAL back into the main file and close.

        Without the TRUNCATE checkpoint a file store's final state can
        sit entirely in ``store.db-wal`` at shutdown; compacting on
        close leaves a single self-contained database file behind.
        Idempotent: a second close is a no-op.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.path is not None:
                try:
                    self._conn.execute(
                        "PRAGMA wal_checkpoint(TRUNCATE)"
                    )
                except sqlite3.Error:
                    pass  # e.g. another connection holds the WAL busy
            self._conn.close()
