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
from repro.errors import ReproError, StorageError
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


#: The user tables of a database (see :meth:`Backend.list_tables`).
LIST_TABLES = (
    "SELECT name FROM sqlite_master WHERE type = 'table' "
    "AND name NOT LIKE 'sqlite_%'"
)

#: Every connection waits this long for a conflicting lock before
#: sqlite gives up with "database is locked".
BUSY_TIMEOUT_MS = 5000


def typed_error(exc: sqlite3.Error) -> ReproError:
    """What a failed sqlite call raises instead of *exc*: the library
    error a scalar function raised inside the statement, else a
    :class:`StorageError` with sqlite's message.

    sqlite reports whatever a user-defined function raises as
    ``OperationalError: user-defined function raised exception`` and
    drops the exception; a scalar runs on the thread that executes the
    statement, so the typed error (a key leaving the codec's range
    under ``dewey_shift``, a corrupt stored key) is remembered per
    thread and handed back here.  Any other sqlite error — a statement
    past one of sqlite's limits, a lock still held by another
    connection when the busy timeout runs out — is a
    :class:`StorageError`.
    """
    raised = _scalar_failure.__dict__.pop("raised", None)
    return raised if raised is not None else StorageError(str(exc))


def execute_typed(
    conn: sqlite3.Connection, sql: str, params: tuple
) -> tuple[list, int]:
    """Run one statement to its end — ``(rows, rowcount)`` — and raise
    what it fails with as this library's error (see
    :func:`typed_error`), as minidb does."""
    try:
        cursor = conn.execute(sql, params)
        return cursor.fetchall(), cursor.rowcount
    except sqlite3.Error as exc:
        raise typed_error(exc) from exc


def executemany_typed(
    conn: sqlite3.Connection, sql: str, param_rows: Iterable[Sequence]
) -> int:
    """:func:`execute_typed` for a DML statement run once per parameter
    row; returns its rowcount."""
    try:
        return conn.executemany(sql, [tuple(p) for p in param_rows]).rowcount
    except sqlite3.Error as exc:
        raise typed_error(exc) from exc


def measured_rows(
    conn: sqlite3.Connection, tables: Iterable[str]
) -> dict[str, int]:
    """The row count of each of *tables* at its last ``ANALYZE``: the
    first number of the ``stat`` of its ``sqlite_stat1`` rows (one per
    index).  A table with no row was never measured, and before the
    first ``ANALYZE`` there is no ``sqlite_stat1`` at all."""
    if conn.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'sqlite_stat1'"
    ).fetchone() is None:
        return {}
    tables = tuple(tables)
    marks = ", ".join("?" for _ in tables)
    return {
        table: int(stat.split()[0])
        for table, stat in conn.execute(
            f"SELECT tbl, stat FROM sqlite_stat1 WHERE tbl IN ({marks})",
            tables,
        )
    }


def remeasure(conn: sqlite3.Connection, tables: Sequence[str]) -> None:
    """``ANALYZE`` each of *tables* that holds rows and at least twice
    the rows sqlite last measured (:func:`measured_rows`); the rest keep
    their statistics.

    A table re-measured only on doubling costs O(N) statistics work
    over N loads, where ``ANALYZE`` of the whole database after every
    load costs O(N²), and its statistics are never more than 2x stale.
    A table's rows are bounded by its largest rowid, one B-tree descent
    (every table of the store is a rowid table): no row has a larger
    one, so the bound errs only toward measuring early, after deletes.
    """
    try:
        measured = measured_rows(conn, tables)
        for table in tables:
            (rows,) = conn.execute(
                f"SELECT MAX(rowid) FROM {table}"
            ).fetchone()
            if rows and rows >= 2 * measured.get(table, 0):
                conn.execute(f"ANALYZE {table}")
    except sqlite3.Error as exc:
        raise typed_error(exc) from exc


def connect_sqlite(path: Optional[str]) -> sqlite3.Connection:
    """Open a fully configured sqlite connection for this store.

    Every connection :class:`SqliteBackend` opens comes from here, so
    the connections of a file store are interchangeable: same pragmas,
    same busy timeout, same Dewey/ORDPATH scalar functions.  A file that cannot be opened,
    or is not a database, is a :class:`StorageError`.

    Autocommit mode: transactions are controlled explicitly by the
    Backend.transaction protocol (python's implicit-BEGIN legacy mode
    would collide with our explicit BEGIN).
    """
    # cached_statements sizes sqlite's per-connection prepared-statement
    # cache; compiled plans have stable parameterized SQL text (literals
    # arrive as bound parameters), so repeated query shapes skip
    # re-preparation entirely.
    try:
        conn = sqlite3.connect(path or ":memory:",
                               isolation_level=None,
                               check_same_thread=False,
                               cached_statements=512)
    except sqlite3.Error as exc:
        raise StorageError(f"cannot open {path!r}: {exc}") from exc
    try:
        if path is not None:
            # Crash safety for file-backed stores: WAL survives abrupt
            # process death (uncommitted tail discarded on reopen) and
            # lets readers proceed during a write.  synchronous=NORMAL
            # is WAL's durable-at-checkpoint setting.  The first
            # statement is where a file that is not a database shows
            # itself.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        # Wait instead of failing immediately when another connection
        # holds a conflicting lock.
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
    except sqlite3.Error as exc:
        conn.close()
        raise StorageError(f"cannot open {path!r}: {exc}") from exc
    for fn_name, arity, fn in SCALAR_FUNCTIONS:
        conn.create_function(
            fn_name, arity, _remembering(fn), deterministic=True
        )
    return conn


class SqliteBackend(Backend):
    """sqlite3 storage: in memory (no *path*) or on a file.

    Whether there is a path decides how connections are shared; there
    is no other setting.

    * **In memory** the database is private to its one connection.
      Every statement runs on it under the writer lock, and a
      transaction holds that lock from BEGIN to COMMIT/ROLLBACK, so
      statements from other threads cannot interleave with it.
    * **On a file** (WAL) a statement runs on an idle connection, or on
      a newly opened one, so readers run in parallel and keep reading
      while a writer commits.  A transaction takes the writer lock,
      runs ``BEGIN IMMEDIATE`` on a connection and keeps that
      connection for the calling thread until COMMIT/ROLLBACK.
      Statements outside a transaction (DDL, say) never take the lock,
      so BEGIN IMMEDIATE takes sqlite's write lock too: a transaction's
      snapshot then starts where its writes will, and no such
      statement can commit in between and fail the transaction's first
      write with "database is locked".  A read scope
      (:meth:`Backend.snapshot`) is a deferred ``BEGIN`` kept on a
      connection the same way, without the lock.

    One transaction at a time either way, as on minidb: one writer lock
    per backend.  :meth:`Backend.transaction` keeps its scope depth per
    thread, so a second thread's scope is a transaction of its own that
    begins once the first one has ended.
    """

    name = "sqlite"

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        #: Guards the connection lists and the written-rows count.
        self._lock = threading.Lock()
        self._rows_written = 0
        self._closed = False
        # Opened eagerly, so that a file that is not a database fails
        # here and a file store's WAL mode exists before any thread
        # races in.
        first = connect_sqlite(path)
        #: Every connection opened, for :meth:`abandon` to close.
        self._all = [first]
        #: In memory: the one connection.  On a file: None.
        self._shared = first if path is None else None
        #: Connections no statement is running on (only on a file is
        #: one ever taken from here).
        self._idle = [first]
        #: On a file: thread ident -> the connection its open
        #: transaction or read scope runs on.
        self._pinned: dict[int, sqlite3.Connection] = {}

    # -- connections on a file ---------------------------------------------

    def _checkout(self) -> sqlite3.Connection:
        with self._lock:
            if self._closed:
                raise StorageError(f"the store {self.path!r} is closed")
            if self._idle:
                return self._idle.pop()
        connection = connect_sqlite(self.path)
        with self._lock:
            self._all.append(connection)
        return connection

    def _checkin(self, connection: sqlite3.Connection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def _run(self, statement, *args):
        """*statement* (:func:`execute_typed` or
        :func:`executemany_typed`) on the connection this thread is
        due: the one connection in memory, under the lock; on a file
        its transaction's, else an idle one."""
        shared = self._shared
        if shared is not None:
            with self._writer:
                return statement(shared, *args)
        return self._on_file(statement, *args)

    def _on_file(self, statement, *args):
        pinned = self._pinned.get(threading.get_ident())
        if pinned is not None:
            return statement(pinned, *args)
        connection = self._checkout()
        try:
            return statement(connection, *args)
        finally:
            self._checkin(connection)

    # -- statements --------------------------------------------------------

    def execute(self, sql: str, params: Sequence = ()) -> BackendResult:
        # The in-memory path is spelled out: it is every read's.
        shared = self._shared
        if shared is not None:
            with self._writer:
                rows, rowcount = execute_typed(shared, sql, tuple(params))
        else:
            rows, rowcount = self._on_file(execute_typed, sql, tuple(params))
        if rowcount > 0 and is_write_statement(sql):
            self._wrote(rowcount)
        METRICS.inc("backend.statements")
        METRICS.inc("backend.rows_read", len(rows))
        return BackendResult(rows=rows, rowcount=rowcount)

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        rowcount = self._run(executemany_typed, sql, param_rows)
        if rowcount > 0:
            self._wrote(rowcount)
        METRICS.inc("backend.statements")
        return BackendResult(rowcount=rowcount)

    def _wrote(self, rowcount: int) -> None:
        with self._lock:
            self._rows_written += rowcount
        METRICS.inc("backend.rows_written", rowcount)

    def rows_written(self) -> int:
        return self._rows_written

    def analyze(self, tables: Sequence[str]) -> None:
        """Re-measure each of *tables* that now holds at least twice
        the rows sqlite last measured (see :func:`remeasure`)."""
        self._run(remeasure, tuple(tables))

    def list_tables(self) -> list[str]:
        rows, _ = self._run(execute_typed, LIST_TABLES, ())
        return sorted(row[0] for row in rows)

    # -- transactions ------------------------------------------------------

    def begin(self) -> None:
        self._writer.acquire()
        try:
            if self._shared is not None:
                execute_typed(self._shared, "BEGIN", ())
            else:
                self._pin("BEGIN IMMEDIATE")
        except BaseException:
            self._writer.release()
            raise

    def commit_transaction(self) -> None:
        self._finish("COMMIT")

    def rollback(self) -> None:
        self._finish("ROLLBACK")

    def _finish(self, statement: str) -> None:
        """End this thread's transaction and let the next writer in,
        whatever happens — after :meth:`abandon` too, where *statement*
        fails on a closed connection."""
        try:
            if self._shared is not None:
                execute_typed(self._shared, statement, ())
            else:
                self._unpin(statement)
        finally:
            self._writer.release()

    def begin_snapshot(self) -> bool:
        """In memory the writer lock; on a file a deferred ``BEGIN``,
        whose first statement fixes the scope's snapshot, and no lock."""
        if self._shared is not None:
            self._writer.acquire()
            return False
        self._pin("BEGIN")
        return True

    def end_snapshot(self) -> None:
        if self._shared is not None:
            self._writer.release()
        else:
            self._unpin("COMMIT")

    def _pin(self, begin: str) -> None:
        """Run *begin* on a connection kept for the calling thread."""
        connection = self._checkout()
        try:
            execute_typed(connection, begin, ())
        except BaseException:
            self._checkin(connection)
            raise
        self._pinned[threading.get_ident()] = connection

    def _unpin(self, statement: str) -> None:
        """End the thread's scope with *statement*; free its connection."""
        connection = self._pinned.pop(threading.get_ident(), None)
        if connection is None:
            raise StorageError(f"{statement} without a transaction")
        try:
            execute_typed(connection, statement, ())
        finally:
            self._checkin(connection)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Checkpoint the WAL back into the main file and close.

        Without the TRUNCATE checkpoint a file store's final state can
        sit entirely in ``store.db-wal`` at shutdown; compacting on
        close leaves a single self-contained database file behind.  In
        memory, close waits for another thread's open transaction; on a
        file, a connection still in use closes when it comes back.
        Idempotent: a second close is a no-op.
        """
        if self._shared is not None:
            with self._writer:
                self._close()
        else:
            self._close()

    def _close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
        if self.path is not None and idle:
            try:
                idle[0].execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass  # e.g. another connection holds the WAL busy
        for connection in idle:
            connection.close()

    def abandon(self) -> None:
        """Process-death simulation: every connection closes abruptly,
        the one a transaction runs on too, and the uncommitted work is
        lost (a file's WAL discards it on the next open).  Afterwards
        every statement, COMMIT and ROLLBACK fails with a
        :class:`StorageError`."""
        with self._lock:
            self._closed = True
            connections, self._all, self._idle = self._all, [], []
        for connection in connections:
            connection.close()
