"""minidb-backed storage backend (the from-scratch engine)."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.backends.base import Backend, BackendResult
from repro.errors import StorageError
from repro.minidb import MiniDb
from repro.obs import METRICS


class MiniDbBackend(Backend):
    """Adapter exposing :class:`repro.minidb.MiniDb` as a Backend.

    The engine is single-threaded; the backend's writer lock makes it
    safe to share, as in-memory sqlite's one connection is: every
    statement runs under the lock, and a transaction holds it from
    BEGIN to COMMIT/ROLLBACK, so other threads' statements wait for the
    commit instead of seeing a half-applied transaction.
    """

    name = "minidb"

    def __init__(self) -> None:
        self.db = MiniDb()

    def _engine(self) -> MiniDb:
        """The engine, or a :class:`StorageError` once :meth:`abandon`
        has dropped it."""
        db = self.db
        if db is None:
            raise StorageError("the minidb store is closed")
        return db

    def execute(self, sql: str, params: Sequence = ()) -> BackendResult:
        with self._writer:
            result = self._engine().execute(sql, tuple(params))
        METRICS.inc("backend.statements")
        METRICS.inc("backend.rows_read", len(result.rows))
        if result.rowcount > 0 and not result.rows:
            METRICS.inc("backend.rows_written", result.rowcount)
        return BackendResult(rows=result.rows, rowcount=result.rowcount)

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        with self._writer:
            result = self._engine().executemany(sql, param_rows)
        METRICS.inc("backend.statements")
        if result.rowcount > 0:
            METRICS.inc("backend.rows_written", result.rowcount)
        return BackendResult(rowcount=result.rowcount)

    def rows_written(self) -> int:
        return self.db.stats.rows_written

    def list_tables(self) -> list[str]:
        with self._writer:
            if self.db is None:  # abandoned by a simulated crash
                return []
            return self.db.table_names()

    def begin(self) -> None:
        self._writer.acquire()
        try:
            self._engine().begin()
        except BaseException:
            self._writer.release()
            raise

    def commit_transaction(self) -> None:
        try:
            self._engine().commit()
        finally:
            self._writer.release()

    def rollback(self) -> None:
        try:
            self._engine().rollback()
        finally:
            self._writer.release()

    def abandon(self) -> None:
        self.db = None

    @property
    def stats(self):
        """The engine's counters (rows read/written, scans, statements)."""
        return self.db.stats
