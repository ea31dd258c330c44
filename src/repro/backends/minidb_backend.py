"""minidb-backed storage backend (the from-scratch engine)."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.backends.base import Backend, BackendResult
from repro.minidb import MiniDb
from repro.obs import METRICS


class MiniDbBackend(Backend):
    """Adapter exposing :class:`repro.minidb.MiniDb` as a Backend."""

    name = "minidb"

    def __init__(self) -> None:
        self.db = MiniDb()

    def execute(self, sql: str, params: Sequence = ()) -> BackendResult:
        result = self.db.execute(sql, tuple(params))
        METRICS.inc("backend.statements")
        METRICS.inc("backend.rows_read", len(result.rows))
        if result.rowcount > 0 and not result.rows:
            METRICS.inc("backend.rows_written", result.rowcount)
        return BackendResult(rows=result.rows, rowcount=result.rowcount)

    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        result = self.db.executemany(sql, param_rows)
        METRICS.inc("backend.statements")
        if result.rowcount > 0:
            METRICS.inc("backend.rows_written", result.rowcount)
        return BackendResult(rowcount=result.rowcount)

    def rows_written(self) -> int:
        return self.db.stats.rows_written

    def list_tables(self) -> list[str]:
        if self.db is None:  # abandoned by a simulated crash
            return []
        return self.db.table_names()

    def begin(self) -> None:
        self.db.begin()

    def commit_transaction(self) -> None:
        self.db.commit()

    def rollback(self) -> None:
        self.db.rollback()

    @property
    def stats(self):
        """The engine's counters (rows read/written, scans, statements)."""
        return self.db.stats
