"""Backend protocol: one SQL dialect, two engines.

Both backends accept the same SQL text with ``?`` placeholders and expose
the Dewey/ORDPATH scalar functions, so every translation and benchmark
runs unchanged on either engine.  Both support atomic transactions via
:meth:`Backend.transaction` — sqlite natively, minidb through an undo
journal — which the update manager wraps around every multi-statement
operation.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


@dataclass
class BackendResult:
    """Rows and affected-row count from one statement."""

    rows: list[tuple] = field(default_factory=list)
    rowcount: int = -1


#: Leading verbs of row-writing DML.
_WRITE_VERBS = frozenset({"insert", "update", "delete", "replace"})


def is_write_statement(sql: str) -> bool:
    """True when *sql* is row-writing DML, judged by its leading verb.

    The ``backend.rows_written`` accounting cannot be inferred from the
    cursor alone: DML with a ``RETURNING`` clause produces rows, and
    drivers report quirky ``rowcount`` values for some non-DML — so the
    statement text is the only reliable classifier.  Leading ``--``
    line comments are skipped before the verb is read.
    """
    text = sql.lstrip()
    while text.startswith("--"):
        newline = text.find("\n")
        if newline == -1:
            return False
        text = text[newline + 1:].lstrip()
    if not text:
        return False
    return text.split(None, 1)[0].lower() in _WRITE_VERBS


class Backend(ABC):
    """A relational engine that stores shredded documents."""

    #: Short backend name ("sqlite" or "minidb").
    name: str

    def __new__(cls, *args: object, **kwargs: object) -> "Backend":
        backend = super().__new__(cls)
        # Thread ident -> how many transaction() scopes that thread has
        # open on this backend; no entry outside one.  Each thread
        # touches its own key only.  (Every cached read asks "am I in a
        # transaction?"; a ``threading.local`` answers in twice the
        # time with a class-level default, ten times with ``getattr``
        # on a thread that never opened one.)  Set here and not in an
        # __init__ so that no subclass can forget to call it.
        backend._tx_depths = {}
        return backend

    @abstractmethod
    def execute(
        self, sql: str, params: Sequence = ()
    ) -> BackendResult:
        """Execute one statement and return its result."""

    @abstractmethod
    def executemany(
        self, sql: str, param_rows: Iterable[Sequence]
    ) -> BackendResult:
        """Execute a DML statement once per parameter row."""

    def execute_plan(self, sql, params=(), statement=None):
        # Alias of execute, kept only for the frozen probe
        # benchmarks/perf/workloads.py:477; do not override or call it
        # (ROADMAP, "One benchmark system", lists it for deletion).
        return self.execute(sql, params)

    @abstractmethod
    def rows_written(self) -> int:
        """Total rows written (inserted/updated/deleted) so far.

        The updates module reports renumbering cost in this unit, which
        is engine-independent, alongside wall-clock time.
        """

    def analyze(self) -> None:
        """Refresh optimizer statistics after a bulk load (no-op by
        default; the sqlite backend runs ``ANALYZE``)."""

    def list_tables(self) -> list[str]:
        """Names of all user tables currently in the database.

        Used by the invariant auditor (rows in a table of the wrong
        encoding, tables an older build's crashed migration left).  Not
        abstract so minimal test doubles keep working; callers treat
        ``NotImplementedError`` as "cannot enumerate" and skip those
        checks.
        """
        raise NotImplementedError

    # -- transactions -----------------------------------------------------

    def begin(self) -> None:
        """Start a transaction (engine-specific)."""

    def commit_transaction(self) -> None:
        """Commit the current transaction (engine-specific)."""

    def rollback(self) -> None:
        """Roll the current transaction back (engine-specific)."""

    def in_transaction(self) -> bool:
        """Is the calling thread inside a :meth:`transaction` scope of
        its own?  Another thread's open transaction does not count."""
        depths = self._tx_depths
        return bool(depths) and threading.get_ident() in depths

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Atomic scope: commit on success, roll back on exception.

        Nested scopes flatten into the outermost transaction, so
        compound operations can freely call transactional helpers.
        Flattening is per-thread, on every backend and through every
        wrapper: a second thread opening a scope while another thread's
        transaction is live starts its own transaction (blocking in
        ``begin()`` on backends that serialize, like the lock-guarded
        sqlite connection) instead of silently joining one it does not
        own.
        """
        depths, ident = self._tx_depths, threading.get_ident()
        if ident in depths:
            depths[ident] += 1
            try:
                yield
            finally:
                depths[ident] -= 1
            return
        self.begin()
        depths[ident] = 1
        try:
            yield
        except BaseException as original:
            del depths[ident]
            try:
                self.rollback()
            except Exception as rollback_error:
                # The original exception is the root cause; a failed
                # rollback (e.g. the connection died) must not mask it.
                if hasattr(original, "add_note"):
                    original.add_note(
                        f"rollback also failed: {rollback_error!r}"
                    )
            raise
        else:
            del depths[ident]
            self.commit_transaction()

    def close(self) -> None:
        """Release resources (no-op by default)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
