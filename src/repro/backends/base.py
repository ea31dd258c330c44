"""Backend protocol: one SQL dialect, two engines.

Both backends accept the same SQL text with ``?`` placeholders and expose
the Dewey/ORDPATH scalar functions, so every translation and benchmark
runs unchanged on either engine.  Both support atomic transactions via
:meth:`Backend.transaction` — sqlite natively, minidb through an undo
journal — which the update manager wraps around every multi-statement
operation, and a read scope, :meth:`Backend.snapshot`, which the store
opens around every read of several statements.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import StorageError


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
        #: Thread ident -> whether that thread's open :meth:`snapshot`
        #: reads beside writers; no entry outside one.
        backend._snapshots = {}
        #: The backend's one writer lock: held from BEGIN to
        #: COMMIT/ROLLBACK by the thread whose transaction is open, and
        #: by an in-memory engine around every statement too.  An
        #: RLock: the owning thread's own statements re-enter it, and a
        #: release from a thread that never took it raises instead of
        #: admitting a second writer.
        backend._writer = threading.RLock()
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
        # (ROADMAP, "`[benchmark]` re-base", lists it for deletion).
        return self.execute(sql, params)

    @abstractmethod
    def rows_written(self) -> int:
        """Total rows written (inserted/updated/deleted) so far.

        The updates module reports renumbering cost in this unit, which
        is engine-independent, alongside wall-clock time.
        """

    def analyze(self, tables: Sequence[str]) -> None:
        """Refresh the optimizer statistics of *tables*, which a bulk
        writer grew, as far as they went stale (no-op by default:
        minidb keeps none; the sqlite backend re-measures a table once
        it has doubled)."""

    def list_tables(self) -> list[str]:
        """Names of all user tables currently in the database.

        Used by the invariant auditor (rows in a table of the wrong
        encoding).  Not abstract so minimal test doubles keep working;
        callers treat
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
        ``begin()`` until that one has ended: every backend serializes
        its transactions) instead of silently joining one it does not
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
        if ident in self._snapshots:
            raise StorageError(
                "a transaction cannot begin inside a read snapshot"
            )
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

    def snapshot(self) -> "ReadScope":
        """Read scope: the calling thread's statements inside it read
        one committed state.  It joins the thread's transaction or an
        outer scope; a transaction begun inside it is a
        :class:`StorageError`."""
        return ReadScope(self)

    def reads_beside_writers(self) -> bool:
        """Is the calling thread inside a read scope that writers may
        commit beside (a sqlite file), not one that excludes them?"""
        return bool(self._snapshots.get(threading.get_ident()))

    def begin_snapshot(self) -> bool:
        """Open a read scope; returns whether writers commit beside it.
        By default: take the writer lock, so that none does."""
        self._writer.acquire()
        return False

    def end_snapshot(self) -> None:
        self._writer.release()

    def close(self) -> None:
        """Release resources (no-op by default)."""

    def abandon(self) -> None:
        """Process-death simulation for the fault injector: drop the
        engine's state at once, committing and rolling back nothing
        (no-op by default)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ReadScope:
    """:meth:`Backend.snapshot`: a class, not a generator, because every
    uncached read enters one."""

    __slots__ = ("backend", "opened")

    def __init__(self, backend: Backend) -> None:
        self.backend, self.opened = backend, False

    def __enter__(self) -> None:
        backend, ident = self.backend, threading.get_ident()
        if ident not in backend._tx_depths and ident not in backend._snapshots:
            backend._snapshots[ident] = backend.begin_snapshot()
            self.opened = True

    def __exit__(self, *exc_info: object) -> None:
        if self.opened:
            del self.backend._snapshots[threading.get_ident()]
            self.backend.end_snapshot()
