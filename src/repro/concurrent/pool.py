"""A bounded connection pool for per-thread database connections.

The pool hands out connections produced by a caller-supplied factory
(which is where sqlite pragmas, the busy timeout, and the Dewey/ORDPATH
scalar functions are configured — every pooled connection is
interchangeable).  Two checkout modes exist:

* :meth:`connection` — a per-statement scoped checkout: take an idle
  connection (or create one, up to ``capacity``), run one statement,
  return it.  Under load each thread effectively keeps reusing the same
  connection without ever pinning it.
* :meth:`pin` / :meth:`unpin` — a transaction pins one connection to
  the calling thread from BEGIN to COMMIT/ROLLBACK, so every statement
  of the transaction runs on the same connection; :meth:`connection`
  calls from the pinning thread return the pinned connection.

When every connection is checked out, further checkouts block up to
``acquire_timeout`` seconds and then raise
:class:`~repro.errors.PoolExhaustedError`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

from repro.errors import ConcurrencyError, PoolExhaustedError
from repro.obs import METRICS

C = TypeVar("C")


class ConnectionPool(Generic[C]):
    """A bounded pool of connections created by *factory*."""

    def __init__(
        self,
        factory: Callable[[], C],
        capacity: int = 8,
        acquire_timeout: float = 30.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._factory = factory
        self.capacity = capacity
        self.acquire_timeout = acquire_timeout
        self._cond = threading.Condition()
        self._idle: list[C] = []
        self._all: list[C] = []
        self._pinned: dict[int, C] = {}
        self._total = 0
        self._closed = False

    # -- checkout / checkin ------------------------------------------------

    def _checkout(self) -> C:
        deadline: Optional[float] = None
        wait_started: Optional[float] = None
        with self._cond:
            while True:
                if self._closed:
                    raise ConcurrencyError("connection pool is closed")
                if self._idle:
                    METRICS.inc("pool.reused")
                    self._note_wait(wait_started)
                    return self._idle.pop()
                if self._total < self.capacity:
                    self._total += 1
                    self._note_wait(wait_started)
                    break
                if deadline is None:
                    deadline = (
                        threading.TIMEOUT_MAX
                        if self.acquire_timeout is None
                        else _now() + self.acquire_timeout
                    )
                if wait_started is None:
                    wait_started = _now()
                remaining = deadline - _now()
                if remaining <= 0 or not self._cond.wait(remaining):
                    METRICS.inc("pool.exhausted")
                    raise PoolExhaustedError(
                        "no connection free after "
                        f"{self.acquire_timeout}s (capacity "
                        f"{self.capacity}, all checked out)"
                    )
        try:
            connection = self._factory()
        except BaseException:
            with self._cond:
                self._total -= 1
                self._cond.notify()
            raise
        with self._cond:
            self._all.append(connection)
        METRICS.inc("pool.created")
        return connection

    @staticmethod
    def _note_wait(wait_started: Optional[float]) -> None:
        """Record that a checkout had to block before succeeding."""
        if wait_started is not None:
            METRICS.inc("pool.waits")
            METRICS.observe("pool.wait_seconds", _now() - wait_started)

    def _checkin(self, connection: C) -> None:
        with self._cond:
            if self._closed:
                self._discard(connection)
                return
            self._idle.append(connection)
            self._cond.notify()

    def _discard(self, connection: C) -> None:
        # Caller holds self._cond.
        self._total -= 1
        if connection in self._all:
            self._all.remove(connection)
        _close(connection)
        self._cond.notify()

    # -- public API --------------------------------------------------------

    @contextmanager
    def connection(self) -> Iterator[C]:
        """Scoped checkout; the pinning thread gets its pinned one."""
        pinned = self._pinned.get(threading.get_ident())
        if pinned is not None:
            yield pinned
            return
        connection = self._checkout()
        try:
            yield connection
        finally:
            self._checkin(connection)

    def pin(self) -> C:
        """Pin a connection to the calling thread (transaction start)."""
        ident = threading.get_ident()
        if ident in self._pinned:
            raise ConcurrencyError(
                "thread already has a pinned connection"
            )
        connection = self._checkout()
        self._pinned[ident] = connection
        return connection

    def pinned(self) -> Optional[C]:
        """The calling thread's pinned connection, if any."""
        return self._pinned.get(threading.get_ident())

    def unpin(self) -> None:
        """Release the calling thread's pinned connection to the pool."""
        connection = self._pinned.pop(threading.get_ident(), None)
        if connection is not None:
            self._checkin(connection)

    @property
    def size(self) -> int:
        """Connections currently alive (idle + checked out)."""
        with self._cond:
            return self._total

    @property
    def idle(self) -> int:
        with self._cond:
            return len(self._idle)

    def close(self) -> None:
        """Drain and close every idle connection; later checkins close
        their connection too, and further checkouts fail."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            for connection in idle:
                self._total -= 1
                if connection in self._all:
                    self._all.remove(connection)
            self._cond.notify_all()
        for connection in idle:
            _close(connection)

    def abandon(self) -> None:
        """Abruptly close *every* connection, pinned or checked out —
        the process-death simulation used by the fault injector."""
        with self._cond:
            self._closed = True
            all_connections, self._all = self._all, []
            self._idle = []
            self._pinned = {}
            self._total = 0
            self._cond.notify_all()
        for connection in all_connections:
            _close(connection)


def _close(connection) -> None:
    try:
        connection.close()
    except Exception:
        pass


def _now() -> float:
    import time

    return time.monotonic()
