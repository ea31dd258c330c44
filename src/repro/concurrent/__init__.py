"""Concurrent serving: the readers-writer latch.

The paper's premise is that ordered XML lives inside a *relational
database system* — a concurrent server.  Each backend serializes its
own transactions: :class:`~repro.backends.sqlite_backend.SqliteBackend`
with a writer lock (on a file its readers run on connections of their
own, in parallel with the writer), minidb with
:class:`~repro.concurrent.latch.RWLatch` — snapshot reads run
concurrently, the single writer exclusively.

Writers are serialized by the backend they write to, never by the
store.  See DESIGN.md, "Concurrency model", for the lock rule and the
serializability guarantee.
"""

from repro.concurrent.latch import RWLatch

__all__ = ["RWLatch"]
