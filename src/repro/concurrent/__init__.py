"""Concurrent serving: pooled connections and readers-writer latching.

The paper's premise is that ordered XML lives inside a *relational
database system* — a concurrent server.  This package turns the store
into one:

* :class:`~repro.concurrent.pool.ConnectionPool` — each worker thread
  runs statements on its own connection (WAL readers proceed during the
  write), used by
  :class:`~repro.backends.pooled_sqlite.PooledSqliteBackend`, whose
  writer lock admits one transaction at a time;
* :class:`~repro.concurrent.latch.RWLatch` — the minidb engine's
  readers-writer latch: snapshot reads run concurrently, the single
  writer exclusively.

Writers are serialized by the backend they write to, never by the
store.  See DESIGN.md, "Concurrency model", for the lock rule and the
serializability guarantee.
"""

from repro.concurrent.latch import RWLatch
from repro.concurrent.pool import ConnectionPool

__all__ = ["ConnectionPool", "RWLatch"]
