"""Tests for repro.concurrent: latch, pool, write queue, and the
pooled backend serving N readers plus one writer."""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.backends.base import Backend
from repro.backends.pooled_sqlite import PooledSqliteBackend
from repro.backends.sqlite_backend import SqliteBackend
from repro.check import audit_store
from repro.concurrent import ConnectionPool, RWLatch
from repro.errors import (
    ConcurrencyError,
    PoolExhaustedError,
    StorageError,
    WriteQueueClosedError,
)
from repro.robust.retry import RetryPolicy
from repro.store import XmlStore
from repro.workload.mixer import ConcurrentWorkload
from repro.workload.queries import ORDERED_QUERIES, UNORDERED_QUERIES
from repro.workload.update_ops import make_fragment
from repro.xmldom import parse

from .conftest import ALL_ENCODINGS, BIB_XML


def _run_in_thread(target):
    """Run *target* in a thread; return (result, exception)."""
    box = {}

    def wrapper():
        try:
            box["result"] = target()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=wrapper)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), "worker thread hung"
    return box.get("result"), box.get("error")


# -- RWLatch -------------------------------------------------------------


class TestRWLatch:
    def test_readers_share(self):
        latch = RWLatch()
        barrier = threading.Barrier(2, timeout=5)
        seen = []

        def reader():
            with latch.read():
                barrier.wait()  # both inside simultaneously
                seen.append(latch.active_readers)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert max(seen) == 2

    def test_writer_excludes_readers(self):
        latch = RWLatch()
        writer_in = threading.Event()
        release_writer = threading.Event()
        order = []

        def writer():
            with latch.write():
                writer_in.set()
                release_writer.wait(10)
                order.append("writer-out")

        def reader():
            writer_in.wait(10)
            with latch.read():
                order.append("reader-in")

        wt = threading.Thread(target=writer)
        rt = threading.Thread(target=reader)
        wt.start()
        rt.start()
        writer_in.wait(10)
        time.sleep(0.05)  # give the reader time to block (it must not)
        assert "reader-in" not in order
        release_writer.set()
        wt.join(10)
        rt.join(10)
        assert order == ["writer-out", "reader-in"]

    def test_writer_reentrant(self):
        latch = RWLatch()
        with latch.write():
            with latch.write():  # exclusive re-entry
                with latch.read():  # read under own exclusive hold
                    assert latch.held_exclusively_by_me()
        assert not latch.held_exclusively_by_me()

    def test_release_write_by_non_owner_raises(self):
        latch = RWLatch()
        with latch.write():
            _, error = _run_in_thread(latch.release_write)
            assert isinstance(error, RuntimeError)


# -- ConnectionPool ------------------------------------------------------


class _FakeConn:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestConnectionPool:
    def test_checkin_reuses_connection(self):
        pool = ConnectionPool(_FakeConn, capacity=4)
        with pool.connection() as first:
            pass
        with pool.connection() as second:
            assert second is first
        assert pool.created == 1
        assert pool.reused == 1

    def test_exhaustion_raises_after_timeout(self):
        pool = ConnectionPool(
            _FakeConn, capacity=1, acquire_timeout=0.05
        )
        pool.pin()  # the only connection, pinned to this thread
        _, error = _run_in_thread(pool.pin)
        assert isinstance(error, PoolExhaustedError)
        pool.unpin()
        # After unpinning the next checkout succeeds again.
        with pool.connection():
            pass

    def test_pinned_connection_serves_scoped_checkouts(self):
        pool = ConnectionPool(_FakeConn, capacity=2)
        pinned = pool.pin()
        with pool.connection() as conn:
            assert conn is pinned
        pool.unpin()

    def test_double_pin_raises(self):
        pool = ConnectionPool(_FakeConn, capacity=2)
        pool.pin()
        with pytest.raises(ConcurrencyError):
            pool.pin()
        pool.unpin()

    def test_close_drains_idle_connections(self):
        pool = ConnectionPool(_FakeConn, capacity=2)
        with pool.connection() as conn:
            pass
        pool.close()
        assert conn.closed
        with pytest.raises(ConcurrencyError):
            with pool.connection():
                pass  # pragma: no cover

    def test_checkin_after_close_closes_connection(self):
        pool = ConnectionPool(_FakeConn, capacity=2)
        conn = pool.pin()
        pool.close()
        pool.unpin()
        assert conn.closed


# -- PooledSqliteBackend -------------------------------------------------


class TestPooledSqliteBackend:
    def test_memory_path_rejected(self):
        with pytest.raises(StorageError):
            PooledSqliteBackend(":memory:")

    def test_transactions_are_thread_local(self, tmp_path):
        backend = PooledSqliteBackend(str(tmp_path / "p.db"))
        backend.execute("CREATE TABLE t (x INTEGER)")
        in_tx = threading.Event()
        finish = threading.Event()

        def open_transaction():
            with backend.transaction():
                backend.execute("INSERT INTO t VALUES (1)")
                in_tx.set()
                finish.wait(10)

        worker = threading.Thread(target=open_transaction)
        worker.start()
        assert in_tx.wait(10)
        # The worker's open transaction is invisible to this thread's
        # bookkeeping: we are at depth 0 and can run our own scope.
        assert not backend.in_transaction()
        with backend.transaction():
            assert backend.in_transaction()
            backend.execute("SELECT count(*) FROM t")
        finish.set()
        worker.join(10)
        rows = backend.execute("SELECT count(*) FROM t").rows
        assert rows[0][0] == 1
        backend.close()

    def test_scope_depth_is_per_thread_through_a_wrapper_too(
        self, tmp_path
    ):
        """The crash harness wraps the pooled backend; the wrapper used
        to keep one scope depth for all threads, so another thread's
        scope closing left this one reading "not in a transaction"
        while its own was still open."""
        from repro.robust.faults import FaultInjectingBackend

        backend = FaultInjectingBackend(
            PooledSqliteBackend(str(tmp_path / "w.db"))
        )
        store = XmlStore(backend=backend, encoding="dewey")
        doc = store.load(BIB_XML)
        seen = {}

        def other_thread_scope():
            seen["before"] = backend.in_transaction()
            with backend.transaction():
                store.query("//title", doc)

        with backend.transaction():
            store.updates.set_attribute(doc, 1, "k", "v")
            worker = threading.Thread(target=other_thread_scope)
            worker.start()
            worker.join(10)
            assert not worker.is_alive()
            assert seen == {"before": False}
            assert backend.in_transaction()
            assert store._in_own_transaction()
            with backend.transaction():  # joins, issues no second BEGIN
                store.updates.set_attribute(doc, 1, "k", "w")
        assert not backend.in_transaction()
        assert store.query("/bib/@k", doc)[0].value == "w"
        store.close()

    def test_close_truncates_wal_and_is_idempotent(self, tmp_path):
        path = tmp_path / "p.db"
        backend = PooledSqliteBackend(str(path))
        backend.execute("CREATE TABLE t (x INTEGER)")
        backend.execute("INSERT INTO t VALUES (1)")
        backend.close()
        wal = Path(str(path) + "-wal")
        assert not wal.exists() or wal.stat().st_size == 0
        backend.close()  # second close is a no-op


def test_sqlite_close_truncates_wal_and_is_idempotent(tmp_path):
    path = tmp_path / "s.db"
    backend = SqliteBackend(str(path))
    backend.execute("CREATE TABLE t (x INTEGER)")
    backend.execute("INSERT INTO t VALUES (1)")
    backend.close()
    wal = Path(str(path) + "-wal")
    assert not wal.exists() or wal.stat().st_size == 0
    backend.close()  # second close is a no-op


# -- WriteQueue ----------------------------------------------------------


def _pooled_bib_store(tmp_path, encoding="global"):
    backend = PooledSqliteBackend(str(tmp_path / "wq.db"))
    store = XmlStore(backend=backend, encoding=encoding)
    doc = store.load(parse(BIB_XML))
    root = [
        row for row in store.fetch_children(doc, 0)
        if row["kind"] == "elem"
    ][0]["id"]
    return store, doc, root


class TestWriteQueue:
    def test_staged_batch_is_one_group_commit(self, tmp_path):
        store, doc, root = _pooled_bib_store(tmp_path)
        base = len(store.fetch_children(doc, root))
        queue = store.enable_write_queue(max_batch=8, autostart=False)
        futures = [
            queue.submit(
                lambda i=i: store.updates.insert(
                    doc, root, base + i, make_fragment("gc")
                )
            )
            for i in range(3)
        ]
        queue.start()
        for future in futures:
            future.result(timeout=30)
        assert queue.batches == 1
        assert queue.operations == 3
        assert queue.grouped_operations == 3
        assert len(store.fetch_children(doc, root)) == base + 3
        store.close()

    def test_failing_operation_is_isolated(self, tmp_path):
        store, doc, root = _pooled_bib_store(tmp_path)
        base = len(store.fetch_children(doc, root))
        queue = store.enable_write_queue(max_batch=8, autostart=False)

        def bad():
            raise ValueError("poisoned operation")

        good_before = queue.submit(
            lambda: store.updates.insert(
                doc, root, base, make_fragment("ok")
            )
        )
        poisoned = queue.submit(bad)
        good_after = queue.submit(
            lambda: store.updates.insert(
                doc, root, base + 1, make_fragment("ok")
            )
        )
        queue.start()
        good_before.result(timeout=30)
        good_after.result(timeout=30)
        with pytest.raises(ValueError):
            poisoned.result(timeout=30)
        # The batch rolled back and replayed individually: both good
        # inserts landed, the store audits clean.
        assert len(store.fetch_children(doc, root)) == base + 2
        assert audit_store(store) == []
        store.close()

    def test_closed_queue_rejects_submissions(self, tmp_path):
        store, doc, root = _pooled_bib_store(tmp_path)
        queue = store.enable_write_queue()
        queue.close()
        with pytest.raises(WriteQueueClosedError):
            queue.submit(lambda: None)
        # The store falls back to running updates on the caller.
        store.updates.insert(
            doc, root, len(store.fetch_children(doc, root)),
            make_fragment("direct"),
        )
        store.close()


# -- RetryPolicy jitter --------------------------------------------------


class TestRetryJitter:
    def test_seeded_backoff_is_reproducible(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        delays_a = [a.backoff_delay(n) for n in range(1, 6)]
        delays_b = [b.backoff_delay(n) for n in range(1, 6)]
        assert delays_a == delays_b
        c = RetryPolicy(seed=43)
        assert [c.backoff_delay(n) for n in range(1, 6)] != delays_a

    def test_injected_rng_is_honored(self):
        policy = RetryPolicy(rng=random.Random(7))
        reference = random.Random(7)
        base = min(
            policy.base_delay * policy.multiplier ** 2,
            policy.max_delay,
        )
        expected = base * (1.0 - policy.jitter * reference.random())
        assert policy.backoff_delay(3) == pytest.approx(expected)


# -- N readers + 1 writer stress ----------------------------------------


def _stress(store, seconds=0.15, readers=3):
    doc = store.load(parse(BIB_XML))
    workload = ConcurrentWorkload(
        store, doc, ORDERED_QUERIES + UNORDERED_QUERIES, seed=11
    )
    result = workload.run(readers, seconds, writer=True)
    assert result.read_errors == []
    assert result.write_error is None
    assert result.read_operations > 0
    assert audit_store(store) == []


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_stress_pooled_sqlite_with_write_queue(tmp_path, encoding):
    backend = PooledSqliteBackend(str(tmp_path / "stress.db"))
    store = XmlStore(backend=backend, encoding=encoding)
    store.enable_write_queue()
    try:
        _stress(store)
    finally:
        store.close()


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_stress_serialized_sqlite(encoding):
    store = XmlStore(backend="sqlite", encoding=encoding)
    try:
        _stress(store)
    finally:
        store.close()


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_stress_minidb(encoding):
    store = XmlStore(backend="minidb", encoding=encoding)
    try:
        _stress(store)
    finally:
        store.close()


def test_stress_scope_depth_is_kept_per_thread():
    """More threads than cores nesting scopes on one backend under a
    shortened switch interval: each thread reads its own depth only,
    and every outermost scope is exactly one begin and one commit or
    rollback — a depth lost to another thread would break both."""

    class CountingBackend(Backend):
        name = "counting"

        def __init__(self):
            self.calls = Counter()
            self.lock = threading.Lock()

        def _count(self, call):
            with self.lock:
                self.calls[call] += 1

        def begin(self):
            self._count("begin")

        def commit_transaction(self):
            self._count("commit")

        def rollback(self):
            self._count("rollback")

        execute = executemany = rows_written = None

    backend = CountingBackend()
    workers, rounds = 4 * (os.cpu_count() or 2), 300
    failures = []

    def nest(round_number):
        assert not backend.in_transaction()
        with backend.transaction():
            assert backend.in_transaction()
            with backend.transaction():
                assert backend.in_transaction()
                if round_number % 5 == 0:
                    raise KeyError(round_number)
            assert backend.in_transaction()

    def work():
        try:
            for round_number in range(rounds):
                try:
                    nest(round_number)
                except KeyError:
                    assert round_number % 5 == 0
                assert not backend.in_transaction()
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive(), "worker thread hung"
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert backend.calls == {
        "begin": workers * rounds,
        "commit": workers * rounds * 4 // 5,
        "rollback": workers * rounds // 5,
    }
    assert not backend._tx_depths


# -- writer crash mid-batch ---------------------------------------------


@pytest.mark.skip_audit  # crashed stores can't be audited at teardown
def test_writer_crash_mid_batch_recovers_to_pre_batch_state():
    from repro.robust.crashtest import (
        CrashTestConfig,
        run_writer_crashtest,
    )

    report = run_writer_crashtest(
        CrashTestConfig(seeds=1, encodings=("global",), crashes_per_op=2),
        batches=1, batch_size=3,
    )
    assert report.ok(), [str(f) for f in report.failures]
    assert report.writer_batches == 1
    assert report.crashes >= 1
    assert report.recoveries == report.crashes
