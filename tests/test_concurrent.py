"""Tests for the backends' one writer lock: on a sqlite file, a
connection per statement serving N readers plus two writers, the
writer lock serializing their transactions; in memory (sqlite's one
connection, minidb's engine), every statement behind that lock."""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.backends.base import Backend
from repro.backends.minidb_backend import MiniDbBackend
from repro.backends.sqlite_backend import SqliteBackend
from repro.check import audit_store
from repro.errors import StorageError
from repro.store import XmlStore
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


# -- the writer lock of an in-memory engine ------------------------------

IN_MEMORY = {"sqlite": SqliteBackend, "minidb": MiniDbBackend}


@pytest.mark.parametrize("kind", sorted(IN_MEMORY))
def test_a_read_waits_for_the_open_transaction_and_sees_committed_rows(
    kind,
):
    """Another thread's read runs once the transaction has ended, and
    sees what it committed and nothing of what it rolled back."""
    backend = IN_MEMORY[kind]()
    backend.execute("CREATE TABLE t (x INTEGER)")
    backend.execute("INSERT INTO t VALUES (1)")
    seen = []

    def read_during(body):
        done = threading.Event()

        def read():
            seen.append(backend.execute("SELECT x FROM t ORDER BY x").rows)
            done.set()

        thread = threading.Thread(target=read)
        try:
            with backend.transaction():
                backend.execute("INSERT INTO t VALUES (2)")
                thread.start()
                assert not done.wait(0.2)  # it waits for the transaction
                body()
        finally:
            thread.join(10)
        assert not thread.is_alive()

    read_during(lambda: backend.execute("INSERT INTO t VALUES (3)"))
    assert seen == [[(1,), (2,), (3,)]]

    def fail():
        backend.execute("DELETE FROM t")
        raise KeyError("rolled back")

    with pytest.raises(KeyError):
        read_during(fail)
    assert seen == [[(1,), (2,), (3,)]] * 2
    backend.close()


@pytest.mark.parametrize("kind", sorted(IN_MEMORY))
def test_a_holder_re_enters_the_lock_past_a_queued_writer(kind):
    """A thread that holds the writer lock across two statements (a
    read snapshot) runs its second one while another thread's
    transaction waits for the lock: the lock is re-entrant and prefers
    no one, so the queued writer cannot deadlock the holder."""
    backend = IN_MEMORY[kind]()
    backend.execute("CREATE TABLE t (x INTEGER)")
    backend.execute("INSERT INTO t VALUES (1)")
    asking, begun = threading.Event(), threading.Event()

    def writer():
        asking.set()
        with backend.transaction():
            begun.set()
            backend.execute("INSERT INTO t VALUES (2)")

    def snapshot():
        with backend._writer:
            first = backend.execute("SELECT x FROM t").rows
            thread = threading.Thread(target=writer)
            thread.start()
            assert asking.wait(10)
            assert not begun.wait(0.2)  # queued behind this thread
            second = backend.execute("SELECT x FROM t").rows
        thread.join(10)
        assert not thread.is_alive()
        return first, second

    assert _run_in_thread(snapshot) == (([(1,)], [(1,)]), None)
    assert backend.execute("SELECT x FROM t ORDER BY x").rows == [
        (1,), (2,),
    ]
    backend.close()


# -- SqliteBackend on a file --------------------------------------------


class TestFileSqliteBackend:
    """A store on a file runs each statement on a connection of its
    own, a transaction on the one it began on."""

    def test_transactions_are_thread_local(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "p.db"))
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
        # bookkeeping, and reads outside a transaction do not wait for
        # it: they run on a connection of their own, before its insert.
        assert not backend.in_transaction()
        assert backend.execute("SELECT count(*) FROM t").rows == [(0,)]
        finish.set()
        worker.join(10)
        with backend.transaction():
            assert backend.in_transaction()
            rows = backend.execute("SELECT count(*) FROM t").rows
        assert rows == [(1,)]
        assert not backend.in_transaction()
        backend.close()

    def test_scope_depth_is_per_thread_through_a_wrapper_too(
        self, tmp_path
    ):
        """The crash harness wraps the file backend; the wrapper used
        to keep one scope depth for all threads, so another thread's
        scope closing left this one reading "not in a transaction"
        while its own was still open.  The other thread's scope now
        waits for this one's commit, and this one's depth is its own
        all along."""
        from repro.robust.faults import FaultInjectingBackend

        backend = FaultInjectingBackend(
            SqliteBackend(str(tmp_path / "w.db"))
        )
        # Uncached: the scopes here are the backend's own, which no
        # store commit invalidates after.
        store = XmlStore(backend=backend, encoding="dewey", cache=False)
        doc = store.load(BIB_XML)
        seen = {}
        asked = threading.Event()

        def other_thread_scope():
            seen["before"] = backend.in_transaction()
            seen["read"] = store.query("/bib/@k", doc)
            asked.set()
            with backend.transaction():
                seen["inside"] = store.query("/bib/@k", doc)[0].value

        with backend.transaction():
            store.updates.set_attribute(doc, 1, "k", "v")
            worker = threading.Thread(target=other_thread_scope)
            worker.start()
            assert asked.wait(10)
            assert seen == {"before": False, "read": []}  # uncommitted
            assert backend.in_transaction()
            assert store._in_own_transaction()
            with backend.transaction():  # joins, issues no second BEGIN
                store.updates.set_attribute(doc, 1, "k", "w")
            assert backend.in_transaction()
        worker.join(10)
        assert not worker.is_alive()
        assert seen["inside"] == "w"
        assert not backend.in_transaction()
        assert store.query("/bib/@k", doc)[0].value == "w"
        store.close()

    def test_every_way_out_of_a_transaction_lets_the_next_writer_in(
        self, tmp_path
    ):
        _every_way_out(SqliteBackend(str(tmp_path / "l.db")))

    def test_a_statement_outside_the_lock_cannot_fail_a_transaction(
        self, tmp_path
    ):
        """DDL and other statements outside a transaction take no writer
        lock.  One that committed between a transaction's first read and
        its first write used to fail that write with "database is
        locked"; BEGIN IMMEDIATE makes it wait for the COMMIT instead."""
        backend = SqliteBackend(str(tmp_path / "o.db"))
        backend.execute("CREATE TABLE t (x INTEGER)")
        outside_done = threading.Event()

        def outside():
            backend.execute("CREATE TABLE IF NOT EXISTS u (y INTEGER)")
            outside_done.set()

        with backend.transaction():
            backend.execute("SELECT count(*) FROM t")
            thread = threading.Thread(target=outside)
            thread.start()
            assert not outside_done.wait(0.3)  # it waits for us
            backend.execute("INSERT INTO t VALUES (1)")
        thread.join(10)
        assert outside_done.is_set()
        assert "u" in backend.list_tables()
        backend.close()

    def test_readers_finish_inside_an_open_write_transaction(
        self, tmp_path
    ):
        """A read on a file is a deferred BEGIN on a WAL connection of
        its own, so readers started inside an open write transaction —
        a Global front insert, the relabeling worst case — all finish
        before it commits, and see the document as it was."""
        store = XmlStore(
            SqliteBackend(str(tmp_path / "r.db")), "global", cache=False
        )
        doc = store.load(BIB_XML)
        before = [i.identity() for i in store.query("/bib/*", doc)]
        readers = 4
        done = [threading.Event() for _ in range(readers)]
        seen = []

        def read(slot):
            seen.append([i.identity() for i in store.query("/bib/*", doc)])
            done[slot].set()

        threads = [
            threading.Thread(target=read, args=(slot,), daemon=True)
            for slot in range(readers)
        ]

        def write():
            store.updates.insert(doc, 1, 0, make_fragment("w"))
            for thread in threads:
                thread.start()
            return all(event.wait(10) for event in done)

        assert store.transactionally(write), "a reader waited for the commit"
        for thread in threads:
            thread.join(10)
        assert seen == [before] * readers
        assert len(store.query("/bib/*", doc)) == len(before) + 1
        assert audit_store(store) == []
        store.close()

    def test_close_truncates_wal_and_is_idempotent(self, tmp_path):
        path = tmp_path / "p.db"
        backend = SqliteBackend(str(path))
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


def _every_way_out(backend):
    """COMMIT, ROLLBACK and a rollback with no connection or engine left
    to run it on (the crash harness's abandon) each release the writer
    lock: another thread's transaction begins afterwards, or, once the
    connections or the engine are gone, fails typed instead of
    hanging."""
    backend.execute("CREATE TABLE t (x INTEGER)")

    def other_writer():
        with backend.transaction():
            backend.execute("INSERT INTO t VALUES (2)")

    with backend.transaction():
        backend.execute("INSERT INTO t VALUES (1)")
    assert _run_in_thread(other_writer) == (None, None)
    with pytest.raises(KeyError):
        with backend.transaction():
            backend.execute("INSERT INTO t VALUES (3)")
            raise KeyError("rolled back")
    assert _run_in_thread(other_writer) == (None, None)
    assert backend.execute("SELECT x FROM t ORDER BY x").rows == [
        (1,), (2,), (2,),
    ]
    backend.begin()
    backend.abandon()
    with pytest.raises(StorageError, match="closed"):
        backend.rollback()
    _, error = _run_in_thread(backend.begin)
    assert isinstance(error, StorageError), error
    with pytest.raises(StorageError, match="closed"):
        backend.execute("SELECT x FROM t")


def test_every_way_out_of_an_in_memory_transaction_lets_the_next_writer_in():
    _every_way_out(SqliteBackend())


def test_every_way_out_of_a_minidb_transaction_lets_the_next_writer_in():
    _every_way_out(MiniDbBackend())


# -- N readers + 2 writers stress ---------------------------------------


def _stress(store, readers=3, reads=40, writers=2, writes=25):
    """*readers* reader and *writers* writer threads start together at a
    barrier.  Each reader runs *reads* pre-translated statements, so
    every backend sees the same statement stream; each writer makes
    *writes* inserts through ``store.updates``, with nothing but the
    backend serializing the writers' transactions."""
    doc = store.load(parse(BIB_XML))
    translated = [
        store.translate(query.xpath, doc)
        for query in ORDERED_QUERIES + UNORDERED_QUERIES
    ]
    statements = [(t.sql, tuple(t.params)) for t in translated]
    root = store.query("/*", doc)[0].node_id
    base = len(store.fetch_children(doc, root))

    def read(slot, step):
        sql, params = statements[(slot + step) % len(statements)]
        store.backend.execute(sql, params)

    def write(_slot, step):
        fragment = make_fragment("srv", payload_nodes=2)
        store.updates.insert(doc, root, base + step, fragment)

    plan = [(read, reads)] * readers + [(write, writes)] * writers
    barrier = threading.Barrier(len(plan), timeout=30)
    completed = [0] * len(plan)
    errors = []

    def drive(slot, operation, count):
        barrier.wait()
        try:
            for step in range(count):
                operation(slot, step)
                completed[slot] += 1
        except Exception as exc:
            errors.append(f"thread {slot}: {exc!r}")

    threads = [
        threading.Thread(target=drive, args=(slot, *work))
        for slot, work in enumerate(plan)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive(), "stress thread hung"
    assert errors == []
    assert completed == [reads] * readers + [writes] * writers
    assert len(store.fetch_children(doc, root)) == base + writers * writes
    assert audit_store(store) == []


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_stress_file_sqlite(tmp_path, encoding):
    backend = SqliteBackend(str(tmp_path / "stress.db"))
    store = XmlStore(backend=backend, encoding=encoding)
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
