"""Transaction tests: atomicity on both engines, plus failure injection
showing that a crashed multi-statement update leaves no partial state."""

import threading

import pytest

from repro.backends import make_backend
from repro.errors import ExecutionError
from repro.minidb import MiniDb
from repro.store import XmlStore
from tests.conftest import BACKENDS


@pytest.mark.parametrize("name", BACKENDS)
class TestBackendTransactions:
    def _backend(self, name):
        backend = make_backend(name)
        backend.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        backend.execute("INSERT INTO t VALUES (?, ?)", (1, "keep"))
        return backend

    def test_commit_keeps_changes(self, name):
        backend = self._backend(name)
        with backend.transaction():
            backend.execute("INSERT INTO t VALUES (?, ?)", (2, "new"))
        rows = backend.execute("SELECT COUNT(*) FROM t").rows
        assert rows == [(2,)]

    def test_rollback_on_exception(self, name):
        backend = self._backend(name)
        with pytest.raises(RuntimeError):
            with backend.transaction():
                backend.execute("INSERT INTO t VALUES (?, ?)", (2, "x"))
                backend.execute("UPDATE t SET b = 'mod' WHERE a = 1")
                backend.execute("DELETE FROM t WHERE a = 1")
                raise RuntimeError("boom")
        rows = backend.execute("SELECT a, b FROM t ORDER BY a").rows
        assert rows == [(1, "keep")]

    def test_nested_scopes_flatten(self, name):
        backend = self._backend(name)
        with pytest.raises(RuntimeError):
            with backend.transaction():
                backend.execute("INSERT INTO t VALUES (?, ?)", (2, "o"))
                with backend.transaction():
                    backend.execute(
                        "INSERT INTO t VALUES (?, ?)", (3, "i")
                    )
                raise RuntimeError("outer fails after inner commits")
        # The inner scope's work rolls back with the outer transaction.
        assert backend.execute("SELECT COUNT(*) FROM t").rows == [(1,)]

    def test_sequential_transactions(self, name):
        backend = self._backend(name)
        with backend.transaction():
            backend.execute("INSERT INTO t VALUES (?, ?)", (2, "x"))
        with backend.transaction():
            backend.execute("INSERT INTO t VALUES (?, ?)", (3, "y"))
        assert backend.execute("SELECT COUNT(*) FROM t").rows == [(3,)]


class TestMiniDbJournal:
    def test_rollback_restores_indexes(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        db.execute("CREATE INDEX ix_t_k ON t (k)")
        db.execute("INSERT INTO t VALUES (?, ?)", (1, "a"))
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE k = 1")
        db.execute("INSERT INTO t VALUES (?, ?)", (2, "b"))
        db.execute("UPDATE t SET k = 9 WHERE k = 2")
        db.execute("ROLLBACK")
        # Index lookups must see the restored world exactly.
        assert db.execute("SELECT v FROM t WHERE k = 1").rows == [("a",)]
        assert db.execute("SELECT v FROM t WHERE k = 2").rows == []
        assert db.execute("SELECT v FROM t WHERE k = 9").rows == []

    def test_commit_clears_journal(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (k INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("COMMIT")
        assert not db.in_transaction
        assert db.row_count("t") == 1

    def test_double_begin_rejected(self):
        db = MiniDb()
        db.execute("BEGIN")
        with pytest.raises(ExecutionError):
            db.begin()

    def test_commit_without_begin_rejected(self):
        db = MiniDb()
        with pytest.raises(ExecutionError):
            db.execute("COMMIT")
        with pytest.raises(ExecutionError):
            db.execute("ROLLBACK")

    def test_ddl_inside_transaction_rejected(self):
        db = MiniDb()
        db.execute("BEGIN")
        with pytest.raises(ExecutionError):
            db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("ROLLBACK")

    def test_unique_violation_inside_transaction(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (k INTEGER)")
        db.execute("CREATE UNIQUE INDEX ux ON t (k)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")
        db.execute("ROLLBACK")
        assert db.row_count("t") == 1


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("encoding", ("global", "dewey"))
class TestFailureInjection:
    """A multi-statement ordered insert that dies midway must leave the
    store exactly as it was — renumbering and all."""

    def _snapshot(self, store, doc):
        rows = store.backend.execute(
            f"SELECT * FROM {store.node_table} WHERE doc = ?", (doc,)
        ).rows
        return sorted(rows, key=repr)

    def test_crash_during_insert_rolls_back(
        self, backend_name, encoding, monkeypatch
    ):
        store = XmlStore(backend=backend_name, encoding=encoding)
        doc = store.load(
            "<list>" + "<i><v>x</v></i>" * 6 + "</list>"
        )
        root = store.query("/list", doc)[0].node_id
        before = self._snapshot(store, doc)
        info_before = store.document_info(doc)

        # Crash after the renumbering UPDATEs, before the new rows land.
        original = store.updates._insert_rows

        def exploding_insert_rows(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(
            store.updates, "_insert_rows", exploding_insert_rows
        )
        with pytest.raises(RuntimeError):
            store.updates.insert(doc, root, 0, "<i n='new'/>")
        monkeypatch.setattr(store.updates, "_insert_rows", original)

        # Everything — positions, keys, catalogue — is untouched.
        assert self._snapshot(store, doc) == before
        assert store.document_info(doc) == info_before
        # And the store still works normally afterwards.
        report = store.updates.insert(doc, root, 0, "<i n='new'/>")
        assert report.inserted == 1
        assert store.query_values("/list/i[1]/@n", doc) == ["new"]


@pytest.mark.parametrize("name", BACKENDS)
class TestRollbackFailurePropagation:
    """The original error must survive a rollback that itself raises."""

    def test_original_exception_not_masked(self, name):
        backend = make_backend(name)
        backend.execute("CREATE TABLE t (a INTEGER)")

        def exploding_rollback():
            raise ExecutionError("rollback exploded too")

        backend.rollback = exploding_rollback
        with pytest.raises(RuntimeError, match="boom") as excinfo:
            with backend.transaction():
                backend.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("boom")
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("rollback also failed" in note for note in notes)
        # The scope bookkeeping is reset, so the backend is not stuck
        # in a phantom open transaction.
        assert not backend.in_transaction()


class TestConcurrentSqliteInserts:
    """Two threads updating one lock-guarded sqlite connection."""

    INSERTS_PER_THREAD = 12

    def test_interleaved_inserts_commit_atomically(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load("<root><a/><b/></root>")
        # Preorder surrogate ids: root=1, <a>=2, <b>=3.
        parents = {0: 2, 1: 3}
        barrier = threading.Barrier(2)
        errors = []

        def worker(slot):
            try:
                barrier.wait(timeout=10)
                for n in range(self.INSERTS_PER_THREAD):
                    store.updates.insert(
                        doc, parents[slot], 0, f"<x n='{slot}.{n}'/>"
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in parents
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        # Every insert from both threads committed, under its parent.
        for slot, parent in parents.items():
            children = store.fetch_children(doc, parent)
            assert len(children) == self.INSERTS_PER_THREAD
        assert store.node_count(doc) == 3 + 2 * self.INSERTS_PER_THREAD
        # The autouse audit fixture re-checks every invariant on exit.
