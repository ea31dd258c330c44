"""The check subsystem: invariant auditor, fuzzer plumbing, bug fixes.

Covers the three bugs fixed alongside the subsystem (text-only insert
fragments, schema errors silently swallowed, sqlite's thread-bound
connection) plus fault-injection tests proving the auditor detects each
class of corruption it claims to.
"""

from __future__ import annotations

import threading

import pytest

from tests.conftest import ALL_ENCODINGS, BACKENDS, BIB_XML
from repro.backends import make_backend
from repro.backends.base import Backend, BackendResult
from repro.backends.minidb_backend import MiniDbBackend
from repro.backends.sqlite_backend import SqliteBackend
from repro.check import (
    FuzzConfig,
    assert_store_clean,
    audit_document,
    audit_store,
    run_fuzz,
)
from repro.cli import main
from repro.core.encodings import get_encoding
from repro.core.schema import documents_table, index_tables
from repro.errors import StorageError, UpdateError, XmlSyntaxError
from repro.store import XmlStore
from repro.xmldom import parse_fragment, serialize
from repro.xmldom.dom import Comment, Element, ProcessingInstruction, Text


# -- bug 1: parse_fragment on non-element fragments ----------------------


class TestFragmentParsing:
    def test_element_fragment(self):
        element = parse_fragment("<x a='1'><y/></x>")
        assert isinstance(element, Element)
        assert element.tag == "x"
        assert element.parent is None

    def test_text_only_fragment(self):
        node = parse_fragment("plain text")
        assert isinstance(node, Text)
        assert node.content == "plain text"

    def test_text_fragment_preserves_whitespace_and_entities(self):
        node = parse_fragment("  a &amp; b  ")
        assert isinstance(node, Text)
        assert node.content == "  a & b  "

    def test_comment_fragment(self):
        node = parse_fragment("<!-- note -->")
        assert isinstance(node, Comment)
        assert node.content == " note "

    def test_pi_fragment(self):
        node = parse_fragment("<?target data?>")
        assert isinstance(node, ProcessingInstruction)
        assert node.target == "target"

    def test_empty_fragment_rejected(self):
        with pytest.raises(XmlSyntaxError, match="empty fragment"):
            parse_fragment("   ")

    def test_multi_rooted_fragment_rejected(self):
        with pytest.raises(XmlSyntaxError, match="2 top-level nodes"):
            parse_fragment("<a/><b/>")

    def test_mixed_multi_root_message_names_shapes(self):
        with pytest.raises(XmlSyntaxError, match="one at a time"):
            parse_fragment("text<a/>")

    def test_document_parse_still_rejects_top_level_text(self):
        from repro.xmldom import parse

        with pytest.raises(XmlSyntaxError, match="outside the root"):
            parse("<a/>trailing")

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_text_fragment_string(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load("<r><a>one</a></r>")
        report = store.updates.insert(doc, 2, 1, " two")
        assert report.inserted == 1
        assert store.query_values("/r/a/text()", doc) == ["one", " two"]
        # The direct-text cache on <a> must have been refreshed too.
        assert store.query_values("/r/a", doc) == ["one two"]

    def test_insert_multi_rooted_string_raises_update_error(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load("<r/>")
        with pytest.raises(UpdateError, match="cannot parse insert"):
            store.updates.insert(doc, 1, 0, "<a/><b/>")

    def test_cli_insert_text_fragment(self, tmp_path, capsys):
        db = str(tmp_path / "t.db")
        xml = tmp_path / "d.xml"
        xml.write_text("<r><a>hi</a></r>")
        assert main(["load", str(xml), "--db", db]) == 0
        assert main(
            ["insert", "bye", "--db", db, "--parent", "/r/a"]
        ) == 0
        assert main(["check", "--db", db]) == 0


# -- bug 2: schema bootstrap must not swallow real DDL errors ------------


class _FailingDDLBackend(Backend):
    """Backend whose CREATE statements always fail (e.g. no permission)."""

    name = "failing-ddl"

    def execute(self, sql, params=()):
        if sql.lstrip().upper().startswith("CREATE"):
            raise RuntimeError("disk I/O error")
        return BackendResult(rows=[], rowcount=0)

    def executemany(self, sql, seq_of_params):
        return BackendResult(rows=[], rowcount=0)

    def rows_written(self):
        return 0

    def begin(self):
        pass

    def commit_transaction(self):
        pass

    def rollback(self):
        pass


class TestSchemaBootstrap:
    def test_ddl_failure_surfaces_as_storage_error(self):
        with pytest.raises(StorageError, match="disk I/O error"):
            XmlStore(backend=_FailingDDLBackend(), encoding="dewey")

    def test_sqlite_backend_reuse_is_fine(self):
        backend = SqliteBackend(None)
        first = XmlStore(backend=backend, encoding="global")
        doc = first.load(BIB_XML)
        second = XmlStore(backend=backend, encoding="global")
        assert second.document_info(doc).node_count > 0

    def test_minidb_backend_reuse_is_fine(self):
        backend = MiniDbBackend()
        first = XmlStore(backend=backend, encoding="local")
        doc = first.load(BIB_XML)
        second = XmlStore(backend=backend, encoding="local")
        assert second.document_info(doc).node_count > 0

    def test_bootstrap_is_guarded_and_runs_twice(self):
        """Every bootstrap statement carries IF NOT EXISTS, and a bare
        backend — no store around it to tolerate an error — runs the
        whole set twice."""
        tables = [documents_table(), *index_tables()]
        for name in ALL_ENCODINGS:
            encoding = get_encoding(name)
            tables += [encoding.node_table, encoding.attr_table]
        statements = [s for t in tables for s in t.create_statements()]
        assert len(statements) == 45
        assert all(" IF NOT EXISTS " in s for s in statements)
        for name in BACKENDS:
            backend = make_backend(name)
            for statement in statements * 2:
                backend.execute(statement)
            assert len(backend.list_tables()) == len(tables)


# -- bug 3: sqlite connection shared across threads ----------------------


class TestSqliteThreading:
    def test_queries_from_worker_thread(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(BIB_XML)
        errors: list[Exception] = []

        def worker():
            try:
                for _ in range(20):
                    titles = store.query_values("//book/title", doc)
                    assert len(titles) == 3
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

    def test_updates_from_worker_thread(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load("<r><a/></r>")
        errors: list[Exception] = []

        def worker(tag):
            try:
                for i in range(5):
                    store.updates.insert(doc, 1, 0, f"<{tag} n='{i}'/>")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tag,))
            for tag in ("b", "c")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(store.query("/r/*", doc)) == 11


# -- the auditor: clean stores pass ---------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_audit_clean_after_updates(backend, encoding):
    store = XmlStore(backend=backend, encoding=encoding, gap=4)
    doc = store.load(BIB_XML)
    store.updates.insert(doc, 2, 0, "<note>new</note>")
    store.updates.insert(doc, 3, 1, " (2nd ed)")
    store.updates.delete(doc, store.query("//book[3]", doc)[0].node_id)
    store.updates.set_text(doc, 3, "TCP/IP")
    store.updates.set_attribute(doc, 2, "isbn", "0-201")
    store.updates.rename(doc, 2, "textbook")
    assert audit_store(store) == []
    assert_store_clean(store)  # must not raise


@pytest.mark.skip_audit
def test_audit_multiple_documents_and_stray_rows():
    store = XmlStore(backend="sqlite", encoding="dewey")
    a = store.load("<a><b/></a>")
    b = store.load("<x>t</x>")
    assert audit_store(store) == []
    store.backend.execute("DELETE FROM documents WHERE doc = ?", (a,))
    codes = [v.code for v in audit_store(store)]
    assert "catalog-missing-doc" in codes
    assert store.document_info(b).node_count == 2


# -- the auditor: fault injection -----------------------------------------


@pytest.mark.skip_audit
class TestAuditorDetectsCorruption:
    def _store(self, encoding, xml="<r><a>x</a><b><c/></b></r>"):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load(xml)
        assert audit_document(store, doc) == []
        return store, doc

    def _codes(self, store, doc):
        return {v.code for v in audit_document(store, doc)}

    def test_global_degenerate_interval(self):
        store, doc = self._store("global")
        store.backend.execute(
            "UPDATE node_global SET endpos = pos - 1 WHERE id = 1"
        )
        assert "global-interval-degenerate" in self._codes(store, doc)

    def test_global_sibling_overlap(self):
        store, doc = self._store("global")
        row = store.fetch_node(doc, 4)  # <b>, second child of root
        store.backend.execute(
            "UPDATE node_global SET pos = ? WHERE id = 4",
            (row["pos"] - 2,),
        )
        codes = self._codes(store, doc)
        assert codes & {"global-sibling-overlap", "global-pos-duplicate"}

    def test_global_containment(self):
        store, doc = self._store("global")
        store.backend.execute(
            "UPDATE node_global SET pos = 999, endpos = 1000 "
            "WHERE id = 5"
        )
        assert "global-containment" in self._codes(store, doc)

    def test_local_duplicate_slot(self):
        store, doc = self._store("local")
        row = store.fetch_node(doc, 2)
        store.backend.execute(
            "UPDATE node_local SET lpos = ? WHERE id = 4",
            (row["lpos"],),
        )
        assert "local-lpos-duplicate" in self._codes(store, doc)

    def test_local_nonpositive_slot(self):
        store, doc = self._store("local")
        store.backend.execute(
            "UPDATE node_local SET lpos = 0 WHERE id = 2"
        )
        assert "local-lpos-nonpositive" in self._codes(store, doc)

    def test_dewey_parent_mismatch(self):
        store, doc = self._store("dewey")
        store.backend.execute(
            "UPDATE node_dewey SET parent = 4 WHERE id = 3"
        )
        codes = self._codes(store, doc)
        assert "dewey-parent-mismatch" in codes

    def test_dewey_corrupt_key(self):
        store, doc = self._store("dewey")
        store.backend.execute(
            "UPDATE node_dewey SET dkey = ? WHERE id = 2",
            (b"\xff",),  # truncated multi-byte component
        )
        assert "dewey-key-corrupt" in self._codes(store, doc)

    def test_ordpath_duplicate_key(self):
        store, doc = self._store("ordpath")
        row = store.fetch_node(doc, 2)
        store.backend.execute(
            "UPDATE node_ordpath SET okey = ? WHERE id = 4",
            (row["okey"],),
        )
        assert "ordpath-key-duplicate" in self._codes(store, doc)

    def test_orphan_node(self):
        store, doc = self._store("dewey")
        store.backend.execute(
            "UPDATE node_dewey SET parent = 777 WHERE id = 3"
        )
        codes = self._codes(store, doc)
        assert "store-orphan-node" in codes
        assert "store-unreachable" in codes

    def test_depth_mismatch(self):
        store, doc = self._store("global")
        store.backend.execute(
            "UPDATE node_global SET depth = 9 WHERE id = 2"
        )
        assert "store-depth-mismatch" in self._codes(store, doc)

    def test_stale_direct_text(self):
        store, doc = self._store("local")
        store.backend.execute(
            "UPDATE node_local SET value = 'stale' "
            "WHERE id = 2 AND kind = 'elem'"
        )
        assert "store-direct-text-stale" in self._codes(store, doc)

    def test_attribute_orphan_and_duplicate(self):
        store, doc = self._store(
            "dewey", xml="<r><a k='v'>x</a></r>"
        )
        store.backend.execute(
            "INSERT INTO attr_dewey VALUES (?, ?, ?, ?)",
            (doc, 999, "k", "v"),
        )
        store.backend.execute(
            "INSERT INTO attr_dewey VALUES (?, ?, ?, ?)",
            (doc, 2, "k", "v2"),
        )
        codes = self._codes(store, doc)
        assert "store-attr-orphan" in codes
        assert "store-attr-duplicate" in codes

    def test_catalog_counts(self):
        store, doc = self._store("global")
        store.backend.execute(
            "UPDATE documents SET node_count = 99, next_id = 1, "
            "max_depth = 0 WHERE doc = ?",
            (doc,),
        )
        codes = self._codes(store, doc)
        assert {"catalog-node-count", "catalog-next-id",
                "catalog-max-depth"} <= codes

    def test_assert_store_clean_raises_with_listing(self):
        store, doc = self._store("global")
        store.backend.execute(
            "UPDATE node_global SET endpos = 0 WHERE id = 1"
        )
        with pytest.raises(AssertionError, match="global-interval"):
            assert_store_clean(store, context="fault injection")

    def test_cli_check_reports_violations(self, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        xml = tmp_path / "d.xml"
        xml.write_text("<r><a/></r>")
        assert main(["load", str(xml), "--db", db,
                     "--encoding", "global"]) == 0
        assert main(["check", "--db", db]) == 0
        assert "0 violations" in capsys.readouterr().out
        assert main(["sql", "UPDATE node_global SET endpos = 0 "
                     "WHERE id = 1", "--db", db]) == 0
        assert main(["check", "--db", db]) == 1
        assert "global-interval-degenerate" in capsys.readouterr().out


# -- the fuzzer: plumbing -------------------------------------------------


def test_fuzz_failure_repro_command():
    from repro.check import FuzzFailure

    failure = FuzzFailure(
        seed=7, gap=4, backend="minidb", encoding="ordpath",
        op_index=12, op="delete node 9", kind="invariant",
        detail="boom",
    )
    command = failure.repro_command()
    assert "--base-seed 7" in command
    assert "--ops 12" in command
    assert "--gaps 4" in command
    assert "--encodings ordpath" in command
    assert "--backends minidb" in command
    assert "--check-every 1" in command
    assert "boom" in str(failure)


@pytest.mark.skip_audit
def test_fuzz_detects_injected_corruption(monkeypatch):
    """A store that silently corrupts order data must be caught."""
    from repro.core.updates import UpdateManager

    original = UpdateManager.set_text

    def corrupting_set_text(self, doc, element_id, text):
        report = original(self, doc, element_id, text)
        if self.store.encoding.name == "global":
            self.store.backend.execute(
                "UPDATE node_global SET pos = pos + 500 "
                "WHERE doc = ? AND id = ?",
                (doc, element_id),
            )
        return report

    monkeypatch.setattr(UpdateManager, "set_text", corrupting_set_text)
    report = run_fuzz(FuzzConfig(
        seeds=3, ops=20, encodings=("global",),
        backends=("sqlite",), gaps=(1,), queries_per_check=2,
    ))
    assert not report.ok()
    failure = report.failures[0]
    assert failure.kind in ("invariant", "crash")
    assert "repro fuzz" in failure.repro_command()


@pytest.mark.skip_audit
def test_fuzz_minimizes_with_coarse_checking(monkeypatch):
    """check_every > 1 failures are replayed down to the exact op."""
    from repro.core.updates import UpdateManager

    original = UpdateManager.rename

    def corrupting_rename(self, doc, element_id, tag):
        report = original(self, doc, element_id, tag)
        self.store.backend.execute(
            f"UPDATE {self.store.node_table} SET depth = depth + 7 "
            f"WHERE doc = ? AND id = ?",
            (doc, element_id),
        )
        return report

    monkeypatch.setattr(UpdateManager, "rename", corrupting_rename)
    report = run_fuzz(FuzzConfig(
        seeds=4, ops=20, encodings=("dewey",), backends=("sqlite",),
        gaps=(1,), check_every=10, queries_per_check=1,
    ))
    assert not report.ok()
    failure = report.failures[0]
    # Minimization replays with per-op checks: the reported op must be
    # the corrupting rename itself, not the later coarse checkpoint.
    assert "rename" in failure.op
    assert failure.kind == "invariant"


def test_reconstruct_with_ids_round_trip():
    from repro.core.reconstruct import reconstruct_document_with_ids

    store = XmlStore(backend="sqlite", encoding="ordpath")
    doc = store.load(BIB_XML)
    tree, id_map = reconstruct_document_with_ids(store, doc)
    assert serialize(tree) == BIB_XML
    ids = sorted(id_map.values())
    assert ids == list(range(1, store.document_info(doc).node_count + 1))
