"""The check subsystem: invariant auditor, fuzzer plumbing, bug fixes.

Covers the three bugs fixed alongside the subsystem (text-only insert
fragments, schema errors silently swallowed, sqlite's thread-bound
connection) plus fault-injection tests proving the auditor detects each
class of corruption it claims to.
"""

from __future__ import annotations

import threading

import pytest

from tests.conftest import ALL_ENCODINGS, BACKENDS, BIB_XML, counters
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
from repro.core.schema import documents_table, index_table
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
        tables = [documents_table(), index_table()]
        for name in ALL_ENCODINGS:
            encoding = get_encoding(name)
            tables += [encoding.node_table, encoding.attr_table]
        statements = [s for t in tables for s in t.create_statements()]
        assert len(statements) == 38
        assert all(" IF NOT EXISTS " in s for s in statements)
        for name in BACKENDS:
            backend = make_backend(name)
            for statement in statements * 2:
                backend.execute(statement)
            assert len(backend.list_tables()) == len(tables)

    @pytest.mark.skip_audit
    @pytest.mark.parametrize("table", ["node_dewey", "attr_dewey",
                                       "idx_sval"])
    def test_a_dropped_node_or_attribute_table_is_refused(
        self, table, tmp_path, capsys
    ):
        """A file whose catalogue names an encoding that has lost its
        node or attribute table, or an indexed document that has lost
        the element index, used to open: the bootstrap re-created the
        table empty, so ``dump`` printed the document without those
        rows, a query answered nothing and ``check`` passed.  The store
        now refuses the file when it opens, naming the table, and
        leaves the file as it found it."""
        path = tmp_path / "dropped.db"
        source = tmp_path / "doc.xml"
        source.write_text(
            '<r><a k="1"><b>x</b></a><a k="2"><b>y</b></a></r>'
        )
        assert main(
            ["load", str(source), "--db", str(path), "--encoding", "dewey"]
        ) == 0
        if table == "idx_sval":
            assert main(
                ["index", "--db", str(path), "--doc", "1", "--create"]
            ) == 0
        backend = SqliteBackend(str(path))
        backend.execute(f"DROP TABLE {table}")
        backend.close()
        capsys.readouterr()
        for command in (
            ["query", "//a/@k"], ["query", "//b"], ["dump"], ["check"]
        ):
            assert main([*command, "--db", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: cannot open {str(path)!r}: ")
            assert f"{table!r}" in line
        backend = SqliteBackend(str(path))
        with pytest.raises(StorageError, match=table):
            XmlStore(backend=backend)
        assert table not in backend.list_tables()
        backend.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_file_of_an_older_build_is_refused(
        self, backend, tmp_path, capsys
    ):
        """A catalogue with ``max_depth`` and no ``indexed`` column, and
        the ``idx_stats`` marker table beside it, is what builds before
        this catalogue wrote.  Nothing upgrades it: the store refuses the
        file when it opens, and so does every CLI command."""
        path = tmp_path / "old.db"
        old = (
            SqliteBackend(str(path)) if backend == "sqlite"
            else MiniDbBackend()
        )
        for statement in (
            "CREATE TABLE repro_meta (key TEXT, value TEXT)",
            "INSERT INTO repro_meta VALUES ('encoding', 'dewey')",
            "CREATE TABLE documents (doc INTEGER, name TEXT, "
            "node_count INTEGER, max_depth INTEGER, next_id INTEGER, "
            "encoding TEXT)",
            "INSERT INTO documents VALUES (1, 'd', 1, 1, 2, 'dewey')",
            "CREATE TABLE idx_stats (doc INTEGER, kind TEXT, skey TEXT, "
            "value TEXT)",
            "INSERT INTO idx_stats VALUES (1, 'meta', 'present', '1')",
        ):
            old.execute(statement)
        if backend == "sqlite":
            old.close()
            reopened = SqliteBackend(str(path))
        else:
            # minidb keeps no files: the old catalogue is the engine.
            reopened = old
        with pytest.raises(StorageError, match="older build"):
            XmlStore(backend=reopened)
        if backend == "minidb":
            return  # the CLI opens sqlite files only
        reopened.close()
        for command in ("info", "dump", "check"):
            assert main([command, "--db", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: cannot open {str(path)!r}: ")
            assert "older build" in line

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_catalogue_without_gap_is_refused(
        self, backend, tmp_path, capsys
    ):
        """Builds before ``documents.gap`` labelled every document at
        the gap of whichever session wrote it, and recorded none.  A
        file of theirs is refused when it opens: this build cannot tell
        which gap its documents were labelled with."""
        path = tmp_path / "old.db"
        old = (
            SqliteBackend(str(path)) if backend == "sqlite"
            else MiniDbBackend()
        )
        for statement in (
            "CREATE TABLE repro_meta (key TEXT, value TEXT)",
            "INSERT INTO repro_meta VALUES ('encoding', 'dewey')",
            "CREATE TABLE documents (doc INTEGER, name TEXT, "
            "node_count INTEGER, next_id INTEGER, encoding TEXT, "
            "indexed INTEGER)",
            "INSERT INTO documents VALUES (1, 'doc', 1, 2, 'dewey', 0)",
        ):
            old.execute(statement)
        if backend == "sqlite":
            old.close()
            reopened = SqliteBackend(str(path))
        else:
            reopened = old
        with pytest.raises(
            StorageError,
            match=r"older build, whose document catalogue .*column:? gap",
        ):
            XmlStore(backend=reopened)
        if backend == "minidb":
            return  # the CLI opens sqlite files only
        reopened.close()
        for command in ("info", "insert", "check"):
            args = [command, "--db", str(path)]
            if command == "insert":
                args[1:1] = ["<x/>", "--parent", "/*"]
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: cannot open {str(path)!r}: ")
            assert line.endswith("(no such column: gap)")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_element_index_of_full_string_values_is_refused(
        self, backend, tmp_path, capsys
    ):
        """Builds before ``idx_sval.leaf_text`` kept every element's
        full string-value in ``sval``, and their maintenance rewrote
        it up to the root.  This build repairs only leaves and the
        parent an update wrote under, so such rows would go stale at
        the first write: a file of theirs is refused when it opens."""
        path = tmp_path / "old.db"
        old = (
            SqliteBackend(str(path)) if backend == "sqlite"
            else MiniDbBackend()
        )
        old.execute(
            "CREATE TABLE idx_sval (doc INTEGER, id INTEGER, "
            "parent INTEGER, tag TEXT, pathid INTEGER, sval TEXT, "
            "nval REAL)"
        )
        if backend == "sqlite":
            old.close()
            reopened = SqliteBackend(str(path))
        else:
            reopened = old
        with pytest.raises(
            StorageError,
            match=r"older build, whose element index .*column:? leaf_text",
        ):
            XmlStore(backend=reopened)
        if backend == "minidb":
            return  # the CLI opens sqlite files only
        reopened.close()
        for command in ("info", "dump", "check"):
            assert main([command, "--db", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: cannot open {str(path)!r}: ")
            assert line.endswith("(no such column: leaf_text)")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_element_index_of_path_ids_is_refused(
        self, backend, tmp_path, capsys
    ):
        """Builds before ``idx_sval.path`` kept each element's rooted
        path as an id into an ``idx_paths`` dictionary (``pathid``).
        This build reads the path text from the element's own row, so
        a file of theirs is refused when it opens."""
        path = tmp_path / "old.db"
        old = (
            SqliteBackend(str(path)) if backend == "sqlite"
            else MiniDbBackend()
        )
        for statement in (
            "CREATE TABLE idx_sval (doc INTEGER, id INTEGER, "
            "parent INTEGER, tag TEXT, pathid INTEGER, leaf_text TEXT, "
            "nval REAL)",
            "CREATE TABLE idx_paths (doc INTEGER, pathid INTEGER, "
            "path TEXT)",
        ):
            old.execute(statement)
        if backend == "sqlite":
            old.close()
            reopened = SqliteBackend(str(path))
        else:
            reopened = old
        with pytest.raises(
            StorageError,
            match=r"older build, whose element index .*column:? path",
        ):
            XmlStore(backend=reopened)
        if backend == "minidb":
            return  # the CLI opens sqlite files only
        reopened.close()
        for command in ("info", "dump", "check"):
            assert main([command, "--db", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: cannot open {str(path)!r}: ")
            assert line.endswith("(no such column: path)")

    def test_an_index_table_of_an_older_build_is_refused(
        self, tmp_path, capsys
    ):
        """Builds before ``idx_sval.pathid`` kept each element's path
        occurrence in an ``idx_pathmap`` table.  A file with their
        ``idx_*`` tables is refused by the probe of the element index
        when it opens — not by an index over a column it lacks failing
        in the bootstrap."""
        path = tmp_path / "old.db"
        XmlStore(backend=SqliteBackend(str(path))).close()
        old = SqliteBackend(str(path))
        for statement in (
            "DROP TABLE idx_sval",
            "CREATE TABLE idx_sval (doc INTEGER, id INTEGER, "
            "parent INTEGER, tag TEXT, sval TEXT, nval REAL)",
            "CREATE INDEX ix_idx_sval_parent ON idx_sval "
            "(doc, parent, tag, sval)",
            "CREATE INDEX ix_idx_sval_str ON idx_sval (doc, tag, sval)",
            "CREATE INDEX ix_idx_sval_num ON idx_sval (doc, tag, nval)",
            "CREATE INDEX ix_idx_sval_id ON idx_sval (doc, id)",
            "CREATE TABLE idx_pathmap (doc INTEGER, pathid INTEGER, "
            "id INTEGER)",
            "CREATE INDEX ix_idx_pathmap ON idx_pathmap (doc, pathid, id)",
            "CREATE INDEX ix_idx_pathmap_id ON idx_pathmap (doc, id)",
        ):
            old.execute(statement)
        old.close()
        reopened = SqliteBackend(str(path))
        with pytest.raises(
            StorageError,
            match=r"older build, whose element index .*column:? leaf_text",
        ):
            XmlStore(backend=reopened)
        reopened.close()
        assert main(["info", "--db", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert "older build, whose element index" in line

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_a_dropped_child_index_is_rebuilt(self, tmp_path, encoding):
        """A file whose child index ``(doc, parent, tag, <order>)`` was
        dropped gets it back when it opens, and answers and updates as
        a new file does."""
        path = tmp_path / "dropped.db"
        scheme = get_encoding(encoding)
        child = f"ix_{scheme.node_table.name}_child"
        store = XmlStore(backend=SqliteBackend(str(path)), encoding=encoding)
        doc = store.load(BIB_XML)
        store.backend.execute(f"DROP INDEX {child}")
        store.close()

        store = XmlStore(backend=SqliteBackend(str(path)), encoding=encoding)
        try:
            columns = [
                row[2] for row in store.backend.execute(
                    f"PRAGMA index_info({child})"
                ).rows
            ]
            assert columns == [
                "doc", "parent", "tag", scheme.sibling_order_column,
            ]
            fresh = XmlStore(encoding=encoding)
            fresh_doc = fresh.load(BIB_XML)
            for xpath in ("/bib/book[2]/author[3]", "//book/title",
                          "/bib/book[1]/following-sibling::book[1]"):
                assert [i.identity() for i in store.query(xpath, doc)] \
                    == [i.identity() for i in fresh.query(xpath, fresh_doc)]
            book = store.query("/bib/book[2]", doc)[0].node_id
            store.updates.insert(doc, book, 1, "<author>New</author>")
            assert store.query_values("/bib/book[2]/author[1]", doc) \
                == ["New"]
            assert_store_clean(store)
        finally:
            store.close()

    def test_a_bug_under_the_catalogue_probe_is_not_an_older_build(self):
        """Only an engine's error means an old catalogue: a programming
        error raised by the probe surfaces as itself."""

        class Broken(SqliteBackend):
            def execute(self, sql, params=()):
                if sql.startswith("SELECT") and "FROM documents" in sql:
                    raise AttributeError("no attribute 'rows'")
                return super().execute(sql, params)

        with pytest.raises(AttributeError, match="no attribute 'rows'"):
            XmlStore(backend=Broken())


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
    def _store(self, encoding, xml="<r><a>x</a><b><c/></b></r>", gap=None):
        store = XmlStore(backend="sqlite", encoding=encoding, gap=gap)
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
        store, doc = self._store("global", gap=1)
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
            "UPDATE documents SET node_count = 99, next_id = 1 "
            "WHERE doc = ?",
            (doc,),
        )
        codes = self._codes(store, doc)
        assert {"catalog-node-count", "catalog-next-id"} <= codes

    @pytest.mark.parametrize("gap", [0, -4, None])
    def test_catalog_gap(self, gap):
        """Every insert labels with the document's recorded gap, so one
        that hands out no free slot is a violation."""
        store, doc = self._store("dewey")
        store.backend.execute(
            "UPDATE documents SET gap = ? WHERE doc = ?", (gap, doc)
        )
        assert self._codes(store, doc) == {"catalog-gap"}

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


@pytest.mark.parametrize("backend", ["sqlite", "minidb"])
@pytest.mark.parametrize("encoding", ["local", "dewey"])
def test_update_heavy_fuzz_renumbers_at_the_shipped_gap(encoding, backend):
    """An insert run puts more than log2(256) inserts at one point, so
    the update-heavy stream reaches Local's and Dewey's sibling shift
    at the gap they load with by default, not only at small gaps."""
    gap = get_encoding(encoding).load_gap
    assert gap == 256
    with counters() as count:
        report = run_fuzz(FuzzConfig(
            seeds=4, ops=60, encodings=(encoding,), backends=(backend,),
            gaps=(gap,), update_heavy=True, check_every=20,
            queries_per_check=1,
        ))
        assert report.ok(), report.summary()
        assert count("updates.renumber_ops") > 0


def test_migrate_during_checks_each_store_while_it_migrates(monkeypatch):
    """The cell's check rounds (audit, round trip, oracle, cross-store)
    run while the migration threads are alive, not only after they
    join: the first migration waits for the first store check."""
    from repro.check import fuzz

    checked_while_migrating = []
    first_check = threading.Event()
    check_store, migrate = fuzz._check_store, fuzz.migrate_document

    def watched_check(*args):
        checked_while_migrating.append(any(
            thread.name == "repro-fuzz-migrate" and thread.is_alive()
            for thread in threading.enumerate()
        ))
        first_check.set()
        return check_store(*args)

    def held_migration(store, doc, target):
        assert first_check.wait(timeout=30)
        return migrate(store, doc, target)

    monkeypatch.setattr(fuzz, "_check_store", watched_check)
    monkeypatch.setattr(fuzz, "migrate_document", held_migration)
    report = run_fuzz(FuzzConfig(
        seeds=1, ops=6, encodings=("dewey", "local"),
        backends=("sqlite", "minidb"), check_every=3,
        migrate_during=True,
    ))
    assert report.ok(), "\n".join(str(f) for f in report.failures)
    assert checked_while_migrating[0] is True
    # Rounds at ops 0, 3 and 6, then one after the join, each over
    # every store.
    assert report.checks == len(checked_while_migrating) == 4 * 4


@pytest.mark.skip_audit
def test_migrate_during_reports_a_migration_that_raises(monkeypatch):
    from repro.check import fuzz

    def failing(store, doc, target):
        raise RuntimeError("no room")

    monkeypatch.setattr(fuzz, "migrate_document", failing)
    report = run_fuzz(FuzzConfig(
        seeds=1, ops=4, encodings=("dewey",), backends=("minidb",),
        check_every=2, migrate_during=True,
    ))
    (failure,) = report.failures
    assert failure.kind == "migrate"
    assert failure.detail == "migration raised RuntimeError: no room"
    # Not minimized: when a migration commits depends on timing.
    assert failure.op_index == 4
    assert failure.repro_command().endswith(
        "--encodings dewey --backends minidb --check-every 1 "
        "--migrate-during"
    )


def test_reconstruct_with_ids_round_trip():
    from repro.core.reconstruct import reconstruct_document_with_ids

    store = XmlStore(backend="sqlite", encoding="ordpath")
    doc = store.load(BIB_XML)
    tree, id_map = reconstruct_document_with_ids(store, doc)
    assert serialize(tree) == BIB_XML
    ids = sorted(id_map.values())
    assert ids == list(range(1, store.document_info(doc).node_count + 1))
