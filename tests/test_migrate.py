"""Tests for encoding migration (``repro migrate``).

Covers the full source->target encoding matrix on both backends, what
being one transaction promises (two migrations of a document serialize,
a failure before the catalogue flip leaves everything as it was,
writers on other threads all commit, each node row is written once and
no ``mig_*`` table is ever created), that every read is one snapshot
(a write committed from another thread between two of its statements
is seen by the next read only; the auditor's and the fuzzer's op
planner's reads too), and the workload advisor's E7-crossover
thresholds.
"""

import random
import threading
from collections import Counter

import pytest

from repro.backends import SqliteBackend, make_backend
from repro.check import assert_store_clean, audit_document, audit_store
from repro.check.fuzz import (
    apply_operation,
    migration_target,
    plan_operation,
)
from repro.core.encodings import ENCODINGS
from repro.errors import StorageError
from repro.migrate import MigrationAdvisor, migrate_document
from repro.robust.faults import FaultInjectingBackend
from repro.store import XmlStore
from repro.workload.docgen import random_document, sized_article_corpus
from repro.xmldom import serialize
from tests.conftest import counters, stored_oracle_identities

ALL_ENCODINGS = tuple(ENCODINGS)
PAIRS = [
    (source, target)
    for source in ALL_ENCODINGS
    for target in ALL_ENCODINGS
    if source != target
]

QUERIES = (
    "/bib/book[2]/author[1]",
    "//book[@year < 2000]/title",
    "//author/following-sibling::*",
    "/bib/book/price/text()",
)

BIB = (
    '<bib><book year="1994"><title>TCP/IP</title>'
    "<author>Stevens</author><price>65.95</price></book>"
    '<book year="2000"><title>Data on the Web</title>'
    "<author>Abiteboul</author><author>Buneman</author>"
    "<price>39.95</price></book>"
    '<book year="1999"><title>Economics</title>'
    "<author>Smith</author><price>10</price></book></bib>"
)


def identities(store: XmlStore, doc: int, xpath: str) -> list[tuple]:
    return [
        (item.kind, item.node_id, item.label, item.value)
        for item in store.query(xpath, doc)
    ]


class InjectedFailure(Exception):
    """A statement that failed before it ran."""


class RecordingBackend(FaultInjectingBackend):
    """Logs ``(sql, rows bound)`` per statement, and fails — once,
    before it runs — the first statement containing ``fail_on``."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log: list[tuple[str, int]] = []
        self.fail_on = None

    def _note(self, sql: str, rows: int) -> None:
        if self.fail_on is not None and self.fail_on in sql:
            self.fail_on = None
            raise InjectedFailure(f"injected before: {sql}")
        self.log.append((sql, rows))

    def execute(self, sql, params=()):
        self._note(sql, 1)
        return super().execute(sql, params)

    def executemany(self, sql, param_rows):
        rows = list(param_rows)
        self._note(sql, len(rows))
        return super().executemany(sql, rows)


def recording_store(backend: str, encoding: str = "global"):
    recorder = RecordingBackend(make_backend(backend))
    store = XmlStore(backend=recorder, encoding=encoding)
    return store, recorder, store.load(BIB)


def stored_state(store: XmlStore, doc: int) -> dict:
    """The catalogue entry of *doc* and its rows, by table, in every
    encoding table that holds any."""
    existing = set(store.backend.list_tables())
    state = {"catalogue": store.document_info(doc, fresh=True)}
    for encoding in ENCODINGS.values():
        for table in (encoding.node_table.name, encoding.attr_table.name):
            rows = table in existing and store.backend.execute(
                f"SELECT * FROM {table} WHERE doc = ?", (doc,)
            ).rows
            if rows:
                state[table] = sorted(rows)
    return state


class TestMigrationMatrix:
    @pytest.mark.parametrize("source,target", PAIRS)
    def test_every_pair_preserves_document_and_ids(self, source, target):
        store = XmlStore(backend="sqlite", encoding=source)
        doc = store.load(BIB)
        before_xml = serialize(store.reconstruct(doc))
        before = {q: identities(store, doc, q) for q in QUERIES}

        report = migrate_document(store, doc, target)

        assert report.outcome == "migrated"
        assert (report.source, report.target) == (source, target)
        assert report.rows_copied > 0
        assert store.encoding_for(doc).name == target
        assert serialize(store.reconstruct(doc)) == before_xml
        # Surrogate ids survive the re-encoding, so identity-level
        # query results are byte-for-byte stable across the cutover.
        assert {q: identities(store, doc, q) for q in QUERIES} == before

    @pytest.mark.parametrize("backend", ("sqlite", "minidb"))
    def test_both_backends_roundtrip_and_update_after(self, backend):
        store = XmlStore(backend=backend, encoding="global")
        doc = store.load(BIB)
        migrate_document(store, doc, "dewey")
        assert store.encoding_for(doc).name == "dewey"
        # Updates after cutover land in the new encoding's tables.
        report = store.updates.insert(doc, 1, 0, "<book><title>New</title></book>")
        assert report.inserted == 3
        assert len(store.query("/bib/book", doc)) == 4
        rows = store.backend.execute(
            f"SELECT COUNT(*) FROM "
            f"{ENCODINGS['dewey'].node_table.name} WHERE doc = ?",
            (doc,),
        ).rows
        assert rows[0][0] == store.document_info(doc).node_count

    def test_noop_when_already_on_target(self):
        store = XmlStore(backend="sqlite", encoding="local")
        doc = store.load(BIB)
        report = migrate_document(store, doc, "local")
        assert report.outcome == "noop"
        assert report.rows_copied == 0

    def test_unknown_target_rejected(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(BIB)
        with pytest.raises(Exception):
            migrate_document(store, doc, "no-such-encoding")

    @pytest.mark.parametrize("backend", ["sqlite", "minidb"])
    def test_a_document_keeps_its_gap(self, backend):
        """A migration labels at the document's recorded gap, not at
        the gap of the store that runs it: a document loaded at 4 is
        labelled at 4 in its new encoding, and its catalogue row still
        says so."""
        shared = make_backend(backend)
        doc = XmlStore(backend=shared, encoding="local", gap=4).load(BIB)
        store = XmlStore(backend=shared, encoding="local", gap=1)
        migrate_document(store, doc, "global")
        assert store.document_info(doc).gap == 4
        positions = [
            pos for (pos,) in shared.execute(
                "SELECT pos FROM node_global WHERE doc = ? ORDER BY pos",
                (doc,),
            ).rows
        ]
        assert positions == [
            4 * rank for rank in range(1, len(positions) + 1)
        ]
        assert_store_clean(store, "after migrating a gap-4 document")

    def test_mixed_encoding_store(self):
        """Documents with different encodings coexist in one store."""
        store = XmlStore(backend="sqlite", encoding="global")
        doc_a = store.load(BIB, name="a")
        doc_b = store.load(BIB, name="b")
        migrate_document(store, doc_a, "dewey")
        assert store.encoding_for(doc_a).name == "dewey"
        assert store.encoding_for(doc_b).name == "global"
        assert identities(store, doc_a, QUERIES[0]) == identities(
            store, doc_b, QUERIES[0]
        )


class TestFuzzHarnessOnMigratedDocuments:
    def test_plan_and_apply_operations_after_migration(self):
        """Regression: the fuzz planner read the store's *default*
        encoding's node table, saw zero rows for a migrated document
        and died in ``rng.choice([])``.  It plans from the document's
        own encoding, and a twin that never migrated takes the same
        surrogate-id plan."""
        document = random_document(5, max_depth=4, max_children=3)
        store = XmlStore(backend="sqlite", encoding="global", gap=4)
        twin = XmlStore(backend="sqlite", encoding="global", gap=4)
        doc, twin_doc = store.load(document), twin.load(document)
        store.indexes.create(doc)
        migrate_document(store, doc, "dewey")
        rng = random.Random(3)
        for _ in range(12):
            op = plan_operation(rng, store, doc, update_heavy=True)
            apply_operation(store, doc, op)
            apply_operation(twin, twin_doc, op)
        assert serialize(store.reconstruct(doc)) == serialize(
            twin.reconstruct(twin_doc)
        )


class TestConcurrentWrites:
    def test_writers_on_other_threads_all_commit(self):
        """Writers wait for the migration's transaction, or run before
        it; none is lost, and the document equals a twin that never
        migrated."""
        document = sized_article_corpus(3000)
        store = XmlStore(backend="sqlite", encoding="global")
        twin = XmlStore(backend="sqlite", encoding="global")
        doc, twin_doc = store.load(document), twin.load(document)
        # Surrogate ids survive a migration, so each writer keeps
        # addressing its own article whichever side of it it runs on.
        parents = [
            store.query(f"/journal/article[{n}]", doc)[0].node_id
            for n in (1, 2, 3)
        ]
        inserts = 12
        errors: list[BaseException] = []
        start = threading.Barrier(len(parents) + 1)

        def write(parent: int) -> None:
            start.wait()
            try:
                for i in range(inserts):
                    store.updates.insert(
                        doc, parent, 0, f"<w p='{parent}'>{i}</w>"
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(parent,))
            for parent in parents
        ]
        for thread in threads:
            thread.start()
        start.wait()
        report = migrate_document(store, doc, "local")
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        for parent in parents:
            for i in range(inserts):
                twin.updates.insert(
                    twin_doc, parent, 0, f"<w p='{parent}'>{i}</w>"
                )

        assert not errors, errors
        assert report.outcome == "migrated" and report.blocked_ms > 0
        assert store.encoding_for(doc).name == "local"
        assert len(store.query("//w", doc)) == inserts * len(parents)
        assert serialize(store.reconstruct(doc)) == serialize(
            twin.reconstruct(twin_doc)
        )
        assert_store_clean(store)  # the fixture skips documents this big

    def test_two_threads_to_different_targets_serialize(self):
        """The second migration resolves its source inside its own
        transaction, so it starts from where the first one ended
        instead of copying from a table the first just emptied."""
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(BIB)
        before_xml = serialize(store.reconstruct(doc))
        reports, errors = [], []
        start = threading.Barrier(2)

        def migrate(target: str) -> None:
            start.wait()
            try:
                reports.append(migrate_document(store, doc, target))
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=migrate, args=(target,))
            for target in ("dewey", "local")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        assert not errors, errors
        first, second = sorted(reports, key=lambda r: r.source != "global")
        assert (first.outcome, second.outcome) == ("migrated", "migrated")
        assert (first.source, second.source) == ("global", first.target)
        assert store.encoding_for(doc).name == second.target
        assert serialize(store.reconstruct(doc)) == before_xml
        final = ENCODINGS[second.target]
        assert set(stored_state(store, doc)) == {
            "catalogue", final.node_table.name, final.attr_table.name
        }

    def test_migration_beside_pooled_writers(self, tmp_path):
        """On a file, where every thread has a connection of its own,
        the writer lock is all that orders two writer threads and the
        migration: every insert lands once, on whichever encoding it ran
        against, and the document reads back as an unmigrated twin
        does."""
        store = XmlStore(
            backend=make_backend("sqlite", str(tmp_path / "m.db")),
            encoding="local",
        )
        twin = XmlStore(backend="sqlite", encoding="local")
        doc, twin_doc = store.load(BIB), twin.load(BIB)
        root = store.query("/*", doc)[0].node_id
        inserts = 6
        errors: list[BaseException] = []
        start = threading.Barrier(3)

        def write(tag: str) -> None:
            start.wait()
            try:
                for i in range(inserts):
                    store.updates.insert(doc, root, 0, f"<{tag}>{i}</{tag}>")
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(tag,)) for tag in "xy"
        ]
        for thread in threads:
            thread.start()
        start.wait()
        report = migrate_document(store, doc, "global")
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        assert not errors, errors
        assert report.outcome == "migrated"
        assert store.encoding_for(doc).name == "global"
        assert len(store.query("/*/x", doc)) == inserts
        assert len(store.query("/*/y", doc)) == inserts
        for tag in "xy":
            for i in range(inserts):
                twin.updates.insert(twin_doc, root, 0, f"<{tag}>{i}</{tag}>")
        # The writers interleave, so only the multiset of children is
        # the twin's, not their order.
        got = Counter((i.label, i.value) for i in store.query("/*/*", doc))
        assert got == Counter(
            (i.label, i.value) for i in twin.query("/*/*", twin_doc)
        )
        assert_store_clean(store)
        store.close()


class TestAbortLeavesNoShadowState:
    """A migration that fails leaves no trace: it is one transaction,
    and it creates no table but the target encoding's own."""

    def test_abort_mid_copy_then_requery(self):
        """Fails after the inserts — before the source rows go, or
        before the catalogue flips: rows, catalogue and answers are
        exactly as before, on both backends."""
        for backend, fail_on in (
            ("sqlite", "UPDATE documents SET encoding"),
            ("sqlite", "DELETE FROM node_global"),
            ("minidb", "UPDATE documents SET encoding"),
        ):
            store, recorder, doc = recording_store(backend)
            answers = {q: identities(store, doc, q) for q in QUERIES}
            before_xml = serialize(store.reconstruct(doc))
            before = stored_state(store, doc)
            recorder.fail_on = fail_on
            with counters() as count:
                with pytest.raises(InjectedFailure):
                    migrate_document(store, doc, "dewey")
                assert count("migrate.aborted") == 1
                assert count("migrate.completed") == 0
            assert recorder.fail_on is None  # it fired
            assert stored_state(store, doc) == before
            assert store.encoding_for(doc).name == "global"
            assert serialize(store.reconstruct(doc)) == before_xml
            assert {
                q: identities(store, doc, q) for q in QUERIES
            } == answers
            assert not [
                t for t in store.backend.list_tables()
                if t.startswith("mig_")
            ]

    def test_abort_then_successful_retry(self):
        store, recorder, doc = recording_store("sqlite")
        recorder.fail_on = "UPDATE documents SET encoding"
        with pytest.raises(InjectedFailure):
            migrate_document(store, doc, "dewey")
        report = migrate_document(store, doc, "dewey")
        assert report.outcome == "migrated"
        assert store.encoding_for(doc).name == "dewey"


class TestOneTransaction:
    @pytest.mark.parametrize("backend", ("sqlite", "minidb"))
    def test_each_node_row_is_written_once(self, backend):
        store, recorder, doc = recording_store(backend)
        info = store.document_info(doc)
        del recorder.log[:]
        report = migrate_document(store, doc, "dewey")
        inserted = {
            sql.split()[2]: rows for sql, rows in recorder.log
            if sql.startswith("INSERT INTO")
        }
        assert inserted == {
            "node_dewey": info.node_count, "attr_dewey": 3,
        }
        assert (report.rows_copied, report.attrs_copied) == (
            info.node_count, 3
        )
        assert not [sql for sql, _rows in recorder.log if "mig_" in sql]
        assert not [
            t for t in store.backend.list_tables() if t.startswith("mig_")
        ]

    def test_row_count_mismatch_is_refused(self):
        """The catalogue's node count is checked against the rows read
        before anything is written."""
        from repro.errors import MigrationError

        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(BIB)
        store.backend.execute(
            "UPDATE documents SET node_count = node_count + 1 "
            "WHERE doc = ?", (doc,),
        )
        before = stored_state(store, doc)
        with pytest.raises(MigrationError, match="catalogue entry says"):
            migrate_document(store, doc, "dewey")
        assert stored_state(store, doc) == before
        store.backend.execute(
            "UPDATE documents SET node_count = node_count - 1 "
            "WHERE doc = ?", (doc,),
        )


def joined(thread: threading.Thread) -> None:
    thread.join(30)
    assert not thread.is_alive(), "the scripted write did not finish"


class MigrateBeforeTheNextCall(FaultInjectingBackend):
    """Runs ``then`` once, on a second thread, before the first
    statement or BEGIN that arrives outside a transaction after it is
    set and after ``after`` more such statements: a write that commits
    between two statements of an operation, with no clock.

    The thread is joined before that statement runs, so the write has
    committed when it does — unless the calling thread has a read scope
    open (:meth:`~repro.backends.base.Backend.snapshot`), which may
    exclude writers: then it is joined at the scope's exit.  What the
    write raised is kept in ``errors``."""

    def __init__(self, inner):
        super().__init__(inner)
        self.then = None
        self.after = 0
        self.errors: list[BaseException] = []
        self._reading: set[int] = set()
        self._pending = None

    def _fire(self) -> None:
        if self.then is None or threading.get_ident() in self._tx_depths:
            return
        if self.after:
            self.after -= 1
            return
        then, self.then = self.then, None

        def write():
            try:
                then()
            except BaseException as exc:  # reported through errors
                self.errors.append(exc)

        thread = threading.Thread(target=write)
        thread.start()
        if threading.get_ident() in self._reading:
            self._pending = thread
        else:
            joined(thread)

    def execute(self, sql, params=()):
        self._fire()
        return super().execute(sql, params)

    def begin(self):
        self._fire()
        super().begin()

    def begin_snapshot(self):
        beside = super().begin_snapshot()
        self._reading.add(threading.get_ident())
        return beside

    def end_snapshot(self):
        self._reading.discard(threading.get_ident())
        super().end_snapshot()
        pending, self._pending = self._pending, None
        if pending is not None:
            joined(pending)


#: Backends the torn-read tests run on: minidb, sqlite in memory, and
#: sqlite on a file (a fresh file per store).
READ_BACKENDS = {
    "minidb": lambda path: make_backend("minidb"),
    "sqlite": lambda path: make_backend("sqlite"),
    "file": lambda path: SqliteBackend(str(path)),
}


def scripted_store(kind: str, encoding: str, path):
    """A store over :class:`MigrateBeforeTheNextCall` holding BIB at
    gap 1 (so that an insert renumbers), its catalogue entry cached as
    a warm read finds it."""
    wrapper = MigrateBeforeTheNextCall(READ_BACKENDS[kind](path))
    store = XmlStore(backend=wrapper, encoding=encoding, gap=1)
    doc = store.load(BIB)
    store.document_info(doc)
    return store, wrapper, doc


#: Reads of several statements, each with a write that tears it when
#: it commits between two of them: ``read(store, doc, ids)`` and
#: ``write(store, doc, ids)``, *ids* naming ``bib`` and its books.
TORN_READS = {
    "reconstruct": (
        lambda store, doc, ids: serialize(store.reconstruct(doc)),
        lambda store, doc, ids: store.updates.delete(doc, ids["book1"]),
    ),
    "reconstruct_subtree": (
        lambda store, doc, ids: serialize(
            store.reconstruct_subtree(doc, ids["bib"])
        ),
        lambda store, doc, ids: store.updates.delete(doc, ids["book1"]),
    ),
    # A front insert renumbers book 2 under Global and Dewey at gap 1:
    # its old range then holds book 1's text.
    "string_value": (
        lambda store, doc, ids: store.string_value(doc, ids["book2"]),
        lambda store, doc, ids: store.updates.insert(
            doc, ids["bib"], 0, '<book year="2001"><title>N</title></book>'
        ),
    ),
    # Local orders the result by its ancestors, fetched after it.
    "query": (
        lambda store, doc, ids: identities(store, doc, "//author"),
        lambda store, doc, ids: store.updates.delete(doc, ids["book1"]),
    ),
}


class TestReadsAreOneSnapshot:
    """A write that commits from another thread between two statements
    of a read is seen by the next read, never by that one: every read
    runs in one read scope (``Backend.snapshot``)."""

    @pytest.mark.parametrize("read", sorted(TORN_READS))
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("kind", sorted(READ_BACKENDS))
    def test_a_write_between_two_statements_of_a_read_is_not_seen(
        self, tmp_path, kind, encoding, read
    ):
        run, write = TORN_READS[read]
        twin = XmlStore(backend="sqlite", encoding=encoding, gap=1)
        twin_doc = twin.load(BIB)
        ids = {
            "bib": twin.query("/bib", twin_doc)[0].node_id,
            "book1": twin.query("/bib/book[1]", twin_doc)[0].node_id,
            "book2": twin.query("/bib/book[2]", twin_doc)[0].node_id,
        }
        before = run(twin, twin_doc, ids)
        write(twin, twin_doc, ids)
        after = run(twin, twin_doc, ids)

        store, wrapper, doc = scripted_store(kind, encoding, tmp_path / "n")
        start = wrapper.statements_executed
        assert run(store, doc, ids) == before
        statements = wrapper.statements_executed - start
        for boundary in range(1, statements):
            store, wrapper, doc = scripted_store(
                kind, encoding, tmp_path / str(boundary)
            )
            wrapper.then = lambda: write(store, doc, ids)
            wrapper.after = boundary
            assert run(store, doc, ids) == before, boundary
            assert wrapper.then is None and wrapper.errors == []
            assert run(store, doc, ids) == after, boundary


class TestKeptKeysAcrossACommit:
    """A cold Local read on a caching store keeps the order keys its
    walk resolved.  An insert that shifts the books, committed from
    another thread at any statement boundary of that read, drops them
    with the rest of the document's entries, so the next reads sort as
    the oracle does."""

    @pytest.mark.parametrize("kind", sorted(READ_BACKENDS))
    def test_an_insert_at_every_boundary_of_a_cold_local_read(
        self, tmp_path, kind
    ):
        read = "//author"
        store, wrapper, doc = scripted_store(kind, "local", tmp_path / "n")
        start = wrapper.statements_executed
        before = identities(store, doc, read)
        statements = wrapper.statements_executed - start
        assert statements > 1
        for boundary in range(1, statements):
            store, wrapper, doc = scripted_store(
                kind, "local", tmp_path / str(boundary)
            )
            # At gap 1 a book between the first two shifts the second
            # and the third.
            wrapper.then = lambda: store.updates.insert(
                doc, 1, 1, '<book year="2001"><author>N</author></book>'
            )
            wrapper.after = boundary
            assert identities(store, doc, read) == before, boundary
            assert wrapper.then is None and wrapper.errors == []
            # The first read refreshes the keys of the first two books
            # only; the second sorts by every book's.
            for xpath in ("/bib/book[position() <= 2]/author", read,
                          "//book/*"):
                got = [item.identity() for item in store.query(xpath, doc)]
                assert got == stored_oracle_identities(store, doc, xpath), (
                    boundary, xpath,
                )


#: The fuzzer's readers outside the store, each of several statements:
#: ``read(store, doc)``.  A migration that commits between two of them
#: must show in neither a false violation nor a torn plan.
CHECK_READS = {
    "audit_document": audit_document,
    "audit_store": lambda store, doc: audit_store(store),
    "plan_operation": lambda store, doc: plan_operation(
        random.Random(11), store, doc, update_heavy=True
    ),
}

#: A 43-node document: enough rows that an audit and a plan read each
#: of their tables.
CHECKED_DOCUMENT = random_document(11, max_depth=5, max_children=4)


class TestTheAuditAndTheOpPlannerAreOneSnapshot:
    """``audit_document``, ``audit_store`` and the fuzzer's
    ``plan_operation`` each read inside one read scope: a migration
    committed from another thread at any of their statement boundaries
    leaves a clean audit and the plan of the unmigrated document."""

    @pytest.mark.parametrize("read", sorted(CHECK_READS))
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("kind", sorted(READ_BACKENDS))
    def test_a_migration_between_two_statements_is_not_seen(
        self, tmp_path, kind, encoding, read
    ):
        run = CHECK_READS[read]
        target = migration_target(encoding)
        twin = XmlStore(backend="sqlite", encoding=encoding)
        want = run(twin, twin.load(CHECKED_DOCUMENT))

        def loaded(name: str):
            wrapper = MigrateBeforeTheNextCall(
                READ_BACKENDS[kind](tmp_path / name)
            )
            store = XmlStore(backend=wrapper, encoding=encoding)
            return store, wrapper, store.load(CHECKED_DOCUMENT)

        store, wrapper, doc = loaded("n")
        start = wrapper.statements_executed
        assert run(store, doc) == want
        statements = wrapper.statements_executed - start
        assert statements > 1
        for boundary in range(1, statements):
            store, wrapper, doc = loaded(str(boundary))
            wrapper.then = lambda: migrate_document(store, doc, target)
            wrapper.after = boundary
            assert run(store, doc) == want, boundary
            assert wrapper.then is None and wrapper.errors == []
            assert store.encoding_for(doc).name == target


#: Two reads of one plan (the literal binds as a parameter) and two
#: result-cache keys; their authors hang under three books.
WARM_READS = ("//book[@year > 1990]/author", "//book[@year > 1991]/author")


def traced_read(store: XmlStore, doc: int) -> list[str]:
    """Every statement sqlite runs for a warm, uncached read of *doc*,
    BEGIN and COMMIT included (as sqlite traces them)."""
    store.query(WARM_READS[0], doc)
    traced: list[str] = []
    backend = store.backend
    for connection in backend._all:
        connection.set_trace_callback(traced.append)
    store.query(WARM_READS[1], doc)
    for connection in backend._all:
        connection.set_trace_callback(None)
    return traced


class TestWhatAReadScopeCosts:
    """A read scope in memory is the writer lock, which issues nothing;
    on a file it is a deferred BEGIN, the catalogue read and a COMMIT."""

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("backend", ["sqlite", "minidb"])
    def test_a_warm_read_in_memory_issues_no_more_statements(
        self, backend, encoding
    ):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(BIB)
        store.query(WARM_READS[0], doc)
        with counters() as count:
            items = store.query(WARM_READS[1], doc)
            # Local orders the authors by their books, whose keys the
            # first read kept: no fetch.
            assert count("backend.statements") == 1
            assert count("translate.plan_shared") == 1
        with counters() as count:
            assert store.query(WARM_READS[1], doc) == items
            assert count("backend.statements") == 0

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_a_read_on_a_file_adds_its_begin_catalogue_read_and_commit(
        self, tmp_path, encoding
    ):
        memory = XmlStore(backend="sqlite", encoding=encoding)
        on_file = XmlStore(
            backend=SqliteBackend(str(tmp_path / "f.db")), encoding=encoding
        )
        in_memory = traced_read(memory, memory.load(BIB))
        traced = traced_read(on_file, on_file.load(BIB))
        assert traced[0] == "BEGIN" and traced[-1] == "COMMIT"
        assert traced[1].startswith("SELECT doc, name, node_count")
        assert traced[2] == in_memory[0] and len(in_memory) == 1
        if encoding == "local":
            # A file read scope keeps no order keys across scopes: the
            # books' structure is fetched again.
            assert len(traced) == 5
            assert traced[3].startswith("SELECT id, parent, lpos FROM")
        else:
            assert len(traced) == 4


def on_a_thread(call) -> None:
    thread = threading.Thread(target=call)
    thread.start()
    joined(thread)


class AroundTheNextCommit(FaultInjectingBackend):
    """Runs ``before`` once just before the next COMMIT and ``then``
    once right after it, before the committing call returns, each on a
    second thread that it joins."""

    def __init__(self, inner):
        super().__init__(inner)
        self.before = self.then = None

    def commit_transaction(self):
        before, self.before = self.before, None
        if before is not None:
            on_a_thread(before)
        super().commit_transaction()
        then, self.then = self.then, None
        if then is not None:
            on_a_thread(then)


@pytest.mark.parametrize("kind", sorted(READ_BACKENDS))
def test_a_read_right_after_a_commit_plans_from_it(tmp_path, kind):
    """A commit invalidates its write set before its COMMIT as well as
    after it, so a read that runs in between does not plan from the
    catalogue entry cached before the commit (a migration's would send
    it to the emptied source table)."""
    wrapper = AroundTheNextCommit(READ_BACKENDS[kind](tmp_path / "s"))
    store = XmlStore(backend=wrapper, encoding="global")
    twin = XmlStore(backend="sqlite", encoding="global")
    doc, twin_doc = store.load(BIB), twin.load(BIB)
    assert store.encoding_for(doc).name == "global"  # now cached
    seen = []
    wrapper.then = lambda: seen.append(identities(store, doc, "//author"))
    migrate_document(store, doc, "dewey")
    assert seen == [identities(twin, twin_doc, "//author")]


def test_a_read_scope_on_a_file_plans_from_its_own_snapshot(tmp_path):
    """On a file a reader beside the writer caches the catalogue entry
    of the state before the COMMIT after the commit's first
    invalidation; a read scope opened after the COMMIT still plans
    from the entry it reads itself."""
    wrapper = AroundTheNextCommit(SqliteBackend(str(tmp_path / "f.db")))
    store = XmlStore(backend=wrapper, encoding="global")
    twin = XmlStore(backend="sqlite", encoding="global")
    doc, twin_doc = store.load(BIB), twin.load(BIB)
    cached, seen = [], []
    wrapper.before = lambda: cached.append(store.document_info(doc))
    wrapper.then = lambda: seen.append(identities(store, doc, "//author"))
    migrate_document(store, doc, "dewey")
    assert [info.encoding for info in cached] == ["global"]
    assert seen == [identities(twin, twin_doc, "//author")]


def fire_after(kind: str) -> int:
    """How many statements of a warm read precede its plan's: the
    catalogue read, on a file only."""
    return 1 if kind == "file" else 0


class TestTornReadGuard:
    """A migration, an index drop or a document delete that commits
    from another thread in the middle of a read leaves the read with
    the answer from before it, and the next read sees it."""

    def test_migration_between_translate_and_execute_reruns_the_query(
        self, tmp_path
    ):
        """The plan is bound with the catalogue entry the read's
        statement sees: a migration that commits after the catalogue
        read leaves the read on the source encoding's rows."""
        twin = XmlStore(backend="sqlite", encoding="global")
        twin_doc = twin.load(BIB)
        for kind in ("sqlite", "file"):
            store, wrapper, doc = scripted_store(kind, "global", tmp_path / "s")
            migrated = []
            wrapper.then = lambda: migrated.append(
                migrate_document(store, doc, "dewey")
            )
            wrapper.after = fire_after(kind)
            got = identities(store, doc, QUERIES[0])
            assert migrated and wrapper.errors == [], kind
            assert store.encoding_for(doc).name == "dewey"
            assert got == identities(twin, twin_doc, QUERIES[0]) != []
            assert identities(store, doc, QUERIES[1]) == identities(
                twin, twin_doc, QUERIES[1]
            )

    def test_a_query_that_fails_across_a_migration_reruns_too(
        self, tmp_path
    ):
        """Local's client-order pass fetches ancestors from the plan's
        table after executing; a migration that commits in between
        leaves them there for this read."""
        twin = XmlStore(backend="sqlite", encoding="local")
        twin_doc = twin.load(BIB)
        for kind in ("sqlite", "file"):
            store, wrapper, doc = scripted_store(kind, "local", tmp_path / "s")
            migrated = []
            wrapper.then = lambda: migrated.append(
                migrate_document(store, doc, "dewey")
            )
            wrapper.after = fire_after(kind) + 1
            got = identities(store, doc, "//author")
            assert migrated and wrapper.errors == [], kind
            assert got == identities(twin, twin_doc, "//author")
            assert identities(store, doc, "//title") == identities(
                twin, twin_doc, "//title"
            )

    @pytest.mark.parametrize("kind", ["sqlite", "minidb", "file"])
    def test_an_index_dropped_between_translate_and_execute_reruns_the_query(
        self, tmp_path, kind
    ):
        """An index plan bound before the drop commits reads the index
        tables as they were when the read began."""
        store, wrapper, doc = scripted_store(kind, "global", tmp_path / "s")
        twin = XmlStore(backend="sqlite", encoding="global")
        twin_doc = twin.load(BIB)
        store.indexes.create(doc)
        assert store.translate("/bib/book/title", doc).access_path != "scan"
        store.document_info(doc)
        dropped = []
        wrapper.then = lambda: dropped.append(store.indexes.drop(doc))
        wrapper.after = fire_after(kind)
        got = identities(store, doc, "/bib/book/title")
        assert dropped == [True] and wrapper.errors == []
        assert got == identities(twin, twin_doc, "/bib/book/title") != []
        assert store.translate("/bib/book/title", doc).access_path == "scan"
        assert identities(store, doc, "//book/title") == got

    @pytest.mark.parametrize("encoding", ["global", "local"])
    @pytest.mark.parametrize("kind", ["sqlite", "minidb", "file"])
    def test_a_document_deleted_between_translate_and_execute_is_an_error(
        self, tmp_path, kind, encoding
    ):
        """The read that began before the delete committed answers
        from the document; the next one finds it gone: an error, not
        an empty answer."""
        store, wrapper, doc = scripted_store(kind, encoding, tmp_path / "s")
        twin = XmlStore(backend="sqlite", encoding=encoding)
        twin_doc = twin.load(BIB)
        deleted = []
        wrapper.then = lambda: deleted.append(store.delete_document(doc))
        wrapper.after = fire_after(kind)
        got = identities(store, doc, "/bib/book/title")
        assert deleted and wrapper.errors == []
        assert got == identities(twin, twin_doc, "/bib/book/title") != []
        with pytest.raises(StorageError):
            store.query("/bib/book/title", doc)
        assert not store.documents()


class TestWritesAcrossAMigration:
    """A value update resolves its node inside its own transaction, so
    a migration that commits after the catalogue read cannot hand it an
    emptied table (it used to fail with ``UpdateError: no node N``)."""

    @pytest.mark.parametrize(
        "operation, args",
        [
            ("set_text", ("T",)),
            ("rename", ("heading",)),
            ("set_attribute", ("k", "v")),
        ],
    )
    @pytest.mark.parametrize("backend", ["sqlite", "minidb"])
    def test_an_update_finds_its_node_after_a_migration(
        self, backend, operation, args
    ):
        wrapper = MigrateBeforeTheNextCall(make_backend(backend))
        store = XmlStore(backend=wrapper, encoding="global")
        twin = XmlStore(backend="sqlite", encoding="global")
        doc, twin_doc = store.load(BIB), twin.load(BIB)
        title = store.query("/bib/book[2]/title", doc)[0].node_id
        assert store.encoding_for(doc).name == "global"  # now cached
        migrated = []
        wrapper.then = lambda: migrated.append(
            migrate_document(store, doc, "dewey")
        )
        getattr(store.updates, operation)(doc, title, *args)
        getattr(twin.updates, operation)(twin_doc, title, *args)
        assert migrated and store.encoding_for(doc).name == "dewey"
        assert serialize(store.reconstruct(doc)) == serialize(
            twin.reconstruct(twin_doc)
        )
        assert_store_clean(store)


class TestAdvisor:
    def snapshot(self, queries: int, renumber: int) -> dict:
        return {
            "counters": {
                "query.executed": queries,
                "updates.renumber_ops": renumber,
            }
        }

    def test_update_heavy_side_of_crossover_recommends_local(self):
        advisor = MigrationAdvisor()
        rec = advisor.decide(self.snapshot(40, 60), "global")
        assert rec.migrate and rec.target == "local"
        assert rec.update_share == pytest.approx(0.6)

    def test_query_heavy_side_of_crossover_recommends_global(self):
        advisor = MigrationAdvisor()
        rec = advisor.decide(self.snapshot(95, 5), "local")
        assert rec.migrate and rec.target == "global"
        assert rec.update_share == pytest.approx(0.05)

    def test_mixed_regime_recommends_dewey(self):
        advisor = MigrationAdvisor()
        rec = advisor.decide(self.snapshot(70, 30), "global")
        assert rec.migrate and rec.target == "dewey"

    def test_exact_thresholds_are_deterministic(self):
        advisor = MigrationAdvisor()
        # share == UPDATE_HEAVY -> local; share == QUERY_HEAVY -> global
        assert advisor.decide(self.snapshot(50, 50), "dewey").target == "local"
        assert advisor.decide(self.snapshot(90, 10), "dewey").target == "global"

    def test_holds_below_min_samples(self):
        advisor = MigrationAdvisor()
        rec = advisor.decide(self.snapshot(5, 5), "global")
        assert not rec.migrate and rec.samples == 10

    def test_holds_when_already_on_best(self):
        advisor = MigrationAdvisor()
        rec = advisor.decide(self.snapshot(40, 60), "local")
        assert not rec.migrate
        assert "already on local" in rec.reason

    def test_accepts_flat_counters_and_full_snapshots(self):
        advisor = MigrationAdvisor()
        flat = self.snapshot(40, 60)["counters"]
        assert advisor.decide(flat, "global").target == "local"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MigrationAdvisor(min_samples=0)
