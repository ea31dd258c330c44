"""Tests for encoding migration (``repro migrate``).

Covers the full source->target encoding matrix on both backends, what
being one transaction promises (two migrations of a document serialize,
a failure before the catalogue flip leaves everything as it was,
writers on other threads all commit, each node row is written once and
no ``mig_*`` table is ever created), the reader-side torn-read guard,
and the workload advisor's E7-crossover thresholds.
"""

import threading
from collections import Counter

import pytest

from repro.backends import make_backend
from repro.check import assert_store_clean
from repro.core.encodings import ENCODINGS
from repro.errors import StorageError
from repro.migrate import MigrationAdvisor, migrate_document
from repro.robust.faults import FaultInjectingBackend
from repro.store import XmlStore
from repro.workload.docgen import random_document, sized_article_corpus
from repro.xmldom import serialize
from tests.conftest import counters

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
        import random

        from repro.check.fuzz import apply_operation, plan_operation

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


class TestTornReadGuard:
    def test_migration_between_translate_and_execute_reruns_the_query(self):
        """A reader resolves the catalogue, then executes, and holds no
        lock in between: a migration that commits there leaves its plan
        bound to a table the document has left.  The epoch moved, so
        the query runs again — same identities, ids survive."""
        store = XmlStore(backend="sqlite", encoding="global")
        twin = XmlStore(backend="sqlite", encoding="global")
        doc, twin_doc = store.load(BIB), twin.load(BIB)
        bind = store.translate
        migrated = []

        def bind_then_migrate(xpath, doc, context_id=None):
            bound = bind(xpath, doc, context_id=context_id)
            if not migrated:
                migrated.append(migrate_document(store, doc, "dewey"))
            return bound

        store.translate = bind_then_migrate
        with counters() as count:
            got = identities(store, doc, QUERIES[0])
            assert count("query.plan_retries") == 1
        assert migrated and store.encoding_for(doc).name == "dewey"
        assert got == identities(twin, twin_doc, QUERIES[0]) != []


    def test_a_query_that_fails_across_a_migration_reruns_too(self):
        """Local's client-order pass fetches ancestors from the plan's
        table after executing; a migration that commits in between has
        emptied it of the document.  That failure is the same torn
        read."""
        store = XmlStore(backend="sqlite", encoding="local")
        twin = XmlStore(backend="sqlite", encoding="local")
        doc, twin_doc = store.load(BIB), twin.load(BIB)
        sort = store._client_sort_nodes
        migrated = []

        def migrate_then_sort(encoding, doc, rows, columns):
            if not migrated:
                migrated.append(migrate_document(store, doc, "dewey"))
            return sort(encoding, doc, rows, columns)

        store._client_sort_nodes = migrate_then_sort
        with counters() as count:
            got = identities(store, doc, "//author")
            assert count("query.plan_retries") == 1
        assert migrated and got == identities(twin, twin_doc, "//author")

    @pytest.mark.parametrize("backend", ["sqlite", "minidb"])
    def test_an_index_dropped_between_translate_and_execute_reruns_the_query(
        self, backend
    ):
        """An index plan bound before the drop commits reads index
        tables emptied of the document.  The drop moves the epoch, so
        the query runs again and scans the node table."""
        store = XmlStore(backend=backend, encoding="global")
        twin = XmlStore(backend=backend, encoding="global")
        doc, twin_doc = store.load(BIB), twin.load(BIB)
        store.indexes.create(doc)
        assert store.translate("/bib/book/title", doc).access_path != "scan"
        bind = store.translate
        dropped = []

        def bind_then_drop(xpath, doc, context_id=None):
            bound = bind(xpath, doc, context_id=context_id)
            if not dropped:
                dropped.append(store.indexes.drop(doc))
            return bound

        store.translate = bind_then_drop
        with counters() as count:
            got = identities(store, doc, "/bib/book/title")
            assert count("query.plan_retries") == 1
        assert dropped == [True]
        assert got == identities(twin, twin_doc, "/bib/book/title") != []

    @pytest.mark.parametrize("encoding", ["global", "local"])
    @pytest.mark.parametrize("backend", ["sqlite", "minidb"])
    def test_a_document_deleted_between_translate_and_execute_is_an_error(
        self, backend, encoding
    ):
        """A plan bound before the delete commits reads no rows: the
        answer is that the document is gone, not that nothing
        matched."""
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(BIB)
        bind = store.translate
        deleted = []

        def bind_then_delete(xpath, doc, context_id=None):
            bound = bind(xpath, doc, context_id=context_id)
            if not deleted:
                deleted.append(store.delete_document(doc))
            return bound

        store.translate = bind_then_delete
        with pytest.raises(StorageError):
            store.query("/bib/book/title", doc)
        assert deleted and not store.documents()


class MigrateBeforeTheNextCall(FaultInjectingBackend):
    """Runs ``then`` once, before the first statement or BEGIN that
    arrives outside a transaction after it is set: a migration that
    commits between an operation's cached catalogue read and its first
    call to the engine."""

    def __init__(self, inner):
        super().__init__(inner)
        self.then = None

    def _fire(self) -> None:
        then, self.then = self.then, None
        if then is not None and threading.get_ident() not in self._tx_depths:
            then()

    def execute(self, sql, params=()):
        self._fire()
        return super().execute(sql, params)

    def begin(self):
        self._fire()
        super().begin()


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
