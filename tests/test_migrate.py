"""Tests for online encoding migration (``repro migrate``).

Covers the full source->target encoding matrix on both backends, the
journal's two-phase staging protocol, concurrent updates landing in the
shadow via replay, the abort path leaving no orphaned shadow state
(regression for the mid-copy abort bug), and the workload advisor's
E7-crossover thresholds.
"""

import threading

import pytest

from repro.core.encodings import ENCODINGS
from repro.errors import MigrationError
from repro.migrate import (
    MigrationAdvisor,
    MigrationJournal,
    migrate_document,
)
from repro.store import XmlStore
from repro.workload.docgen import random_document
from repro.xmldom import serialize

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
    def test_updates_during_migration_replay_into_shadow(self):
        """Writers racing the copy loop land via the journal replay."""
        document = random_document(3, max_depth=4, max_children=3)
        store = XmlStore(backend="sqlite", encoding="global")
        twin = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(document)
        twin_doc = twin.load(document)

        errors: list[BaseException] = []

        def migrate() -> None:
            try:
                migrate_document(store, doc, "dewey", batch_size=1)
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=migrate)
        thread.start()
        for i in range(20):
            fragment = f"<a id=\"{i}\">{i}</a>"
            store.updates.insert(doc, 1, 0, fragment)
            twin.updates.insert(twin_doc, 1, 0, fragment)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert not errors, errors
        assert store.encoding_for(doc).name == "dewey"
        assert serialize(store.reconstruct(doc)) == serialize(
            twin.reconstruct(twin_doc)
        )

    def test_migration_through_write_queue(self):
        store = XmlStore(backend="sqlite", encoding="local")
        doc = store.load(BIB)
        store.enable_write_queue(max_batch=4)
        before = serialize(store.reconstruct(doc))
        report = migrate_document(store, doc, "global")
        assert report.outcome == "migrated"
        assert store.encoding_for(doc).name == "global"
        assert serialize(store.reconstruct(doc)) == before
        store.close()


class TestAbortLeavesNoShadowState:
    """Regression: an aborted migration must drop every ``mig_*``
    table and leave the catalog (and its cache) on the source
    encoding."""

    def _failing_copy_store(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(BIB)
        original = store.backend.executemany
        state = {"armed": True}

        def failing(sql, rows):
            if state["armed"] and "mig_" in sql:
                state["armed"] = False
                raise RuntimeError("disk full (simulated)")
            return original(sql, rows)

        store.backend.executemany = failing
        return store, doc

    def test_abort_mid_copy_then_requery(self):
        store, doc = self._failing_copy_store()
        before = serialize(store.reconstruct(doc))
        with pytest.raises(RuntimeError, match="disk full"):
            migrate_document(store, doc, "dewey")
        # No orphaned shadow tables, no in-flight marker.
        assert store._migration is None
        tables = store.backend.list_tables()
        assert not [t for t in tables if t.startswith("mig_")]
        # Catalog and cache still resolve the source encoding.
        assert store.encoding_for(doc).name == "global"
        assert serialize(store.reconstruct(doc)) == before
        assert len(store.query("/bib/book", doc)) == 3

    def test_abort_then_successful_retry(self):
        store, doc = self._failing_copy_store()
        with pytest.raises(RuntimeError):
            migrate_document(store, doc, "dewey")
        report = migrate_document(store, doc, "dewey")
        assert report.outcome == "migrated"
        assert store.encoding_for(doc).name == "dewey"

    def test_recover_on_open_sweeps_leftover_shadow_tables(self, tmp_path):
        path = str(tmp_path / "store.db")
        from repro.backends.sqlite_backend import SqliteBackend

        backend = SqliteBackend(path)
        store = XmlStore(backend=backend, encoding="global")
        store.load(BIB)
        # Simulate a crash that left shadow tables behind: create one
        # by hand, close, reopen.
        backend.execute("CREATE TABLE mig_leftover (x INTEGER)")
        store.close()
        reopened = XmlStore(
            backend=SqliteBackend(path), encoding="global"
        )
        assert not [
            t
            for t in reopened.backend.list_tables()
            if t.startswith("mig_")
        ]
        reopened.close()


class TestJournal:
    def test_two_phase_stage_promote_drain(self):
        journal = MigrationJournal()
        journal.stage(("delete", 5))
        assert journal.pending() == []  # staged, not yet promoted
        journal.promote()
        assert journal.pending() == [("delete", 5)]
        assert journal.drain() == [("delete", 5)]
        assert journal.pending() == []

    def test_discard_clears_only_this_threads_staging(self):
        journal = MigrationJournal()
        journal.stage(("delete", 1))

        def other() -> None:
            journal.stage(("delete", 2))
            journal.promote()

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        journal.discard()  # drops this thread's ("delete", 1) only
        journal.promote()
        assert journal.pending() == [("delete", 2)]

    def test_poison_and_overflow_flags(self):
        journal = MigrationJournal(capacity=2)
        assert not journal.poisoned
        journal.poison()
        assert journal.poisoned
        for i in range(3):
            journal.stage(("delete", i))
        journal.promote()
        assert journal.overflowed


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
        advisor = MigrationAdvisor(update_heavy=0.5, query_heavy=0.1)
        # share == update_heavy -> local; share == query_heavy -> global
        assert advisor.decide(self.snapshot(50, 50), "dewey").target == "local"
        assert advisor.decide(self.snapshot(90, 10), "dewey").target == "global"

    def test_holds_below_min_samples(self):
        advisor = MigrationAdvisor(min_samples=20)
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
            MigrationAdvisor(update_heavy=0.1, query_heavy=0.5)
        with pytest.raises(ValueError):
            MigrationAdvisor(min_samples=0)


class TestGuards:
    def test_concurrent_second_migration_rejected(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(BIB)
        from repro.migrate.engine import MigrationState

        store._migration = MigrationState(
            doc=doc,
            source=ENCODINGS["global"],
            target=ENCODINGS["dewey"],
            journal=MigrationJournal(),
        )
        try:
            with pytest.raises(MigrationError):
                migrate_document(store, doc, "dewey")
        finally:
            store._migration = None

    def test_bad_batch_size_rejected(self):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load(BIB)
        with pytest.raises(MigrationError):
            migrate_document(store, doc, "dewey", batch_size=0)
