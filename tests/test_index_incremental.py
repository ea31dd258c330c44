"""Incremental secondary-index maintenance.

Each insert, delete and rename of an indexed document repairs its own
index rows inside its transaction.  Guards around that repair:

* **equivalence** — after every op of a seeded update script the
  maintained index must pass the invariant audit (which derives the
  expected rows from the node tables on its own) and its tables must
  be byte-identical to those of a twin that rebuilds its index with
  ``indexes.create`` after every op, across all four encodings and
  both backends;
* **scaling** — maintenance row writes, and the rows any single write
  reads, must track the update's touched rows, not the document's size,
  depth or text (the counter-based regressions that pin the complexity
  claim);
* **one maintenance path** — every update repairs, however much of the
  document it touches: a delete of most of it converges on the twin's
  tables in fewer row writes than a rebuild, and the CI index-twin
  fuzz rebuilds nothing;
* **fresh rows** — an inserted subtree's rows reach the index as the
  update wrote them, and several operations sharing one commit each
  repair their own;
* **no-ops and holes** — zero-row no-op updates skip maintenance
  entirely, and only a parent with no index row rebuilds.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from tests.conftest import ALL_ENCODINGS, BACKENDS, counters
from repro.check import audit_document
from repro.check.fuzz import apply_operation, plan_operation
from repro.cli import main
from repro.core.reconstruct import ordered_rows
from repro.obs import METRICS
from repro.store import XmlStore
from repro.workload import catalog_corpus
from repro.workload.docgen import random_document, sized_article_corpus

def index_rows(store: XmlStore, doc: int) -> list:
    return sorted(store.backend.execute(
        "SELECT * FROM idx_sval WHERE doc = ?", (doc,)
    ).rows)


def twin_pair(backend: str, encoding: str, document):
    """Two indexed stores of *document*: ``(incr, doc, eager, doc)``.
    The first is only ever maintained by its updates; callers rebuild
    the second (``indexes.create``) after every op."""
    pair = []
    for _ in range(2):
        store = XmlStore(backend=backend, encoding=encoding)
        doc = store.load(document)
        store.indexes.create(doc)
        pair += [store, doc]
    return pair


def apply_to_both(incr, doc_i, eager, doc_e, op) -> None:
    apply_operation(incr, doc_i, op)
    apply_operation(eager, doc_e, op)
    eager.indexes.create(doc_e)
    assert audit_document(incr, doc_i) == [], op["describe"]
    assert index_rows(incr, doc_i) == index_rows(eager, doc_e), (
        f"tables diverged after {op['describe']}"
    )


class TestIncrementalVsEager:
    """The equivalence property: a clean audit and byte-identical data
    tables after every op."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_seeded_script_leaves_identical_tables(
        self, backend, encoding
    ):
        document = random_document(13, max_depth=4, max_children=3)
        incr, doc_i, eager, doc_e = twin_pair(backend, encoding, document)
        assert index_rows(incr, doc_i) == index_rows(eager, doc_e)
        rng = random.Random(1301)
        for _ in range(12):
            op = plan_operation(rng, incr, doc_i, update_heavy=True)
            apply_to_both(incr, doc_i, eager, doc_e, op)
        incr.close()
        eager.close()

    def test_incremental_path_actually_taken(self):
        document = random_document(13, max_depth=4, max_children=3)
        incr, doc, eager, _doc_e = twin_pair("sqlite", "dewey", document)
        eager.close()
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            rng = random.Random(1301)
            for _ in range(8):
                op = plan_operation(rng, incr, doc, update_heavy=True)
                apply_operation(incr, doc, op)
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert counters["index.incremental"] >= 1
        assert counters.get("index.fallback_rebuild", 0) == 0
        incr.close()


class TestMaintenanceScaling:
    """Row writes track the touched set, not the document."""

    def _writes_for_one_set_text(self, products: int) -> int:
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=products))
        store.indexes.create(doc)
        catalog = store.fetch_children(doc, 0)[0]
        product = store.fetch_children(doc, catalog["id"])[0]
        name = store.fetch_children(doc, product["id"])[0]
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store.updates.set_text(doc, name["id"], "renamed")
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        store.close()
        # One repair per step: the delete of the old text, the insert
        # of the new.
        assert counters["index.incremental"] == 2
        assert counters.get("index.fallback_rebuild", 0) == 0
        return counters["index.row_writes"]

    def test_row_writes_independent_of_document_size(self):
        small = self._writes_for_one_set_text(products=8)
        large = self._writes_for_one_set_text(products=160)
        # Same op shape at the same depth: identical repair cost, and
        # nowhere near the 160-product document's element count.
        assert small == large
        assert large < 40

    def test_eager_rebuild_writes_scale_with_document(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=160))
        store.indexes.create(doc)
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store.indexes.create(doc)  # the rebuild an update avoids
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        store.close()
        incremental = self._writes_for_one_set_text(products=160)
        assert counters["index.row_writes"] > 10 * incremental

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_statements_independent_of_chain_depth(self, backend, encoding):
        """One indexed text insert issues as many statements 3 levels
        down a chain as 30 levels down: no index row above the parent
        depends on the text."""
        depth = 32
        chain = "".join(f"<e{i}>" for i in range(depth)) + "".join(
            f"</e{i}>" for i in reversed(range(depth))
        )
        statements = []
        for level in (3, 30):
            store = XmlStore(backend=backend, encoding=encoding)
            doc = store.load(chain)
            store.indexes.create(doc)
            path = "/" + "/".join(f"e{i}" for i in range(level))
            (target,) = store.query(path, doc)
            position = len(store.fetch_children(doc, target.node_id))
            with counters() as count:
                store.updates.insert(doc, target.node_id, position, "t")
                assert count("index.incremental") == 1
                statements.append(count("backend.statements"))
            store.close()
        assert statements[0] == statements[1]

    #: minidb rows (read, written) of the indexed insert below: the
    #: unindexed insert's (Global's reads 9, the others' 4) plus what
    #: the index adds, 5 read and 2 written on every encoding.
    INDEXED_INSERT_COST = {
        "global": (14, 6), "local": (9, 5), "dewey": (9, 5),
        "ordpath": (9, 5),
    }

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_an_insert_costs_the_same_at_any_document_size(self, encoding):
        """One ``<b generated="1"/>`` appended under a paragraph reads
        and writes as many minidb rows at 16,000 nodes as at 1,000: the
        index rewrites only the new element's row and the paragraph's,
        which stops being a leaf.  (When every element kept its full
        string-value, Dewey's insert read 97 rows at 1,000 nodes and
        931 at 16,000.)  Global's append probes for the first row after
        the insertion point and stops there, at any document size."""
        costs = {}
        for size in (1000, 16000):
            document = sized_article_corpus(size)
            for indexed in (False, True):
                store = XmlStore(backend="minidb", encoding=encoding)
                doc = store.load(document)
                if indexed:
                    store.indexes.create(doc)
                (para,) = store.query(
                    "/journal/article[1]/section[1]/para[1]", doc
                )
                position = len(store.fetch_children(doc, para.node_id))
                stats = store.backend.db.stats
                before = stats.rows_read, stats.rows_written
                store.updates.insert(
                    doc, para.node_id, position, '<b generated="1"/>'
                )
                costs[size, indexed] = (
                    stats.rows_read - before[0],
                    stats.rows_written - before[1],
                )
                store.close()
        assert costs[1000, False] == costs[16000, False], costs
        assert costs[1000, True] == costs[16000, True], costs
        assert costs[16000, True] == self.INDEXED_INSERT_COST[encoding]

    #: Statements an index adds to one write under a ``para`` leaf:
    #: one read of the parent's stored row, the new rows, and the
    #: parent's row, which changes (the ``para`` stops being a leaf, or
    #: its text changes).  A delete of the ``para`` drops its row and
    #: leaves its ``section`` parent's as it was; a rename reads its
    #: subtree back and deletes its old rows first; a ``set_text`` is a
    #: delete and an insert of text, each repairing its own rows.  No
    #: write reads or extends a table of paths.
    INDEX_STATEMENTS = {
        "leaf": 3, "subtree": 3, "rename": 4, "delete": 2, "text": 2,
        "set_text": 4,
    }

    #: Each write, given the store, the document, the ``para``'s id and
    #: its number of children.
    WRITES = {
        "leaf": lambda store, doc, para, end: store.updates.insert(
            doc, para, end, "<b/>"
        ),
        "subtree": lambda store, doc, para, end: store.updates.insert(
            doc, para, end, "<b><i>x</i><i>y</i></b>"
        ),
        "rename": lambda store, doc, para, end: store.updates.rename(
            doc, para, "note"
        ),
        "delete": lambda store, doc, para, end: store.updates.delete(
            doc, para
        ),
        "text": lambda store, doc, para, end: store.updates.insert(
            doc, para, end, "t"
        ),
        "set_text": lambda store, doc, para, end: store.updates.set_text(
            doc, para, "t"
        ),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_the_statements_an_index_adds_to_a_write(
        self, backend, encoding
    ):
        document = sized_article_corpus(300)
        added = {}
        for op, write in self.WRITES.items():
            statements = []
            for indexed in (False, True):
                store = XmlStore(backend=backend, encoding=encoding)
                doc = store.load(document)
                if indexed:
                    store.indexes.create(doc)
                (para,) = store.query(
                    "/journal/article[1]/section[1]/para[1]", doc
                )
                end = len(store.fetch_children(doc, para.node_id))
                with counters() as count:
                    write(store, doc, para.node_id, end)
                    statements.append(count("backend.statements"))
                    assert count("index.fallback_rebuild") == 0
                if indexed:
                    assert audit_document(store, doc) == [], op
                store.close()
            added[op] = statements[1] - statements[0]
        assert added == self.INDEX_STATEMENTS

    @pytest.mark.parametrize("encoding", ("dewey", "local"))
    def test_no_write_reads_the_whole_document(self, encoding):
        """On minidb's deterministic counters: 100 single-node inserts
        into an indexed 3000-node document, each appended under a
        different paragraph (so no sibling is renumbered).  Every write
        reads about what the median write reads — nothing surveys the
        document on a schedule."""
        store = XmlStore(backend="minidb", encoding=encoding)
        doc = store.load(sized_article_corpus(3000))
        store.indexes.create(doc)
        paras = [item.node_id for item in store.query("//para", doc)]
        stats = store.backend.db.stats
        reads = []
        for n in range(100):
            parent = paras[(n * 7) % len(paras)]
            position = len(store.fetch_children(doc, parent))
            before = stats.rows_read
            store.updates.insert(doc, parent, position, "<i/>")
            reads.append(stats.rows_read - before)
        median = sorted(reads)[len(reads) // 2]
        assert max(reads) <= 2 * median, (
            f"write #{reads.index(max(reads)) + 1} read {max(reads)} "
            f"rows, the median write {median}"
        )
        assert median < store.document_info(doc).node_count / 5
        store.close()


class TestFreshRows:
    """Inserted rows are indexed as they were written, never read back;
    a later write in the same transaction repairs them like any
    other rows."""

    #: 20 nodes, the root's children all elements.
    DOCUMENT = random_document(1, max_depth=4, max_children=3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_deleted_by_a_later_step_of_the_same_operation(
        self, backend, encoding
    ):
        incr, doc_i, eager, doc_e = twin_pair(backend, encoding, self.DOCUMENT)
        root = incr.fetch_children(doc_i, 0)[0]["id"]
        parent = incr.fetch_children(doc_i, root)[0]["id"]

        def compound(store, doc):
            # Three public operations in one transaction: the first
            # insert's subtree is gone before the commit.
            updates = store.updates

            def body():
                gone = updates.insert(doc, parent, 0, "<gone>a<b/></gone>")
                updates.insert(doc, parent, 0, "<kept>c</kept>")
                updates.delete(doc, gone.new_root_id)

            store.transactionally(body)

        with counters() as count:
            compound(incr, doc_i)
            assert count("index.incremental") == 3
            assert count("index.fallback_rebuild") == 0
        compound(eager, doc_e)
        eager.indexes.create(doc_e)
        assert audit_document(incr, doc_i) == []
        assert index_rows(incr, doc_i) == index_rows(eager, doc_e)
        incr.close()
        eager.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_group_commit_of_inserts_and_a_delete(self, backend, encoding):
        """Five operations in one ``transactionally`` body, one commit:
        each operation maintains the index at its own end, so the
        delete of a node an earlier operation inserted must drop that
        node's rows."""
        incr, doc_i, eager, doc_e = twin_pair(backend, encoding, self.DOCUMENT)
        root = incr.fetch_children(doc_i, 0)[0]["id"]
        parent = incr.fetch_children(doc_i, root)[0]["id"]
        first = incr.document_info(doc_i).next_id
        steps = [
            lambda store, doc: store.updates.insert(
                doc, parent, 0, "<w>one<v>two</v></w>"
            ),
            lambda store, doc: store.updates.insert(doc, parent, 1, "three"),
            lambda store, doc: store.updates.insert(
                doc, first, 0, "<u>four</u>"
            ),
            lambda store, doc: store.updates.delete(doc, first + 2),
            lambda store, doc: store.updates.insert(doc, 0, 1, "<!--c-->"),
        ]

        def batch():
            for step in steps:
                step(incr, doc_i)

        with counters() as count:
            incr.transactionally(batch)
            assert count("index.incremental") == len(steps)
            assert count("index.fallback_rebuild") == 0
        for step in steps:
            step(eager, doc_e)
        eager.indexes.create(doc_e)
        assert audit_document(incr, doc_i) == []
        assert index_rows(incr, doc_i) == index_rows(eager, doc_e)
        incr.close()
        eager.close()


class TestOneMaintenancePath:
    def test_delete_of_most_of_the_document_is_repaired(self):
        """17 of the document's 20 nodes go: the update repairs the
        index from its touched set, and writes fewer index rows than a
        rebuild in its place, which deletes every row the document had
        and writes one per element left."""
        document = random_document(1, max_depth=4, max_children=3)
        incr, doc_i, eager, doc_e = twin_pair("sqlite", "global", document)
        root = incr.fetch_children(doc_i, 0)[0]
        target = max(
            (
                child
                for child in incr.fetch_children(doc_i, root["id"])
                if child["kind"] == "elem"
            ),
            key=lambda child: len(ordered_rows(incr, doc_i, child)),
        )
        assert len(ordered_rows(incr, doc_i, target)) == 17

        def elements() -> int:
            return incr.backend.execute(
                "SELECT COUNT(*) FROM idx_sval WHERE doc = ?", (doc_i,)
            ).rows[0][0]

        before = elements()
        with counters() as count:
            incr.updates.delete(doc_i, target["id"])
            assert count("index.incremental") == 1
            assert count("index.fallback_rebuild") == 0
            written = count("index.row_writes")
        assert written < before + elements()
        eager.updates.delete(doc_e, target["id"])
        eager.indexes.create(doc_e)
        assert audit_document(incr, doc_i) == []
        assert index_rows(incr, doc_i) == index_rows(eager, doc_e)
        incr.close()
        eager.close()

    def test_the_ci_index_twin_fuzz_rebuilds_nothing(self, capsys):
        """The tier-1 CI step's seeds: all 210 updates of the 120
        operations (an insert run is ten inserts) on all eight indexed
        stores repair the index, 223 repairs a store: a ``set_text``
        repairs once for each of its steps (the check fails on any
        rebuild, and the summary counts both)."""
        assert main([
            "fuzz", "--seeds", "3", "--ops", "40",
            "--backends", "sqlite,minidb", "--check-every", "5",
            "--index-twin", "--update-heavy",
        ]) == 0
        (summary,) = capsys.readouterr().out.splitlines()
        assert summary.endswith(
            "maintenance: repaired=1784 rebuilt=0: OK"
        ), summary

    def test_no_rebuild_budget_and_no_second_table_return(self):
        """Maintenance has one path and the index one row per element:
        no size budget routes an update to the rebuild, no touched set
        rides on a report, no nesting depth picks the operation that
        repairs, and no occurrence table stands beside ``idx_sval``."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for name in (
                "idx_pathmap", "INCR_FALLBACK_FRACTION", "report is None",
                "inserted_subtrees", "reshred_roots", "sval_anchors",
                "_apply_delta_in_transaction",
            ):
                assert name not in text, f"{path.name} names {name}"
        # No nesting depth decides which operation repairs the index.
        updates = (src / "core" / "updates.py").read_text(encoding="utf-8")
        for name in ("_tls", "threading"):
            assert name not in updates, f"updates.py names {name}"


class TestSatelliteFixes:
    def _indexed_catalog(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load(catalog_corpus(products=6))
        store.indexes.create(doc)
        return store, doc

    def test_noop_update_skips_maintenance(self):
        """A zero-row no-op does nothing at all; a real multi-row
        update right after it on the same store repairs."""
        store, doc = self._indexed_catalog()
        catalog = store.fetch_children(doc, 0)[0]
        product = store.fetch_children(doc, catalog["id"])[0]
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            # Removing an attribute that does not exist touches zero
            # rows: no repair, no rebuild.
            report = store.updates.set_attribute(
                doc, catalog["id"], "nope", None
            )
            noop = METRICS.snapshot()["counters"]
            store.updates.delete(doc, product["id"])
            real = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert report.rows_touched() == 0
        assert noop.get("index.maintained", 0) == 0
        assert noop.get("index.row_writes", 0) == 0
        assert real["index.incremental"] == 1
        assert real.get("index.fallback_rebuild", 0) == 0
        store.close()

    def test_noop_update_skips_eager_rebuild_too(self):
        """A parent with no index row is the one hole left, and only a
        corrupt index has it: an insert under it rebuilds the
        document's rows, after which the audit is clean; the zero-row
        no-op still does nothing at all."""
        store, doc = self._indexed_catalog()
        catalog = store.fetch_children(doc, 0)[0]
        product = store.fetch_children(doc, catalog["id"])[0]
        store.backend.execute(
            "DELETE FROM idx_sval WHERE doc = ? AND id = ?",
            (doc, product["id"]),
        )
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enabled = True
        try:
            store.updates.set_attribute(doc, catalog["id"], "nope", None)
            noop = METRICS.snapshot()["counters"]
            store.updates.insert(doc, product["id"], 0, "<x/>")
            real = METRICS.snapshot()["counters"]
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        assert noop.get("index.maintained", 0) == 0
        assert noop.get("index.row_writes", 0) == 0
        assert real["index.fallback_rebuild"] == 1
        assert real.get("index.incremental", 0) == 0
        assert audit_document(store, doc) == []
        store.close()
