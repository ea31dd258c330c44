"""Update-semantics tests: inserts/deletes per encoding, renumbering
costs, and post-update query correctness (invariant 5)."""

import random

import pytest

from repro.core.dewey import DeweyKey
from repro.errors import EncodingError, TranslationError, UpdateError
from repro.store import XmlStore
from repro.workload.docgen import sized_article_corpus
from repro.xmldom import Element, Text, parse
from repro.xpath import Evaluator, string_value
from tests.conftest import ALL_ENCODINGS, BACKENDS, ENCODINGS, statement_log


def assert_values_match_oracle(store, doc, dom, xpath):
    """Compare query result *values* with the oracle.

    After updates the store's surrogate ids no longer correspond to a
    fresh preorder numbering of the mutated DOM, so identity comparison
    does not apply; attribute/text values in document order do.
    """
    got = [item.value for item in store.query(xpath, doc)]
    want = [string_value(n) for n in Evaluator(dom).evaluate(xpath)]
    assert got == want, f"{store.encoding.name}: {got} != {want}"

LIST_XML = (
    "<list>"
    + "".join(f'<item n="{i}"><v>{i}</v></item>' for i in range(8))
    + "</list>"
)


def make_store(encoding, gap=1, backend="sqlite"):
    store = XmlStore(backend=backend, encoding=encoding, gap=gap)
    doc = store.load(LIST_XML)
    root_id = store.query("/list", doc)[0].node_id
    return store, doc, root_id


def apply_dom(dom, index, fragment_xml):
    fragment = parse(f"<wrap>{fragment_xml}</wrap>").root.children[0]
    dom.root.insert(index, fragment)


class TestInsertSemantics:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    @pytest.mark.parametrize("index", [0, 3, 8])
    def test_insert_element_at_index(self, encoding, index):
        store, doc, root_id = make_store(encoding)
        dom = parse(LIST_XML)
        fragment_xml = '<item n="NEW"><v>new</v></item>'
        store.updates.insert(doc, root_id, index, fragment_xml)
        apply_dom(dom, index, fragment_xml)
        assert store.reconstruct(doc).structurally_equal(dom)
        assert_values_match_oracle(store, doc, dom, "/list/item/@n")

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_append_helper(self, encoding):
        store, doc, root_id = make_store(encoding)
        report = store.updates.append(doc, root_id, "<item n='z'/>")
        assert report.inserted == 1
        values = store.query_values("/list/item[last()]/@n", doc)
        assert values == ["z"]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_into_empty_element(self, encoding):
        store = XmlStore(backend="sqlite", encoding=encoding)
        doc = store.load("<root><empty/></root>")
        empty_id = store.query("/root/empty", doc)[0].node_id
        store.updates.insert(doc, empty_id, 0, "<child/>")
        assert len(store.query("/root/empty/child", doc)) == 1

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_text_updates_parent_value(self, encoding):
        store, doc, _root = make_store(encoding)
        v_id = store.query("/list/item[1]/v", doc)[0].node_id
        report = store.updates.insert(doc, v_id, 0, Text("pre-"))
        assert report.value_updates == 1
        assert store.query_values("/list/item[v = 'pre-0']/@n", doc) == \
            ["0"]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_subtree_with_attributes(self, encoding):
        store, doc, root_id = make_store(encoding)
        fragment = Element("item", {"n": "X"})
        child = Element("v", {"unit": "ms"})
        child.append(Text("77"))
        fragment.append(child)
        report = store.updates.insert(doc, root_id, 4, fragment)
        assert report.inserted == 3
        assert store.query_values("//v[@unit = 'ms']/text()", doc) == \
            ["77"]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_updates_document_info(self, encoding):
        store, doc, root_id = make_store(encoding)
        before = store.document_info(doc)
        store.updates.insert(doc, root_id, 0, "<item><v>x</v></item>")
        after = store.document_info(doc)
        assert after.node_count == before.node_count + 3
        assert after.next_id == before.next_id + 3

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_new_ids_do_not_collide(self, encoding):
        store, doc, root_id = make_store(encoding)
        for _ in range(5):
            store.updates.insert(doc, root_id, 0, "<item/>")
        rows = store.backend.execute(
            f"SELECT COUNT(*) FROM {store.node_table} WHERE doc = ?",
            (doc,),
        )
        ids = store.backend.execute(
            f"SELECT COUNT(DISTINCT id) FROM {store.node_table} "
            f"WHERE doc = ?",
            (doc,),
        )
        assert rows.rows[0][0] == ids.rows[0][0]

    def test_insert_bad_parent_raises(self):
        store, doc, _root = make_store("dewey")
        with pytest.raises(UpdateError):
            store.updates.insert(doc, 999, 0, "<x/>")

    def test_insert_bad_index_raises(self):
        store, doc, root_id = make_store("dewey")
        with pytest.raises(UpdateError):
            store.updates.insert(doc, root_id, 99, "<x/>")

    def test_insert_under_text_node_raises(self):
        store, doc, _root = make_store("dewey")
        text_id = store.query("/list/item[1]/v/text()", doc)[0].node_id
        with pytest.raises(UpdateError):
            store.updates.insert(doc, text_id, 0, "<x/>")


class TestDeleteSemantics:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_delete_subtree(self, encoding):
        store, doc, _root = make_store(encoding)
        target = store.query("/list/item[3]", doc)[0].node_id
        report = store.updates.delete(doc, target)
        assert report.deleted == 3  # item + v + text
        dom = parse(LIST_XML)
        dom.root.remove(dom.root.children[2])
        assert store.reconstruct(doc).structurally_equal(dom)

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_delete_removes_attributes(self, encoding):
        store, doc, _root = make_store(encoding)
        target = store.query("/list/item[1]", doc)[0].node_id
        store.updates.delete(doc, target)
        attrs = store.backend.execute(
            f"SELECT COUNT(*) FROM {store.attr_table} "
            f"WHERE doc = ? AND owner = ?",
            (doc, target),
        )
        assert attrs.rows[0][0] == 0

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_delete_text_updates_parent_value(self, encoding):
        store, doc, _root = make_store(encoding)
        text_id = store.query("/list/item[2]/v/text()", doc)[0].node_id
        report = store.updates.delete(doc, text_id)
        assert report.value_updates == 1
        # The v element now has no text: value predicates see NULL.
        assert store.query_values("/list/item[2]/v", doc) == [None]

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_delete_then_insert_reuses_space(self, encoding):
        store, doc, root_id = make_store(encoding)
        target = store.query("/list/item[4]", doc)[0].node_id
        store.updates.delete(doc, target)
        store.updates.insert(doc, root_id, 3, "<item n='re'/>")
        dom = parse(LIST_XML)
        dom.root.remove(dom.root.children[3])
        apply_dom(dom, 3, "<item n='re'/>")
        assert store.reconstruct(doc).structurally_equal(dom)

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_delete_updates_node_count(self, encoding):
        store, doc, _root = make_store(encoding)
        before = store.document_info(doc).node_count
        target = store.query("/list/item[1]", doc)[0].node_id
        store.updates.delete(doc, target)
        assert store.document_info(doc).node_count == before - 3

    def test_delete_unknown_node_raises(self):
        store, doc, _root = make_store("global")
        with pytest.raises(UpdateError):
            store.updates.delete(doc, 999)


class TestRenumberingCosts:
    """The paper's update cost model, asserted directly."""

    def test_global_front_insert_relabels_tail(self):
        store, doc, root_id = make_store("global")
        total = store.document_info(doc).node_count
        report = store.updates.insert(doc, root_id, 0, "<item/>")
        # Everything after the root must shift (all nodes except root).
        assert report.relabeled >= total - 1

    def test_global_append_is_cheap(self):
        store, doc, root_id = make_store("global")
        report = store.updates.append(doc, root_id, "<item/>")
        # Only ancestor endpos extensions (root), no tail shift.
        assert report.relabeled <= 1

    def test_local_insert_relabels_following_siblings_only(self):
        store, doc, root_id = make_store("local")
        report = store.updates.insert(doc, root_id, 2, "<item/>")
        assert report.relabeled == 6  # items 2..7

    def test_dewey_insert_relabels_following_subtrees(self):
        store, doc, root_id = make_store("dewey")
        report = store.updates.insert(doc, root_id, 2, "<item/>")
        assert report.relabeled == 6 * 3  # six items x 3 nodes each

    def test_dewey_relabel_preserves_subtree_keys(self):
        store, doc, root_id = make_store("dewey")
        store.updates.insert(doc, root_id, 0, "<item n='new'/>")
        rows = store.backend.execute(
            f"SELECT dkey, parent, id FROM {store.node_table} "
            f"WHERE doc = ? ORDER BY dkey",
            (doc,),
        ).rows
        # Every non-top key must extend its parent's key by one component.
        key_by_id = {row[2]: DeweyKey.decode(row[0]) for row in rows}
        for key_bytes, parent, _node_id in rows:
            if parent == 0:
                continue
            key = DeweyKey.decode(key_bytes)
            assert key.parent() == key_by_id[parent]

    def test_deletes_never_relabel(self):
        for encoding in ENCODINGS:
            store, doc, _root = make_store(encoding)
            target = store.query("/list/item[2]", doc)[0].node_id
            report = store.updates.delete(doc, target)
            assert report.relabeled == 0

    def test_ordering_of_costs_matches_paper(self):
        """Global >= Dewey >= Local for a front insertion."""
        costs = {}
        for encoding in ENCODINGS:
            store, doc, root_id = make_store(encoding)
            report = store.updates.insert(doc, root_id, 0, "<item/>")
            costs[encoding] = report.relabeled
        assert costs["global"] >= costs["dewey"] >= costs["local"]

    def test_dewey_locality_beats_global(self):
        """Inserting deep in the tree: Dewey only touches the local
        sibling subtrees while Global shifts the tail."""
        costs = {}
        for encoding in ("global", "dewey"):
            store, doc, _root = make_store(encoding)
            parent = store.query("/list/item[2]", doc)[0].node_id
            report = store.updates.insert(doc, parent, 0, "<v>n</v>")
            costs[encoding] = report.relabeled
        assert costs["dewey"] < costs["global"]


class TestSparseNumbering:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_gap_absorbs_single_insert(self, encoding):
        store, doc, root_id = make_store(encoding, gap=16)
        report = store.updates.insert(doc, root_id, 3, "<item/>")
        assert report.relabeled == 0

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_gap_exhaustion_triggers_renumbering(self, encoding):
        store, doc, root_id = make_store(encoding, gap=2)
        relabeled = 0
        for _ in range(6):
            report = store.updates.insert(doc, root_id, 1, "<item/>")
            relabeled += report.relabeled
        assert relabeled > 0  # eventually the gap runs out

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_gapped_inserts_stay_correct(self, encoding):
        store, doc, root_id = make_store(encoding, gap=4)
        dom = parse(LIST_XML)
        for step in range(5):
            xml = f"<item n='g{step}'/>"
            store.updates.insert(doc, root_id, 1, xml)
            apply_dom(dom, 1, xml)
        assert store.reconstruct(doc).structurally_equal(dom)
        assert_values_match_oracle(store, doc, dom, "/list/item/@n")


    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_a_session_at_another_gap_inserts_at_the_documents(
        self, encoding
    ):
        """The gap is the document's: a store opened at gap 1 writes a
        document loaded at gap 8 exactly as the loading store does."""

        def churn(store, doc, root_id):
            for index in (1, 1, 1, 1, 8, 0, 0, 0):
                store.updates.insert(doc, root_id, index, "<item/>")
            table = store.node_table
            return store.backend.execute(
                f"SELECT * FROM {table} WHERE doc = ? ORDER BY id", (doc,)
            ).rows

        loaded, doc, root_id = make_store(encoding, gap=8)
        twin, twin_doc, twin_root = make_store(encoding, gap=8)
        session = XmlStore(backend=twin.backend, encoding=encoding, gap=1)
        assert churn(session, twin_doc, twin_root) == churn(
            loaded, doc, root_id
        )


class TestUpdatesOnMinidb:
    """The same update machinery must work on the from-scratch engine."""

    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_insert_delete_roundtrip(self, encoding):
        store, doc, root_id = make_store(encoding, backend="minidb")
        dom = parse(LIST_XML)
        store.updates.insert(doc, root_id, 2, "<item n='m'/>")
        apply_dom(dom, 2, "<item n='m'/>")
        target = store.query("/list/item[5]", doc)[0].node_id
        store.updates.delete(doc, target)
        dom.root.remove(dom.root.children[4])
        assert store.reconstruct(doc).structurally_equal(dom)


class TestNodeIdsAreInts:
    """A query result handed over as a node id is refused with a typed
    error before any engine sees it, and the document is unchanged."""

    OPERATIONS = {
        "insert": lambda s, d, item: s.updates.insert(d, item, 0, "<x/>"),
        "append": lambda s, d, item: s.updates.append(d, item, "<x/>"),
        "delete": lambda s, d, item: s.updates.delete(d, item),
        "set_text": lambda s, d, item: s.updates.set_text(d, item, "t"),
        "rename": lambda s, d, item: s.updates.rename(d, item, "y"),
        "set_attribute": (
            lambda s, d, item: s.updates.set_attribute(d, item, "k", "v")
        ),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_an_update_refuses_a_result_item(self, backend, operation):
        store, doc, _root_id = make_store("dewey", backend=backend)
        item = store.query("/list/item[2]", doc)[0]
        with pytest.raises(UpdateError, match="not ResultItem"):
            self.OPERATIONS[operation](store, doc, item)
        assert store.reconstruct(doc).structurally_equal(parse(LIST_XML))
        self.OPERATIONS[operation](store, doc, item.node_id)
        assert not store.reconstruct(doc).structurally_equal(
            parse(LIST_XML)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_query_refuses_a_result_item_as_its_context(self, backend):
        store, doc, _root_id = make_store("dewey", backend=backend)
        item = store.query("/list/item[2]", doc)[0]
        with pytest.raises(TranslationError, match="not ResultItem"):
            store.query("v", doc, context_id=item)
        assert [r.value for r in store.query("v", doc, item.node_id)] \
            == ["1"]


class TestRenumberingIsOneStatement:
    """A renumbering is an ``UPDATE`` the engine evaluates, never a
    loop over the rows it touches."""

    @staticmethod
    def insert_before_k_siblings(backend: str, k: int):
        xml = "<r>" + "<s><t>x</t></s>" * k + "</r>"
        store = XmlStore(backend=backend, encoding="dewey", gap=1)
        doc = store.load(xml)
        log = statement_log(store)
        report = store.updates.insert(doc, 1, 0, "<new/>")
        return report, log

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dewey_statements_do_not_grow_with_the_siblings(self, backend):
        one, log_one = self.insert_before_k_siblings(backend, 1)
        forty, log_forty = self.insert_before_k_siblings(backend, 40)
        assert (one.relabeled, forty.relabeled) == (3, 120)
        assert log_one == log_forty
        shifts = [sql for sql in log_forty if sql.startswith("UPDATE node_")]
        assert len(shifts) == 1 and "dewey_shift(dkey, ?, ?)" in shifts[0]

    def test_dewey_top_level_shift_has_no_upper_bound(self):
        store = XmlStore(encoding="dewey", gap=1)
        doc = store.load("<!--a--><r><s/></r><!--b-->")
        log = statement_log(store)
        report = store.updates.insert(doc, 0, 0, "<!--first-->")
        assert report.relabeled == 4
        (shift,) = [sql for sql in log if sql.startswith("UPDATE node_")]
        assert shift.endswith("WHERE doc = ? AND dkey >= ?")
        assert [i.value for i in store.query("/comment()", doc)] == [
            "first", "a", "b",
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_global_shift_writes_each_row_once_and_scans_no_endpos(
        self, backend
    ):
        store, doc, _root = make_store("global", backend=backend)
        total = store.document_info(doc).node_count
        parent = store.query("/list/item[4]", doc)[0].node_id
        written = store.backend.rows_written()
        log = statement_log(store)
        report = store.updates.insert(doc, parent, 0, "<w/>")
        updates = [
            sql for sql in log
            if sql.startswith("UPDATE node_global")
        ]
        assert updates[0] == (
            "UPDATE node_global SET pos = pos + ?, endpos = endpos + ? "
            "WHERE doc = ? AND pos >= ?"
        )
        for sql in updates:
            where = sql.split(" WHERE ", 1)[1]
            assert "endpos" not in where, sql
        # item[4], the list: the two intervals around the insertion
        # point follow the tail by id; nothing else is written twice.
        assert updates[1:] == [
            "UPDATE node_global SET endpos = endpos + ? "
            "WHERE doc = ? AND id IN (?, ?)"
        ]
        tail = total - (1 + 3 * 3 + 1)  # list, items 1-3, item[4] itself
        assert report.relabeled == tail + 2
        # relabeled rows, the new row and the catalogue row
        assert store.backend.rows_written() - written == report.relabeled + 2

    @pytest.mark.parametrize("index", (0, 1, 150, 298))
    def test_local_shift_reads_only_the_siblings_it_moves(self, index):
        """Local's shift writes the right neighbour and the siblings
        after it by id, in ``IN`` batches: the child index holds tag
        before ``lpos``, so an ``lpos`` range would read the parent's
        whole child list on minidb, wherever the insert goes."""
        kids = "".join(f"<{'ab'[i % 2]}/>" for i in range(300))
        store = XmlStore(backend="minidb", encoding="local", gap=1)
        doc = store.load(f"<r>{kids}</r>")
        stats = store.backend.db.stats
        execute = store.backend.execute
        shift_reads = []

        def measured(sql, params=()):
            before = stats.rows_read
            result = execute(sql, params)
            if sql.startswith("UPDATE node_local SET lpos"):
                shift_reads.append(stats.rows_read - before)
            return result

        store.backend.execute = measured
        report = store.updates.insert(doc, 1, index, "<c/>")
        assert report.relabeled == 300 - index
        assert 1 <= len(shift_reads) and sum(shift_reads) <= (
            report.relabeled + 2
        )
        assert [i.label for i in store.query("/r/*", doc)][index:index + 2] \
            == ["c", "ab"[index % 2]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_local_shift_prepares_a_handful_of_texts(self, backend):
        """A shift by id pads its ``IN`` list to a power of two, so the
        statement texts are a handful, not one per count of moving
        siblings (200 random inserts once made 152 texts)."""
        store = XmlStore(backend=backend, encoding="local", gap=1)
        doc = store.load("<r>" + "<s/>" * 200 + "</r>")
        rng = random.Random(48)
        log = statement_log(store)
        for children in range(200, 400):
            index = rng.randrange(children + 1)
            report = store.updates.insert(doc, 1, index, "<n/>")
            # The padding repeats an id; its row still moves once.
            assert report.relabeled == children - index
        shifts = [sql for sql in log if sql.startswith("UPDATE node_local")]
        assert len(shifts) > 150
        assert len(set(shifts)) <= 10
        lpos = [row["lpos"] for row in store.fetch_children(doc, 1)]
        assert lpos == list(range(1, 401))

    def test_global_append_extends_the_ancestors_to_the_new_node(self):
        store, doc, _root = make_store("global", gap=4)
        last = store.query("/list/item[8]", doc)[0].node_id
        log = statement_log(store)
        report = store.updates.insert(doc, last, 1, "<w/>")
        assert report.relabeled == 2  # item[8] and the list grow
        assert [sql for sql in log if sql.startswith("UPDATE node_")] == [
            "UPDATE node_global SET endpos = ? WHERE doc = ? AND id IN (?, ?)"
        ]

    def test_global_ancestor_walk_probes_by_id_on_minidb(self):
        """Appending under the last paragraph of a 3,500-node document
        shifts no tail and extends a four-row chain: the walk up the
        parent pointers reads that chain, not the whole document once
        per recursion round (minidb joins FROM items left to right)."""
        store = XmlStore(backend="minidb", encoding="global")
        doc = store.load(sized_article_corpus(3000))
        para = store.query("//para", doc)[-1].node_id
        position = len(store.fetch_children(doc, para))
        log = statement_log(store)
        stats = store.backend.db.stats
        before = stats.rows_read
        store.updates.insert(doc, para, position, "<i/>")
        assert stats.rows_read - before < 50
        (walk,) = [sql for sql in log if sql.startswith("WITH RECURSIVE")]
        plan = store.backend.db.explain(walk)
        assert not any("FULL SCAN" in line for line in plan), plan
        (step,) = [
            line for line in plan
            if line.startswith("  step: ") and "node_global n" in line
        ]
        assert "INDEX ux_node_global_id (eq[2])" in step, plan


class TestKeySpaceExhaustion:
    """A shift that pushes a component past the codec's four bytes is a
    typed error and leaves the document as it was, on both engines."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overflowing_shift_rolls_back_typed(self, backend):
        store = XmlStore(backend=backend, encoding="dewey", gap=1)
        doc = store.load("<a><b/><c><d/></c></a>")
        top = 270_549_119
        for node_id, comps in ((2, (1, top - 1)), (3, (1, top)),
                               (4, (1, top, 1))):
            store.backend.execute(
                "UPDATE node_dewey SET dkey = ? WHERE doc = ? AND id = ?",
                (DeweyKey(comps).encode(), doc, node_id),
            )
        before = store.backend.execute(
            "SELECT id, dkey FROM node_dewey WHERE doc = ? ORDER BY id",
            (doc,),
        ).rows
        with pytest.raises(EncodingError, match="exceeds codec range"):
            store.updates.insert(doc, 1, 1, "<x/>")
        assert not store.backend.in_transaction()
        assert store.backend.execute(
            "SELECT id, dkey FROM node_dewey WHERE doc = ? ORDER BY id",
            (doc,),
        ).rows == before
        assert store.document_info(doc, fresh=True).node_count == 4
        # The slot before b is free: the store still takes writes.
        assert store.updates.insert(doc, 1, 0, "<x/>").relabeled == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_load_past_the_codec_at_its_gap_is_typed(self, backend):
        """The gap multiplies every load-time component, so the codec's
        bound on siblings per parent is 270,549,119 // gap: 1,056,832
        at Dewey's declared 256.  Past it a load raises and leaves no
        document."""
        store = XmlStore(backend=backend, encoding="dewey", gap=100_000_000)
        with pytest.raises(EncodingError, match="exceeds codec range"):
            store.load("<a><b/><b/><b/></a>")
        assert store.documents() == []
        assert store.load("<a><b/><b/></a>") == 1
