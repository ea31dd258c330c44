"""Tests for offline rebalancing (the amortised renumbering strategy)."""

import threading

import pytest

from repro.check import audit_document
from repro.core import updates
from repro.core.dewey import DeweyKey
from repro.store import XmlStore
from repro.xmldom import serialize
from tests.conftest import ALL_ENCODINGS, BACKENDS


def churned_store(encoding, gap=1, backend="sqlite"):
    """A store after heavy same-spot insertion churn."""
    store = XmlStore(backend=backend, encoding=encoding, gap=gap)
    doc = store.load("<r><a>x</a><b>y</b></r>")
    root = store.query("/r", doc)[0].node_id
    for step in range(12):
        store.updates.insert(doc, root, 1, f"<m i='{step}'/>")
    return store, doc


class TestRebalance:
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_preserves_content_and_order(self, encoding):
        store, doc = churned_store(encoding)
        before = store.reconstruct(doc)
        report = store.updates.rebalance(doc)
        assert report.relabeled == store.node_count(doc)
        assert store.reconstruct(doc).structurally_equal(before)
        values = store.query_values("/r/m/@i", doc)
        assert values == [str(i) for i in reversed(range(12))]

    @pytest.mark.parametrize("encoding", ("global", "local", "dewey"))
    def test_restores_gaps(self, encoding):
        store, doc = churned_store(encoding, gap=16)
        root = store.query("/r", doc)[0].node_id
        # The churn exhausted the original gaps at the insertion point.
        probe = store.updates.insert(doc, root, 1, "<z/>")
        assert probe.relabeled > 0
        store.updates.rebalance(doc)
        # With gaps restored, a small burst absorbs without relabeling
        # (same-spot midpoint splitting halves the gap each time, so a
        # gap of 16 safely absorbs ~log2(16) insertions).
        for _ in range(3):
            report = store.updates.insert(doc, root, 1, "<z/>")
            assert report.relabeled == 0

    def test_ordpath_keys_shrink(self):
        store = XmlStore(backend="sqlite", encoding="ordpath")
        doc = store.load("<r><a>x</a><b>y</b></r>")
        root = store.query("/r", doc)[0].node_id
        for step in range(25):  # heavy same-spot churn grows carets
            store.updates.insert(doc, root, 1, f"<m i='{step}'/>")

        def key_bytes():
            rows = store.backend.execute(
                "SELECT okey FROM node_ordpath WHERE doc = ?", (doc,)
            ).rows
            lengths = [len(r[0]) for r in rows]
            return max(lengths), sum(lengths) / len(lengths)

        _grown_max, grown_avg = key_bytes()
        store.updates.rebalance(doc)
        fresh_max, fresh_avg = key_bytes()
        # Carets collapsed: average key size drops back to the depth
        # floor (max is bounded by tree depth either way).
        assert fresh_avg < grown_avg
        assert fresh_max <= _grown_max

    def test_global_intervals_consistent_after_rebalance(self):
        store, doc = churned_store("global", gap=4)
        store.updates.rebalance(doc)
        rows = store.backend.execute(
            "SELECT pos, endpos, parent, id FROM node_global "
            "WHERE doc = ? ORDER BY pos",
            (doc,),
        ).rows
        spans = {row[3]: (row[0], row[1]) for row in rows}
        for pos, endpos, parent, _node_id in rows:
            assert endpos >= pos
            if parent != 0:
                parent_pos, parent_end = spans[parent]
                assert parent_pos < pos and endpos <= parent_end

    def test_dewey_keys_dense_after_rebalance(self):
        store, doc = churned_store("dewey", gap=1)
        store.updates.rebalance(doc)
        rows = store.backend.execute(
            "SELECT dkey FROM node_dewey WHERE doc = ? ORDER BY dkey",
            (doc,),
        ).rows
        top_level = [
            DeweyKey.decode(r[0]) for r in rows
            if DeweyKey.decode(r[0]).depth() == 2
        ]
        assert [k.local_position() for k in top_level] == \
            list(range(1, len(top_level) + 1))

    @pytest.mark.parametrize("backend", ("sqlite", "minidb"))
    def test_works_on_both_backends(self, backend):
        store, doc = churned_store("dewey", backend=backend)
        before = store.reconstruct(doc)
        store.updates.rebalance(doc)
        assert store.reconstruct(doc).structurally_equal(before)

    def test_queries_after_rebalance_match_oracle(self):
        store, doc = churned_store("global")
        rebuilt = store.reconstruct(doc)
        store.updates.rebalance(doc)
        fresh = XmlStore(backend="sqlite", encoding="global")
        fresh_doc = fresh.load(rebuilt)
        for xpath in ("/r/m[3]", "//m[last()]", "/r/b/preceding::m"):
            got = [i.value for i in store.query(xpath, doc)]
            want = [i.value for i in fresh.query(xpath, fresh_doc)]
            assert got == want, xpath

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("encoding", ALL_ENCODINGS)
    def test_a_write_arriving_mid_relabel_is_not_relabelled_around(
        self, encoding, backend, monkeypatch
    ):
        """The rows are read in the transaction that rewrites them: a
        writer that shows up between the read and the UPDATEs waits for
        the commit instead of committing in between, where the stale
        labels would be written over its shift."""
        store = XmlStore(backend=backend, encoding=encoding, gap=1)
        doc = store.load("<a><b/><c/><d/></a>")
        root = store.query("/a", doc)[0].node_id
        writer = threading.Thread(
            target=store.updates.insert, args=(doc, root, 1, "<x>t</x>")
        )
        relabel = updates.relabel

        def relabel_while_a_writer_arrives(rows):
            writer.start()
            writer.join(timeout=0.2)  # commits here if nothing holds it
            return relabel(rows)

        monkeypatch.setattr(
            updates, "relabel", relabel_while_a_writer_arrives
        )
        store.updates.rebalance(doc)
        writer.join(timeout=30.0)
        assert not writer.is_alive()
        assert audit_document(store, doc) == []
        assert serialize(store.reconstruct(doc)) == (
            "<a><b/><x>t</x><c/><d/></a>"
        )
