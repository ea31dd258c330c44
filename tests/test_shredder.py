"""Tests for shredding (DOM -> records) and the encodings' rows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dewey import DeweyKey
from repro.core.encodings import get_encoding
from repro.core.schema import DOCUMENT_PARENT
from repro.core.shredder import direct_text_value, shred
from repro.workload.docgen import random_document
from repro.xmldom import parse

DOC = parse(
    '<a x="1"><b>hello</b><!--c--><d><e/>tail</d></a>'
)


class TestShredRecords:
    def test_node_count(self):
        shredded = shred(DOC)
        # a, b, text, comment, d, e, text
        assert shredded.node_count() == 7

    def test_ids_are_preorder_ranks(self):
        shredded = shred(DOC)
        assert [n.id for n in shredded.nodes] == list(range(1, 8))
        assert [n.rank for n in shredded.nodes] == list(range(1, 8))

    def test_root_parent_is_document(self):
        shredded = shred(DOC)
        assert shredded.nodes[0].parent == DOCUMENT_PARENT

    def test_parent_links(self):
        shredded = shred(DOC)
        by_id = {n.id: n for n in shredded.nodes}
        e_node = next(n for n in shredded.nodes if n.tag == "e")
        d_node = by_id[e_node.parent]
        assert d_node.tag == "d"

    def test_end_rank_covers_subtree(self):
        shredded = shred(DOC)
        root = shredded.nodes[0]
        assert root.end_rank == 7
        d_node = next(n for n in shredded.nodes if n.tag == "d")
        assert d_node.end_rank == d_node.rank + 2

    def test_sibling_index_counts_all_node_kinds(self):
        shredded = shred(DOC)
        d_node = next(n for n in shredded.nodes if n.tag == "d")
        assert d_node.sibling_index == 3  # after b and the comment

    def test_dewey_components(self):
        shredded = shred(DOC)
        e_node = next(n for n in shredded.nodes if n.tag == "e")
        assert e_node.dewey == (1, 3, 1)

    def test_depths(self):
        shredded = shred(DOC)
        assert shredded.nodes[0].depth == 1
        assert max(node.depth for node in shredded.nodes) == 3

    def test_attributes_extracted(self):
        shredded = shred(DOC)
        (attr,) = shredded.attributes
        assert (attr.owner, attr.name, attr.value) == (1, "x", "1")

    def test_kinds_and_values(self):
        shredded = shred(DOC)
        kinds = [n.kind for n in shredded.nodes]
        assert kinds == [
            "elem", "elem", "text", "comment", "elem", "elem", "text",
        ]
        text_node = shredded.nodes[2]
        assert text_node.value == "hello"

    def test_element_direct_text_value(self):
        shredded = shred(DOC)
        b_node = next(n for n in shredded.nodes if n.tag == "b")
        assert b_node.value == "hello"
        a_node = shredded.nodes[0]
        assert a_node.value is None  # no direct text children


class TestDirectTextValue:
    """The root record's ``value`` is what reaches the database;
    ``direct_text_value`` (kept for benchmarks/perf's answer check) must
    say the same of the DOM."""

    @staticmethod
    def both(text):
        document = parse(text)
        stored = shred(document).nodes[0].value
        assert direct_text_value(document.root) == stored
        return stored

    def test_none_without_text(self):
        assert self.both("<a><b/></a>") is None

    def test_concatenates_direct_only(self):
        assert self.both("<a>x<b>skip</b>y</a>") == "xy"

    def test_empty_text(self):
        assert self.both("<a>one</a>") == "one"
        # "No text" and "empty text" stay distinguishable.
        assert self.both("<a><![CDATA[]]></a>") is None


class TestEncodingRows:
    def test_global_rows(self):
        shredded = shred(DOC)
        encoding = get_encoding("global")
        row = encoding.node_row(9, shredded.nodes[0], gap=1)
        assert row[:3] == (9, 1, 0)
        assert row[-2:] == (1, 7)  # pos, endpos

    def test_global_gap_scales_positions(self):
        shredded = shred(DOC)
        encoding = get_encoding("global")
        row = encoding.node_row(1, shredded.nodes[0], gap=100)
        assert row[-2:] == (100, 700)

    def test_local_rows(self):
        shredded = shred(DOC)
        encoding = get_encoding("local")
        d_node = next(n for n in shredded.nodes if n.tag == "d")
        row = encoding.node_row(1, d_node, gap=10)
        assert row[-1] == 30  # sibling index 3 * gap

    def test_dewey_rows_are_encoded_keys(self):
        shredded = shred(DOC)
        encoding = get_encoding("dewey")
        e_node = next(n for n in shredded.nodes if n.tag == "e")
        (key_bytes,) = encoding.order_values(e_node, gap=2)
        assert DeweyKey.decode(key_bytes) == DeweyKey((2, 6, 2))

    def test_get_encoding_unknown(self):
        with pytest.raises(ValueError):
            get_encoding("hilbert")

    def test_create_statements_cover_tables_and_indexes(self):
        for name in ("global", "local", "dewey"):
            statements = get_encoding(name).create_statements()
            assert sum("CREATE TABLE" in s for s in statements) == 2
            assert any("CREATE INDEX" in s or "CREATE UNIQUE INDEX" in s
                       for s in statements)


class TestOrderInvariant:
    """Invariant 1: sorting rows by order key = document order."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_all_encodings_order_matches_preorder(self, seed):
        doc = random_document(seed)
        shredded = shred(doc)
        ranks = [n.rank for n in shredded.nodes]
        for name in ("global", "local", "dewey"):
            encoding = get_encoding(name)
            if name == "global":
                keyed = sorted(
                    shredded.nodes,
                    key=lambda n: encoding.order_values(n, 1)[0],
                )
                assert [n.rank for n in keyed] == ranks
            elif name == "dewey":
                keyed = sorted(
                    shredded.nodes,
                    key=lambda n: encoding.order_values(n, 1)[0],
                )
                assert [n.rank for n in keyed] == ranks
            else:
                # Local order is only meaningful within one sibling list.
                for node in shredded.nodes:
                    siblings = [
                        m for m in shredded.nodes
                        if m.parent == node.parent
                    ]
                    by_lpos = sorted(
                        siblings,
                        key=lambda n: encoding.order_values(n, 1)[0],
                    )
                    assert [n.rank for n in by_lpos] == sorted(
                        n.rank for n in siblings
                    )
