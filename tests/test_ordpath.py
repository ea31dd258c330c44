"""Tests for the ORDPATH extension: keys, careted insertion, store
behaviour, and the no-relabeling guarantee."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ordpath import (
    OrdpathKey,
    decode_signed_components,
    encode_signed_component,
    ordpath_parent_bytes,
    ordpath_successor_bytes,
    suffix_between,
)
from repro.errors import EncodingError
from repro.store import XmlStore


class TestKeyStructure:
    def test_parse_and_str(self):
        key = OrdpathKey.parse("1.6.1.3")
        assert key.components == (1, 6, 1, 3)
        assert str(key) == "1.6.1.3"

    def test_keys_must_end_odd(self):
        with pytest.raises(EncodingError):
            OrdpathKey((1, 6))

    def test_levels_group_carets(self):
        key = OrdpathKey.parse("1.6.1.3")
        assert key.levels() == [(1,), (6, 1), (3,)]
        assert key.depth() == 3

    def test_parent_drops_last_level(self):
        key = OrdpathKey.parse("1.6.1.3")
        assert key.parent() == OrdpathKey.parse("1.6.1")
        assert OrdpathKey.parse("1.6.1").parent() == OrdpathKey.parse("1")
        assert OrdpathKey.parse("1").parent() is None

    def test_caret_component_is_not_a_level(self):
        # 6.1 is ONE level (caret 6, slot 1), so 1.6.1 has depth 2: it is
        # a *child* of 1, logically between children 5 and 7.
        assert OrdpathKey.parse("1.6.1").depth() == 2

    def test_suffix_after(self):
        key = OrdpathKey.parse("1.6.1.3")
        assert key.suffix_after(OrdpathKey.parse("1.6.1")) == (3,)
        with pytest.raises(EncodingError):
            key.suffix_after(OrdpathKey.parse("3"))

    def test_is_ancestor_of(self):
        parent = OrdpathKey.parse("1.6.1")
        child = OrdpathKey.parse("1.6.1.3")
        assert parent.is_ancestor_of(child)
        assert not child.is_ancestor_of(parent)

    def test_subtree_successor_bounds_descendants(self):
        key = OrdpathKey.parse("1.5")
        descendant = OrdpathKey.parse("1.5.2.7.3")
        sibling = OrdpathKey.parse("1.7")
        caret_sibling = OrdpathKey.parse("1.6.1")
        assert key.components < descendant.components < \
            key.subtree_successor()
        assert not (key.components < sibling.components
                    < key.subtree_successor())
        assert not (key.components < caret_sibling.components
                    < key.subtree_successor())

    def test_initial_child_slots_are_odd_and_gapped(self):
        root = OrdpathKey.parse("1")
        assert OrdpathKey.initial_child(root, 1) == OrdpathKey.parse("1.1")
        assert OrdpathKey.initial_child(root, 3) == OrdpathKey.parse("1.5")
        gapped = OrdpathKey.initial_child(root, 2, gap=8)
        assert gapped.components == (1, 31)
        assert gapped.components[-1] % 2 == 1


class TestSignedCodec:
    @pytest.mark.parametrize("value", [-(2**31), -1, 0, 1, 2**31 - 1])
    def test_roundtrip_extremes(self, value):
        assert decode_signed_components(
            encode_signed_component(value)
        ) == (value,)

    def test_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_signed_component(2**31)
        with pytest.raises(EncodingError):
            encode_signed_component(-(2**31) - 1)

    def test_truncated_rejected(self):
        with pytest.raises(EncodingError):
            decode_signed_components(b"\x00\x01")

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-(2**31), 2**31 - 1),
           b=st.integers(-(2**31), 2**31 - 1))
    def test_order_preserved_across_signs(self, a, b):
        assert (a < b) == (
            encode_signed_component(a) < encode_signed_component(b)
        )

    @settings(max_examples=150, deadline=None)
    @given(comps=st.lists(st.integers(-1000, 1000).map(
        lambda v: v if v % 2 else v + 1), min_size=1, max_size=6))
    def test_key_bytes_order_equals_component_order(self, comps):
        key = OrdpathKey(comps)
        assert OrdpathKey.decode(key.encode()) == key


class TestSuffixBetween:
    def test_first_child(self):
        assert suffix_between(None, None) == (1,)

    def test_after_last(self):
        assert suffix_between((5,), None) == (7,)

    def test_before_first(self):
        assert suffix_between(None, (1,)) == (-1,)

    def test_free_odd_slot(self):
        assert suffix_between((1,), (7,)) == (3,)

    def test_adjacent_odds_open_a_caret(self):
        assert suffix_between((5,), (7,)) == (6, 1)

    def test_inside_caret(self):
        # Between 5 and 6.1 there is room at 6.-1.
        assert suffix_between((5,), (6, 1)) == (6, -1)
        # Between 6.1 and 7 there is room at 6.3.
        assert suffix_between((6, 1), (7,)) == (6, 3)

    def test_nested_carets(self):
        s = suffix_between((6, 1), (6, 3))
        assert (6, 1) < s < (6, 3)
        assert s[-1] % 2 != 0

    def test_invalid_suffixes_rejected(self):
        with pytest.raises(EncodingError):
            suffix_between((4,), None)  # even-terminated
        with pytest.raises(EncodingError):
            suffix_between((), (1,))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_insertions_never_collide(self, seed):
        """The crown property: any insertion sequence yields strictly
        ordered, odd-terminated, mutually non-prefix suffixes."""
        rng = random.Random(seed)
        suffixes: list[tuple[int, ...]] = []
        for _ in range(rng.randint(1, 40)):
            index = rng.randint(0, len(suffixes))
            left = suffixes[index - 1] if index > 0 else None
            right = suffixes[index] if index < len(suffixes) else None
            suffix = suffix_between(left, right)
            suffixes.insert(index, suffix)
            assert suffix[-1] % 2 != 0
        for a, b in zip(suffixes, suffixes[1:]):
            assert a < b
            assert a != b[: len(a)]
            assert b != a[: len(b)]


class TestSqlScalars:
    def test_successor(self):
        key = OrdpathKey.parse("1.6.1")
        assert ordpath_successor_bytes(key.encode()) == \
            b"".join(encode_signed_component(c) for c in (1, 6, 2))

    def test_parent(self):
        key = OrdpathKey.parse("1.6.1.3")
        assert OrdpathKey.decode(
            ordpath_parent_bytes(key.encode())
        ) == OrdpathKey.parse("1.6.1")
        assert ordpath_parent_bytes(OrdpathKey.parse("3").encode()) is None


class TestOrdpathStore:
    def test_never_relabels(self):
        store = XmlStore(backend="sqlite", encoding="ordpath")
        doc = store.load("<r><a/><b/><c/></r>")
        root = store.query("/r", doc)[0].node_id
        total = 0
        for step in range(25):
            report = store.updates.insert(doc, root, 1, f"<m i='{step}'/>")
            total += report.relabeled
        assert total == 0
        values = store.query_values("/r/m/@i", doc)
        assert values == [str(i) for i in reversed(range(25))]

    def test_subtree_insert_never_relabels(self):
        store = XmlStore(backend="sqlite", encoding="ordpath")
        doc = store.load("<r><a><x/></a><b/></r>")
        a_id = store.query("/r/a", doc)[0].node_id
        report = store.updates.insert(
            doc, a_id, 0, "<sub><deep>t</deep></sub>"
        )
        assert report.relabeled == 0
        assert report.inserted == 3
        assert store.query_values("//deep/text()", doc) == ["t"]

    def test_ordpath_vs_dewey_update_cost(self):
        """The extension's whole point, quantified."""
        costs = {}
        xml = "<list>" + "<i><v>x</v></i>" * 10 + "</list>"
        for encoding in ("dewey", "ordpath"):
            store = XmlStore(backend="sqlite", encoding=encoding)
            doc = store.load(xml)
            root = store.query("/list", doc)[0].node_id
            relabeled = 0
            for _ in range(8):
                relabeled += store.updates.insert(
                    doc, root, 1, "<i/>"
                ).relabeled
            costs[encoding] = relabeled
        assert costs["ordpath"] == 0
        assert costs["dewey"] > 50

    def test_key_growth_is_the_price(self):
        """Repeated same-spot insertion grows ORDPATH keys (carets) —
        the space-for-stability trade."""
        store = XmlStore(backend="sqlite", encoding="ordpath")
        doc = store.load("<r><a/><b/></r>")
        root = store.query("/r", doc)[0].node_id
        for step in range(15):
            store.updates.insert(doc, root, 1, "<m/>")
        lengths = [
            len(row[0])
            for row in store.backend.execute(
                "SELECT okey FROM node_ordpath WHERE doc = ?", (doc,)
            ).rows
        ]
        assert max(lengths) > 8  # some keys needed carets
