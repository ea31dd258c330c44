"""Tests for Dewey keys and the order-preserving binary codec."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.dewey import (
    DeweyKey,
    decode_components,
    dewey_parent_bytes,
    dewey_shift,
    dewey_successor_bytes,
    encode_component,
)
from repro.errors import EncodingError

components = st.lists(st.integers(0, 300_000), min_size=1, max_size=8)


class TestKeyAlgebra:
    def test_parse_and_str(self):
        key = DeweyKey.parse("1.2.3")
        assert key.components == (1, 2, 3)
        assert str(key) == "1.2.3"

    def test_child(self):
        assert DeweyKey.parse("1.2").child(5) == DeweyKey.parse("1.2.5")

    def test_parent(self):
        assert DeweyKey.parse("1.2.3").parent() == DeweyKey.parse("1.2")
        assert DeweyKey.parse("1").parent() is None

    def test_ancestors_nearest_first(self):
        ancestors = list(DeweyKey.parse("1.2.3.4").ancestors())
        assert [str(a) for a in ancestors] == ["1.2.3", "1.2", "1"]

    def test_local_position(self):
        assert DeweyKey.parse("1.7.4").local_position() == 4

    def test_with_local_position(self):
        assert DeweyKey.parse("1.7.4").with_local_position(9) == \
            DeweyKey.parse("1.7.9")

    def test_is_ancestor_of(self):
        a, b = DeweyKey.parse("1.2"), DeweyKey.parse("1.2.3.4")
        assert a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)
        assert not a.is_ancestor_of(a)
        assert not DeweyKey.parse("1.3").is_ancestor_of(b)

    def test_sibling_successor(self):
        assert DeweyKey.parse("1.2.3").sibling_successor() == \
            DeweyKey.parse("1.2.4")

    def test_depth(self):
        assert DeweyKey.parse("1.2.3").depth() == 3
        assert len(DeweyKey.parse("1.2.3")) == 3

    def test_ordering_is_component_wise(self):
        assert DeweyKey.parse("1.2") < DeweyKey.parse("1.2.1")
        assert DeweyKey.parse("1.2.9") < DeweyKey.parse("1.3")
        assert DeweyKey.parse("1.10") > DeweyKey.parse("1.9")

    def test_negative_component_rejected(self):
        with pytest.raises(EncodingError):
            DeweyKey((1, -2))

    def test_bad_text_rejected(self):
        with pytest.raises(EncodingError):
            DeweyKey.parse("1.x.3")

    def test_hashable_and_equal(self):
        assert hash(DeweyKey.parse("1.2")) == hash(DeweyKey((1, 2)))
        assert DeweyKey.parse("1.2") != DeweyKey.parse("1.2.0")


class TestComponentCodec:
    @pytest.mark.parametrize(
        "value,length",
        [(0, 1), (127, 1), (128, 2), (16511, 2), (16512, 3),
         (2113663, 3), (2113664, 4), (270549119, 4)],
    )
    def test_boundary_lengths(self, value, length):
        assert len(encode_component(value)) == length
        assert decode_components(encode_component(value)) == (value,)

    def test_out_of_range_rejected(self):
        with pytest.raises(EncodingError):
            encode_component(270549120)
        with pytest.raises(EncodingError):
            encode_component(-1)

    def test_truncated_key_rejected(self):
        data = DeweyKey((200,)).encode()
        with pytest.raises(EncodingError):
            decode_components(data[:1])

    def test_invalid_lead_byte_rejected(self):
        with pytest.raises(EncodingError):
            decode_components(b"\xff")

    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(0, 270549119))
    def test_component_roundtrip(self, value):
        assert decode_components(encode_component(value)) == (value,)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(0, 270549119), b=st.integers(0, 270549119))
    def test_component_order_preserved(self, a, b):
        ea, eb = encode_component(a), encode_component(b)
        assert (a < b) == (ea < eb)
        assert (a == b) == (ea == eb)


class TestKeyCodec:
    @settings(max_examples=200, deadline=None)
    @given(comps=components)
    def test_key_roundtrip(self, comps):
        key = DeweyKey(comps)
        assert DeweyKey.decode(key.encode()) == key

    @settings(max_examples=300, deadline=None)
    @given(a=components, b=components)
    def test_bytewise_order_equals_component_order(self, a, b):
        """The paper's core codec property: memcmp == document order."""
        ka, kb = DeweyKey(a), DeweyKey(b)
        assert (ka < kb) == (ka.encode() < kb.encode())
        assert (ka == kb) == (ka.encode() == kb.encode())

    @settings(max_examples=200, deadline=None)
    @given(comps=components, extra=st.integers(0, 1000))
    def test_subtree_range_property(self, comps, extra):
        """Every descendant key lies in (key, sibling_successor(key))."""
        key = DeweyKey(comps)
        descendant = key.child(extra)
        low, high = key.encode(), key.sibling_successor().encode()
        assert low < descendant.encode() < high

    @settings(max_examples=200, deadline=None)
    @given(comps=st.lists(st.integers(0, 1000), min_size=2, max_size=6))
    def test_non_descendants_outside_range(self, comps):
        key = DeweyKey(comps)
        sibling = key.sibling_successor()
        assert not (
            key.encode() < sibling.encode()
            < key.sibling_successor().encode()
        )


class TestSqlScalars:
    def test_dewey_parent_bytes(self):
        key = DeweyKey.parse("1.2.3")
        assert dewey_parent_bytes(key.encode()) == \
            DeweyKey.parse("1.2").encode()
        assert dewey_parent_bytes(DeweyKey.parse("1").encode()) is None

    def test_dewey_successor_bytes(self):
        key = DeweyKey.parse("1.2.3")
        assert dewey_successor_bytes(key.encode()) == \
            DeweyKey.parse("1.2.4").encode()

    @settings(max_examples=300, deadline=None)
    @given(comps=st.lists(
        st.one_of(st.sampled_from((0, 127, 128, 16_511, 16_512, 2_113_663,
                                   2_113_664, 270_549_118)),
                  st.integers(0, 270_549_118)),
        min_size=1, max_size=8,
    ))
    def test_the_byte_scalars_agree_with_the_key_algebra(self, comps):
        """The scalars work on the bytes; the reference decodes the key,
        takes its parent or successor and encodes it again."""
        key = DeweyKey(comps)
        parent = key.parent()
        assert dewey_parent_bytes(key.encode()) == (
            parent.encode() if parent is not None else None
        )
        assert dewey_successor_bytes(key.encode()) == \
            key.sibling_successor().encode()

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=12))
    @example(data=b"")
    @example(data=b"\x80")
    @example(data=b"\x01\xf0")
    @example(data=b"\xef\xff\xff\xff")
    def test_the_byte_scalars_refuse_what_the_key_algebra_refuses(
        self, data
    ):
        def parent(key):
            parent = key.parent()
            return parent.encode() if parent is not None else None

        for scalar, reference in (
            (dewey_parent_bytes, parent),
            (dewey_successor_bytes, lambda k: k.sibling_successor().encode()),
        ):
            try:
                want = reference(DeweyKey.decode(data))
            except EncodingError as exc:
                with pytest.raises(EncodingError, match=str(exc)):
                    scalar(data)
            else:
                assert scalar(data) == want


#: Top of the 1-, 2- and 3-byte component ranges: one more and the
#: component — so the key — grows a byte.
WIDTH_TOPS = (127, 16_511, 2_113_663)
MAX_COMPONENT = 270_549_119


class TestDeweyShift:
    """``dewey_shift`` works on bytes; the reference decodes the key,
    moves the component and encodes it again."""

    @staticmethod
    def reference(comps, level, delta):
        moved = list(comps)
        moved[level] += delta
        return DeweyKey(moved).encode()

    @settings(max_examples=300, deadline=None)
    @given(
        comps=st.lists(
            st.one_of(
                st.integers(0, 300),
                st.integers(16_000, 17_000),
                st.integers(2_113_000, 2_114_500),
            ),
            min_size=1, max_size=8,
        ),
        level=st.integers(0, 7),
        delta=st.integers(0, 1_500),
    )
    @example(comps=[1, 127, 9, 300], level=1, delta=1)
    @example(comps=[1, 16_511, 9, 300], level=1, delta=1)
    @example(comps=[1, 2_113_663, 9, 300], level=1, delta=1)
    @example(comps=[127], level=0, delta=16_385)  # one byte to three
    @example(comps=[4, 5, 6], level=2, delta=0)
    def test_equals_decode_move_encode(self, comps, level, delta):
        assume(level < len(comps))
        assert dewey_shift(DeweyKey(comps).encode(), level, delta) == (
            self.reference(comps, level, delta)
        )

    @pytest.mark.parametrize("top", WIDTH_TOPS)
    def test_key_grows_and_the_descendants_suffix_survives(self, top):
        suffix = (3, 200, 70_000)
        root = DeweyKey((1, top))
        inside = DeweyKey((1, top, *suffix))
        moved_root = dewey_shift(root.encode(), 1, 1)
        moved = dewey_shift(inside.encode(), 1, 1)
        assert len(moved_root) == len(root.encode()) + 1
        assert decode_components(moved) == (1, top + 1, *suffix)
        # Still a descendant, and still in document order after the
        # sibling that did not move.
        assert moved_root < moved < dewey_successor_bytes(moved_root)
        assert inside.encode() < moved_root

    def test_negative_delta_moves_down(self):
        key = DeweyKey((1, 128, 2)).encode()
        assert decode_components(dewey_shift(key, 1, -1)) == (1, 127, 2)

    def test_truncated_key_rejected(self):
        key = DeweyKey((1, 70_000, 2)).encode()
        cut_inside_level_1 = key[:2]
        with pytest.raises(EncodingError):
            dewey_shift(cut_inside_level_1, 1, 1)
        with pytest.raises(EncodingError):
            dewey_shift(cut_inside_level_1, 2, 1)  # the skip runs out

    def test_level_past_the_end_rejected(self):
        key = DeweyKey((1, 2)).encode()
        with pytest.raises(EncodingError):
            dewey_shift(key, 2, 1)
        with pytest.raises(EncodingError):
            dewey_shift(b"", 0, 1)

    def test_component_leaving_the_codec_range_rejected(self):
        key = DeweyKey((1, MAX_COMPONENT, 5)).encode()
        assert decode_components(dewey_shift(key, 1, 0))[1] == MAX_COMPONENT
        with pytest.raises(EncodingError):
            dewey_shift(key, 1, 1)
        with pytest.raises(EncodingError):
            dewey_shift(DeweyKey((1, 3)).encode(), 1, -4)
