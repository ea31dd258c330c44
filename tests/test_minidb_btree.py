"""Tests for the B+-tree index structure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.minidb.btree import BPlusTree
from repro.minidb.values import (
    AFTER_EVERY_VALUE,
    FIRST_NON_NULL,
    row_sort_key,
)


class TestBasics:
    def test_insert_and_get(self):
        tree = BPlusTree()
        tree.insert((1,), 10)
        tree.insert((2,), 20)
        assert tree.get((1,)) == [10]
        assert tree.get((3,)) == []

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree()
        tree.insert((1,), 10)
        tree.insert((1,), 11)
        assert sorted(tree.get((1,))) == [10, 11]
        assert len(tree) == 2

    def test_delete(self):
        tree = BPlusTree()
        tree.insert((1,), 10)
        tree.insert((1,), 11)
        assert tree.delete((1,), 10)
        assert tree.get((1,)) == [11]
        assert not tree.delete((1,), 99)
        assert not tree.delete((9,), 1)

    def test_items_in_key_order(self):
        tree = BPlusTree()
        for value in [5, 3, 8, 1, 9, 2]:
            tree.insert((value,), value)
        assert tree.range_rowids() == [1, 2, 3, 5, 8, 9]


class TestRangeScan:
    def _tree(self, n=100):
        tree = BPlusTree()
        order = list(range(n))
        random.Random(1).shuffle(order)
        for value in order:
            tree.insert((value,), value)
        return tree

    def test_closed_range(self):
        tree = self._tree()
        got = tree.range_rowids((10,), (15,))
        assert got == [10, 11, 12, 13, 14, 15]

    def test_open_bounds(self):
        tree = self._tree()
        got = tree.range_rowids((10,), (15,), False, False)
        assert got == [11, 12, 13, 14]

    def test_unbounded_low(self):
        tree = self._tree()
        got = tree.range_rowids(None, (3,))
        assert got == [0, 1, 2, 3]

    def test_unbounded_high(self):
        tree = self._tree()
        got = tree.range_rowids((97,), None)
        assert got == [97, 98, 99]

    def test_empty_range(self):
        tree = self._tree()
        assert tree.range_rowids((50,), (40,)) == []

    def test_scan_after_heavy_deletes(self):
        tree = self._tree(200)
        for value in range(0, 200, 2):
            assert tree.delete((value,), value)
        got = tree.range_rowids((0,), (20,))
        assert got == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]


class TestSplitsAtScale:
    def test_many_sequential_inserts(self):
        tree = BPlusTree()
        for value in range(5000):
            tree.insert((value,), value)
        assert len(tree) == 5000
        assert tree.range_rowids((4990,), None) == list(range(4990, 5000))

    def test_many_reverse_inserts(self):
        tree = BPlusTree()
        for value in reversed(range(3000)):
            tree.insert((value,), value)
        assert tree.range_rowids(None, (5,)) == [0, 1, 2, 3, 4, 5]


@settings(max_examples=50, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(0, 50),
        ),
        max_size=200,
    ),
    low=st.integers(0, 50),
    high=st.integers(0, 50),
)
def test_matches_reference_model(operations, low, high):
    """The tree behaves like a sorted multiset of (key, rowid) pairs."""
    tree = BPlusTree()
    reference: list[tuple[int, int]] = []
    counter = 0
    for op, key in operations:
        if op == "insert":
            tree.insert((key,), counter)
            reference.append((key, counter))
            counter += 1
        else:
            matching = [r for k, r in reference if k == key]
            if matching:
                rowid = matching[0]
                assert tree.delete((key,), rowid)
                reference.remove((key, rowid))
            else:
                assert not tree.delete((key,), 999_999)
    lo, hi = min(low, high), max(low, high)
    got = sorted(tree.range_rowids((lo,), (hi,)))
    want = sorted(r for k, r in reference if lo <= k <= hi)
    assert got == want
    assert len(tree) == len(reference)


# -- the list read against a sorted model ------------------------------------
#
# Keys are what indexes store: ``row_sort_key`` of (a, b) with b NULL,
# an integer or text, so the bounds the executor builds — a prefix
# closed with AFTER_EVERY_VALUE, FIRST_NON_NULL after a prefix — are
# exercised on real key shapes.  Few distinct keys and hundreds of
# entries put many row ids under one key and split leaves (64 keys).


def _value(rng):
    return rng.choice([None, rng.randint(0, 12), f"t{rng.randint(0, 3)}"])


def _model_read(model, low, high, low_inclusive, high_inclusive):
    """Row ids in key order, one key's in insertion order."""
    def inside(key):
        if low is not None and (key < low if low_inclusive else key <= low):
            return False
        if high is not None and (
            key > high if high_inclusive else key >= high
        ):
            return False
        return True
    ordered = sorted(model, key=lambda pair: pair[0])  # stable
    return [rowid for key, rowid in ordered if inside(key)]


def _bounds(rng):
    """One side of a range: unbounded, a full key, a prefix, a prefix
    closed with AFTER_EVERY_VALUE, or a prefix plus FIRST_NON_NULL."""
    prefix = row_sort_key((rng.randint(0, 4),))
    return rng.choice([
        None,
        row_sort_key((rng.randint(0, 4), _value(rng))),
        prefix,
        (*prefix, AFTER_EVERY_VALUE),
        (*prefix, FIRST_NON_NULL),
    ])


@pytest.mark.parametrize("seed", range(6))
def test_list_read_agrees_with_a_sorted_model(seed):
    rng = random.Random(seed)
    tree = BPlusTree()
    model: list[tuple[tuple, int]] = []
    for rowid in range(rng.randint(150, 500)):
        key = row_sort_key((rng.randint(0, 4), _value(rng)))
        tree.insert(key, rowid)
        model.append((key, rowid))
    for _ in range(rng.randint(0, 120)):
        key, rowid = model.pop(rng.randrange(len(model)))
        assert tree.delete(key, rowid)
    assert len(tree) == len(model)
    for _ in range(300):
        low, high = _bounds(rng), _bounds(rng)
        for low_inclusive in (True, False):
            for high_inclusive in (True, False):
                assert tree.range_rowids(
                    low, high, low_inclusive, high_inclusive
                ) == _model_read(
                    model, low, high, low_inclusive, high_inclusive
                ), (low, high, low_inclusive, high_inclusive)


def test_one_key_holds_its_duplicates_through_leaf_splits():
    tree = BPlusTree()
    order = list(range(300))
    random.Random(7).shuffle(order)
    under_150 = []  # in insertion order
    for rowid, value in enumerate(order):
        tree.insert((value,), rowid)
        if value == 150:
            under_150.append(rowid)
        if value % 3 == 0:
            tree.insert((150,), 1000 + rowid)
            under_150.append(1000 + rowid)
    assert len(under_150) > 64
    assert tree.range_rowids((150,), (150,)) == under_150
    assert tree.range_rowids((150,), (150,), False, True) == []
    assert tree.range_rowids((149,), (151,), False, False) == under_150
    assert tree.range_rowids((149,), (151,)) == [
        order.index(149), *under_150, order.index(151)
    ]
