"""An in-memory B+-tree used for minidb secondary indexes.

Keys are opaque comparable tuples (the caller passes total-order keys from
:func:`repro.minidb.values.row_sort_key`); each key maps to a small list of
row ids (duplicates allowed unless the index is unique — uniqueness is
enforced one level up, in :class:`repro.minidb.tables.TableIndex`).

The tree supports point lookup, ordered range reads with open/closed and
unbounded ends, insertion, and deletion of a (key, rowid) pair.  Leaves are
linked, so a range read descends once and then walks right.  The fanout is modest because nodes are
Python lists; the point of the structure is faithful *algorithmic*
behaviour (logarithmic descent, range scans touching only qualifying
leaves), which the engine's row-touch counters report.
"""

from __future__ import annotations

import bisect
from typing import Optional

_ORDER = 64  # max keys per node


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list = []
        self.values: list[list[int]] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list = []
        self.children: list = []


class BPlusTree:
    """A B+-tree mapping comparable keys to lists of integer row ids."""

    def __init__(self) -> None:
        self._root: object = _Leaf()
        self._len = 0  # number of (key, rowid) pairs

    def __len__(self) -> int:
        return self._len

    # -- lookup ----------------------------------------------------------

    def _find_leaf(self, key) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node  # type: ignore[return-value]

    def get(self, key) -> list[int]:
        """Return the row ids stored under *key* (empty if absent)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def range_rowids(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Row ids of the keys in the given range, in key order (one
        key's row ids in the order they were inserted), as one list.

        ``None`` bounds are unbounded.  (Keys themselves are never None —
        SQL NULLs are encoded inside the caller's total-order key.)  The
        read descends once, then slices leaf by leaf: a ``bisect`` finds
        where it starts in the first leaf and where it ends in the last.
        """
        if low is None:
            leaf = self._leftmost_leaf()
            start = 0
        else:
            leaf = self._find_leaf(low)
            if low_inclusive:
                start = bisect.bisect_left(leaf.keys, low)
            else:
                start = bisect.bisect_right(leaf.keys, low)
        end_of = bisect.bisect_right if high_inclusive else bisect.bisect_left
        out: list[int] = []
        while leaf is not None:
            values = leaf.values
            if high is not None:
                end = end_of(leaf.keys, high)
                if end < len(values):
                    for rowids in values[start:end]:
                        out += rowids
                    return out
            for rowids in values[start:]:
                out += rowids
            leaf = leaf.next
            start = 0
        return out

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node  # type: ignore[return-value]

    # -- insertion ----------------------------------------------------------

    def insert(self, key, rowid: int) -> None:
        """Insert a (key, rowid) pair (duplicates under one key allowed)."""
        result = self._insert(self._root, key, rowid)
        if result is not None:
            split_key, right = result
            new_root = _Internal()
            new_root.keys = [split_key]
            new_root.children = [self._root, right]
            self._root = new_root
        self._len += 1

    def _insert(self, node, key, rowid: int):
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(rowid)
            else:
                node.keys.insert(index, key)
                node.values.insert(index, [rowid])
            if len(node.keys) > _ORDER:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[index], key, rowid)
        if result is not None:
            split_key, right = result
            node.keys.insert(index, split_key)
            node.children.insert(index + 1, right)
            if len(node.keys) > _ORDER:
                return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        split_key = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return split_key, right

    # -- deletion ------------------------------------------------------------

    def delete(self, key, rowid: int) -> bool:
        """Remove one (key, rowid) pair; returns False if not present.

        Underflow is tolerated (nodes may become sparse); the tree remains
        correct, and bulk deletions are rare in the workloads.  Empty key
        slots are removed so scans never yield dead keys.
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        try:
            leaf.values[index].remove(rowid)
        except ValueError:
            return False
        if not leaf.values[index]:
            del leaf.keys[index]
            del leaf.values[index]
        self._len -= 1
        return True
