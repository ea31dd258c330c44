"""Heap tables and secondary indexes for minidb.

A :class:`HeapTable` stores rows as tuples in a slot list; deleted slots
are tombstoned (``None``) so row ids stay stable.  A :class:`TableIndex`
maintains a B+-tree from (total-order) key tuples to row ids and enforces
uniqueness when requested.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CatalogError, ExecutionError
from repro.minidb.btree import BPlusTree
from repro.minidb.values import SqlValue, row_sort_key


class TableIndex:
    """A secondary index over a subset of a table's columns."""

    def __init__(
        self,
        name: str,
        table: "HeapTable",
        column_positions: tuple[int, ...],
        unique: bool = False,
    ) -> None:
        self.name = name
        self.table = table
        self.column_positions = column_positions
        self.unique = unique
        self.tree = BPlusTree()

    def key_for_row(self, row: tuple) -> tuple:
        """Extract this index's raw key values from a full table row."""
        return tuple(row[i] for i in self.column_positions)

    def insert(self, row: tuple, rowid: int) -> None:
        key = self.key_for_row(row)
        sortable = row_sort_key(key)
        if self.unique and None not in key and self.tree.get(sortable):
            raise ExecutionError(
                f"UNIQUE constraint failed on index {self.name}: {key!r}"
            )
        self.tree.insert(sortable, rowid)

    def delete(self, row: tuple, rowid: int) -> None:
        self.tree.delete(row_sort_key(self.key_for_row(row)), rowid)


class HeapTable:
    """A heap of tuples plus its indexes."""

    def __init__(self, name: str, columns: tuple[str, ...],
                 types: tuple[str, ...]) -> None:
        self.name = name
        self.columns = columns
        self.types = types
        self._column_positions = {c: i for i, c in enumerate(columns)}
        if len(self._column_positions) != len(columns):
            raise CatalogError(f"duplicate column in table {name}")
        self.rows: list[Optional[tuple]] = []
        self.indexes: list[TableIndex] = []
        self.live_count = 0

    # -- metadata -------------------------------------------------------

    def column_position(self, column: str) -> int:
        try:
            return self._column_positions[column]
        except KeyError:
            raise CatalogError(
                f"no column {column!r} in table {self.name}"
            ) from None

    def add_index(self, index: TableIndex) -> None:
        self.indexes.append(index)
        for rowid, row in enumerate(self.rows):
            if row is not None:
                index.insert(row, rowid)

    # -- mutation ----------------------------------------------------------

    def insert(self, row: tuple) -> int:
        """Insert *row*, returning its rowid; maintains all indexes."""
        if len(row) != len(self.columns):
            raise ExecutionError(
                f"table {self.name} expects {len(self.columns)} values, "
                f"got {len(row)}"
            )
        rowid = len(self.rows)
        self.rows.append(row)
        try:
            for index in self.indexes:
                index.insert(row, rowid)
        except ExecutionError:
            # Roll the partial insert back so the table stays consistent.
            for index in self.indexes:
                index.delete(row, rowid)
            self.rows[rowid] = None
            raise
        self.live_count += 1
        return rowid

    def delete(self, rowid: int) -> None:
        row = self.rows[rowid]
        if row is None:
            return
        for index in self.indexes:
            index.delete(row, rowid)
        self.rows[rowid] = None
        self.live_count -= 1

    def update(self, rowid: int, new_row: tuple) -> None:
        old = self.rows[rowid]
        if old is None:
            raise ExecutionError(f"update of deleted row {rowid}")
        for index in self.indexes:
            index.delete(old, rowid)
        self.rows[rowid] = new_row
        for index in self.indexes:
            index.insert(new_row, rowid)

    # -- access ---------------------------------------------------------------

    def get(self, rowid: int) -> tuple:
        row = self.rows[rowid]
        if row is None:
            raise ExecutionError(f"access to deleted row {rowid}")
        return row

    def __len__(self) -> int:
        return self.live_count


def coerce_row(types: tuple[str, ...], row: tuple) -> tuple:
    """Apply light column-affinity coercion on insert (SQLite style)."""
    out = []
    for declared, value in zip(types, row):
        if value is None:
            out.append(None)
        elif declared == "INTEGER" and isinstance(value, bool):
            out.append(int(value))
        elif declared == "INTEGER" and isinstance(value, float) \
                and value == int(value):
            out.append(int(value))
        elif declared == "REAL" and isinstance(value, int) \
                and not isinstance(value, bool):
            out.append(float(value))
        else:
            out.append(value)
    return tuple(out)


SqlRow = tuple[SqlValue, ...]
