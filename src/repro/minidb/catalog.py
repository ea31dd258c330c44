"""Table/index catalogue for a minidb database."""

from __future__ import annotations

from typing import Optional

from repro.errors import CatalogError
from repro.minidb.tables import HeapTable, TableIndex


class Catalog:
    """Owns all tables and indexes of one database instance."""

    def __init__(self) -> None:
        self.tables: dict[str, HeapTable] = {}
        self.indexes: dict[str, TableIndex] = {}
        #: Monotonically increasing schema version; compiled-statement
        #: caches key on it so DDL invalidates stale plans.
        self.version = 0

    def create_table(
        self,
        name: str,
        columns: tuple[str, ...],
        types: tuple[str, ...],
        if_not_exists: bool = False,
    ) -> Optional[HeapTable]:
        if name in self.tables:
            if if_not_exists:
                return None
            raise CatalogError(f"table {name!r} already exists")
        table = HeapTable(name, columns, types)
        self.tables[name] = table
        self.version += 1
        return table

    def get_table(self, name: str) -> HeapTable:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: tuple[str, ...],
        unique: bool = False,
        if_not_exists: bool = False,
    ) -> Optional[TableIndex]:
        if name in self.indexes:
            if if_not_exists:
                return None
            raise CatalogError(f"index {name!r} already exists")
        table = self.get_table(table_name)
        positions = tuple(table.column_position(c) for c in columns)
        index = TableIndex(name, table, positions, unique)
        table.add_index(index)
        self.indexes[name] = index
        self.version += 1
        return index
