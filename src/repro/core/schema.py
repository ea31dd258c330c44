"""Relational schemas for shredded ordered XML.

Every encoding stores nodes in one *node table* and attributes in one
*attribute table*.  The node table carries the structural columns shared by
all encodings (surrogate ``id``, ``parent`` id, node ``kind``, ``tag``,
``value``, ``depth``) plus the encoding's *order columns* — the "order as a
data value" of the paper:

* ``node_global``: ``pos`` (preorder rank, possibly gapped) and ``endpos``
  (the ``pos`` of the node's last descendant), so subtree containment is an
  interval test;
* ``node_local``: ``lpos`` (position among siblings, possibly gapped);
* ``node_dewey``: ``dkey`` (the order-preserving binary Dewey key).

``value`` materialises an element's *direct text value*: the concatenation
of its immediate text children.  This is the column SQL translations
compare against in value predicates; the workloads only compare fields with
simple content, where the direct text value equals the XPath string-value
(see DESIGN.md).

A small ``documents`` catalogue row per stored document records the name,
node count, maximum depth (an audited bound on the stored ``depth``
values; no plan depends on it) and the next free surrogate id.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Column:
    """A column definition: SQL name and type."""

    name: str
    type: str  # INTEGER | REAL | TEXT | BLOB


@dataclass(frozen=True)
class Index:
    """An index definition."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False

    def to_sql(self) -> str:
        unique = "UNIQUE " if self.unique else ""
        cols = ", ".join(self.columns)
        return (f"CREATE {unique}INDEX IF NOT EXISTS {self.name} "
                f"ON {self.table} ({cols})")


@dataclass(frozen=True)
class Table:
    """A table definition."""

    name: str
    columns: tuple[Column, ...]
    indexes: tuple[Index, ...] = field(default_factory=tuple)

    def to_sql(self) -> str:
        cols = ", ".join(f"{c.name} {c.type}" for c in self.columns)
        return f"CREATE TABLE IF NOT EXISTS {self.name} ({cols})"

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def create_statements(self) -> list[str]:
        return [
            self.to_sql(),
            *(ix.to_sql() for ix in self.indexes),
        ]


#: Node kinds stored in the ``kind`` column.
KIND_ELEMENT = "elem"
KIND_TEXT = "text"
KIND_COMMENT = "comment"
KIND_PI = "pi"

#: ``parent`` value of top-level nodes (children of the document node).
DOCUMENT_PARENT = 0

_STRUCTURAL_COLUMNS = (
    Column("doc", "INTEGER"),
    Column("id", "INTEGER"),
    Column("parent", "INTEGER"),
    Column("kind", "TEXT"),
    Column("tag", "TEXT"),
    Column("value", "TEXT"),
    Column("depth", "INTEGER"),
)


def _attr_table(suffix: str) -> Table:
    name = f"attr_{suffix}"
    return Table(
        name,
        (
            Column("doc", "INTEGER"),
            Column("owner", "INTEGER"),
            Column("name", "TEXT"),
            Column("value", "TEXT"),
        ),
        (
            Index(f"ix_{name}_owner", name, ("doc", "owner", "name")),
            Index(f"ix_{name}_name", name, ("doc", "name", "value")),
        ),
    )


def global_tables() -> tuple[Table, Table]:
    """Node + attribute tables for the Global encoding."""
    name = "node_global"
    node = Table(
        name,
        (
            *_STRUCTURAL_COLUMNS,
            Column("pos", "INTEGER"),
            Column("endpos", "INTEGER"),
        ),
        (
            # Order-value indexes are non-unique on purpose: renumbering
            # UPDATEs shift many rows by a constant, which transiently
            # collides row-by-row under a unique constraint.  Uniqueness
            # of order values is asserted by the test-suite invariants.
            Index(f"ix_{name}_pos", name, ("doc", "pos")),
            Index(f"ux_{name}_id", name, ("doc", "id"), unique=True),
            Index(f"ix_{name}_parent", name, ("doc", "parent", "pos")),
            Index(f"ix_{name}_tag", name, ("doc", "tag", "pos")),
            # No index on endpos: no translated plan reads one on
            # either engine, and the tail shift of an insert would
            # maintain it row by row (DESIGN.md, "Updates").
        ),
    )
    return node, _attr_table("global")


def local_tables() -> tuple[Table, Table]:
    """Node + attribute tables for the Local encoding."""
    name = "node_local"
    node = Table(
        name,
        (*_STRUCTURAL_COLUMNS, Column("lpos", "INTEGER")),
        (
            Index(f"ix_{name}_sib", name, ("doc", "parent", "lpos")),
            Index(f"ux_{name}_id", name, ("doc", "id"), unique=True),
            Index(f"ix_{name}_tag", name, ("doc", "tag")),
        ),
    )
    return node, _attr_table("local")


def dewey_tables() -> tuple[Table, Table]:
    """Node + attribute tables for the Dewey encoding."""
    name = "node_dewey"
    node = Table(
        name,
        (*_STRUCTURAL_COLUMNS, Column("dkey", "BLOB")),
        (
            Index(f"ix_{name}_key", name, ("doc", "dkey")),
            Index(f"ux_{name}_id", name, ("doc", "id"), unique=True),
            Index(f"ix_{name}_parent", name, ("doc", "parent", "dkey")),
            Index(f"ix_{name}_tag", name, ("doc", "tag", "dkey")),
        ),
    )
    return node, _attr_table("dewey")


def ordpath_tables() -> tuple[Table, Table]:
    """Node + attribute tables for the ORDPATH extension encoding."""
    name = "node_ordpath"
    node = Table(
        name,
        (*_STRUCTURAL_COLUMNS, Column("okey", "BLOB")),
        (
            Index(f"ix_{name}_key", name, ("doc", "okey")),
            Index(f"ux_{name}_id", name, ("doc", "id"), unique=True),
            Index(f"ix_{name}_parent", name, ("doc", "parent", "okey")),
            Index(f"ix_{name}_tag", name, ("doc", "tag", "okey")),
        ),
    )
    return node, _attr_table("ordpath")


def documents_table() -> Table:
    """The per-store document catalogue.

    ``encoding`` names the order encoding whose node/attribute tables
    hold this document's rows; ``repro migrate`` rewrites it atomically
    at cutover.  NULL (a catalogue written before migration support)
    means the store's default encoding.
    """
    name = "documents"
    return Table(
        name,
        (
            Column("doc", "INTEGER"),
            Column("name", "TEXT"),
            Column("node_count", "INTEGER"),
            Column("max_depth", "INTEGER"),
            Column("next_id", "INTEGER"),
            Column("encoding", "TEXT"),
        ),
        (Index(f"ux_{name}_doc", name, ("doc",), unique=True),),
    )


#: Prefix of the secondary-index side tables (:mod:`repro.index`).
INDEX_PREFIX = "idx_"


def index_tables() -> tuple[Table, Table, Table, Table]:
    """Side tables of the per-document secondary indexes.

    Encoding-independent (they key on the surrogate ``id``, which
    survives migrations), created empty at schema bootstrap; per-
    document index create/drop is plain transactional DML over them, so
    crash safety comes from transaction rollback, not DDL recovery.

    * ``idx_sval`` — the **value index**: one row per element with its
      full XPath string-value (``sval``) and its numeric interpretation
      (``nval``, NULL for NaN), covering string and numeric predicates;
    * ``idx_paths`` — the **path index** dictionary: every distinct
      root-to-element path of the document;
    * ``idx_pathmap`` — path occurrences: ``pathid -> element id``;
    * ``idx_stats`` — one ``('meta', 'present')`` marker row per
      indexed document.  (The schema is wider than that because files
      written before the marker was all it held exist; a store clears
      their other rows when it opens.)
    """
    sval = Table(
        "idx_sval",
        (
            Column("doc", "INTEGER"),
            Column("id", "INTEGER"),
            Column("parent", "INTEGER"),
            Column("tag", "TEXT"),
            Column("sval", "TEXT"),
            Column("nval", "REAL"),
        ),
        (
            Index("ix_idx_sval_parent", "idx_sval",
                  ("doc", "parent", "tag", "sval")),
            Index("ix_idx_sval_str", "idx_sval", ("doc", "tag", "sval")),
            Index("ix_idx_sval_num", "idx_sval", ("doc", "tag", "nval")),
            # Incremental maintenance repairs rows by surrogate id.
            Index("ix_idx_sval_id", "idx_sval", ("doc", "id")),
        ),
    )
    paths = Table(
        "idx_paths",
        (
            Column("doc", "INTEGER"),
            Column("pathid", "INTEGER"),
            Column("path", "TEXT"),
        ),
        (
            Index("ux_idx_paths", "idx_paths", ("doc", "pathid"),
                  unique=True),
        ),
    )
    pathmap = Table(
        "idx_pathmap",
        (
            Column("doc", "INTEGER"),
            Column("pathid", "INTEGER"),
            Column("id", "INTEGER"),
        ),
        (
            Index("ix_idx_pathmap", "idx_pathmap",
                  ("doc", "pathid", "id")),
            # Incremental maintenance repairs rows by surrogate id.
            Index("ix_idx_pathmap_id", "idx_pathmap", ("doc", "id")),
        ),
    )
    stats = Table(
        "idx_stats",
        (
            Column("doc", "INTEGER"),
            Column("kind", "TEXT"),
            Column("skey", "TEXT"),
            Column("value", "TEXT"),
        ),
        (
            Index("ux_idx_stats", "idx_stats", ("doc", "kind", "skey"),
                  unique=True),
        ),
    )
    return sval, paths, pathmap, stats
