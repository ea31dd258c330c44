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
* ``node_dewey``: ``dkey`` (the order-preserving binary Dewey key);
* ``node_ordpath``: ``okey`` (the order-preserving binary ORDPATH key,
  whose careted components let an insert go between two siblings
  without relabelling either).

``value`` holds a text, comment or processing-instruction node's content,
and materialises an element's *direct text value*: the concatenation of
its immediate text children, kept by every insert and delete of a text
child.  A value predicate on a text node compares it; one on an element
compares the element's XPath string-value, which the translator
aggregates from its descendant text nodes
(:class:`~repro.core.relalg.StringValueAgg`), since mixed content makes
the two differ.  An element with no element child has no such content:
its ``value`` is its string-value, the text its value-index row keeps
(see :func:`index_table`).

Every node table has one *child index*, ``(doc, parent, tag, <order>)``:
a child or sibling step that names a tag probes all of it and reads its
rows in sibling order, so a positional pick reads k rows; ``*``,
``text()``, ``node()`` and the sibling shifts of an update use its
``(doc, parent)`` prefix.  It replaced an older build's ``(doc, parent,
<order>)`` index; a file that has that index predates the catalogue's
``gap`` column too, so it is refused when it opens.

A small ``documents`` catalogue row per stored document records the name,
node count, next free surrogate id, order encoding, whether the
document has a secondary index and the sparse-numbering gap its order
values were labelled with.
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
            Index(f"ix_{name}_child", name, ("doc", "parent", "tag", "pos")),
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
            Index(f"ix_{name}_child", name, ("doc", "parent", "tag", "lpos")),
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
            Index(f"ix_{name}_child", name, ("doc", "parent", "tag", "dkey")),
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
            Index(f"ix_{name}_child", name, ("doc", "parent", "tag", "okey")),
            Index(f"ix_{name}_tag", name, ("doc", "tag", "okey")),
        ),
    )
    return node, _attr_table("ordpath")


def documents_table() -> Table:
    """The per-store document catalogue, one
    :class:`~repro.store.DocumentInfo` per row.

    ``encoding`` names the order encoding whose node/attribute tables
    hold this document's rows; ``repro migrate`` rewrites it atomically
    at cutover.  ``indexed`` is 1 while the document has a secondary
    index (``indexes.create`` sets it, ``drop`` clears it).  ``gap`` is
    the sparse-numbering gap the document was labelled with: ``load``
    writes it, and every insert, rebalance and migration of the
    document labels with it, whichever session writes.
    """
    name = "documents"
    return Table(
        name,
        (
            Column("doc", "INTEGER"),
            Column("name", "TEXT"),
            Column("node_count", "INTEGER"),
            Column("next_id", "INTEGER"),
            Column("encoding", "TEXT"),
            Column("indexed", "INTEGER"),
            Column("gap", "INTEGER"),
        ),
        (Index(f"ux_{name}_doc", name, ("doc",), unique=True),),
    )


def index_table() -> Table:
    """Side table of the per-document secondary indexes.

    Encoding-independent (it keys on the surrogate ``id``, which
    survives migrations), created empty at schema bootstrap; per-
    document index create/drop is plain transactional DML over it, so
    crash safety comes from transaction rollback, not DDL recovery.

    * ``idx_sval`` — one row per element: the **value index** and the
      **path index**.  ``path`` is the element's rooted path
      (``/bib/book/title``); the distinct paths of a document are its
      structural summary, and no table catalogues them.  An element
      with no element child is a *leaf*: its XPath string-value is its
      own text, which ``leaf_text`` holds, and ``nval`` is that text's
      number (NULL for NaN).  Any other element holds NULL in both: its
      string-value spans its descendants, and keeping it would make
      every write below it rewrite it.  Value predicates read leaves
      by ``leaf_text`` or ``nval`` and aggregate the rest.

    Whether a document has an index is ``documents.indexed``.
    """
    return Table(
        "idx_sval",
        (
            Column("doc", "INTEGER"),
            Column("id", "INTEGER"),
            Column("parent", "INTEGER"),
            Column("tag", "TEXT"),
            Column("path", "TEXT"),
            Column("leaf_text", "TEXT"),
            Column("nval", "REAL"),
        ),
        (
            Index("ix_idx_sval_parent", "idx_sval",
                  ("doc", "parent", "tag", "leaf_text")),
            Index("ix_idx_sval_str", "idx_sval",
                  ("doc", "tag", "leaf_text")),
            Index("ix_idx_sval_num", "idx_sval", ("doc", "tag", "nval")),
            # Incremental maintenance repairs rows by surrogate id.
            Index("ix_idx_sval_id", "idx_sval", ("doc", "id")),
        ),
    )
