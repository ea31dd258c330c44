"""Per-document secondary indexes.

:class:`IndexManager` owns the ``idx_sval`` side table declared in
:func:`repro.core.schema.index_table`, one row per element:

* **value index** — a leaf (no element child) carries its XPath
  string-value, which is its own text, and that text's number, any
  other element NULL in both.  Rewritten value predicates probe the
  leaves by value and aggregate the string-values of the others, as
  the scan plan does;
* **path index** — each row's ``path``, the element's rooted path,
  probed by rewritten structural queries through the ``path_match``
  scalar;
* **presence** — the document's catalogue row (``documents.indexed``).

The side table is created empty at schema bootstrap and keyed on the
surrogate ``id``, so it is encoding-independent and index create /
drop / maintenance is plain transactional DML — crash safety falls out
of transaction rollback, with no DDL recovery path.

An index is used when it exists: :meth:`IndexManager.create` writes a
document's rows, :meth:`IndexManager.drop` removes them, and
:meth:`IndexManager.exists` is all the planner asks — every eligible
fragment of an indexed document's query probes the index, whatever the
document's size.  Nothing else selects it.

Every index row has one producer, :meth:`IndexManager._index_rows`,
which reads a forest of node rows, in document order, under the stored
path of its parent.  ``create`` (and :meth:`IndexManager._rebuild_rows`
generally) hands it the whole document; maintenance hands it what one
primitive write changed.  Each insert, delete and rename of an indexed
document calls :meth:`IndexManager.repair_in_transaction` inside its
own transaction with the rows it wrote, the elements it removed or the
subtree it renamed: those rows and the parent's own row are all a
write can change, because no row holds text of another element.  Its
cost is a fixed handful of statements, independent of the document's
depth and of its text.  Index rows carry no order columns, so
renumbering never invalidates them, and attributes are not indexed.
Only a parent with no index row — a corrupt index — rebuilds instead.
A row is a function of its element's place in the document alone, so
piecewise repair and a full rebuild produce byte-identical tables.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.numeric import xpath_number_value
from repro.core.reconstruct import ordered_rows, row_events
from repro.core.schema import KIND_ELEMENT
from repro.obs import METRICS
from repro.xmldom.parser import END, START

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.encodings import OrderEncoding
    from repro.store import XmlStore


class IndexManager:
    """Create, drop, maintain and describe per-document indexes."""

    def __init__(self, store: "XmlStore") -> None:
        self.store = store

    # -- presence ----------------------------------------------------------

    def exists(self, doc: int) -> bool:
        """Does *doc* have an index (``documents.indexed``)?

        The one fact the planner takes from here; the store reads it
        with the document's catalogue row.
        """
        return self.store.document_info(doc).indexed

    # -- lifecycle ---------------------------------------------------------

    def create(self, doc: int) -> dict:
        """(Re)build *doc*'s index; returns a report."""
        self.store.document_info(doc)  # raises StorageError if unknown

        def build() -> dict:
            self.store.note_write(doc)
            report = self._rebuild_rows(doc)
            self.store.backend.execute(
                "UPDATE documents SET indexed = 1 WHERE doc = ?", (doc,)
            )
            return report

        report = self.store.transactionally(build)
        METRICS.inc("index.created")
        METRICS.inc("index.rows", report["elements"])
        self.store.refresh_statistics("idx_sval")
        return report

    def drop(self, doc: int) -> bool:
        """Remove *doc*'s index rows; True if an index was present."""
        present = self.exists(doc)
        self.store.transactionally(lambda: self.purge_in_transaction(doc))
        if present:
            METRICS.inc("index.dropped")
        return present

    def purge_in_transaction(self, doc: int) -> None:
        """Delete every ``idx_sval`` row of *doc* and clear its
        ``indexed`` flag (caller owns the txn)."""
        self.store.note_write(doc)
        backend = self.store.backend
        backend.execute("DELETE FROM idx_sval WHERE doc = ?", (doc,))
        backend.execute(
            "UPDATE documents SET indexed = 0 WHERE doc = ?", (doc,)
        )

    # -- in-transaction maintenance ---------------------------------------

    def repair_in_transaction(
        self, info, encoding: "OrderEncoding", parent_id: int,
        removed: Sequence[int] = (), added: Sequence[tuple] = (),
    ) -> None:
        """Repair the index rows one primitive write under *parent_id*
        changed, inside the write's own transaction (so a crash rolls
        node and index rows back together).  *info* is the write's
        catalogue read and *encoding* the encoding it resolved.

        *removed* are the ids of the elements whose rows go — a deleted
        subtree's, or a renamed one's — and *added* the ``(id, parent,
        kind, tag, value)`` rows of the forest whose rows come (see
        :meth:`_index_rows`): an inserted subtree as the write wrote it,
        or a renamed one read back.  Besides those, only the parent's
        own row can change: whether it is a leaf, and its text.  One
        read serves both: the parent's stored row, beside its node
        row's ``value`` and a probe for an element child, gives the
        path the new rows hang under and re-derives the parent's row,
        which is written if it differs.  No row holds text of another
        element, so nothing above the parent is touched, whatever the
        document's depth or text.

        A parent with no index row is a hole only a corrupt index has:
        the document's rows are rebuilt instead
        (``index.fallback_rebuild``), replacing everything.
        """
        doc = info.doc
        backend = self.store.backend
        METRICS.inc("index.maintained")
        parent_path, parent_row = "", None
        if parent_id != 0:
            table = encoding.node_table.name
            found = backend.execute(
                f"SELECT s.path, s.leaf_text, s.nval, p.value, "
                f"EXISTS (SELECT 1 FROM {table} c WHERE c.doc = p.doc "
                f"AND c.parent = p.id AND c.kind = ?) "
                f"FROM idx_sval s, {table} p "
                f"WHERE s.doc = ? AND s.id = ? AND p.doc = s.doc "
                f"AND p.id = s.id",
                (KIND_ELEMENT, doc, parent_id),
            ).rows
            if not found:
                METRICS.inc("index.fallback_rebuild")
                self._rebuild_rows(doc, encoding)
                return
            parent_path, *stored, value, composite = found[0]
            text = None if composite else value or ""
            row = [text, xpath_number_value(text)]
            if row != stored:
                parent_row = row
        METRICS.inc("index.incremental")

        deleted = sum(
            backend.execute(sql, params).rowcount
            for sql, params in self.store.in_batches(
                "DELETE FROM idx_sval WHERE doc = ?", "id", removed, (doc,)
            )
        )
        produced = self._index_rows(doc, added, parent_path)
        self._insert_rows(produced)
        if parent_row is not None:
            backend.execute(
                "UPDATE idx_sval SET leaf_text = ?, nval = ? "
                "WHERE doc = ? AND id = ?",
                (*parent_row, doc, parent_id),
            )
        METRICS.inc(
            "index.row_writes",
            deleted + len(produced) + (parent_row is not None),
        )

    # -- CLI / reporting ---------------------------------------------------

    def describe(self, doc: int) -> dict:
        """A JSON-friendly summary of *doc*'s index, counted live from
        its rows."""
        if not self.exists(doc):
            return {"doc": doc, "present": False}
        rows = self.store.backend.execute(
            "SELECT tag, path FROM idx_sval WHERE doc = ?", (doc,)
        ).rows
        tags = Counter(tag for tag, _path in rows)
        return {
            "doc": doc,
            "present": True,
            "element_count": len(rows),
            "path_count": len({path for _tag, path in rows}),
            "tags": dict(
                sorted(tags.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            ),
        }

    # -- the build pass ----------------------------------------------------

    @staticmethod
    def _index_rows(
        doc: int, rows: Sequence[tuple], parent_path: str
    ) -> list[tuple]:
        """The one producer of index rows: the ``idx_sval`` rows of a
        forest, one per element.

        *rows* are ``(id, parent, kind, tag, value)`` tuples of whole
        subtrees in document order whose roots are children of one
        node — the whole document read by
        :func:`~repro.core.reconstruct.ordered_rows` for a rebuild; for
        a repair, an inserted subtree's rows as the update wrote them
        or a renamed subtree read back — and *parent_path* is that
        node's rooted path (``""`` for the document).  One pass over
        their events: an element's path is known when it opens, and
        whether it is a leaf when its first element child opens or it
        closes.  A leaf's string-value is its own text, the ``value``
        its row carries; any other element stores NULL (see
        :func:`~repro.core.schema.index_table`).
        """
        elements: list[tuple] = []
        texts: list[Optional[str]] = []
        stored = iter(rows)
        # The open element's rooted path and the slot of its row; the
        # same, saved for each open ancestor.
        path, slot = parent_path, -1
        stack: list[tuple[str, int]] = []
        for kind, a, _b in row_events(rows, {}):
            if kind == END:
                path, slot = stack.pop()
                continue
            node_id, parent, _kind, _tag, value = next(stored)
            if kind == START:
                if slot >= 0:
                    texts[slot] = None  # it has an element child
                stack.append((path, slot))
                path, slot = f"{path}/{a}", len(elements)
                elements.append((doc, node_id, parent, a, path))
                texts.append(value or "")
        return [
            (*element, text, xpath_number_value(text))
            for element, text in zip(elements, texts)
        ]

    def _rebuild_rows(
        self, doc: int, encoding: Optional["OrderEncoding"] = None
    ) -> dict:
        """Recompute every ``idx_sval`` row of *doc* from one ordered
        pass over its node table (txn caller-owned; *encoding* as for
        :func:`~repro.core.reconstruct.ordered_rows`); returns the
        create report."""
        backend = self.store.backend
        rows = ordered_rows(self.store, doc, encoding=encoding)
        produced = self._index_rows(doc, rows, "")
        deleted = backend.execute(
            "DELETE FROM idx_sval WHERE doc = ?", (doc,)
        ).rowcount
        self._insert_rows(produced)
        METRICS.inc("index.row_writes", deleted + len(produced))
        return {
            "doc": doc,
            "elements": len(produced),
            "paths": len({row[4] for row in produced}),
            "nodes": len(rows),
        }

    def _insert_rows(self, rows: list[tuple]) -> None:
        if rows:
            self.store.backend.executemany(
                "INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?, ?)", rows
            )
