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
generally) hands it the whole document; maintenance hands it one
inserted or renamed subtree at a time: each update operation passes
its touched set (removed ids, the rows of inserted subtrees as written,
renamed subtree roots, the parents whose own text or element
children changed — see :class:`repro.core.updates.UpdateReport`) down
into the same transaction, and only those rows are repaired, in a
fixed handful of statements.  No row holds text of another element, so
a write rewrites nothing above the parent it wrote under: its cost is
independent of the document's depth and of its text.  Index rows
carry no order columns, so renumbering never invalidates them.  Only
an update whose touched set has a hole — it cannot account exactly
for what it touched — rebuilds instead.  A row is a function of its
element's place in the document alone, so piecewise repair and a full
rebuild produce byte-identical tables.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.core.numeric import xpath_number_value
from repro.core.reconstruct import ordered_rows, row_events
from repro.core.schema import KIND_ELEMENT
from repro.obs import METRICS
from repro.xmldom.parser import END, START

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.encodings import OrderEncoding
    from repro.core.updates import UpdateReport
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

    def maintain_in_transaction(
        self, info, encoding: "OrderEncoding", report: "UpdateReport"
    ) -> None:
        """Bring the index rows of the document *info* describes up to
        date after an update.  *info* is the update's own catalogue
        read — it says whether there are any — and *encoding* the
        encoding the update resolved from it: maintenance reads the
        catalogue no more.

        Runs inside the update's own transaction (called from the
        update manager's outermost tracked scope), so the index can
        never be observed out of step with the node tables: a crash
        rolls both back together.

        *report* is the outermost operation's
        :class:`~repro.core.updates.UpdateReport` carrying the touched
        set, and only the affected rows are repaired
        (``index.incremental``).  A touched set with a hole (see
        :meth:`_apply_delta_in_transaction`) rebuilds the document's
        rows instead (``index.fallback_rebuild``).  A zero-row no-op
        (removing an absent attribute, an empty batch entry) skips
        maintenance entirely.
        """
        if report.rows_touched() == 0 or not info.indexed:
            return
        if self._apply_delta_in_transaction(info, encoding, report):
            METRICS.inc("index.incremental")
        else:
            METRICS.inc("index.fallback_rebuild")
            self._rebuild_rows(info.doc, encoding)
        METRICS.inc("index.maintained")

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
        doc: int, rows: list[tuple], parent_path: str
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

    # -- incremental maintenance -------------------------------------------

    def _apply_delta_in_transaction(
        self, info, encoding: "OrderEncoding", report: "UpdateReport"
    ) -> bool:
        """Repair the index rows of *info*'s document from an update's
        touched set, in a handful of statements whatever the
        document's depth or text or the fragment's shape:

        (a) one ``DELETE`` for the removed and renamed ids — ids this
            operation minted have no index rows yet;
        (b) each inserted subtree's rows as the update wrote them, and
            each renamed subtree read back, through :meth:`_index_rows`
            under its parent's stored path, then one ``executemany``;
        (c) the rows of the anchors (see :meth:`_anchor_rows`) whose
            own text or element-childness the operation changed,
            written by one ``executemany``.

        Returns ``False`` when the touched set has a hole: a parent
        whose path is not stored, an anchor with no index row, or
        an inserted subtree a later step of the operation changed.  The
        caller then rebuilds, which replaces everything this method may
        already have written — bailing out is safe at any point.
        """
        doc = info.doc
        removed = dict.fromkeys(report.removed_ids)

        # Renamed subtrees are read back, skipping roots a later op in
        # the same transaction deleted and roots nested inside an
        # earlier root's subtree.
        subtrees: list[list[tuple]] = []
        covered: set[int] = set()
        for root_id in dict.fromkeys(report.reshred_roots):
            if root_id in covered or root_id in removed:
                continue
            root_row = self.store.fetch_node(doc, root_id, encoding)
            if root_row is None:
                continue
            rows = ordered_rows(self.store, doc, root_row, encoding)
            covered.update(row[0] for row in rows)
            subtrees.append(rows)

        # Inserted subtrees are taken as written.  One that a later op
        # of the same operation deleted is skipped; one it changed
        # inside (removed a node, renamed one, inserted under one) is a
        # shape no public operation produces, and rebuilds.
        inserted = report.inserted_subtrees
        minted = {row[0] for rows in inserted for row in rows}
        changed = {*removed, *report.reshred_roots}
        changed.update(rows[0][1] for rows in inserted)
        for rows in inserted:
            if rows[0][0] in removed or rows[0][0] in covered:
                continue
            if any(row[0] in changed for row in rows):
                return False
            subtrees.append(rows)

        # (a) Drop the stale rows.
        stale_ids = [
            node_id for node_id in (*removed, *covered)
            if node_id not in minted
        ]
        deleted = sum(
            self.store.backend.execute(sql, params).rowcount
            for sql, params in self.store.in_batches(
                "DELETE FROM idx_sval WHERE doc = ?", "id", stale_ids, (doc,)
            )
        )

        # (b) Shred the new subtrees.
        produced: list[tuple] = []
        if subtrees:
            # The parents' stored paths, "" for the document node.
            parent_paths: dict[int, str] = {0: ""}
            for sql, params in self.store.in_batches(
                "SELECT id, path FROM idx_sval WHERE doc = ?",
                "id", {rows[0][1] for rows in subtrees} - {0}, (doc,),
            ):
                parent_paths.update(self.store.backend.execute(
                    sql, params
                ).rows)
            for rows in subtrees:
                parent_path = parent_paths.get(rows[0][1])
                if parent_path is None:
                    return False
                produced += self._index_rows(doc, rows, parent_path)
            self._insert_rows(produced)

        # (c) Re-derive the rows of the anchors that are still there
        # and were not just shredded.
        repaired = self._anchor_rows(doc, encoding, [
            node_id for node_id in dict.fromkeys(report.sval_anchors)
            if node_id not in removed and node_id not in covered
        ])
        if repaired is None:
            return False
        if repaired:
            self.store.backend.executemany(
                "UPDATE idx_sval SET leaf_text = ?, nval = ? "
                "WHERE doc = ? AND id = ?",
                repaired,
            )

        METRICS.inc(
            "index.row_writes",
            deleted + len(produced) + len(repaired),
        )
        return True

    def _anchor_rows(
        self, doc: int, encoding: "OrderEncoding", anchors: list[int]
    ) -> Optional[list[tuple]]:
        """``(leaf_text, nval, doc, id)`` for each of *anchors* whose
        stored ``idx_sval`` row no longer says what its node row
        implies: its own text if it has no element child, NULL if it
        has one.

        One read whatever the anchors' number or depth: each anchor's
        stored row beside its node row, and whether an element child
        exists (a probe of the child index that stops at the first).
        ``None`` signals a bookkeeping hole — a live anchor with no
        ``idx_sval`` row — which forces the rebuild.
        """
        if not anchors:
            return []
        table = encoding.node_table.name
        found: set[int] = set()
        repaired: list[tuple] = []
        for sql, params in self.store.in_batches(
            f"SELECT s.id, s.leaf_text, s.nval, p.value, "
            f"EXISTS (SELECT 1 FROM {table} c WHERE c.doc = p.doc "
            f"AND c.parent = p.id AND c.kind = ?) "
            f"FROM idx_sval s, {table} p "
            f"WHERE s.doc = ? AND p.doc = s.doc AND p.id = s.id",
            "s.id", anchors, (KIND_ELEMENT, doc),
        ):
            for node_id, *stored, value, composite in (
                self.store.backend.execute(sql, params).rows
            ):
                found.add(node_id)
                text = None if composite else value or ""
                row = [text, xpath_number_value(text)]
                if row != stored:
                    repaired.append((*row, doc, node_id))
        if len(found) < len(anchors):
            return None
        return repaired
