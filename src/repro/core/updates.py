"""Ordered updates: insertion and deletion with per-encoding renumbering.

This module implements the paper's update cost model:

* **Global** — inserting at a position must shift the ``pos``/``endpos``
  of every node after the insertion point (O(document) in the worst
  case), plus extend the ``endpos`` of ancestors whose subtree ended at
  the insertion point;
* **Local** — inserting shifts only the ``lpos`` of following siblings
  (O(fan-out)), the encoding's strength;
* **Dewey** — inserting relabels the following siblings *and all their
  descendants* (their keys share the shifted component), the middle
  ground; **ORDPATH** runs the same routine but its carets always find
  a key between two neighbours, so it never relabels;
* **Sparse variants** (``gap > 1``) — order values are spaced out at load
  time, so an insertion that fits in an existing gap relabels *nothing*;
  renumbering only happens when a gap is exhausted (experiment E10);
* **Deletions** are cheap for every encoding: the subtree's rows are
  removed and no renumbering is required (stale ancestor ``endpos``
  values in the Global encoding remain safe because the vacated interval
  can contain no rows).

Every renumbering is one set-based ``UPDATE`` over the order column,
evaluated by the engine: ``pos = pos + k, endpos = endpos + k`` for
Global's tail, ``lpos = lpos + k`` for Local's siblings, ``dkey =
dewey_shift(dkey, level, k)`` for the key range of Dewey's following
siblings.  No routine reads rows to write them back one by one.

Every operation returns an :class:`UpdateReport` with the number of rows
inserted, deleted, and *relabeled* — the engine-independent cost the
benchmarks chart alongside wall-clock time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.core.encodings import (
    OrderEncoding,
    PrefixKeyEncoding,
    get_encoding,
)
from repro.core.reconstruct import ordered_rows
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.core.shredder import ShreddedDocument, relabel, shred
from repro.errors import UpdateError, XmlSyntaxError
from repro.obs import METRICS, span
from repro.xmldom.dom import Document, Node, Text
from repro.xmldom.parser import parse_fragment

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore


@dataclass
class UpdateReport:
    """Cost accounting for one update operation.

    Beyond the row counts, a report carries the *touched set* the
    secondary-index layer maintains itself from: ids whose ``idx_*``
    rows must go away, subtree roots whose rows must be (re)shredded,
    and the anchors whose ancestor chains need their aggregated
    string-values recomputed.  Relabels are deliberately absent from
    the touched set — index rows carry no order columns, so a
    renumber never invalidates them (it only feeds the fallback
    budget via :attr:`relabeled`).
    """

    inserted: int = 0
    deleted: int = 0
    relabeled: int = 0
    value_updates: int = 0  # direct-text maintenance on the parent
    new_root_id: Optional[int] = None
    # Touched-set accounting for incremental index maintenance.
    removed_ids: list = field(default_factory=list)
    reshred_roots: list = field(default_factory=list)
    sval_anchors: list = field(default_factory=list)
    # False signals the op could not account precisely for what it
    # touched; the index layer then falls back to an eager rebuild.
    index_exact: bool = True

    def rows_touched(self) -> int:
        return (
            self.inserted + self.deleted + self.relabeled
            + self.value_updates
        )

    def absorb(self, other: "UpdateReport") -> None:
        """Fold a nested operation's report into this one (compound
        ops such as ``set_text``).  ``new_root_id`` is left alone — it
        names the outer operation's own insertion, if any."""
        self.inserted += other.inserted
        self.deleted += other.deleted
        self.relabeled += other.relabeled
        self.value_updates += other.value_updates
        self.removed_ids.extend(other.removed_ids)
        self.reshred_roots.extend(other.reshred_roots)
        self.sval_anchors.extend(other.sval_anchors)
        self.index_exact = self.index_exact and other.index_exact


class UpdateManager:
    """Insert/delete operations bound to one :class:`XmlStore`."""

    def __init__(self, store: "XmlStore") -> None:
        self.store = store
        # Per-thread nesting depth of public operations, tracked on the
        # thread that actually executes the transaction body (which,
        # with a write queue, is the writer thread, not the caller).
        # Only the outermost operation maintains the index: compound
        # ops like set_text hand it one touched set, not one per
        # internal delete+insert step.
        self._tls = threading.local()

    def _record(self, op: str, report: UpdateReport) -> UpdateReport:
        """Account one finished operation in the metrics registry."""
        METRICS.inc(f"updates.{op}")
        METRICS.inc("updates.rows_touched", report.rows_touched())
        if report.relabeled:
            # A renumber happened: some encoding/gap combination had to
            # shift existing order values to make room.
            METRICS.inc("updates.renumber_ops")
            METRICS.inc("updates.relabeled", report.relabeled)
        return report

    def _doc_encoding(self, info) -> OrderEncoding:
        """The encoding holding the rows of the document *info* describes."""
        if info.encoding is None:
            return self.store.encoding
        return get_encoding(info.encoding)

    def _tracked(self, doc: int, body):
        """Run *body* inside the transaction, then — when this is the
        outermost public operation — maintain the document's index.

        *body* is handed the document's catalogue entry: the one
        catalogue read of the operation, from which it resolves the
        encoding (a migration serializes against this transaction, so
        the entry holds until it ends) and from which index maintenance
        learns whether there is an index.  A nested operation reads
        again; the enclosing one has moved the counts.

        Runs on whichever thread executes the transaction (the write
        queue's writer thread, under group commit).  Every operation,
        nested or not, declares *doc* in the transaction's write set,
        which is what the commit invalidates cache entries by.
        """
        self.store.note_write(doc)
        info = self.store.document_info(doc)
        tls = self._tls
        depth = getattr(tls, "depth", 0)
        tls.depth = depth + 1
        try:
            result = body(info)
        finally:
            tls.depth = depth
        if depth == 0:
            # Secondary-index maintenance rides the same transaction as
            # the update itself: a crash rolls both back together, so
            # the index can never be observed out of step with the node
            # tables.  No-op for unindexed documents.  The outermost
            # report carries the update's touched set, which lets the
            # index layer repair only the affected rows instead of
            # rebuilding the document.
            report = result if isinstance(result, UpdateReport) else None
            self.store.indexes.maintain_in_transaction(
                doc, report, info.indexed
            )
        return result

    # -- public operations -------------------------------------------------

    def insert(
        self,
        doc: int,
        parent_id: int,
        index: int,
        fragment: Union[str, Node],
    ) -> UpdateReport:
        """Insert *fragment* as the *index*-th child of *parent_id*.

        ``parent_id`` 0 addresses the document node (top level).  The
        fragment may be a detached DOM node or an XML string: a single
        element, a bare run of character data (inserted as a text
        node), a comment, or a processing instruction.  Multi-rooted
        fragment strings are rejected — insert each node separately.
        """
        if isinstance(fragment, str):
            try:
                fragment = parse_fragment(fragment)
            except XmlSyntaxError as exc:
                raise UpdateError(
                    f"cannot parse insert fragment: {exc}"
                ) from exc
        shredded = self._shred_fragment(fragment)
        with span("update.insert"):
            report = self.store.transactionally(
                lambda: self._tracked(
                    doc,
                    lambda info: self._insert_in_transaction(
                        info, parent_id, index, shredded
                    ),
                )
            )
        return self._record("inserts", report)

    def _insert_in_transaction(
        self, info, parent_id: int, index: int,
        shredded: ShreddedDocument,
    ) -> UpdateReport:
        # Everything below is handed the encoding resolved here, and
        # the parent row fetched here.
        doc = info.doc
        enc = self._doc_encoding(info)

        parent_row = None
        if parent_id != 0:
            parent_row = self.store.fetch_node(doc, parent_id, enc)
            if parent_row is None:
                raise UpdateError(f"no node {parent_id} in document {doc}")
            if parent_row["kind"] != KIND_ELEMENT:
                raise UpdateError(
                    f"node {parent_id} is not an element"
                )
        children = self.store.fetch_children(doc, parent_id, enc)
        if not 0 <= index <= len(children):
            raise UpdateError(
                f"index {index} out of range for {len(children)} children"
            )

        report = _INSERT_ROUTINES[enc.name](
            self, doc, parent_id, parent_row, children, index, shredded,
            info, enc,
        )

        # Maintain the parent's direct-text value when inserting text.
        if shredded.nodes[0].kind == KIND_TEXT and parent_id != 0:
            report.value_updates += self._refresh_direct_text(
                doc, parent_id, enc
            )

        # Touched set: the new subtree needs index rows, and the
        # ancestors of the insertion point need their aggregated
        # string-values repaired (any text inside the fragment now
        # contributes to them).
        if report.new_root_id is not None:
            report.reshred_roots.append(report.new_root_id)
        if parent_id != 0:
            report.sval_anchors.append(parent_id)

        info.node_count += shredded.node_count()
        parent_depth = parent_row["depth"] if parent_row else 0
        info.max_depth = max(
            info.max_depth, parent_depth + shredded.max_depth
        )
        info.next_id += shredded.node_count()
        self.store.update_document_info(info)
        return report

    def append(
        self, doc: int, parent_id: int, fragment: Union[str, Node]
    ) -> UpdateReport:
        """Insert *fragment* as the last child of *parent_id*."""
        children = self.store.fetch_children(doc, parent_id)
        return self.insert(doc, parent_id, len(children), fragment)

    def set_text(self, doc: int, element_id: int, text: str
                 ) -> UpdateReport:
        """Replace an element's text content with a single text node.

        Existing text children are deleted; a new text node is appended
        (or inserted first when the element also has element children,
        keeping the common ``<price>42</price>`` shape stable).  No
        order values of other nodes change for any encoding — one of the
        paper's observations: *value* updates are order-free.
        """
        row = self.store.fetch_node(doc, element_id)
        if row is None:
            raise UpdateError(f"no node {element_id} in document {doc}")
        if row["kind"] != KIND_ELEMENT:
            raise UpdateError(f"node {element_id} is not an element")

        def set_text_in_transaction(info) -> UpdateReport:
            report = UpdateReport()
            for child in self.store.fetch_children(
                doc, element_id, self._doc_encoding(info)
            ):
                if child["kind"] == KIND_TEXT:
                    report.absorb(self.delete(doc, child["id"]))
            report.absorb(self.insert(doc, element_id, 0, Text(text)))
            return report

        with span("update.set_text"):
            report = self.store.transactionally(
                lambda: self._tracked(doc, set_text_in_transaction)
            )
        return self._record("set_texts", report)

    def rename(self, doc: int, element_id: int, tag: str) -> UpdateReport:
        """Rename an element.  Touches exactly one row, no order values."""
        row = self.store.fetch_node(doc, element_id)
        if row is None:
            raise UpdateError(f"no node {element_id} in document {doc}")
        if row["kind"] != KIND_ELEMENT:
            raise UpdateError(f"node {element_id} is not an element")
        def rename_in_transaction(info) -> UpdateReport:
            # The table as the transaction's catalogue read names it:
            # the document may have migrated since the fetch above.
            self.store.backend.execute(
                f"UPDATE {self._doc_encoding(info).node_table.name} "
                f"SET tag = ? WHERE doc = ? AND id = ?",
                (tag, doc, element_id),
            )
            report = UpdateReport(value_updates=1)
            # The tag is part of every descendant's rooted path, so the
            # whole subtree's index rows must be reshredded.  String
            # values are unaffected — no sval anchor.
            report.reshred_roots.append(element_id)
            return report

        with span("update.rename"):
            report = self.store.transactionally(
                lambda: self._tracked(doc, rename_in_transaction)
            )
        return self._record("renames", report)

    def set_attribute(
        self, doc: int, element_id: int, name: str, value: Optional[str]
    ) -> UpdateReport:
        """Set (or, with ``value=None``, remove) one attribute.

        Attributes carry no order, so this never renumbers anything —
        exactly why the paper stores them separately from the ordered
        node list.
        """
        row = self.store.fetch_node(doc, element_id)
        if row is None:
            raise UpdateError(f"no node {element_id} in document {doc}")
        if row["kind"] != KIND_ELEMENT:
            raise UpdateError(f"node {element_id} is not an element")

        def set_attribute_in_transaction(info) -> UpdateReport:
            attr_table = self._doc_encoding(info).attr_table.name
            deleted = self.store.backend.execute(
                f"DELETE FROM {attr_table} "
                f"WHERE doc = ? AND owner = ? AND name = ?",
                (doc, element_id, name),
            )
            report = UpdateReport()
            report.deleted += max(deleted.rowcount, 0)
            if value is not None:
                self.store.backend.execute(
                    f"INSERT INTO {attr_table} "
                    f"VALUES (?, ?, ?, ?)",
                    (doc, element_id, name, value),
                )
                report.inserted += 1
            return report

        with span("update.set_attribute"):
            report = self.store.transactionally(
                lambda: self._tracked(doc, set_attribute_in_transaction)
            )
        return self._record("set_attributes", report)

    def delete(self, doc: int, node_id: int) -> UpdateReport:
        """Delete the subtree rooted at *node_id*."""

        def delete_in_transaction(info) -> UpdateReport:
            enc = self._doc_encoding(info)
            target = self.store.fetch_node(doc, node_id, enc)
            if target is None:
                raise UpdateError(f"no node {node_id} in document {doc}")
            parent_id = target["parent"]
            was_text = target["kind"] == KIND_TEXT
            subtree_ids = self._subtree_ids(doc, target, enc)
            self._delete_attributes(doc, subtree_ids, enc)
            deleted = self._delete_rows(doc, target, subtree_ids, enc)

            report = UpdateReport(deleted=deleted)
            if was_text and parent_id != 0:
                report.value_updates += self._refresh_direct_text(
                    doc, parent_id, enc
                )

            # Touched set: every row of the subtree loses its index
            # rows, and the former parent's ancestor chain loses the
            # subtree's text contribution.
            report.removed_ids.extend(subtree_ids)
            if parent_id != 0:
                report.sval_anchors.append(parent_id)

            info.node_count -= deleted
            self.store.update_document_info(info)
            return report

        with span("update.delete"):
            report = self.store.transactionally(
                lambda: self._tracked(doc, delete_in_transaction)
            )
        return self._record("deletes", report)

    def rebalance(self, doc: int) -> UpdateReport:
        """Relabel the whole document with fresh, evenly-gapped values.

        The paper's amortisation strategy: instead of paying a shift on
        every gap-exhausted insertion, renumber offline — one O(N) pass
        that restores the store's configured gap everywhere (and, for
        ORDPATH, collapses accumulated carets back to short keys).
        Structure, ids, and attributes are untouched; only order values
        change.
        """
        with span("update.rebalance"):
            report = self.store.transactionally(
                lambda: self._rebalance(doc)
            )
        return self._record("rebalances", report)

    def _rebalance(self, doc: int) -> UpdateReport:
        # The transaction body: the rows are read in the transaction
        # that rewrites them, or a write committing in between would be
        # relabelled around.
        store = self.store
        store.note_write(doc)
        enc = store.encoding_for(doc)
        records = relabel(ordered_rows(store, doc, encoding=enc))
        assignments = ", ".join(f"{c} = ?" for c in enc.order_columns)
        store.backend.executemany(
            f"UPDATE {enc.node_table.name} SET {assignments} "
            f"WHERE doc = ? AND id = ?",
            (
                (*order, doc, record.id)
                for record, order in zip(
                    records, enc.bulk_order_values(records, store.gap)
                )
            ),
        )
        return UpdateReport(relabeled=len(records))

    # -- shared helpers --------------------------------------------------------

    def _shred_fragment(self, fragment: Node) -> ShreddedDocument:
        carrier = Document()
        carrier.append(fragment)
        shredded = shred(carrier)
        fragment.detach()
        return shredded

    def _new_ids(
        self, info, shredded: ShreddedDocument, parent_id: int
    ) -> tuple[list[int], list[int]]:
        """New surrogate ids and parent ids for the fragment's records."""
        base = info.next_id
        ids = [base + node.id - 1 for node in shredded.nodes]
        parents = [
            parent_id if node.parent == 0 else base + node.parent - 1
            for node in shredded.nodes
        ]
        return ids, parents

    def _insert_rows(
        self,
        doc: int,
        shredded: ShreddedDocument,
        ids: list[int],
        parents: list[int],
        depth_base: int,
        order_values: list[tuple],
        enc: OrderEncoding,
    ) -> None:
        table = enc.node_table.name
        width = len(enc.node_columns())
        placeholders = ", ".join("?" for _ in range(width))
        rows = []
        for node, node_id, parent, order in zip(
            shredded.nodes, ids, parents, order_values
        ):
            rows.append(
                (
                    doc,
                    node_id,
                    parent,
                    node.kind,
                    node.tag,
                    node.value,
                    depth_base + node.depth,
                    *order,
                )
            )
        self.store.backend.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})", rows
        )
        id_of = {node.id: real for node, real in zip(shredded.nodes, ids)}
        attr_rows = [
            (doc, id_of[attr.owner], attr.name, attr.value)
            for attr in shredded.attributes
        ]
        if attr_rows:
            self.store.backend.executemany(
                f"INSERT INTO {enc.attr_table.name} VALUES (?, ?, ?, ?)",
                attr_rows,
            )

    def _refresh_direct_text(
        self, doc: int, element_id: int, enc: OrderEncoding
    ) -> int:
        """Recompute an element's stored direct-text value; returns rows
        updated (0 or 1)."""
        table = enc.node_table.name
        order = enc.sibling_order_column
        result = self.store.backend.execute(
            f"SELECT value FROM {table} "
            f"WHERE doc = ? AND parent = ? AND kind = '{KIND_TEXT}' "
            f"ORDER BY {order}",
            (doc, element_id),
        )
        value = (
            "".join(row[0] for row in result.rows)
            if result.rows
            else None
        )
        updated = self.store.backend.execute(
            f"UPDATE {table} SET value = ? "
            f"WHERE doc = ? AND id = ?",
            (value, doc, element_id),
        )
        return max(updated.rowcount, 0)

    # -- Global encoding -----------------------------------------------------------

    def _insert_global(
        self, doc, parent_id, parent_row, children, index, shredded,
        info, enc,
    ) -> UpdateReport:
        gap = self.store.gap
        n = shredded.node_count()
        table = enc.node_table.name
        if index > 0:
            pos_before = children[index - 1]["endpos"]
        elif parent_row is not None:
            pos_before = parent_row["pos"]
        else:
            pos_before = 0

        if index < len(children):
            # Nothing sits between one sibling's interval and the next.
            next_pos = children[index]["pos"]
        else:
            result = self.store.backend.execute(
                f"SELECT MIN(pos) FROM {table} WHERE doc = ? AND pos > ?",
                (doc, pos_before),
            )
            next_pos = result.rows[0][0] if result.rows else None

        relabeled = 0
        shifted_from = None  # where the tail began, if it had to move
        delta = n * gap
        if next_pos is None:
            # Appending past everything: open-ended slots.
            slots = [pos_before + gap * (i + 1) for i in range(n)]
        else:
            next_pos = int(next_pos)
            step = (next_pos - pos_before) // (n + 1)
            if step < 1:
                # The paper's O(document) case: every interval that
                # starts at or after the insertion point moves whole.
                shifted = self.store.backend.execute(
                    f"UPDATE {table} SET pos = pos + ?, endpos = endpos + ? "
                    f"WHERE doc = ? AND pos >= ?",
                    (delta, delta, doc, next_pos),
                )
                relabeled += max(shifted.rowcount, 0)
                shifted_from = next_pos
                next_pos += delta
                step = (next_pos - pos_before) // (n + 1)
            slots = [pos_before + step * (i + 1) for i in range(n)]

        if parent_row is not None:
            relabeled += self._extend_global_ancestors(
                doc, parent_row, slots[-1], shifted_from, delta, enc
            )

        ids, parents = self._new_ids(info, shredded, parent_id)
        order_values = [
            (slots[node.rank - 1], slots[node.end_rank - 1])
            for node in shredded.nodes
        ]
        depth_base = parent_row["depth"] if parent_row is not None else 0
        self._insert_rows(
            doc, shredded, ids, parents, depth_base, order_values, enc
        )
        return UpdateReport(
            inserted=n, relabeled=relabeled, new_root_id=ids[0]
        )

    def _extend_global_ancestors(
        self, doc: int, parent_row: dict, last_slot: int,
        shifted_from: Optional[int], delta: int, enc: OrderEncoding,
    ) -> int:
        """Grow the intervals that contain the insertion point: the
        parent's and its ancestors'.

        All of them start before the insertion point, so the tail shift
        moved none.  One that reached past the point (``endpos >=
        shifted_from``) follows the tail by *delta*; one that ended
        before it is extended to the last new node; the ones between
        (no shift, already wide enough) stay.  Intervals nest, so if
        the parent's needs nothing neither does any ancestor's.  Each
        row is read once — the ancestors by one walk up the parent
        pointers — and written at most once, by id.
        """
        table = enc.node_table.name
        chain = [(parent_row["id"], parent_row["endpos"])]
        if parent_row["parent"] != 0 and (
            shifted_from is not None or parent_row["endpos"] < last_slot
        ):
            # UNION, not UNION ALL: a corrupt parent cycle terminates.
            chain += self.store.backend.execute(
                f"WITH RECURSIVE up(id, parent, endpos) AS ("
                f"SELECT id, parent, endpos FROM {table} "
                f"WHERE doc = ? AND id = ? UNION "
                f"SELECT n.id, n.parent, n.endpos FROM {table} n, up "
                f"WHERE n.doc = ? AND n.id = up.parent) "
                f"SELECT id, endpos FROM up",
                (doc, parent_row["parent"], doc),
            ).rows
        follow: list[int] = []
        extend: list[int] = []
        for node_id, endpos in chain:
            if shifted_from is not None and endpos >= shifted_from:
                follow.append(node_id)
            elif endpos < last_slot:
                extend.append(node_id)
        for assignment, value, ids in (
            ("endpos = endpos + ?", delta, follow),
            ("endpos = ?", last_slot, extend),
        ):
            for sql, params in self.store.in_batches(
                f"UPDATE {table} SET {assignment} WHERE doc = ?",
                "id", ids, (value, doc),
            ):
                self.store.backend.execute(sql, params)
        return len(follow) + len(extend)

    # -- Local encoding ------------------------------------------------------------------

    def _insert_local(
        self, doc, parent_id, parent_row, children, index, shredded,
        info, enc,
    ) -> UpdateReport:
        gap = self.store.gap
        table = enc.node_table.name
        lpos_before = children[index - 1]["lpos"] if index > 0 else 0
        lpos_after = (
            children[index]["lpos"] if index < len(children) else None
        )

        relabeled = 0
        if lpos_after is None:
            new_lpos = lpos_before + gap
        elif lpos_after - lpos_before > 1:
            new_lpos = (lpos_before + lpos_after) // 2
        else:
            shifted = self.store.backend.execute(
                f"UPDATE {table} SET lpos = lpos + ? "
                f"WHERE doc = ? AND parent = ? AND lpos >= ?",
                (gap, doc, parent_id, lpos_after),
            )
            relabeled += max(shifted.rowcount, 0)
            new_lpos = lpos_after

        ids, parents = self._new_ids(info, shredded, parent_id)
        order_values = []
        for node in shredded.nodes:
            if node.parent == 0:
                order_values.append((new_lpos,))
            else:
                order_values.append((node.sibling_index * gap,))
        depth_base = parent_row["depth"] if parent_row is not None else 0
        self._insert_rows(
            doc, shredded, ids, parents, depth_base, order_values, enc
        )
        return UpdateReport(
            inserted=shredded.node_count(),
            relabeled=relabeled,
            new_root_id=ids[0],
        )

    # -- prefix-key encodings (Dewey, ORDPATH) ---------------------------------------------

    def _insert_prefix_key(
        self, doc, parent_id, parent_row, children, index, shredded,
        info, enc: PrefixKeyEncoding,
    ) -> UpdateReport:
        """A fresh key between the two neighbours, chosen by the
        encoding: Dewey takes a free position or asks for the following
        siblings to be shifted, ORDPATH carets and never relabels an
        existing row — the property the paper's update analysis
        motivates and ORDPATH delivers."""
        gap = self.store.gap
        column = enc.key_column
        decode = enc.key_type.decode
        parent_key = decode(
            parent_row[column] if parent_row is not None else b""
        )
        root_components, shift = enc.child_slot(
            parent_key,
            decode(children[index - 1][column]) if index > 0 else None,
            decode(children[index][column])
            if index < len(children) else None,
            gap,
        )
        relabeled = 0
        if shift:
            # Gap exhausted: the following siblings and everything
            # under them — the keys from the right neighbour's to the
            # end of the parent's range (of the document, at top level)
            # — move up one slot, the sibling component rewritten in
            # place by the engine.
            where, bounds = f"{column} >= ?", (children[index][column],)
            if parent_row is not None:
                where += f" AND {column} < ?"
                bounds += (enc.successor_bytes(bytes(parent_row[column])),)
            shifted = self.store.backend.execute(
                f"UPDATE {enc.node_table.name} "
                f"SET {column} = {enc.shift_function}({column}, ?, ?) "
                f"WHERE doc = ? AND {where}",
                (len(parent_key), shift, doc, *bounds),
            )
            relabeled = max(shifted.rowcount, 0)

        ids, parents = self._new_ids(info, shredded, parent_id)
        order_values = []
        for node in shredded.nodes:
            # Fragment-internal nodes are labelled under the new root
            # exactly as a load would label them.
            relative = enc.fresh_components(node.dewey[1:], gap)
            key = enc.key_type((*root_components, *relative))
            order_values.append((key.encode(),))
        depth_base = parent_row["depth"] if parent_row is not None else 0
        self._insert_rows(
            doc, shredded, ids, parents, depth_base, order_values, enc
        )
        return UpdateReport(
            inserted=shredded.node_count(),
            relabeled=relabeled,
            new_root_id=ids[0],
        )

    # -- deletion -------------------------------------------------------------------------

    def _subtree_ids(
        self, doc: int, row: dict, enc: Optional[OrderEncoding] = None
    ) -> list[int]:
        """Ids of the node and all its descendants."""
        return [r[0] for r in ordered_rows(self.store, doc, row, enc)]

    def _delete_attributes(
        self, doc: int, ids: list[int], enc: OrderEncoding
    ) -> None:
        for sql, params in self.store.in_batches(
            f"DELETE FROM {enc.attr_table.name} WHERE doc = ?",
            "owner", ids, (doc,),
        ):
            self.store.backend.execute(sql, params)

    def _delete_rows(
        self, doc: int, row: dict, subtree_ids: list[int],
        enc: OrderEncoding,
    ) -> int:
        delete = f"DELETE FROM {enc.node_table.name} WHERE doc = ?"
        subtree = enc.subtree_where(row, include_root=True)
        if subtree is None:
            statements = self.store.in_batches(
                delete, "id", subtree_ids, (doc,)
            )
        else:
            where, bounds = subtree
            statements = [(f"{delete} AND {where}", (doc, *bounds))]
        return sum(
            max(self.store.backend.execute(sql, params).rowcount, 0)
            for sql, params in statements
        )


_INSERT_ROUTINES = {
    "global": UpdateManager._insert_global,
    "local": UpdateManager._insert_local,
    "dewey": UpdateManager._insert_prefix_key,
    "ordpath": UpdateManager._insert_prefix_key,
}
