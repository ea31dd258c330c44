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
  renumbering only happens when a gap is exhausted (experiment E10).
  The gap is the document's (``documents.gap``, written by its load):
  every insert and rebalance labels with it;
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
benchmarks chart alongside wall-clock time.  On an indexed document each
insert, delete and rename also repairs its own index rows, in its own
transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.core.encodings import (
    ENCODINGS,
    OrderEncoding,
    PrefixKeyEncoding,
)
from repro.core.reconstruct import ordered_rows
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.core.shredder import ShreddedDocument, relabel, shred
from repro.errors import UpdateError, XmlSyntaxError
from repro.obs import METRICS, span
from repro.xmldom.dom import Document, Node, Text
from repro.xmldom.parser import parse_fragment

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import DocumentInfo, XmlStore


@dataclass
class UpdateReport:
    """Cost accounting for one update operation: the rows it inserted,
    deleted and relabeled, and the direct-text values it rewrote.  The
    index is not its business: each primitive write repairs its own
    index rows where it writes (see
    :meth:`repro.index.manager.IndexManager.repair_in_transaction`).
    """

    inserted: int = 0
    deleted: int = 0
    relabeled: int = 0
    value_updates: int = 0  # direct-text maintenance on the parent
    new_root_id: Optional[int] = None

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


def _element_ids(rows: list[tuple]) -> list[int]:
    """The ids of the elements among ``(id, parent, kind, tag, value)``
    rows: the nodes that have index rows."""
    return [row[0] for row in rows if row[2] == KIND_ELEMENT]


def _require_id(node_id: object) -> None:
    """Raise :class:`UpdateError` unless *node_id* is an int, before
    the engine sees it (a query result is not an id: its ``node_id``
    is, and for an attribute that names the owner element)."""
    if not isinstance(node_id, int):
        raise UpdateError(
            f"a node id is an int, not {type(node_id).__name__}"
        )


class UpdateManager:
    """Insert/delete operations bound to one :class:`XmlStore`."""

    def __init__(self, store: "XmlStore") -> None:
        self.store = store

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

    def _tracked(
        self, doc: int, body: Callable[[DocumentInfo], UpdateReport]
    ) -> UpdateReport:
        """Run *body* inside the transaction.

        *body* is handed the document's catalogue entry: the one
        catalogue read of the operation, from which it resolves the
        encoding and learns whether the document is indexed (a
        migration serializes against this transaction, so the entry
        holds until it ends).  A nested operation reads again; the
        enclosing one has moved the counts.

        Every operation, nested or not, declares *doc* in the
        transaction's write set, which is what the commit invalidates
        cache entries by.
        """
        self.store.note_write(doc)
        return body(self.store.document_info(doc))

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
        _require_id(parent_id)
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
        enc = ENCODINGS[info.encoding]

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

        order_values, relabeled = _ORDER_ROUTINES[enc.name](
            self, doc, parent_id, parent_row, children, index, shredded,
            enc, info.gap,
        )
        ids, parents = self._new_ids(info, shredded, parent_id)
        parent_depth = parent_row["depth"] if parent_row else 0
        rows = self._insert_rows(
            doc, shredded, ids, parents, parent_depth, order_values, enc
        )
        report = UpdateReport(
            inserted=shredded.node_count(),
            relabeled=relabeled,
            new_root_id=ids[0],
        )

        # Maintain the parent's direct-text value when inserting text.
        if shredded.nodes[0].kind == KIND_TEXT and parent_id != 0:
            report.value_updates += self._refresh_direct_text(
                doc, parent_id, enc
            )

        # The rows just written are the new subtree's; the parent's
        # own index row may change with them, nothing above it.
        if info.indexed:
            self.store.indexes.repair_in_transaction(
                info, enc, parent_id, added=rows
            )

        self.store.update_document_info(replace(
            info,
            node_count=info.node_count + shredded.node_count(),
            next_id=info.next_id + shredded.node_count(),
        ))
        return report

    def append(
        self, doc: int, parent_id: int, fragment: Union[str, Node]
    ) -> UpdateReport:
        """Insert *fragment* as the last child of *parent_id*."""
        _require_id(parent_id)
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
        _require_id(element_id)

        def set_text_in_transaction(info) -> UpdateReport:
            enc = ENCODINGS[info.encoding]
            self._require_element(doc, element_id, enc)
            report = UpdateReport()
            for child in self.store.fetch_children(doc, element_id, enc):
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
        _require_id(element_id)

        def rename_in_transaction(info) -> UpdateReport:
            enc = ENCODINGS[info.encoding]
            row = self._require_element(doc, element_id, enc)
            self.store.backend.execute(
                f"UPDATE {enc.node_table.name} "
                f"SET tag = ? WHERE doc = ? AND id = ?",
                (tag, doc, element_id),
            )
            if info.indexed:
                # The tag is part of every descendant's rooted path, so
                # the whole subtree's index rows are rewritten.
                rows = ordered_rows(
                    self.store, doc, {**row, "tag": tag}, enc
                )
                self.store.indexes.repair_in_transaction(
                    info, enc, row["parent"],
                    removed=_element_ids(rows), added=rows,
                )
            return UpdateReport(value_updates=1)

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
        _require_id(element_id)

        def set_attribute_in_transaction(info) -> UpdateReport:
            enc = ENCODINGS[info.encoding]
            self._require_element(doc, element_id, enc)
            attr_table = enc.attr_table.name
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

    def _require_element(
        self, doc: int, element_id: int, enc: OrderEncoding
    ) -> dict:
        """*element_id*'s node row; :class:`UpdateError` unless it is an
        element.

        Called inside the transaction, with the encoding its catalogue
        read names: a lookup before it could read a table a migration
        has emptied since.
        """
        row = self.store.fetch_node(doc, element_id, enc)
        if row is None:
            raise UpdateError(f"no node {element_id} in document {doc}")
        if row["kind"] != KIND_ELEMENT:
            raise UpdateError(f"node {element_id} is not an element")
        return row

    def delete(self, doc: int, node_id: int) -> UpdateReport:
        """Delete the subtree rooted at *node_id*."""
        _require_id(node_id)

        def delete_in_transaction(info) -> UpdateReport:
            enc = ENCODINGS[info.encoding]
            target = self.store.fetch_node(doc, node_id, enc)
            if target is None:
                raise UpdateError(f"no node {node_id} in document {doc}")
            parent_id = target["parent"]
            subtree = ordered_rows(self.store, doc, target, enc)
            subtree_ids = [row[0] for row in subtree]
            self._delete_attributes(doc, subtree_ids, enc)
            deleted = self._delete_rows(doc, target, subtree_ids, enc)

            report = UpdateReport(deleted=deleted)
            if target["kind"] == KIND_TEXT and parent_id != 0:
                report.value_updates += self._refresh_direct_text(
                    doc, parent_id, enc
                )
            if info.indexed:
                # The subtree's elements lose their rows; the former
                # parent may have lost own text or its last element
                # child.
                self.store.indexes.repair_in_transaction(
                    info, enc, parent_id, removed=_element_ids(subtree)
                )

            self.store.update_document_info(
                replace(info, node_count=info.node_count - deleted)
            )
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
        that restores the document's gap everywhere (and, for
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
        info = store.document_info(doc)
        enc = ENCODINGS[info.encoding]
        records = relabel(ordered_rows(store, doc, encoding=enc))
        assignments = ", ".join(f"{c} = ?" for c in enc.order_columns)
        store.backend.executemany(
            f"UPDATE {enc.node_table.name} SET {assignments} "
            f"WHERE doc = ? AND id = ?",
            (
                (*order, doc, record.id)
                for record, order in zip(
                    records, enc.bulk_order_values(records, info.gap)
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
    ) -> list[tuple]:
        """Write the fragment's node and attribute rows; returns each
        node's ``(id, parent, kind, tag, value)`` in document order —
        what :func:`~repro.core.reconstruct.ordered_rows` would read
        back."""
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
        return [row[1:6] for row in rows]

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
        self, doc, parent_id, parent_row, children, index, shredded, enc,
        gap,
    ) -> tuple[list[tuple], int]:
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
            # The first row after the insertion point: a probe of the
            # ``pos`` index that stops there (minidb reads the whole
            # range under an aggregate such as ``MIN``).
            result = self.store.backend.execute(
                f"SELECT pos FROM {table} WHERE doc = ? AND pos > ? "
                f"ORDER BY pos LIMIT 1",
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

        order_values = [
            (slots[node.rank - 1], slots[node.end_rank - 1])
            for node in shredded.nodes
        ]
        return order_values, relabeled

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
            # `up` is named first because minidb joins FROM items left
            # to right: so the step probes (doc, id) once per chain row
            # instead of scanning the document once per round.
            chain += self.store.backend.execute(
                f"WITH RECURSIVE up(id, parent, endpos) AS ("
                f"SELECT id, parent, endpos FROM {table} "
                f"WHERE doc = ? AND id = ? UNION "
                f"SELECT n.id, n.parent, n.endpos FROM up, {table} n "
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
        self, doc, parent_id, parent_row, children, index, shredded, enc,
        gap,
    ) -> tuple[list[tuple], int]:
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
            # The right neighbour and every sibling after it move up by
            # one gap.  *children* holds them in order already, so each
            # is written by id: the child index keeps tag before lpos,
            # and an lpos range over the parent's children would read
            # every one of them.
            for sql, params in self.store.in_batches(
                f"UPDATE {table} SET lpos = lpos + ? WHERE doc = ?",
                "id", [child["id"] for child in children[index:]],
                (gap, doc),
            ):
                shifted = self.store.backend.execute(sql, params)
                relabeled += max(shifted.rowcount, 0)
            new_lpos = lpos_after

        order_values = []
        for node in shredded.nodes:
            if node.parent == 0:
                order_values.append((new_lpos,))
            else:
                order_values.append((node.sibling_index * gap,))
        return order_values, relabeled

    # -- prefix-key encodings (Dewey, ORDPATH) ---------------------------------------------

    def _insert_prefix_key(
        self, doc, parent_id, parent_row, children, index, shredded,
        enc: PrefixKeyEncoding, gap: int,
    ) -> tuple[list[tuple], int]:
        """A fresh key between the two neighbours, chosen by the
        encoding: Dewey takes a free position or asks for the following
        siblings to be shifted, ORDPATH carets and never relabels an
        existing row — the property the paper's update analysis
        motivates and ORDPATH delivers."""
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

        order_values = []
        for node in shredded.nodes:
            # Fragment-internal nodes are labelled under the new root
            # exactly as a load would label them.
            relative = enc.fresh_components(node.dewey[1:], gap)
            key = enc.key_type((*root_components, *relative))
            order_values.append((key.encode(),))
        return order_values, relabeled

    # -- deletion -------------------------------------------------------------------------

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


#: Per encoding, how an insert makes room at the document's gap: each
#: routine renumbers what it must and returns the fragment's order
#: values (one tuple per node, in document order) and the number of
#: existing rows it relabeled.
_ORDER_ROUTINES = {
    "global": UpdateManager._insert_global,
    "local": UpdateManager._insert_local,
    "dewey": UpdateManager._insert_prefix_key,
    "ordpath": UpdateManager._insert_prefix_key,
}
