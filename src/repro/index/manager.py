"""Per-document secondary indexes.

:class:`IndexManager` owns the ``idx_*`` side tables declared in
:func:`repro.core.schema.index_tables`:

* **value index** (``idx_sval``) — one row per element carrying its full
  XPath string-value and numeric interpretation, probed by rewritten
  value predicates;
* **path index** (``idx_paths`` + ``idx_sval.pathid``) — the dictionary
  of distinct root-to-element paths plus each element's occurrence,
  probed by rewritten structural queries through the ``path_match``
  scalar;
* **presence** — the document's catalogue row (``documents.indexed``).

The side tables are created empty at schema bootstrap and keyed on the
surrogate ``id``, so they are encoding-independent and index create /
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
renamed subtree roots, string-value anchors — see
:class:`repro.core.updates.UpdateReport`) down into the same
transaction, and only those rows are repaired, in a fixed handful of
statements whatever the depth of the chain above them.  Index rows
carry no order columns, so renumbering never invalidates them.  Only
an update whose touched set has a hole — it cannot account exactly
for what it touched — rebuilds instead.  The path dictionary is
append-only — path ids are stable across rebuilds, which is what makes
piecewise repair and a full rebuild produce byte-identical tables.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from repro.core.numeric import xpath_number_value
from repro.core.reconstruct import ordered_rows, row_events
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.obs import METRICS
from repro.xmldom.parser import END, START, TEXT

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
        self.store.refresh_statistics("idx_sval", "idx_paths")
        return report

    def drop(self, doc: int) -> bool:
        """Remove *doc*'s index rows; True if an index was present."""
        present = self.exists(doc)
        self.store.transactionally(lambda: self.purge_in_transaction(doc))
        if present:
            METRICS.inc("index.dropped")
        return present

    def purge_in_transaction(self, doc: int) -> None:
        """Delete every ``idx_*`` row of *doc* and clear its ``indexed``
        flag (caller owns the txn)."""
        self.store.note_write(doc)
        backend = self.store.backend
        for table in ("idx_sval", "idx_paths"):
            backend.execute(f"DELETE FROM {table} WHERE doc = ?", (doc,))
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
        the index tables."""
        if not self.exists(doc):
            return {"doc": doc, "present": False}
        execute = self.store.backend.execute
        tags = Counter(
            tag for (tag,) in execute(
                "SELECT tag FROM idx_sval WHERE doc = ?", (doc,)
            ).rows
        )
        paths = execute(
            "SELECT COUNT(*) FROM idx_paths WHERE doc = ?", (doc,)
        ).rows[0][0]
        return {
            "doc": doc,
            "present": True,
            "element_count": sum(tags.values()),
            "path_count": paths,
            "tags": dict(
                sorted(tags.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            ),
        }

    # -- the build pass ----------------------------------------------------

    def _index_rows(
        self,
        doc: int,
        rows: list[tuple],
        parent_path: str,
        paths: dict[str, int],
    ) -> tuple[list[tuple], list[tuple]]:
        """The one producer of index rows: ``(idx_sval rows, fresh
        idx_paths rows)`` for a forest, one ``idx_sval`` row per
        element.

        *rows* are ``(id, parent, kind, tag, value)`` tuples of whole
        subtrees in document order whose roots are children of one
        node — the whole document read by
        :func:`~repro.core.reconstruct.ordered_rows` for a rebuild; for
        a repair, an inserted subtree's rows as the update wrote them
        or a renamed subtree read back — and *parent_path* is that
        node's rooted path (``""`` for the document).  One pass over
        their events: an element's path is known when it opens, its
        XPath string-value when it closes.

        *paths* is the document's path dictionary and is only ever
        appended to: an unseen path takes the next id and is returned
        as a fresh row.  Path ids are therefore stable across rebuilds
        (orphaned paths are retained — a probe for one simply finds no
        occurrences), and because a subtree's preorder is the
        document's preorder restricted to it, first-encounter
        allocation assigns a repair the same ids a rebuild would.
        """
        sval_rows: list[tuple] = []
        fresh_paths: list[tuple] = []
        stored = iter(rows)
        # The open element: its rooted path, the pieces of its
        # string-value so far and the slot its idx_sval row waits in.
        # The same, saved for each open ancestor.
        path, parts, slot = parent_path, [], -1
        stack: list[tuple] = []
        for kind, a, _b in row_events(rows, {}):
            if kind == END:
                sval = "".join(parts)
                sval_rows[slot] += (sval, xpath_number_value(sval))
                path, parts, slot = stack.pop()
                parts.append(sval)
                continue
            node_id, parent = next(stored)[:2]  # one row per non-END
            if kind == START:
                stack.append((path, parts, slot))
                path, parts, slot = f"{path}/{a}", [], len(sval_rows)
                pathid = paths.get(path)
                if pathid is None:
                    pathid = paths[path] = len(paths) + 1
                    fresh_paths.append((doc, pathid, path))
                sval_rows.append((doc, node_id, parent, a, pathid))
            elif kind == TEXT:  # comments and PIs contribute nothing
                parts.append(a)
        return sval_rows, fresh_paths

    def _rebuild_rows(
        self, doc: int, encoding: Optional["OrderEncoding"] = None
    ) -> dict:
        """Recompute every ``idx_sval`` row of *doc* from one ordered
        pass over its node table (txn caller-owned; *encoding* as for
        :func:`~repro.core.reconstruct.ordered_rows`); returns the
        create report."""
        backend = self.store.backend
        rows = ordered_rows(self.store, doc, encoding=encoding)
        paths = self._load_paths(doc)
        produced = self._index_rows(doc, rows, "", paths)
        deleted = backend.execute(
            "DELETE FROM idx_sval WHERE doc = ?", (doc,)
        ).rowcount
        self._insert_rows(*produced)
        METRICS.inc("index.row_writes", deleted + sum(map(len, produced)))
        return {
            "doc": doc,
            "elements": len(produced[0]),
            "paths": len(paths),
            "nodes": len(rows),
        }

    def _insert_rows(self, sval_rows, fresh_paths) -> None:
        for sql, rows in (
            ("INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?, ?)", sval_rows),
            ("INSERT INTO idx_paths VALUES (?, ?, ?)", fresh_paths),
        ):
            if rows:
                self.store.backend.executemany(sql, rows)

    # -- incremental maintenance -------------------------------------------

    def _apply_delta_in_transaction(
        self, info, encoding: "OrderEncoding", report: "UpdateReport"
    ) -> bool:
        """Repair the index rows of *info*'s document from an update's
        touched set, in a handful of statements whatever the chain
        depth or the fragment's shape:

        (a) one ``DELETE`` for the removed and renamed ids — ids this
            operation minted have no index rows yet;
        (b) each inserted subtree's rows as the update wrote them, and
            each renamed subtree read back, through :meth:`_index_rows`
            under its parent's stored path, then one ``executemany``
            per table;
        (c) the string-values of the anchors and their ancestors (see
            :meth:`_chain_svals`), written by one ``executemany``.

        Returns ``False`` when the touched set has a hole: a parent
        whose path is not stored, an element child with no ``sval``, or
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
        produced: tuple[list, list] = ([], [])
        if subtrees:
            # The parents' stored paths: their rows' path ids resolved
            # through the path dictionary, "" for the document node.
            paths = self._load_paths(doc)
            names = {pathid: path for path, pathid in paths.items()}
            parent_paths: dict[int, Optional[str]] = {0: ""}
            for sql, params in self.store.in_batches(
                "SELECT id, pathid FROM idx_sval WHERE doc = ?",
                "id", {rows[0][1] for rows in subtrees} - {0}, (doc,),
            ):
                for node_id, pathid in self.store.backend.execute(
                    sql, params
                ).rows:
                    parent_paths[node_id] = names.get(pathid)
            for rows in subtrees:
                parent_path = parent_paths.get(rows[0][1])
                if parent_path is None:
                    return False
                for part, more in zip(produced, self._index_rows(
                    doc, rows, parent_path, paths
                )):
                    part.extend(more)
            self._insert_rows(*produced)

        # (c) Repair aggregated string-values along the anchors' paths.
        repaired = self._chain_svals(
            doc, encoding, list(dict.fromkeys(report.sval_anchors))
        )
        if repaired is None:
            return False
        if repaired:
            self.store.backend.executemany(
                "UPDATE idx_sval SET sval = ?, nval = ? "
                "WHERE doc = ? AND id = ?",
                repaired,
            )

        METRICS.inc(
            "index.row_writes",
            deleted + sum(map(len, produced)) + len(repaired),
        )
        return True

    def _chain_svals(
        self, doc: int, encoding: "OrderEncoding", anchors: list[int]
    ) -> Optional[list[tuple]]:
        """``(sval, nval, doc, id)`` for every element on the paths from
        *anchors* up to the root, recomputed from the current rows.

        Two reads whatever the chains' depth: one ``WITH RECURSIVE``
        walk up the parent pointers from all anchors at once (the
        XRecursive way of reading an ancestor chain), and one read of
        the chain elements' children, each with its stored ``sval``.
        Chains from different anchors can share ancestors, so the
        string-values are composed deepest first — a child on the
        chain contributes the value just computed for it, any other
        element child its stored one, a text child its value, comments
        and PIs nothing.  ``None`` signals a bookkeeping hole — an
        element child with no ``idx_sval`` row — which forces the
        rebuild.
        """
        if not anchors:
            return []
        backend = self.store.backend
        table = encoding.node_table.name
        marks = ", ".join("?" for _ in anchors)
        # minidb joins FROM items left to right: `up` first makes the
        # step a (doc, id) probe per chain row, not a document scan per
        # round.  UNION, not UNION ALL: a corrupt parent cycle ends.
        chain = backend.execute(
            f"WITH RECURSIVE up(id, parent, depth) AS ("
            f"SELECT id, parent, depth FROM {table} "
            f"WHERE doc = ? AND id IN ({marks}) UNION "
            f"SELECT n.id, n.parent, n.depth FROM up, {table} n "
            f"WHERE n.doc = ? AND n.id = up.parent) "
            f"SELECT id, depth FROM up",
            (doc, *anchors, doc),
        ).rows
        # A correlated subquery, which minidb probes by (doc, id); it
        # has no LEFT JOIN.
        children: dict[int, list[tuple]] = {}
        for sql, params in self.store.in_batches(
            f"SELECT c.parent, c.id, c.kind, c.value, "
            f"(SELECT s.sval FROM idx_sval s "
            f"WHERE s.doc = c.doc AND s.id = c.id) "
            f"FROM {table} c WHERE c.doc = ?",
            "c.parent", [node_id for node_id, _depth in chain], (doc,),
        ):
            for parent, *child in backend.execute(
                f"{sql} ORDER BY c.{encoding.sibling_order_column}", params
            ).rows:
                children.setdefault(parent, []).append(child)
        svals: dict[int, str] = {}
        repaired: list[tuple] = []
        for node_id, _depth in sorted(chain, key=itemgetter(1), reverse=True):
            parts: list[str] = []
            for child_id, kind, value, stored in children.get(node_id, ()):
                if kind == KIND_TEXT:
                    parts.append(value or "")
                elif kind == KIND_ELEMENT:
                    sval = svals.get(child_id, stored)
                    if sval is None:
                        return None
                    parts.append(sval)
            svals[node_id] = sval = "".join(parts)
            repaired.append((sval, xpath_number_value(sval), doc, node_id))
        return repaired

    def _load_paths(self, doc: int) -> dict[str, int]:
        """The stored path dictionary, insertion-ordered by path id
        (ids are allocated contiguously from 1, so ``len(paths) + 1``
        is always the next free id)."""
        result = self.store.backend.execute(
            "SELECT pathid, path FROM idx_paths "
            "WHERE doc = ? ORDER BY pathid",
            (doc,),
        )
        return {path: pathid for pathid, path in result.rows}
