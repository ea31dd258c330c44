"""Per-document secondary indexes.

:class:`IndexManager` owns the ``idx_*`` side tables declared in
:func:`repro.core.schema.index_tables`:

* **value index** (``idx_sval``) — one row per element carrying its full
  XPath string-value and numeric interpretation, probed by rewritten
  value predicates;
* **path index** (``idx_paths`` + ``idx_pathmap``) — the dictionary of
  distinct root-to-element paths plus the occurrence map, probed by
  rewritten structural queries through the ``path_match`` scalar;
* **presence** (``idx_stats``) — one ``present`` marker row per indexed
  document, and nothing else.

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
reshredded subtree at a time: each update operation passes its touched
set (removed ids, reshred subtree roots, string-value anchors — see
:class:`repro.core.updates.UpdateReport`) down into the same
transaction, and only those rows are repaired.  Index rows carry no
order columns, so renumbering never invalidates them.  An update that
invalidates more than :data:`INCR_FALLBACK_FRACTION` of the document
(or that cannot account exactly for what it touched) rebuilds instead —
a choice made from the update's size, not a setting.  The path
dictionary is append-only — path ids are stable across rebuilds, which
is what makes piecewise repair and a full rebuild produce byte-identical
tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.numeric import xpath_number_value
from repro.core.reconstruct import ordered_rows, row_events
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.obs import METRICS
from repro.xmldom.parser import END, START, TEXT

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore

#: Maintenance rebuilds the whole document once an update invalidates
#: more than this fraction of its rows (removed + reshredded) — past
#: that point a single full pass is cheaper than piecewise repair.
#: Relabeled rows don't count: the idx_* tables carry no order columns,
#: so renumbering never invalidates an index row.
INCR_FALLBACK_FRACTION = 0.25


class IndexManager:
    """Create, drop, maintain and describe per-document indexes."""

    def __init__(self, store: "XmlStore") -> None:
        self.store = store

    # -- presence ----------------------------------------------------------

    def exists(self, doc: int) -> bool:
        """Does *doc* have an index (its ``present`` marker row)?

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
            backend = self.store.backend
            backend.execute("DELETE FROM idx_stats WHERE doc = ?", (doc,))
            backend.execute(
                "INSERT INTO idx_stats VALUES (?, 'meta', 'present', '1')",
                (doc,),
            )
            return report

        report = self.store.transactionally(build)
        METRICS.inc("index.created")
        METRICS.inc("index.rows", report["elements"])
        return report

    def drop(self, doc: int) -> bool:
        """Remove *doc*'s index rows; True if an index was present."""
        present = self.exists(doc)

        def purge() -> None:
            self.store.note_write(doc)
            self.purge_in_transaction(doc)

        self.store.transactionally(purge)
        if present:
            METRICS.inc("index.dropped")
        return present

    def purge_in_transaction(self, doc: int) -> None:
        """Delete every ``idx_*`` row of *doc* (caller owns the txn)."""
        backend = self.store.backend
        for table in ("idx_sval", "idx_paths", "idx_pathmap", "idx_stats"):
            backend.execute(f"DELETE FROM {table} WHERE doc = ?", (doc,))

    # -- in-transaction maintenance ---------------------------------------

    def maintain_in_transaction(
        self, doc: int, report, indexed: bool
    ) -> None:
        """Bring *doc*'s index rows up to date after an update;
        *indexed* is the update's own catalogue read saying whether
        there are any.

        Runs inside the update's own transaction (called from the
        update manager's outermost tracked scope), so the index can
        never be observed out of step with the node tables: a crash
        rolls both back together.

        *report* is the outermost operation's
        :class:`~repro.core.updates.UpdateReport` carrying the touched
        set.  When the report accounts exactly for what it touched and
        the touched set fits the fallback budget, only the affected
        rows are repaired (``index.incremental``); a touched set past
        the budget rebuilds the document's rows instead
        (``index.fallback_rebuild``), as does an update with no report
        or inexact accounting.  A zero-row no-op (removing an absent
        attribute, an empty batch entry) skips maintenance entirely.
        """
        if report is not None and report.rows_touched() == 0:
            return
        if not indexed:
            return
        exact = report is not None and report.index_exact
        if exact and self._apply_delta_in_transaction(doc, report):
            METRICS.inc("index.incremental")
        else:
            if exact:
                METRICS.inc("index.fallback_rebuild")
            self._rebuild_rows(doc)
        METRICS.inc("index.maintained")

    # -- CLI / reporting ---------------------------------------------------

    def describe(self, doc: int) -> dict:
        """A JSON-friendly summary of *doc*'s index, counted live from
        the index tables."""
        if not self.exists(doc):
            return {"doc": doc, "present": False}
        execute = self.store._execute
        tags = execute(
            "SELECT tag, COUNT(*) FROM idx_sval WHERE doc = ? GROUP BY tag",
            (doc,),
        ).rows
        paths = execute(
            "SELECT COUNT(*) FROM idx_paths WHERE doc = ?", (doc,)
        ).rows[0][0]
        return {
            "doc": doc,
            "present": True,
            "element_count": sum(count for _tag, count in tags),
            "path_count": paths,
            "tags": dict(
                sorted(tags, key=lambda kv: (-kv[1], kv[0]))[:10]
            ),
        }

    # -- the build pass ----------------------------------------------------

    def _index_rows(
        self,
        doc: int,
        rows: list[tuple],
        parent_path: str,
        paths: dict[str, int],
    ) -> tuple[list[tuple], list[tuple], list[tuple]]:
        """The one producer of index rows: ``(idx_sval rows,
        idx_pathmap rows, fresh idx_paths rows)`` for a forest.

        *rows* are whole subtrees in document order
        (:func:`~repro.core.reconstruct.ordered_rows`) whose roots are
        children of one node — the document for a rebuild, a
        reshredded subtree's parent for a repair — and *parent_path*
        is that node's rooted path (``""`` for the document).  One
        pass over their events: an element's path is known when it
        opens, its XPath string-value when it closes.

        *paths* is the document's path dictionary and is only ever
        appended to: an unseen path takes the next id and is returned
        as a fresh row.  Path ids are therefore stable across rebuilds
        (orphaned paths are retained — a probe for one simply finds no
        occurrences), and because a subtree's preorder is the
        document's preorder restricted to it, first-encounter
        allocation assigns a repair the same ids a rebuild would.
        """
        sval_rows: list[tuple] = []
        pathmap_rows: list[tuple] = []
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
                sval_rows.append((doc, node_id, parent, a))
                pathmap_rows.append((doc, pathid, node_id))
            elif kind == TEXT:  # comments and PIs contribute nothing
                parts.append(a)
        return sval_rows, pathmap_rows, fresh_paths

    def _rebuild_rows(self, doc: int) -> dict:
        """Recompute every occurrence row of *doc* from one ordered
        pass over its node table (txn caller-owned); returns the create
        report."""
        backend = self.store.backend
        rows = ordered_rows(self.store, doc)
        paths = self._load_paths(doc)
        produced = self._index_rows(doc, rows, "", paths)
        for table in ("idx_sval", "idx_pathmap"):
            backend.execute(f"DELETE FROM {table} WHERE doc = ?", (doc,))
        self._insert_rows(*produced)
        METRICS.inc("index.row_writes", sum(map(len, produced)))
        return {
            "doc": doc,
            "elements": len(produced[0]),
            "paths": len(paths),
            "nodes": len(rows),
        }

    def _insert_rows(self, sval_rows, pathmap_rows, fresh_paths) -> None:
        backend = self.store.backend
        backend.executemany(
            "INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?)", sval_rows
        )
        backend.executemany(
            "INSERT INTO idx_paths VALUES (?, ?, ?)", fresh_paths
        )
        backend.executemany(
            "INSERT INTO idx_pathmap VALUES (?, ?, ?)", pathmap_rows
        )

    # -- incremental maintenance -------------------------------------------

    def _apply_delta_in_transaction(self, doc: int, report) -> bool:
        """Repair *doc*'s index rows from an update's touched set.

        Three steps: (a) drop ``idx_sval``/``idx_pathmap`` rows for
        removed and reshredded ids, (b) run each reshredded subtree,
        read in document order, through
        :meth:`_index_rows` under its parent's stored path, (c)
        recompute aggregated string-values bottom-up along the anchors'
        root paths only.

        Returns ``False`` when the delta should not (fallback budget
        exceeded) or cannot (bookkeeping hole) be applied piecewise;
        the caller then rebuilds, which replaces everything this method
        may already have written — bailing out is safe at any point.
        """
        backend = self.store.backend
        info = self.store.document_info(doc)
        budget = max(1.0, info.node_count * INCR_FALLBACK_FRACTION)
        # Relabels are excluded: the idx_* tables carry no order
        # columns, so renumbering leaves every index row valid.
        removed = dict.fromkeys(report.removed_ids)
        invalidated = len(removed)
        if invalidated > budget:
            return False

        # Collect the subtrees to (re)shred, skipping roots a later op
        # in the same transaction deleted and roots nested inside an
        # earlier root's subtree.
        subtrees: list[list[tuple]] = []
        covered: set[int] = set()
        for root_id in dict.fromkeys(report.reshred_roots):
            if root_id in covered or root_id in removed:
                continue
            root_row = self.store.fetch_node(doc, root_id)
            if root_row is None:
                continue
            rows = ordered_rows(self.store, doc, root_row)
            covered.update(row[0] for row in rows)
            subtrees.append(rows)
            invalidated += len(rows)
            if invalidated > budget:
                return False

        # (a) Drop the stale rows.
        stale_ids = [*removed, *covered]
        for table in ("idx_sval", "idx_pathmap"):
            for sql, params in self.store.in_batches(
                f"DELETE FROM {table} WHERE doc = ?",
                "id", stale_ids, (doc,),
            ):
                backend.execute(sql, params)

        # (b) Shred the new subtrees.
        paths = self._load_paths(doc)
        path_names = {pathid: path for path, pathid in paths.items()}
        produced: tuple[list, list, list] = ([], [], [])
        for rows in subtrees:
            parent_path = self._indexed_path(doc, rows[0][1], path_names)
            if parent_path is None:
                return False
            for part, more in zip(produced, self._index_rows(
                doc, rows, parent_path, paths
            )):
                part.extend(more)
        self._insert_rows(*produced)

        # (c) Repair aggregated string-values along the anchors' root
        # paths.  Collect every chain node first, then recompute in
        # decreasing-depth order so a shared ancestor is computed once,
        # after all of its repaired descendants.
        chain: dict[int, dict] = {}
        for anchor in dict.fromkeys(report.sval_anchors):
            node_id = anchor
            while node_id and node_id not in chain:
                row = self.store.fetch_node(doc, node_id)
                if row is None:
                    break
                chain[node_id] = row
                node_id = row["parent"]
        repaired = 0
        ordered = sorted(
            chain.items(), key=lambda item: -item[1]["depth"]
        )
        for node_id, row in ordered:
            if row["kind"] != KIND_ELEMENT:
                continue
            sval = self._compose_sval(doc, node_id)
            if sval is None:
                return False
            backend.execute(
                "UPDATE idx_sval SET sval = ?, nval = ? "
                "WHERE doc = ? AND id = ?",
                (sval, xpath_number_value(sval), doc, node_id),
            )
            repaired += 1

        METRICS.inc(
            "index.row_writes",
            len(stale_ids) + sum(map(len, produced)) + repaired,
        )
        return True

    def _compose_sval(self, doc: int, element_id: int) -> Optional[str]:
        """An element's string-value from its children's current index
        rows (texts contribute their value, elements their stored
        ``sval``).  ``None`` signals a bookkeeping hole — a child
        element with no index row — which forces the rebuild fallback."""
        backend = self.store.backend
        children = self.store.fetch_children(doc, element_id)
        element_ids = [
            child["id"] for child in children
            if child["kind"] == KIND_ELEMENT
        ]
        svals: dict[int, str] = {}
        for sql, params in self.store.in_batches(
            "SELECT id, sval FROM idx_sval WHERE doc = ?",
            "id", element_ids, (doc,),
        ):
            svals.update(dict(backend.execute(sql, params).rows))
        parts: list[str] = []
        for child in children:
            if child["kind"] == KIND_TEXT:
                parts.append(child["value"] or "")
            elif child["kind"] == KIND_ELEMENT:
                if child["id"] not in svals:
                    return None
                parts.append(svals[child["id"]])
        return "".join(parts)

    def _indexed_path(
        self, doc: int, node_id: int, path_names: dict[int, str]
    ) -> Optional[str]:
        """The stored rooted path of *node_id* (``""`` for the document
        node), or ``None`` when its occurrence row is missing."""
        if node_id == 0:
            return ""
        result = self.store.backend.execute(
            "SELECT pathid FROM idx_pathmap WHERE doc = ? AND id = ?",
            (doc, node_id),
        )
        if not result.rows:
            return None
        return path_names.get(result.rows[0][0])

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
