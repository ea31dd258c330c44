"""Per-document secondary indexes and catalog statistics.

:class:`IndexManager` owns the ``idx_*`` side tables declared in
:func:`repro.core.schema.index_tables`:

* **value index** (``idx_sval``) — one row per element carrying its full
  XPath string-value and numeric interpretation, probed by rewritten
  value predicates;
* **path index** (``idx_paths`` + ``idx_pathmap``) — the dictionary of
  distinct root-to-element paths plus the occurrence map, probed by
  rewritten structural queries through the ``path_match`` scalar;
* **catalog statistics** (``idx_stats``) — tag counts, a depth
  histogram, distinct-value estimates and index metadata, feeding the
  cost model (:mod:`repro.index.cost`).

The side tables are created empty at schema bootstrap and keyed on the
surrogate ``id``, so they are encoding-independent and index create /
drop / maintenance is plain transactional DML — crash safety falls out
of transaction rollback, with no DDL recovery path.

An index is used when it exists: :meth:`IndexManager.create` writes a
document's rows, :meth:`IndexManager.drop` removes them, and the
planner consults them iff they are there.  Nothing else selects it.

Every index row has one producer, :meth:`IndexManager._index_rows`,
which walks a forest of node rows under the stored path of its parent.
``create`` (and :meth:`IndexManager._rebuild_rows` generally) hands it
the whole document; maintenance hands it one reshredded subtree at a
time: each update operation passes its touched set (removed ids,
reshred subtree roots, string-value anchors — see
:class:`repro.core.updates.UpdateReport`) down into the same
transaction, and only those rows are repaired.  Index rows carry no
order columns, so renumbering never invalidates them.  An update that
invalidates more than :data:`INCR_FALLBACK_FRACTION` of the document
(or that cannot account exactly for what it touched) rebuilds instead —
a choice made from the update's size, not a setting.  The path
dictionary is append-only — path ids are stable across rebuilds, which
is what makes piecewise repair and a full rebuild produce byte-identical
tables.

The statistics refresh lazily: ``updates_since`` counts update
operations since the last refresh, and crossing
:data:`STATS_REFRESH_THRESHOLD` (or an explicit ``refresh_stats``)
recomputes them and allocates a new stats version — the component of
the plan-cache fingerprint that keeps cost decisions aligned with the
statistics that justified them.  Versions are drawn from one persisted
store-wide clock, so a fingerprint is never reused and a cached plan
may safely outlive every write.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.numeric import xpath_number_value
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.core.shredder import group_siblings
from repro.obs import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore

#: Update operations between automatic statistics refreshes.
STATS_REFRESH_THRESHOLD = 32

#: Maintenance rebuilds the whole document once an update invalidates
#: more than this fraction of its rows (removed + reshredded) — past
#: that point a single full pass is cheaper than piecewise repair.
#: Relabeled rows don't count: the idx_* tables carry no order columns,
#: so renumbering never invalidates an index row.
INCR_FALLBACK_FRACTION = 0.25


@dataclass(frozen=True)
class IndexContext:
    """A document's index statistics, as the planner consumes them.

    ``fingerprint`` keys compiled plans: it changes exactly when the
    statistics behind a cost decision change (stats refresh, rebuild),
    so the plan cache can never serve a plan justified by statistics
    that no longer exist.
    """

    doc: int
    stats_version: int
    node_count: int
    element_count: int
    max_depth: int
    path_count: int
    updates_since: int
    tag_counts: Mapping[str, int] = field(default_factory=dict)
    distinct_counts: Mapping[str, int] = field(default_factory=dict)
    depth_histogram: Mapping[int, int] = field(default_factory=dict)

    @property
    def fingerprint(self) -> tuple[int, int]:
        return (self.doc, self.stats_version)

    def tag_count(self, tag: Optional[str]) -> int:
        """Elements with *tag* (``None`` = wildcard: every element)."""
        if tag is None:
            return self.element_count
        return int(self.tag_counts.get(tag, 0))

    def distinct_count(self, tag: Optional[str]) -> int:
        if tag is None:
            return max(self.element_count, 1)
        return int(self.distinct_counts.get(tag, 1))


class IndexManager:
    """Create, drop, maintain and describe per-document indexes."""

    def __init__(self, store: "XmlStore") -> None:
        self.store = store

    # -- presence ----------------------------------------------------------

    def exists(self, doc: int) -> bool:
        """Does *doc* have an index (its ``present`` marker row)?"""
        result = self.store._execute(
            "SELECT value FROM idx_stats "
            "WHERE doc = ? AND kind = 'meta' AND skey = 'present'",
            (doc,),
        )
        return bool(result.rows)

    # -- lifecycle ---------------------------------------------------------

    def create(self, doc: int) -> dict:
        """(Re)build *doc*'s indexes and statistics; returns a report."""
        self.store.document_info(doc)  # raises StorageError if unknown
        report = self.store.transactionally(
            lambda: self._publish_stats(doc, self._rebuild_rows(doc))
        )
        METRICS.inc("index.created")
        METRICS.inc("index.rows", report["elements"])
        return report

    def _publish_stats(self, doc: int, survey: dict) -> dict:
        """Write *survey* as *doc*'s statistics under a fresh version
        (txn caller-owned); returns the create/refresh report."""
        self.store.note_write(doc)
        version = self._next_stats_version(doc)
        self._write_stats(doc, survey, version)
        return {
            "doc": doc,
            "elements": survey["element_count"],
            "paths": survey["path_count"],
            "nodes": survey["node_count"],
            "stats_version": version,
        }

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

    def refresh_stats(self, doc: int) -> dict:
        """Recompute *doc*'s statistics unconditionally.

        A stats refresh surveys the live document and replaces only the
        ``idx_stats`` rows — the data rows are already maintained by
        every update and are left untouched (``create`` is the
        rebuild-everything path, and is still used when no index exists
        yet).  Counts ``index.stats_refreshed``, never
        ``index.created``.
        """
        self.store.document_info(doc)  # raises StorageError if unknown
        if not self.exists(doc):
            return self.create(doc)
        report = self.store.transactionally(
            lambda: self._publish_stats(doc, self._survey(doc))
        )
        METRICS.inc("index.stats_refreshed")
        return report

    # -- in-transaction maintenance ---------------------------------------

    def maintain_in_transaction(self, doc: int, report=None) -> None:
        """Bring *doc*'s index rows up to date after an update.

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
        attribute, an empty batch entry) skips maintenance entirely:
        no row writes, no ``updates_since`` bump.

        Statistics refresh only when the update counter crosses the
        threshold; in between, the recorded statistics go stale on
        purpose (see :meth:`stats_stale`).
        """
        if report is not None and report.rows_touched() == 0:
            return
        if not self.exists(doc):
            return
        survey = None
        exact = report is not None and report.index_exact
        if exact and self._apply_delta_in_transaction(doc, report):
            METRICS.inc("index.incremental")
        else:
            if exact:
                METRICS.inc("index.fallback_rebuild")
            survey = self._rebuild_rows(doc)
        meta = self._read_meta(doc)
        updates = int(meta.get("updates_since", 0)) + 1
        if updates >= STATS_REFRESH_THRESHOLD:
            if survey is None:
                survey = self._survey(doc)
            self._write_stats(doc, survey, self._next_stats_version(doc))
            METRICS.inc("index.stats_refreshed")
        else:
            self._set_meta(doc, "updates_since", updates)
        METRICS.inc("index.maintained")

    # -- staleness ---------------------------------------------------------

    def stats_stale(self, doc: int) -> bool:
        """Have the recorded statistics drifted from the live document?

        Two triggers: the update counter reached the refresh threshold
        (refresh pending), or the document has deepened past the depth
        recorded at the last refresh — the drift that silently skews
        path-index estimates.
        """
        meta = self._read_meta(doc)
        if not meta:
            return False
        if int(meta.get("updates_since", 0)) >= STATS_REFRESH_THRESHOLD:
            return True
        recorded_depth = meta.get("max_depth")
        if recorded_depth is None:
            # Lost or absent depth meta must read as stale, not as
            # "matches whatever the live document says".
            return True
        live = self.store.document_info(doc)
        return live.max_depth > int(recorded_depth)

    # -- planner interface -------------------------------------------------

    def context(self, doc: int) -> Optional[IndexContext]:
        """The planner's view of *doc*'s index, or ``None``.

        ``None`` means *doc* has no index: compile scan plans.  Cached
        beside the document's catalogue row under the same
        per-document epoch, so only a write to *doc* makes the next
        call re-read its ``idx_stats`` rows.
        """
        cache = self.store.cache
        use_cache = cache.enabled and not self.store._in_own_transaction()
        if use_cache:
            hit = cache.get_index_context(doc)
            if hit is not None:
                return hit[0]
            epoch = cache.epoch(doc)
        ctx = self._load_context(doc)
        if use_cache:
            cache.put_index_context(doc, (ctx,), epoch)
        return ctx

    def _load_context(self, doc: int) -> Optional[IndexContext]:
        result = self.store._execute(
            "SELECT kind, skey, value FROM idx_stats WHERE doc = ?",
            (doc,),
        )
        if not result.rows:
            return None
        meta: dict[str, str] = {}
        tags: dict[str, int] = {}
        distinct: dict[str, int] = {}
        depths: dict[int, int] = {}
        for kind, skey, value in result.rows:
            if kind == "meta":
                meta[skey] = value
            elif kind == "tag":
                tags[skey] = int(value)
            elif kind == "distinct":
                distinct[skey] = int(value)
            elif kind == "depth":
                depths[int(skey)] = int(value)
        if "present" not in meta:
            return None
        ctx = IndexContext(
            doc=doc,
            stats_version=int(meta.get("stats_version", 1)),
            node_count=int(meta.get("node_count", 0)),
            element_count=int(meta.get("element_count", 0)),
            max_depth=int(meta.get("max_depth", 0)),
            path_count=int(meta.get("path_count", 0)),
            updates_since=int(meta.get("updates_since", 0)),
            tag_counts=tags,
            distinct_counts=distinct,
            depth_histogram=depths,
        )
        if self.stats_stale(doc):
            METRICS.inc("index.stale_stats")
        return ctx

    # -- CLI / reporting ---------------------------------------------------

    def describe(self, doc: int) -> dict:
        """A JSON-friendly summary of *doc*'s index state."""
        ctx = self._load_context(doc)
        if ctx is None:
            return {"doc": doc, "present": False}
        return {
            "doc": doc,
            "present": True,
            "stats_version": ctx.stats_version,
            "node_count": ctx.node_count,
            "element_count": ctx.element_count,
            "max_depth": ctx.max_depth,
            "path_count": ctx.path_count,
            "updates_since": ctx.updates_since,
            "stale": self.stats_stale(doc),
            "tags": dict(
                sorted(ctx.tag_counts.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:10]
            ),
        }

    # -- the build pass ----------------------------------------------------

    def _index_rows(
        self,
        doc: int,
        rows: list[dict],
        order: str,
        parent_id: int,
        parent_path: str,
        paths: dict[str, int],
    ) -> tuple[list[tuple], list[tuple], list[tuple]]:
        """The one producer of index rows: ``(idx_sval rows,
        idx_pathmap rows, fresh idx_paths rows)`` for a forest.

        *rows* are the node rows of whole subtrees whose roots are
        children of *parent_id* — the document node (0) for a rebuild,
        a reshredded subtree's parent for a repair — and *parent_path*
        is that parent's rooted path (``""`` for the document).
        Children sort by the encoding's sibling-order column *order*;
        a preorder walk assigns root paths and a reverse-preorder pass
        accumulates XPath string-values (every descendant sits after
        its ancestor in preorder, so reversed preorder sees children
        before parents).  Iterative throughout — document depth must
        not be bounded by the Python stack.

        *paths* is the document's path dictionary and is only ever
        appended to: an unseen path takes the next id and is returned
        as a fresh row.  Path ids are therefore stable across rebuilds
        (orphaned paths are retained — a probe for one simply finds no
        occurrences), and because a subtree's preorder is the
        document's preorder restricted to it, first-encounter
        allocation assigns a repair the same ids a rebuild would.
        """
        children = group_siblings(rows, order)
        preorder: list[tuple[dict, Optional[int]]] = []
        fresh_paths: list[tuple] = []
        stack = [
            (row, parent_path)
            for row in reversed(children.get(parent_id, []))
        ]
        while stack:
            row, above = stack.pop()
            path, pathid = above, None
            if row["kind"] == KIND_ELEMENT:
                path = f"{above}/{row['tag']}"
                pathid = paths.get(path)
                if pathid is None:
                    pathid = paths[path] = len(paths) + 1
                    fresh_paths.append((doc, pathid, path))
            preorder.append((row, pathid))
            for child in reversed(children.get(row["id"], [])):
                stack.append((child, path))

        svals: dict[int, str] = {}
        for row, _pathid in reversed(preorder):
            if row["kind"] == KIND_TEXT:
                svals[row["id"]] = row["value"] or ""
            elif row["kind"] == KIND_ELEMENT:
                svals[row["id"]] = "".join(
                    svals[child["id"]]
                    for child in children.get(row["id"], [])
                )
            else:  # comments and PIs contribute nothing upward
                svals[row["id"]] = ""

        sval_rows: list[tuple] = []
        pathmap_rows: list[tuple] = []
        for row, pathid in preorder:
            if pathid is None:
                continue
            sval = svals[row["id"]]
            sval_rows.append(
                (doc, row["id"], row["parent"], row["tag"], sval,
                 xpath_number_value(sval))
            )
            pathmap_rows.append((doc, pathid, row["id"]))
        return sval_rows, pathmap_rows, fresh_paths

    def _scan_document(self, doc: int) -> tuple[dict, tuple]:
        """One full pass over *doc*'s node table (txn caller-owned):
        the statistics survey, and every index row the document
        implies as :meth:`_index_rows` returns them."""
        encoding = self.store.encoding_for(doc)
        order = encoding.sibling_order_column
        columns = ("id", "parent", "kind", "tag", "value", "depth", order)
        rows = [
            dict(zip(columns, row))
            for row in self.store.backend.execute(
                f"SELECT {', '.join(columns)} "
                f"FROM {encoding.node_table.name} WHERE doc = ?",
                (doc,),
            ).rows
        ]
        paths = self._load_paths(doc)
        produced = self._index_rows(doc, rows, order, 0, "", paths)
        sval_rows = produced[0]
        depth_of = {row["id"]: row["depth"] for row in rows}
        tag_values: dict[str, set] = {}
        for _doc, _id, _parent, tag, sval, _nval in sval_rows:
            tag_values.setdefault(tag, set()).add(sval)
        survey = {
            "node_count": len(rows),
            "element_count": len(sval_rows),
            "path_count": len(paths),
            "max_depth": max(depth_of.values(), default=0),
            "tag_counts": Counter(row[3] for row in sval_rows),
            "depth_histogram": Counter(
                depth_of[row[1]] for row in sval_rows
            ),
            "distinct_counts": {
                tag: len(values) for tag, values in tag_values.items()
            },
        }
        return survey, produced

    def _survey(self, doc: int) -> dict:
        """Survey *doc* without touching any rows (txn caller-owned)."""
        return self._scan_document(doc)[0]

    def _rebuild_rows(self, doc: int) -> dict:
        """Recompute every occurrence row of *doc* (txn caller-owned);
        returns the survey taken on the way."""
        survey, produced = self._scan_document(doc)
        for table in ("idx_sval", "idx_pathmap"):
            self.store.backend.execute(
                f"DELETE FROM {table} WHERE doc = ?", (doc,)
            )
        self._insert_rows(*produced)
        METRICS.inc("index.row_writes", sum(map(len, produced)))
        return survey

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
        fetched by the encoding's descendant-range scan, through
        :meth:`_index_rows` under its parent's stored path, (c)
        recompute aggregated string-values bottom-up along the anchors'
        root paths only.

        Returns ``False`` when the delta should not (fallback budget
        exceeded) or cannot (bookkeeping hole) be applied piecewise;
        the caller then rebuilds, which replaces everything this method
        may already have written — bailing out is safe at any point.
        """
        from repro.core.reconstruct import fetch_subtree_rows

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
        order = self.store.encoding_for(doc).sibling_order_column
        subtrees: list[list[dict]] = []
        covered: set[int] = set()
        for root_id in dict.fromkeys(report.reshred_roots):
            if root_id in covered or root_id in removed:
                continue
            root_row = self.store.fetch_node(doc, root_id)
            if root_row is None:
                continue
            rows = [
                root_row, *fetch_subtree_rows(self.store, doc, root_row)
            ]
            covered.update(r["id"] for r in rows)
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
            parent_id = rows[0]["parent"]
            parent_path = self._indexed_path(doc, parent_id, path_names)
            if parent_path is None:
                return False
            for part, more in zip(produced, self._index_rows(
                doc, rows, order, parent_id, parent_path, paths
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

    # -- statistics rows ---------------------------------------------------

    def _write_stats(self, doc: int, survey: dict, version: int) -> None:
        """Replace *doc*'s statistics rows (txn caller-owned)."""
        backend = self.store.backend
        backend.execute("DELETE FROM idx_stats WHERE doc = ?", (doc,))
        meta_rows = [
            (doc, "meta", "present", "1"),
            (doc, "meta", "stats_version", str(version)),
            (doc, "meta", "node_count", str(survey["node_count"])),
            (doc, "meta", "element_count",
             str(survey["element_count"])),
            (doc, "meta", "path_count", str(survey["path_count"])),
            (doc, "meta", "max_depth", str(survey["max_depth"])),
            (doc, "meta", "updates_since", "0"),
        ]
        meta_rows.extend(
            (doc, "tag", tag, str(count))
            for tag, count in survey["tag_counts"].items()
        )
        meta_rows.extend(
            (doc, "distinct", tag, str(count))
            for tag, count in survey["distinct_counts"].items()
        )
        meta_rows.extend(
            (doc, "depth", str(depth), str(count))
            for depth, count in survey["depth_histogram"].items()
        )
        backend.executemany(
            "INSERT INTO idx_stats VALUES (?, ?, ?, ?)", meta_rows
        )

    def _next_stats_version(self, doc: int) -> int:
        """Allocate *doc*'s next statistics version (txn caller-owned).

        Versions come from one persisted store-wide clock — the
        ``idx_stats`` row of document 0, which no purge touches — so a
        plan-cache fingerprint ``(doc, stats_version)`` is never
        reused: not after drop + create, and not after the doc id
        itself is reused.  Cached plans outlive writes, so a reused
        fingerprint would serve a cost decision made from statistics
        that no longer exist.
        """
        backend = self.store.backend
        rows = backend.execute(
            "SELECT value FROM idx_stats "
            "WHERE doc = 0 AND kind = 'clock' AND skey = 'stats_version'",
        ).rows
        # A store written before the clock existed may hold a version
        # above it; never allocate at or below the document's own.
        current = int(self._read_meta(doc).get("stats_version", 0))
        version = max(int(rows[0][0]) if rows else 0, current) + 1
        if rows:
            backend.execute(
                "UPDATE idx_stats SET value = ? "
                "WHERE doc = 0 AND kind = 'clock' "
                "AND skey = 'stats_version'",
                (str(version),),
            )
        else:
            backend.execute(
                "INSERT INTO idx_stats VALUES (0, 'clock', "
                "'stats_version', ?)",
                (str(version),),
            )
        return version

    def _read_meta(self, doc: int) -> dict[str, str]:
        result = self.store.backend.execute(
            "SELECT skey, value FROM idx_stats "
            "WHERE doc = ? AND kind = 'meta'",
            (doc,),
        )
        return {skey: value for skey, value in result.rows}

    def _set_meta(self, doc: int, skey: str, value) -> None:
        self.store.backend.execute(
            "UPDATE idx_stats SET value = ? "
            "WHERE doc = ? AND kind = 'meta' AND skey = ?",
            (str(value), doc, skey),
        )
