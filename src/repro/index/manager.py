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

Maintenance is *incremental* by default: each update operation hands
its touched set (removed ids, reshred subtree roots, string-value
anchors — see :class:`repro.core.updates.UpdateReport`) down into the
same transaction, and only those rows are repaired.  Index rows carry
no order columns, so renumbering never invalidates them; relabels only
feed the fallback budget.  Ops that invalidate more than
:data:`INCR_FALLBACK_FRACTION` of the document (or that cannot account
exactly for what they touched) fall back to the eager
:meth:`IndexManager._rebuild_rows` full pass, and the whole incremental
path sits behind the ``REPRO_INDEX_INCR=on|off`` hatch.  The path
dictionary is append-only in both modes — path ids are stable across
rebuilds, which is what makes incremental and eager maintenance produce
byte-identical tables.

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

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.numeric import xpath_number_value
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.obs import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore

#: Update operations between automatic statistics refreshes.
STATS_REFRESH_THRESHOLD = 32

#: Incremental maintenance falls back to an eager rebuild once an
#: update invalidates more than this fraction of the document's rows
#: (removed + reshredded) — past that point a single full pass is
#: cheaper than piecewise repair.  Relabeled rows don't count: the
#: idx_* tables carry no order columns, so renumbering never
#: invalidates an index row.
INCR_FALLBACK_FRACTION = 0.25

_OFF_VALUES = frozenset({"off", "0", "false", "no", "disabled"})
_ON_VALUES = frozenset({"on", "1", "true", "yes", "enabled"})


def index_mode_from_env() -> str:
    """The ``REPRO_INDEX`` escape hatch: ``on`` | ``off`` | ``auto``.

    ``on`` builds indexes at load time and uses them; ``off`` never
    uses them (existing index rows are kept but ignored); ``auto`` —
    the default — uses an index when the document has one and never
    builds one implicitly.
    """
    value = os.environ.get("REPRO_INDEX", "").strip().lower()
    if value in _ON_VALUES:
        return "on"
    if value in _OFF_VALUES:
        return "off"
    return "auto"


def index_incremental_from_env() -> bool:
    """The ``REPRO_INDEX_INCR`` escape hatch: incremental maintenance
    is on by default; ``off`` forces the eager full rebuild on every
    update (the pre-incremental behaviour, kept as a safety valve and
    as the differential twin for the equivalence tests)."""
    value = os.environ.get("REPRO_INDEX_INCR", "").strip().lower()
    if value in _OFF_VALUES:
        return False
    return True


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
        #: Per-store override of the ``REPRO_INDEX`` mode; the
        #: differential harnesses use it to pin one store of a twin
        #: pair to ``on`` and the other to ``off`` within one process.
        self.force_mode: Optional[str] = None
        #: Per-store override of ``REPRO_INDEX_INCR``; the equivalence
        #: tests pin one store of a twin pair to incremental and the
        #: other to eager within one process.
        self.force_incremental: Optional[bool] = None
        #: Per-store override of :data:`INCR_FALLBACK_FRACTION`
        #: (tests raise it to 1.0 to keep tiny documents on the
        #: incremental path).
        self.fallback_fraction: Optional[float] = None

    # -- mode --------------------------------------------------------------

    def mode(self) -> str:
        if self.force_mode is not None:
            return self.force_mode
        return index_mode_from_env()

    def incremental(self) -> bool:
        """Is incremental maintenance enabled for this store?"""
        if self.force_incremental is not None:
            return self.force_incremental
        return index_incremental_from_env()

    def auto_create(self) -> bool:
        """Should loads build the index implicitly (mode ``on``)?"""
        return self.mode() == "on"

    # -- presence ----------------------------------------------------------

    def exists(self, doc: int) -> bool:
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

        def build() -> dict:
            self.store.note_write(doc)
            survey = self._rebuild_rows(doc)
            version = self._next_stats_version(doc)
            self._write_stats(doc, survey, version)
            return {
                "doc": doc,
                "elements": survey["element_count"],
                "paths": survey["path_count"],
                "nodes": survey["node_count"],
                "stats_version": version,
            }

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

    def _purge_data_in_transaction(self, doc: int) -> None:
        """Delete *doc*'s index data rows, keeping ``idx_stats``."""
        backend = self.store.backend
        for table in ("idx_sval", "idx_paths", "idx_pathmap"):
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

        def refresh() -> dict:
            self.store.note_write(doc)
            survey = self._survey(doc)
            version = self._next_stats_version(doc)
            self._write_stats(doc, survey, version)
            return {
                "doc": doc,
                "elements": survey["element_count"],
                "paths": survey["path_count"],
                "nodes": survey["node_count"],
                "stats_version": version,
            }

        report = self.store.transactionally(refresh)
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
        set.  When incremental maintenance is enabled and the report
        accounts exactly for what it touched, only the affected rows
        are repaired (``index.incremental``); otherwise — no report,
        inexact accounting, or a touched set past the fallback budget —
        the eager full rebuild runs (``index.fallback_rebuild``).  A
        zero-row no-op (removing an absent attribute, an empty batch
        entry) skips maintenance entirely: no row writes, no
        ``updates_since`` bump.

        Statistics refresh only when the update counter crosses the
        threshold; in between, the recorded statistics go stale on
        purpose (see :meth:`stats_stale`).
        """
        if report is not None and report.rows_touched() == 0:
            return
        if not self._present_in_transaction(doc):
            return
        survey = None
        applied = False
        if (
            self.incremental()
            and report is not None
            and report.index_exact
        ):
            applied = self._apply_delta_in_transaction(doc, report)
            if applied:
                METRICS.inc("index.incremental")
            else:
                METRICS.inc("index.fallback_rebuild")
        if not applied:
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

    def _present_in_transaction(self, doc: int) -> bool:
        result = self.store.backend.execute(
            "SELECT value FROM idx_stats "
            "WHERE doc = ? AND kind = 'meta' AND skey = 'present'",
            (doc,),
        )
        return bool(result.rows)

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

        ``None`` means compile scan plans: mode ``off``, or no index
        present (mode ``on`` builds one on first use so pre-existing
        stores pick indexes up without a reload).  Cached beside the
        document's catalogue row under the same per-document epoch, so
        only a write to *doc* makes the next call re-read its
        ``idx_stats`` rows.
        """
        mode = self.mode()
        if mode == "off":
            return None
        cache = self.store.cache
        use_cache = cache.enabled and not self.store._in_own_transaction()
        if use_cache:
            hit = cache.get_index_context(doc)
            if hit is not None:
                return hit[0]
            epoch = cache.epoch(doc)
        ctx = self._load_context(doc)
        if ctx is None and mode == "on":
            self.create(doc)
            if use_cache:
                epoch = cache.epoch(doc)  # create() just advanced it
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
            "maintenance": (
                "incremental" if self.incremental() else "eager"
            ),
            "tags": dict(
                sorted(ctx.tag_counts.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:10]
            ),
        }

    # -- the build pass ----------------------------------------------------

    def _scan_document(self, doc: int) -> tuple[dict, list, dict, dict]:
        """One full pass over *doc*'s node table (txn caller-owned).

        Children sorted by the encoding's sibling-order column, a
        preorder walk assigning root paths and a reverse-preorder pass
        accumulating XPath string-values (every descendant sits after
        its ancestor in preorder, so reversed preorder sees children
        before parents).  Iterative throughout — document depth must
        not be bounded by the Python stack.

        The path dictionary is seeded from the stored ``idx_paths``
        rows and only ever appended to: path ids are stable across
        rebuilds (orphaned paths are retained — a probe for one simply
        finds no occurrences), which keeps eager and incremental
        maintenance byte-identical.

        Returns ``(survey, sval_rows, paths, node_path)``.
        """
        backend = self.store.backend
        encoding = self.store.encoding_for(doc)
        table = encoding.node_table.name
        order = encoding.sibling_order_column
        rows = backend.execute(
            f"SELECT id, parent, kind, tag, value, depth, {order} "
            f"FROM {table} WHERE doc = ?",
            (doc,),
        ).rows
        nodes: dict[int, tuple] = {}
        children: dict[int, list] = {}
        for node_id, parent, kind, tag, value, depth, okey in rows:
            nodes[node_id] = (parent, kind, tag, value, depth)
            children.setdefault(parent, []).append((okey, node_id))
        for siblings in children.values():
            siblings.sort(key=lambda pair: pair[0])

        preorder: list[int] = []
        paths = self._load_paths(doc)
        node_path: dict[int, int] = {}
        stack = [
            (node_id, "")
            for _okey, node_id in reversed(children.get(0, []))
        ]
        while stack:
            node_id, parent_path = stack.pop()
            preorder.append(node_id)
            _parent, kind, tag, _value, _depth = nodes[node_id]
            child_path = parent_path
            if kind == KIND_ELEMENT:
                child_path = f"{parent_path}/{tag}"
                pathid = paths.setdefault(child_path, len(paths) + 1)
                node_path[node_id] = pathid
            for _okey, child in reversed(children.get(node_id, [])):
                stack.append((child, child_path))

        svals: dict[int, str] = {}
        for node_id in reversed(preorder):
            _parent, kind, _tag, value, _depth = nodes[node_id]
            if kind == KIND_TEXT:
                svals[node_id] = value or ""
            elif kind == KIND_ELEMENT:
                svals[node_id] = "".join(
                    svals[child]
                    for _okey, child in children.get(node_id, [])
                )
            else:  # comments and PIs contribute nothing upward
                svals[node_id] = ""

        tag_counts: Counter = Counter()
        depth_histogram: Counter = Counter()
        tag_values: dict[str, set] = {}
        sval_rows = []
        max_depth = 0
        for node_id in preorder:
            parent, kind, tag, _value, depth = nodes[node_id]
            max_depth = max(max_depth, depth)
            if kind != KIND_ELEMENT:
                continue
            sval = svals[node_id]
            sval_rows.append(
                (doc, node_id, parent, tag, sval,
                 xpath_number_value(sval))
            )
            tag_counts[tag] += 1
            depth_histogram[depth] += 1
            tag_values.setdefault(tag, set()).add(sval)

        survey = {
            "node_count": len(rows),
            "element_count": len(sval_rows),
            "path_count": len(paths),
            "max_depth": max_depth,
            "tag_counts": tag_counts,
            "depth_histogram": depth_histogram,
            "distinct_counts": {
                tag: len(values) for tag, values in tag_values.items()
            },
        }
        return survey, sval_rows, paths, node_path

    def _survey(self, doc: int) -> dict:
        """Survey *doc* without touching any rows (txn caller-owned)."""
        survey, _sval_rows, _paths, _node_path = self._scan_document(doc)
        return survey

    def _rebuild_rows(self, doc: int) -> dict:
        """Recompute every ``idx_*`` data row of *doc* (txn caller-owned)."""
        backend = self.store.backend
        survey, sval_rows, paths, node_path = self._scan_document(doc)
        self._purge_data_in_transaction(doc)
        backend.executemany(
            "INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?)", sval_rows
        )
        backend.executemany(
            "INSERT INTO idx_paths VALUES (?, ?, ?)",
            ((doc, pathid, path) for path, pathid in paths.items()),
        )
        backend.executemany(
            "INSERT INTO idx_pathmap VALUES (?, ?, ?)",
            (
                (doc, pathid, node_id)
                for node_id, pathid in node_path.items()
            ),
        )
        METRICS.inc(
            "index.row_writes",
            len(sval_rows) + len(paths) + len(node_path),
        )
        return survey

    # -- incremental maintenance -------------------------------------------

    def _apply_delta_in_transaction(self, doc: int, report) -> bool:
        """Repair *doc*'s index rows from an update's touched set.

        Three steps, mirroring the tentpole contract: (a) drop
        ``idx_sval``/``idx_pathmap`` rows for removed and reshredded
        ids, (b) shred each new subtree via the encoding's
        descendant-range scan against the append-only path dictionary,
        (c) recompute aggregated string-values bottom-up along the
        anchors' root paths only.

        Returns ``False`` when the delta should not (fallback budget
        exceeded) or cannot (bookkeeping hole) be applied piecewise;
        the caller then runs the eager rebuild, which purges everything
        this method may already have written — bailing out is safe at
        any point.
        """
        from repro.core.reconstruct import fetch_subtree_rows

        backend = self.store.backend
        info = self.store.document_info(doc)
        fraction = (
            self.fallback_fraction
            if self.fallback_fraction is not None
            else INCR_FALLBACK_FRACTION
        )
        budget = max(1.0, info.node_count * fraction)
        # Relabels are excluded: the idx_* tables carry no order
        # columns, so renumbering leaves every index row valid.
        removed = dict.fromkeys(report.removed_ids)
        invalidated = len(removed)
        if invalidated > budget:
            return False

        # Collect the subtrees to (re)shred, skipping roots a later op
        # in the same transaction deleted and roots nested inside an
        # earlier root's subtree.
        encoding = self.store.encoding_for(doc)
        order = encoding.sibling_order_column
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
        fresh_paths: list[tuple] = []
        sval_rows: list[tuple] = []
        pathmap_rows: list[tuple] = []
        for rows in subtrees:
            root_row = rows[0]
            parent_path = self._indexed_path(
                doc, root_row["parent"], path_names
            )
            if parent_path is None:
                return False
            nodes = {r["id"]: r for r in rows}
            children: dict[int, list[dict]] = {}
            for row in rows[1:]:
                children.setdefault(row["parent"], []).append(row)
            for siblings in children.values():
                siblings.sort(key=lambda r: r[order])
            preorder: list[int] = []
            node_path: dict[int, int] = {}
            stack = [(root_row["id"], parent_path)]
            while stack:
                node_id, above = stack.pop()
                preorder.append(node_id)
                row = nodes[node_id]
                child_path = above
                if row["kind"] == KIND_ELEMENT:
                    # Subtree preorder is document preorder restricted
                    # to the subtree, so first-encounter allocation
                    # assigns the same fresh path ids an eager rebuild
                    # would.
                    child_path = f"{above}/{row['tag']}"
                    pathid = paths.get(child_path)
                    if pathid is None:
                        pathid = len(paths) + 1
                        paths[child_path] = pathid
                        fresh_paths.append((doc, pathid, child_path))
                    node_path[node_id] = pathid
                for child in reversed(children.get(node_id, [])):
                    stack.append((child["id"], child_path))
            svals: dict[int, str] = {}
            for node_id in reversed(preorder):
                row = nodes[node_id]
                if row["kind"] == KIND_TEXT:
                    svals[node_id] = row["value"] or ""
                elif row["kind"] == KIND_ELEMENT:
                    svals[node_id] = "".join(
                        svals[child["id"]]
                        for child in children.get(node_id, [])
                    )
                else:
                    svals[node_id] = ""
            for node_id in preorder:
                row = nodes[node_id]
                if row["kind"] != KIND_ELEMENT:
                    continue
                sval = svals[node_id]
                sval_rows.append(
                    (doc, node_id, row["parent"], row["tag"], sval,
                     xpath_number_value(sval))
                )
                pathmap_rows.append((doc, node_path[node_id], node_id))
        backend.executemany(
            "INSERT INTO idx_sval VALUES (?, ?, ?, ?, ?, ?)", sval_rows
        )
        backend.executemany(
            "INSERT INTO idx_paths VALUES (?, ?, ?)", fresh_paths
        )
        backend.executemany(
            "INSERT INTO idx_pathmap VALUES (?, ?, ?)", pathmap_rows
        )

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
            len(stale_ids) + len(sval_rows) + len(fresh_paths)
            + len(pathmap_rows) + repaired,
        )
        return True

    def _compose_sval(self, doc: int, element_id: int) -> Optional[str]:
        """An element's string-value from its children's current index
        rows (texts contribute their value, elements their stored
        ``sval``).  ``None`` signals a bookkeeping hole — a child
        element with no index row — which forces the eager fallback."""
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
