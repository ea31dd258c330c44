"""The invariant auditor: structural checks over a live store.

Every encoding's correctness story in the paper reduces to a handful of
relational invariants.  This module audits them all against the actual
rows of a store:

* **encoding-independent** — surrogate ids unique; parent pointers
  reference existing element rows (or 0, the document); every row
  reachable from the document; ``depth`` equals the parent chain length;
  leaf kinds childless; an element's ``value`` column equals the
  concatenation of its direct text children; attribute rows owned by
  live elements, one per ``(owner, name)``;
* **encoding-specific** — contributed by each
  :class:`~repro.core.encodings.OrderEncoding` via
  :meth:`~repro.core.encodings.OrderEncoding.order_invariants`
  (interval nesting for Global, slot uniqueness for Local, key-prefix
  and byte-order agreement for Dewey/ORDPATH);
* **catalogue** — ``documents.node_count`` equals the live row count,
  ``next_id`` stays above every allocated id, ``max_depth`` bounds the
  real depth, and no node, attribute or index rows exist for unknown
  documents;
* **secondary indexes** — the ``idx_sval`` / ``idx_pathmap`` rows of an
  indexed document are exactly what its node rows imply (one value row
  and one path occurrence per live element, none for anything else),
  and an unindexed document has none.  The expected rows are derived
  here, from the :class:`~repro.core.encodings.AuditView` every other
  check reads, and not by :mod:`repro.index` — the auditor is the
  index producer's independent reference.

The auditor only reads; it never repairs.  ``repro check <db>`` exposes
it on the command line, and the test suite runs it after every
store-level test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.encodings import ENCODINGS, AuditView
from repro.core.numeric import xpath_number_value
from repro.core.schema import KIND_ELEMENT, KIND_TEXT, index_tables

#: Node kinds that may own child rows.
_PARENT_KINDS = (KIND_ELEMENT,)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by the auditor."""

    #: Stable machine-readable code, e.g. ``"global-containment"``.
    code: str
    #: Document id the violation was found in (0 for store-level).
    doc: int
    #: Offending node id, when one row is identifiable.
    node_id: Optional[int]
    #: Human-readable description.
    message: str

    def __str__(self) -> str:
        where = f"doc {self.doc}"
        if self.node_id is not None:
            where += f", node {self.node_id}"
        return f"[{self.code}] {where}: {self.message}"


def fetch_rows(store, doc: int, encoding) -> list[dict]:
    """Every node row of *doc* as a column->value dict."""
    columns = encoding.node_columns()
    result = store.backend.execute(
        f"SELECT {', '.join(columns)} FROM {encoding.node_table.name} "
        f"WHERE doc = ?",
        (doc,),
    )
    return [dict(zip(columns, r)) for r in result.rows]


def group_siblings(
    rows: list[dict], sibling_column: str
) -> dict[int, list[dict]]:
    """Stored node rows grouped by parent id, each sibling list sorted
    by *sibling_column*: the auditor's own derivation of the tree from
    parent pointers, independent of the ordered scan the store reads
    documents back with (:func:`repro.core.reconstruct.ordered_rows`)."""
    by_parent: dict[int, list[dict]] = {}
    for row in rows:
        by_parent.setdefault(row["parent"], []).append(row)
    for siblings in by_parent.values():
        siblings.sort(key=lambda r: r[sibling_column])
    return by_parent


def _build_view(store, rows: list[dict], encoding) -> AuditView:
    by_id = {row["id"]: row for row in rows}
    children = group_siblings(rows, encoding.sibling_order_column)
    preorder: list[int] = []
    stack = [row["id"] for row in reversed(children.get(0, []))]
    visited: set[int] = set()
    while stack:
        node_id = stack.pop()
        if node_id in visited:  # defensive: parent cycles
            continue
        visited.add(node_id)
        preorder.append(node_id)
        stack.extend(
            row["id"] for row in reversed(children.get(node_id, []))
        )
    return AuditView(
        rows=rows,
        by_id=by_id,
        children=children,
        preorder=preorder,
        gap=store.gap,
    )


def _structural_violations(store, doc: int, view: AuditView):
    seen_ids: set[int] = set()
    for row in view.rows:
        node_id = row["id"]
        if node_id in seen_ids:
            yield Violation(
                "store-id-duplicate", doc, node_id,
                "surrogate id used by more than one row",
            )
        seen_ids.add(node_id)
        parent_id = row["parent"]
        if parent_id != 0:
            parent = view.by_id.get(parent_id)
            if parent is None:
                yield Violation(
                    "store-orphan-node", doc, node_id,
                    f"parent {parent_id} has no row",
                )
                continue
            if parent["kind"] not in _PARENT_KINDS:
                yield Violation(
                    "store-parent-not-element", doc, node_id,
                    f"parent {parent_id} is a {parent['kind']} node",
                )
            expected_depth = parent["depth"] + 1
        else:
            expected_depth = 1
        if row["depth"] != expected_depth:
            yield Violation(
                "store-depth-mismatch", doc, node_id,
                f"depth {row['depth']}, expected {expected_depth}",
            )
        if row["kind"] not in _PARENT_KINDS and view.children.get(node_id):
            yield Violation(
                "store-leaf-has-children", doc, node_id,
                f"{row['kind']} node has "
                f"{len(view.children[node_id])} child row(s)",
            )

    # Reachability: every row must appear in the preorder walk from the
    # document node (cycles and orphan chains both end up unreachable).
    unreachable = seen_ids - set(view.preorder)
    for node_id in sorted(unreachable):
        yield Violation(
            "store-unreachable", doc, node_id,
            "row not reachable from the document node",
        )

    # Direct-text materialisation: an element's value column caches the
    # concatenation of its immediate text children (None when it has
    # none) — the column SQL value predicates compare against.
    for row in view.rows:
        if row["kind"] != KIND_ELEMENT:
            continue
        texts = [
            child["value"] or ""
            for child in view.children.get(row["id"], [])
            if child["kind"] == KIND_TEXT
        ]
        expected = "".join(texts) if texts else None
        if row["value"] != expected:
            yield Violation(
                "store-direct-text-stale", doc, row["id"],
                f"value column {row['value']!r} != direct text "
                f"{expected!r}",
            )


def _attribute_violations(store, doc: int, view: AuditView, encoding):
    result = store.backend.execute(
        f"SELECT owner, name FROM {encoding.attr_table.name} "
        f"WHERE doc = ?",
        (doc,),
    )
    seen: set[tuple[int, str]] = set()
    for owner, name in result.rows:
        owner_row = view.by_id.get(owner)
        if owner_row is None:
            yield Violation(
                "store-attr-orphan", doc, owner,
                f"attribute {name!r} owned by nonexistent node",
            )
        elif owner_row["kind"] != KIND_ELEMENT:
            yield Violation(
                "store-attr-orphan", doc, owner,
                f"attribute {name!r} owned by a "
                f"{owner_row['kind']} node",
            )
        if (owner, name) in seen:
            yield Violation(
                "store-attr-duplicate", doc, owner,
                f"attribute {name!r} stored more than once",
            )
        seen.add((owner, name))


def _catalog_violations(store, info, view: AuditView):
    doc = info.doc
    actual = len(view.rows)
    if info.node_count != actual:
        yield Violation(
            "catalog-node-count", doc, None,
            f"documents.node_count {info.node_count} != "
            f"{actual} live rows",
        )
    max_id = max((row["id"] for row in view.rows), default=0)
    if info.next_id <= max_id:
        yield Violation(
            "catalog-next-id", doc, None,
            f"documents.next_id {info.next_id} <= max live id {max_id}",
        )
    actual_depth = max((row["depth"] for row in view.rows), default=0)
    if info.max_depth < actual_depth:
        yield Violation(
            "catalog-max-depth", doc, None,
            f"documents.max_depth {info.max_depth} < actual depth "
            f"{actual_depth}",
        )


def _expected_index_rows(view: AuditView) -> tuple[dict, dict]:
    """What an index over *view* must hold: ``id -> (parent, tag, sval,
    nval)`` and ``id -> root path`` for every reachable element.

    Preorder puts a parent before its children, so one forward pass
    extends root paths and one reverse pass folds XPath string-values
    (text contributes its value, comments and PIs nothing).
    """
    paths: dict[int, str] = {}
    for node_id in view.preorder:
        row = view.by_id[node_id]
        if row["kind"] == KIND_ELEMENT:
            paths[node_id] = f"{paths.get(row['parent'], '')}/{row['tag']}"
    svals: dict[int, str] = {}
    for node_id in reversed(view.preorder):
        row = view.by_id[node_id]
        if row["kind"] == KIND_TEXT:
            svals[node_id] = row["value"] or ""
        elif row["kind"] == KIND_ELEMENT:
            svals[node_id] = "".join(
                svals[child["id"]]
                for child in view.children.get(node_id, [])
            )
        else:
            svals[node_id] = ""
    values = {
        node_id: (
            view.by_id[node_id]["parent"], view.by_id[node_id]["tag"],
            svals[node_id], xpath_number_value(svals[node_id]),
        )
        for node_id in paths
    }
    return values, paths


def _index_violations(store, doc: int, view: AuditView):
    """The value and path indexes against the rows they derive from.

    An index is *present* when ``idx_stats`` carries the document's
    marker row; without it the document must have no occurrence rows at
    all.  Each occurrence table must say, exactly once per live
    element, what the document says.  Path-dictionary entries no
    element uses any more are legal (the dictionary is append-only so
    path ids stay stable).
    """
    execute = store.backend.execute
    values, paths = {}, {}
    if execute(
        "SELECT value FROM idx_stats "
        "WHERE doc = ? AND kind = 'meta' AND skey = 'present'", (doc,),
    ).rows:
        values, paths = _expected_index_rows(view)
    dictionary = dict(execute(
        "SELECT pathid, path FROM idx_paths WHERE doc = ?", (doc,)
    ).rows)
    tables = (
        ("idx_sval", "index-sval-stale", values, [
            (row[0], tuple(row[1:])) for row in execute(
                "SELECT id, parent, tag, sval, nval FROM idx_sval "
                "WHERE doc = ?", (doc,),
            ).rows
        ]),
        ("idx_pathmap", "index-path-stale", paths, [
            (node_id, dictionary.get(pathid)) for pathid, node_id in execute(
                "SELECT pathid, id FROM idx_pathmap WHERE doc = ?", (doc,)
            ).rows
        ]),
    )
    for table, stale_code, expected, stored in tables:
        seen: set[int] = set()
        for node_id, content in stored:
            if node_id not in expected:
                yield Violation(
                    "index-orphan-row", doc, node_id,
                    f"{table} row for a node that is not a live element "
                    "of an indexed document",
                )
            elif node_id in seen:
                yield Violation(
                    "index-duplicate-row", doc, node_id,
                    f"more than one {table} row",
                )
            elif content != expected[node_id]:
                yield Violation(
                    stale_code, doc, node_id,
                    f"{table} says {content!r}, document says "
                    f"{expected[node_id]!r}",
                )
            seen.add(node_id)
        for node_id in sorted(expected.keys() - seen):
            yield Violation(
                "index-row-missing", doc, node_id,
                f"live element has no {table} row",
            )


def audit_document(store, doc: int) -> list[Violation]:
    """Audit one document; returns all violations found (empty = clean)."""
    # fresh=True: the auditor verifies the stored catalogue row itself,
    # so it must not read through the store's catalog cache (which can
    # legitimately lag when another store object writes the same file).
    info = store.document_info(doc, fresh=True)
    encoding = store.encoding_for(doc)
    rows = fetch_rows(store, doc, encoding)
    view = _build_view(store, rows, encoding)
    violations = list(_structural_violations(store, doc, view))
    violations.extend(_attribute_violations(store, doc, view, encoding))
    violations.extend(
        Violation(code, doc, node_id, message)
        for code, node_id, message in encoding.order_invariants(view)
    )
    violations.extend(_catalog_violations(store, info, view))
    violations.extend(_index_violations(store, doc, view))
    return violations


def summarize_violations(
    violations: Sequence, limit: int = 5
) -> Optional[str]:
    """One-line listing of the first *limit* violations (``None`` =
    clean) — the detail text every harness failure carries."""
    if not violations:
        return None
    listing = "; ".join(str(v) for v in violations[:limit])
    if len(violations) > limit:
        listing += f" (+{len(violations) - limit} more)"
    return listing


def _existing_tables(store) -> Optional[set[str]]:
    """Names of the backend's live tables, or ``None`` when the backend
    cannot enumerate them (custom backends)."""
    try:
        return set(store.backend.list_tables())
    except NotImplementedError:  # pragma: no cover - custom backends
        return None


def _stray_document_violations(store, infos, existing: Optional[set[str]]):
    """Store-level checks that look across *every* encoding's tables.

    * ``catalog-missing-doc`` — rows for a document with no catalogue
      entry, in any encoding table that exists or in an ``idx_*`` side
      table (which all encodings share, so they have no owner);
    * ``store-wrong-encoding-table`` — a document's rows leaked into a
      table that is not its catalogued encoding's (a migration that
      cut over without deleting its source rows, or vice versa).
    """
    known = {info.doc: info for info in infos}
    table_owner: dict[str, Optional[str]] = {
        table.name: None for table in index_tables()
    }
    for encoding in ENCODINGS.values():
        table_owner[encoding.node_table.name] = encoding.name
        table_owner[encoding.attr_table.name] = encoding.name
    for table, owner in sorted(table_owner.items()):
        if existing is not None and table not in existing:
            continue
        try:
            result = store.backend.execute(
                f"SELECT DISTINCT doc FROM {table}"
            )
        except Exception:
            continue  # table absent on backends without list_tables()
        for (doc,) in result.rows:
            info = known.get(doc)
            if info is None:
                yield Violation(
                    "catalog-missing-doc", doc, None,
                    f"rows in {table} for a document with no "
                    "catalogue entry",
                )
                continue
            doc_encoding = info.encoding or store.encoding.name
            if owner is not None and owner != doc_encoding:
                yield Violation(
                    "store-wrong-encoding-table", doc, None,
                    f"rows in {table} but document is catalogued "
                    f"as {doc_encoding!r}",
                )


def _migration_leftover_violations(existing: Optional[set[str]]):
    """``mig_*`` tables: a migration is one transaction and creates
    none, but builds that copied through shadow tables left them behind
    when they crashed, and this build does not sweep them."""
    for table in sorted(existing or ()):
        if table.startswith("mig_"):
            yield Violation(
                "migration-shadow-orphan", 0, None,
                f"shadow table {table} left behind by a migration "
                "of an older build; drop it",
            )


def audit_store(
    store, max_rows_per_doc: Optional[int] = None
) -> list[Violation]:
    """Audit every document of *store* plus store-level catalogue state.

    ``max_rows_per_doc`` skips documents whose catalogued node count
    exceeds the limit — the conftest fixture uses it to keep the audit
    cheap after large stress tests.
    """
    infos = store.documents()
    violations: list[Violation] = []
    for info in infos:
        if (
            max_rows_per_doc is not None
            and info.node_count > max_rows_per_doc
        ):
            continue
        violations.extend(audit_document(store, info.doc))
    existing = _existing_tables(store)
    violations.extend(_stray_document_violations(store, infos, existing))
    violations.extend(_migration_leftover_violations(existing))
    return violations


def assert_store_clean(store, context: str = "") -> None:
    """Raise ``AssertionError`` listing violations, if any exist."""
    violations = audit_store(store)
    if violations:
        prefix = f"{context}: " if context else ""
        listing = "\n  ".join(str(v) for v in violations)
        raise AssertionError(
            f"{prefix}{len(violations)} invariant violation(s) in "
            f"{store.encoding.name}/{store.backend.name} store:\n  "
            f"{listing}"
        )
