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
  ``next_id`` stays above every allocated id, ``gap`` is a positive
  integer, and no node, attribute or index rows exist for unknown
  documents;
* **secondary indexes** — the ``idx_sval`` rows of an indexed document
  are exactly what its node rows imply (one row per live element, its
  rooted path and, for an element with no element child, its
  string-value, NULL for any other; none for anything else), and an
  unindexed document has none.  The expected rows are derived
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
from repro.core.schema import KIND_ELEMENT, KIND_TEXT, index_table

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


def _build_view(rows: list[dict], encoding) -> AuditView:
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
    # Every insert into the document labels with this gap: one below 1
    # would hand out slots that are not free.
    if not isinstance(info.gap, int) or info.gap < 1:
        yield Violation(
            "catalog-gap", doc, None,
            f"documents.gap {info.gap!r} is not a positive integer",
        )


def _expected_index_rows(view: AuditView) -> tuple[dict, dict]:
    """What an index over *view* must hold: ``id -> (parent, tag,
    leaf_text, nval)`` and ``id -> root path`` for every reachable
    element.

    Preorder puts a parent before its children, so one forward pass
    extends root paths.  An element with no element child holds its
    string-value, the concatenation of its text children (comments
    and PIs contribute nothing), and that value's number; any other
    element holds NULL in both.
    """
    paths: dict[int, str] = {}
    for node_id in view.preorder:
        row = view.by_id[node_id]
        if row["kind"] == KIND_ELEMENT:
            paths[node_id] = f"{paths.get(row['parent'], '')}/{row['tag']}"
    values = {}
    for node_id in paths:
        row = view.by_id[node_id]
        children = view.children.get(node_id, [])
        text = None
        if all(child["kind"] != KIND_ELEMENT for child in children):
            text = "".join(
                child["value"] or "" for child in children
                if child["kind"] == KIND_TEXT
            )
        values[node_id] = (
            row["parent"], row["tag"], text, xpath_number_value(text),
        )
    return values, paths


def _index_violations(store, info, view: AuditView):
    """The value and path indexes against the rows they derive from.

    An index is *present* when the catalogue row says ``indexed``;
    without it the document must have no ``idx_sval`` rows at all.
    There must be exactly one per live element, and its value columns
    and its path each say what the document says.
    """
    doc = info.doc
    values, paths = {}, {}
    if info.indexed:
        values, paths = _expected_index_rows(view)
    seen: set[int] = set()
    for node_id, path, *content in store.backend.execute(
        "SELECT id, path, parent, tag, leaf_text, nval FROM idx_sval "
        "WHERE doc = ?", (doc,),
    ).rows:
        if node_id not in values:
            yield Violation(
                "index-orphan-row", doc, node_id,
                "idx_sval row for a node that is not a live element "
                "of an indexed document",
            )
        elif node_id in seen:
            yield Violation(
                "index-duplicate-row", doc, node_id,
                "more than one idx_sval row",
            )
        else:
            for code, stored, expected in (
                ("index-sval-stale", tuple(content), values[node_id]),
                ("index-path-stale", path, paths[node_id]),
            ):
                if stored != expected:
                    yield Violation(
                        code, doc, node_id,
                        f"idx_sval says {stored!r}, document says "
                        f"{expected!r}",
                    )
        seen.add(node_id)
    for node_id in sorted(values.keys() - seen):
        yield Violation(
            "index-row-missing", doc, node_id,
            "live element has no idx_sval row",
        )


def audit_document(store, doc: int) -> list[Violation]:
    """Audit one document; returns all violations found (empty = clean).

    The catalogue row, the node rows, the attribute rows and the index
    rows are read in one snapshot: a write committing between two of
    those reads (a migration, say) would otherwise show as a violation
    that no committed state has."""
    with store.backend.snapshot():
        # fresh=True: the auditor verifies the stored catalogue row
        # itself, so it must not read through the store's catalog cache
        # (which can legitimately lag when another store object writes
        # the same file).
        info = store.document_info(doc, fresh=True)
        encoding = ENCODINGS[info.encoding]
        rows = fetch_rows(store, doc, encoding)
        view = _build_view(rows, encoding)
        violations = list(_structural_violations(store, doc, view))
        violations.extend(
            _attribute_violations(store, doc, view, encoding)
        )
        violations.extend(
            Violation(code, doc, node_id, message)
            for code, node_id, message in encoding.order_invariants(view)
        )
        violations.extend(_catalog_violations(store, info, view))
        violations.extend(_index_violations(store, info, view))
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


def _stray_document_violations(store, infos):
    """Store-level checks that look across *every* encoding's tables.

    * ``catalog-missing-doc`` — rows for a document with no catalogue
      entry, in any encoding table that exists or in ``idx_sval``
      (which all encodings share, so it has no owner);
    * ``store-wrong-encoding-table`` — a document's rows leaked into a
      table that is not its catalogued encoding's (a migration that
      cut over without deleting its source rows, or vice versa).
    """
    try:
        existing: Optional[set[str]] = set(store.backend.list_tables())
    except NotImplementedError:  # pragma: no cover - custom backends
        existing = None
    known = {info.doc: info for info in infos}
    table_owner: dict[str, Optional[str]] = {index_table().name: None}
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
            if owner is not None and owner != info.encoding:
                yield Violation(
                    "store-wrong-encoding-table", doc, None,
                    f"rows in {table} but document is catalogued "
                    f"as {info.encoding!r}",
                )


def audit_store(
    store, max_rows_per_doc: Optional[int] = None
) -> list[Violation]:
    """Audit every document of *store* plus store-level catalogue state.

    ``max_rows_per_doc`` skips documents whose catalogued node count
    exceeds the limit — the conftest fixture uses it to keep the audit
    cheap after large stress tests.  The whole audit reads one
    snapshot, as :func:`audit_document` does.
    """
    violations: list[Violation] = []
    with store.backend.snapshot():
        infos = store.documents()
        for info in infos:
            if (
                max_rows_per_doc is not None
                and info.node_count > max_rows_per_doc
            ):
                continue
            violations.extend(audit_document(store, info.doc))
        violations.extend(_stray_document_violations(store, infos))
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
