"""Reconstruction: stored rows -> parse events -> DOM.

The way out is the way in, backwards.  :func:`ordered_rows` reads a
document (or one subtree) in document order, :func:`row_events` turns
such rows into the event vocabulary of
:func:`repro.xmldom.parser.events`, and everything downstream is a
consumer the load path already has: the parser's
:func:`~repro.xmldom.parser.build_tree` materialises a DOM here,
:func:`repro.core.shredder.label` relabels a stored document for
rebalance and migration, and the index builder walks the same rows.

Order stored as a data value is what makes the read one statement: for
Global, Dewey and ORDPATH ``ORDER BY`` the order column *is* document
order, and a subtree is one range of it (experiment E8).  Local has no
such column — its :attr:`~repro.core.encodings.OrderEncoding.
order_by_column` is ``None`` — so it fetches the rows unordered (a
subtree level by level, one query batch per level, the same weakness
that makes its descendant-axis queries slow), sorts each sibling list
and walks.  That is the only place stored structure is re-derived from
parent pointers outside the auditor.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.core.schema import (
    DOCUMENT_PARENT,
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
)
from repro.errors import StorageError
from repro.xmldom.dom import Document, Node
from repro.xmldom.parser import (
    COMMENT, END, PI, START, TEXT, Event, build_tree,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.encodings import OrderEncoding
    from repro.store import XmlStore


def ordered_rows(
    store: "XmlStore", doc: int, root_row: Optional[dict] = None,
    encoding: Optional["OrderEncoding"] = None,
) -> list[tuple]:
    """``(id, parent, kind, tag, value)`` of every node of *doc* in
    document order — or, with *root_row* (a
    :meth:`~repro.store.XmlStore.fetch_node` dict), of that node's
    subtree, root first.  *encoding* is *doc*'s, for a caller that has
    already resolved it."""
    encoding = encoding or store.encoding_for(doc)
    columns = ("id", "parent", "kind", "tag", "value")
    select = f"SELECT {', '.join(columns)}"
    source = f" FROM {encoding.node_table.name} WHERE doc = ?"
    if encoding.order_by_column is not None:
        params: tuple = (doc,)
        if root_row is not None:
            where, bounds = encoding.subtree_where(root_row, include_root=True)
            source += f" AND {where}"
            params += bounds
        return store._execute(
            f"{select}{source} ORDER BY {encoding.order_by_column}", params
        ).rows
    # No order key: fetch unordered (a subtree level by level), then
    # sort each sibling list and walk.
    select += f", {encoding.sibling_order_column}{source}"
    if root_row is None:
        fetched = store._execute(select, (doc,)).rows
        tops = None
    else:
        fetched = []
        tops = [tuple(root_row[column] for column in columns)]
        frontier = [root_row["id"]]
        while frontier:
            level = [
                row
                for sql, params in store.in_batches(
                    select, "parent", frontier, (doc,)
                )
                for row in store._execute(sql, params).rows
            ]
            fetched.extend(level)
            frontier = [row[0] for row in level if row[2] == KIND_ELEMENT]
    children: dict[int, list[tuple]] = {}
    for row in fetched:
        children.setdefault(row[1], []).append(row)
    # Sibling lists are kept last-first, so extending the stack with one
    # pops its first member next: an iterative preorder walk.
    for siblings in children.values():
        siblings.sort(key=itemgetter(5), reverse=True)
    stack = tops or children.get(DOCUMENT_PARENT, [])
    rows: list[tuple] = []
    while stack:
        row = stack.pop()
        rows.append(row[:5])
        stack.extend(children.get(row[0], ()))
    return rows


def row_events(
    rows: Iterable[tuple], attributes: dict[int, dict[str, str]]
) -> Iterator[Event]:
    """The parse events of *rows* (whole subtrees, in document order).

    *attributes* maps an element's id to its attributes.  An element
    closes when a row arrives whose parent is not the innermost open
    element, so the parent pointers alone carry the nesting.
    """
    open_ids: list[int] = []
    for node_id, parent, kind, tag, value in rows:
        while open_ids and open_ids[-1] != parent:
            open_ids.pop()
            yield (END, None, None)
        if kind == KIND_ELEMENT:
            open_ids.append(node_id)
            yield (START, tag or "", attributes.get(node_id, {}))
        elif kind == KIND_TEXT:
            yield (TEXT, value or "", None)
        elif kind == KIND_COMMENT:
            yield (COMMENT, value or "", None)
        elif kind == KIND_PI:
            yield (PI, tag or "", value or "")
        else:
            raise StorageError(f"unknown node kind {kind!r}")
    for _ in open_ids:
        yield (END, None, None)


def stored_attributes(
    store: "XmlStore", doc: int, owners: Optional[Iterable[int]] = None
) -> dict[int, dict[str, str]]:
    """``owner id -> {name: value}``, names in sorted order: every
    attribute of *doc* in one scan, or only those of *owners* (ids
    below a subtree root), in ``IN`` batches."""
    select = (
        f"SELECT owner, name, value FROM {store.attr_table_for(doc)} "
        f"WHERE doc = ?"
    )
    statements = (
        [(select, (doc,))] if owners is None
        else store.in_batches(select, "owner", owners, (doc,))
    )
    attributes: dict[int, dict[str, str]] = {}
    for sql, params in statements:
        for owner, name, value in store._execute(
            f"{sql} ORDER BY owner, name", params
        ).rows:
            attributes.setdefault(owner, {})[name] = value
    return attributes


def _materialise(
    store: "XmlStore", doc: int, root_row: Optional[dict] = None
) -> tuple[Document, list[tuple]]:
    """The DOM of a stored document or subtree, hung under a fresh
    :class:`Document`, and the rows it was built from — one per node,
    in the order ``iter_preorder`` visits them."""
    rows = ordered_rows(store, doc, root_row)
    owners = None if root_row is None else [
        row[0] for row in rows if row[2] == KIND_ELEMENT
    ]
    attributes = stored_attributes(store, doc, owners)
    return build_tree(row_events(rows, attributes)), rows


def reconstruct_document(store: "XmlStore", doc: int) -> Document:
    """Rebuild the entire document *doc* from its rows."""
    return _materialise(store, doc)[0]


def reconstruct_document_with_ids(
    store: "XmlStore", doc: int
) -> tuple[Document, dict[int, int]]:
    """Rebuild document *doc* plus an ``id(dom node) -> surrogate id``
    map, so callers can compare store results against DOM nodes."""
    document, rows = _materialise(store, doc)
    return document, {
        id(node): row[0]
        for node, row in zip(document.iter_preorder(), rows)
    }


def reconstruct_subtree(store: "XmlStore", doc: int, node_id: int) -> Node:
    """Rebuild the subtree rooted at *node_id*."""
    root_row = store.fetch_node(doc, node_id)
    if root_row is None:
        raise StorageError(f"no node {node_id} in document {doc}")
    carrier, _rows = _materialise(store, doc, root_row)
    return carrier.children[0].detach()
