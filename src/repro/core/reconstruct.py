"""Reconstruction: relational rows -> DOM documents and subtrees.

Full-document reconstruction fetches every node row and attribute of a
document, then rebuilds the tree by grouping rows on ``parent`` and
sorting siblings by the encoding's order column.

Subtree reconstruction shows the encodings' asymmetry (experiment E8):

* Global fetches exactly one ``pos`` range;
* Dewey and ORDPATH fetch exactly one key range (prefix scan);
* Local has no subtree range — it must chase children level by level
  (one query per level, batched over the frontier), the same weakness
  that makes its descendant-axis queries slow.

Which of the two applies is the encoding's answer to
:meth:`~repro.core.encodings.OrderEncoding.subtree_range`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.schema import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
)
from repro.core.shredder import group_siblings
from repro.errors import StorageError
from repro.xmldom.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore


def _make_node(kind: str, tag: Optional[str], value: Optional[str]) -> Node:
    if kind == KIND_ELEMENT:
        return Element(tag or "")
    if kind == KIND_TEXT:
        return Text(value or "")
    if kind == KIND_COMMENT:
        return Comment(value or "")
    if kind == KIND_PI:
        return ProcessingInstruction(tag or "", value or "")
    raise StorageError(f"unknown node kind {kind!r}")


def _build_tree(
    store: "XmlStore",
    doc: int,
    rows: list[dict],
    root_parent: int,
    id_map: Optional[dict[int, int]] = None,
) -> list[Node]:
    """Build DOM nodes for *rows*; returns children of *root_parent*.

    When *id_map* is given, it is filled with ``id(dom node) ->
    surrogate id`` for every materialised node (the identity bridge the
    differential fuzzer's oracle comparisons need).
    """
    by_parent = group_siblings(
        rows, store.encoding_for(doc).sibling_order_column
    )

    element_ids = [r["id"] for r in rows if r["kind"] == KIND_ELEMENT]
    attributes: dict[int, list[tuple[str, str]]] = {}
    for owner, name, value in store.fetch_attributes(doc, element_ids):
        attributes.setdefault(owner, []).append((name, value))

    # No traversal, so no recursion: stored documents may nest deeper
    # than the interpreter's recursion limit.  Materialise every row,
    # then hang each sibling list (already in order) under its parent.
    nodes: dict[int, Node] = {}
    for row in rows:
        node = _make_node(row["kind"], row["tag"], row["value"])
        if isinstance(node, Element):
            for name, value in sorted(attributes.get(row["id"], [])):
                node.set(name, value)
        if id_map is not None:
            id_map[id(node)] = row["id"]
        nodes[row["id"]] = node
    for parent_id, siblings in by_parent.items():
        parent = nodes.get(parent_id)
        if parent is not None:
            for row in siblings:
                parent.append(nodes[row["id"]])
    return [nodes[row["id"]] for row in by_parent.get(root_parent, [])]


def reconstruct_document(store: "XmlStore", doc: int) -> Document:
    """Rebuild the entire document *doc* from its rows."""
    document, _ids = reconstruct_document_with_ids(store, doc)
    return document


def reconstruct_document_with_ids(
    store: "XmlStore", doc: int
) -> tuple[Document, dict[int, int]]:
    """Rebuild document *doc* plus an ``id(dom node) -> surrogate id``
    map, so callers can compare store results against DOM nodes."""
    encoding = store.encoding_for(doc)
    columns = encoding.node_columns()
    result = store.backend.execute(
        f"SELECT {', '.join(columns)} FROM {encoding.node_table.name} "
        f"WHERE doc = ?",
        (doc,),
    )
    rows = [dict(zip(columns, r)) for r in result.rows]
    document = Document()
    id_map: dict[int, int] = {}
    for top in _build_tree(store, doc, rows, root_parent=0, id_map=id_map):
        document.append(top)
    return document, id_map


def reconstruct_subtree(store: "XmlStore", doc: int, node_id: int) -> Node:
    """Rebuild the subtree rooted at *node_id*."""
    root_row = store.fetch_node(doc, node_id)
    if root_row is None:
        raise StorageError(f"no node {node_id} in document {doc}")
    rows = fetch_subtree_rows(store, doc, root_row)
    children = _build_tree(store, doc, rows, root_parent=node_id)
    root = _make_node(root_row["kind"], root_row["tag"], root_row["value"])
    if isinstance(root, Element):
        for owner, name, value in sorted(
            store.fetch_attributes(doc, [node_id])
        ):
            root.set(name, value)
        # Element rows materialise their text through text-node children.
        root.children.clear()
        for child in children:
            root.append(child)
    return root


def fetch_subtree_rows(
    store: "XmlStore", doc: int, root_row: dict
) -> list[dict]:
    """Fetch the *proper descendants* of the node in *root_row*."""
    encoding = store.encoding_for(doc)
    columns = encoding.node_columns()
    select = f"SELECT {', '.join(columns)} FROM {encoding.node_table.name} "
    subtree = encoding.subtree_where(root_row, include_root=False)
    if subtree is not None:
        where, bounds = subtree
        result = store.backend.execute(
            select + f"WHERE doc = ? AND {where}", (doc, *bounds)
        )
        return [dict(zip(columns, r)) for r in result.rows]
    # Local: frontier expansion, one query batch per level.
    rows: list[dict] = []
    frontier = [root_row["id"]]
    while frontier:
        level = [
            dict(zip(columns, r))
            for sql, params in store.in_batches(
                select + "WHERE doc = ?", "parent", frontier, (doc,)
            )
            for r in store.backend.execute(sql, params).rows
        ]
        rows.extend(level)
        frontier = [
            r["id"] for r in level if r["kind"] == KIND_ELEMENT
        ]
    return rows
