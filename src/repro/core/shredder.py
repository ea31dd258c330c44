"""Shredding: DOM documents -> encoding-independent node records.

The shredder performs a single preorder walk of the document and computes,
for every node, all the quantities any of the four encodings needs:

* a surrogate ``id`` (dense, assigned in document order at shred time),
* the parent's surrogate id (0 for top-level nodes),
* node kind, tag, value, and depth,
* the preorder ``rank`` and the rank of the node's last descendant
  (``end_rank``) — the Global encoding's interval,
* the 1-based ``sibling_index`` — the Local encoding's order value,
* the tuple of sibling indexes from the root — the Dewey and ORDPATH key.

Each encoding then materialises its own rows from these records (applying
its gap factor for sparse variants); see :mod:`repro.core.encodings`.
:func:`relabel` recomputes the same quantities from stored rows, which is
how a rebalance and an encoding migration renumber a document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.schema import (
    DOCUMENT_PARENT,
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
)
from repro.xmldom.dom import (
    Comment,
    Document,
    Element,
    Node,
    ParentNode,
    ProcessingInstruction,
    Text,
)


@dataclass
class ShreddedNode:
    """One node's encoding-independent record."""

    id: int
    parent: int
    kind: str
    tag: Optional[str]
    value: Optional[str]
    depth: int
    rank: int
    end_rank: int
    sibling_index: int
    dewey: tuple[int, ...]


@dataclass
class ShreddedAttribute:
    """One attribute record (attributes carry no order)."""

    owner: int
    name: str
    value: str


@dataclass
class ShreddedDocument:
    """The output of shredding one document."""

    nodes: list[ShreddedNode] = field(default_factory=list)
    attributes: list[ShreddedAttribute] = field(default_factory=list)
    max_depth: int = 0

    def node_count(self) -> int:
        return len(self.nodes)


def direct_text_value(element: Element) -> Optional[str]:
    """The concatenation of the element's immediate text children.

    Returns ``None`` when the element has no text children, so that
    "no text" is distinguishable from "empty text" in the database.
    """
    parts = [c.content for c in element.children if isinstance(c, Text)]
    return "".join(parts) if parts else None


def _node_fields(node: Node) -> tuple[str, Optional[str], Optional[str]]:
    """Return (kind, tag, value) for *node*."""
    if isinstance(node, Element):
        return KIND_ELEMENT, node.tag, direct_text_value(node)
    if isinstance(node, Text):
        return KIND_TEXT, None, node.content
    if isinstance(node, Comment):
        return KIND_COMMENT, None, node.content
    if isinstance(node, ProcessingInstruction):
        return KIND_PI, node.target, node.data
    raise TypeError(f"cannot shred node {node!r}")


def shred(document: Document) -> ShreddedDocument:
    """Shred *document* into encoding-independent records.

    Node ids and ranks are assigned densely in document order starting at
    1.  The caller (the store) applies per-encoding gaps when turning the
    records into rows.
    """
    result = ShreddedDocument()
    counter = 0

    def walk(
        node: Node, parent_id: int, depth: int, sibling_index: int,
        dewey_prefix: tuple[int, ...],
    ) -> int:
        """Shred *node*'s subtree; return the subtree's last rank."""
        nonlocal counter
        counter += 1
        rank = counter
        kind, tag, value = _node_fields(node)
        dewey = (*dewey_prefix, sibling_index)
        record = ShreddedNode(
            id=rank,
            parent=parent_id,
            kind=kind,
            tag=tag,
            value=value,
            depth=depth,
            rank=rank,
            end_rank=rank,  # fixed up after children are walked
            sibling_index=sibling_index,
            dewey=dewey,
        )
        result.nodes.append(record)
        result.max_depth = max(result.max_depth, depth)
        if isinstance(node, Element):
            for name, attr_value in node.attributes.items():
                result.attributes.append(
                    ShreddedAttribute(record.id, name, attr_value)
                )
        last_rank = rank
        if isinstance(node, ParentNode):
            for index, child in enumerate(node.children, start=1):
                last_rank = walk(child, record.id, depth + 1, index, dewey)
        record.end_rank = last_rank
        return last_rank

    for index, child in enumerate(document.children, start=1):
        walk(child, DOCUMENT_PARENT, 1, index, ())
    return result


def group_siblings(
    rows: list[dict], sibling_column: str
) -> dict[int, list[dict]]:
    """Stored node rows grouped by parent id, each sibling list sorted
    by *sibling_column* — the tree shape every walk over rows needs."""
    by_parent: dict[int, list[dict]] = {}
    for row in rows:
        by_parent.setdefault(row["parent"], []).append(row)
    for siblings in by_parent.values():
        siblings.sort(key=lambda r: r[sibling_column])
    return by_parent


def relabel(rows: list[dict], sibling_column: str) -> list[ShreddedNode]:
    """Recompute every order quantity of a stored document from its rows.

    *rows* are one document's node rows (column -> value); structure
    comes from their parent pointers, sibling order from
    *sibling_column*.  Ids, kinds, values and depths are kept; ranks,
    sibling indexes and Dewey paths are assigned densely from 1, exactly
    as :func:`shred` would label the same tree — so writing them back
    compacts whatever gaps and carets updates have accumulated.
    Records come back in document order.

    Iterative: updates can legally nest a document deeper than the
    interpreter's recursion limit.
    """
    by_parent = group_siblings(rows, sibling_column)
    records: list[ShreddedNode] = []
    # One frame per open ancestor: its record (None for the document
    # node) and an iterator over its numbered children.
    stack = [(None, enumerate(by_parent.get(DOCUMENT_PARENT, ()), 1))]
    while stack:
        parent, children = stack[-1]
        step = next(children, None)
        if step is None:
            # Subtree finished: its last rank closes this node and, so
            # far, every ancestor still open.
            stack.pop()
            if parent is not None and stack[-1][0] is not None:
                stack[-1][0].end_rank = parent.end_rank
            continue
        sibling_index, row = step
        rank = len(records) + 1
        record = ShreddedNode(
            id=row["id"], parent=row["parent"], kind=row["kind"],
            tag=row["tag"], value=row["value"], depth=row["depth"],
            rank=rank, end_rank=rank, sibling_index=sibling_index,
            dewey=(*(parent.dewey if parent else ()), sibling_index),
        )
        records.append(record)
        stack.append((record, enumerate(by_parent.get(row["id"], ()), 1)))
    return records
