"""Shredding: XML -> encoding-independent node records.

One labeler (:func:`label`) turns a stream of parse events into, for
every node, all the quantities any of the four encodings needs:

* a surrogate ``id`` (dense, assigned in document order at shred time),
* the parent's surrogate id (0 for top-level nodes),
* node kind, tag, value, and depth,
* the preorder ``rank`` and the rank of the node's last descendant
  (``end_rank``) — the Global encoding's interval,
* the 1-based ``sibling_index`` — the Local encoding's order value,
* the tuple of sibling indexes from the root — the Dewey and ORDPATH key.

It has two event sources at load: :func:`shred_text` feeds it the
validated events of an XML text (:func:`repro.xmldom.parser.events`) —
no tree is built — and :func:`shred` feeds it a walk over a DOM the
caller already holds.  A path key is known the moment a start tag is
read; only ``end_rank`` and the element's direct text wait for the end
tag.

Each encoding then materialises its own rows from these records (applying
its gap factor for sparse variants); see :mod:`repro.core.encodings`.
:func:`relabel` is the third source: stored rows read back as events
(:func:`repro.core.reconstruct.row_events`), which is how a rebalance
and an encoding migration renumber a document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.core.reconstruct import row_events
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
    ProcessingInstruction,
    Text,
)
from repro.xmldom.parser import COMMENT, END, PI, START, TEXT, Event, events


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    The labeler computes the same value inline; this DOM form is kept
    for the frozen answer check at benchmarks/perf/workloads.py:1002.
    """
    parts = [c.content for c in element.children if isinstance(c, Text)]
    return "".join(parts) if parts else None


def label(stream: Iterable[Event]) -> ShreddedDocument:
    """Label a stream of validated parse events.

    Node ids and ranks are assigned densely in document order starting
    at 1.  The caller (the store) applies per-encoding gaps when turning
    the records into rows.  An element's ``end_rank`` and direct-text
    ``value`` are patched when its ``END`` arrives.

    Iterative: a document may nest deeper than the interpreter's
    recursion limit.
    """
    nodes: list[ShreddedNode] = []
    attributes: list[ShreddedAttribute] = []
    max_depth = 0
    rank = 0
    # The open element (None at the document level) and what its next
    # child needs: its id and Dewey path, the depth one level down, how
    # many children it has had and its direct text so far.
    element: Optional[ShreddedNode] = None
    parent_id = DOCUMENT_PARENT
    path: tuple[int, ...] = ()
    depth = 1
    siblings = 0
    text: Optional[str] = None
    # The same, saved for each open ancestor.
    stack: list[tuple] = []
    for kind, a, b in stream:
        if kind == END:
            element.end_rank = rank
            element.value = text
            depth -= 1
            element, parent_id, path, siblings, text = stack.pop()
            continue
        rank += 1
        siblings += 1
        if depth > max_depth:
            max_depth = depth
        if kind == START:
            record = ShreddedNode(
                rank, parent_id, KIND_ELEMENT, a, None, depth, rank, rank,
                siblings, (*path, siblings),
            )
            nodes.append(record)
            for name, value in b.items():
                attributes.append(ShreddedAttribute(rank, name, value))
            stack.append((element, parent_id, path, siblings, text))
            element, parent_id, path = record, rank, record.dewey
            depth += 1
            siblings = 0
            text = None
            continue
        if kind == TEXT:
            text = a if text is None else text + a
            node_kind, tag, value = KIND_TEXT, None, a
        elif kind == COMMENT:
            node_kind, tag, value = KIND_COMMENT, None, a
        else:
            node_kind, tag, value = KIND_PI, a, b
        nodes.append(ShreddedNode(
            rank, parent_id, node_kind, tag, value, depth, rank, rank,
            siblings, (*path, siblings),
        ))
    return ShreddedDocument(nodes, attributes, max_depth)


def shred_text(
    source: str, strip_whitespace: bool = False
) -> ShreddedDocument:
    """Shred the XML text *source* without building a tree.

    Equal, record for record, to ``shred(parse(source,
    strip_whitespace))``, and raises the same :class:`XmlSyntaxError`
    for the same malformed input.
    """
    return label(events(source, strip_whitespace))


def shred(document: Document) -> ShreddedDocument:
    """Shred the DOM *document* into encoding-independent records."""
    return label(_dom_events(document))


def _dom_events(document: Document) -> Iterator[Event]:
    """The events of a DOM: one iterative preorder walk."""
    stack = [iter(document.children)]
    while stack:
        for node in stack[-1]:
            if isinstance(node, Element):
                yield (START, node.tag, node.attributes)
                stack.append(iter(node.children))
                break
            if isinstance(node, Text):
                yield (TEXT, node.content, None)
            elif isinstance(node, Comment):
                yield (COMMENT, node.content, None)
            elif isinstance(node, ProcessingInstruction):
                yield (PI, node.target, node.data)
            else:
                raise TypeError(f"cannot shred node {node!r}")
        else:
            stack.pop()
            if stack:
                yield (END, None, None)


def relabel(rows: list[tuple]) -> list[ShreddedNode]:
    """Recompute every order quantity of a stored document from its
    rows (:func:`repro.core.reconstruct.ordered_rows`: the whole
    document, in document order).

    The rows are labelled as the events they are — ranks, sibling
    indexes and Dewey paths densely from 1, exactly as :func:`shred`
    labels the same tree, so writing them back compacts whatever gaps
    and carets updates have accumulated — and keep their stored ids.
    Records come back in document order.
    """
    records = label(row_events(rows, {})).nodes
    for record, row in zip(records, rows):
        record.id, record.parent = row[:2]
    return records
