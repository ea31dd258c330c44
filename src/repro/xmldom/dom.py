"""A small document object model for ordered XML.

The model is deliberately close to the one the paper assumes: a document is
an ordered tree of element, text, comment, and processing-instruction nodes;
attributes hang off elements and are *unordered* (per the XML data model).
Document order is the preorder traversal of the tree.

The classes here are plain mutable Python objects.  They are used by the
parser, by the native XPath evaluator (the correctness oracle), by the
shredder (DOM -> rows) and by the reconstructor (rows -> DOM).
"""

from __future__ import annotations

from typing import Iterator, Optional


class Node:
    """Base class for all tree nodes.

    Attributes
    ----------
    parent:
        The owning :class:`Element` or :class:`Document`, or ``None`` for a
        detached node.
    """

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[ParentNode] = None

    # -- tree geometry -------------------------------------------------

    def sibling_index(self) -> int:
        """Return this node's 0-based position among its siblings."""
        if self.parent is None:
            return 0
        return self.parent.children.index(self)

    def ancestors(self) -> Iterator["ParentNode"]:
        """Yield ancestors from parent up to (and including) the document."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Return the number of ancestors (document root children are 1)."""
        return sum(1 for _ in self.ancestors())

    # -- structural identity -------------------------------------------

    def structurally_equal(self, other: "Node") -> bool:
        """Deep structural comparison ignoring object identity."""
        raise NotImplementedError

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when detached)."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self


class ParentNode(Node):
    """A node that owns an ordered child list (Element or Document)."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []

    def append(self, child: Node) -> Node:
        """Append *child* as the last child and return it."""
        child.detach()
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert *child* at 0-based *index* among the children."""
        child.detach()
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: Node) -> Node:
        """Remove *child* (must be a direct child) and return it."""
        self.children.remove(child)
        child.parent = None
        return child

    def iter_preorder(self) -> Iterator[Node]:
        """Yield every descendant node in document (preorder) order.

        The starting node itself is *not* yielded; attributes are not
        nodes in this model and are not yielded.
        """
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ParentNode):
                stack.extend(reversed(node.children))

    def subtree_size(self) -> int:
        """Return the number of descendant nodes (excluding self)."""
        return sum(1 for _ in self.iter_preorder())

    def element_children(self) -> list["Element"]:
        """Return the child nodes that are elements, in order."""
        return [c for c in self.children if isinstance(c, Element)]


class Element(ParentNode):
    """An element node with a tag, unordered attributes, ordered children."""

    __slots__ = ("tag", "attributes")

    def __init__(self, tag: str, attributes: Optional[dict[str, str]] = None):
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the value of attribute *name*, or *default*."""
        return self.attributes.get(name, default)

    def set(self, name: str, value: str) -> None:
        """Set attribute *name* to *value*."""
        self.attributes[name] = value

    def text_value(self) -> str:
        """Return the concatenation of all descendant text, in order.

        This is the XPath string-value of an element node.
        """
        parts = [
            node.content
            for node in self.iter_preorder()
            if isinstance(node, Text)
        ]
        return "".join(parts)

    def structurally_equal(self, other: Node) -> bool:
        if not isinstance(other, Element):
            return False
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(
            a.structurally_equal(b)
            for a, b in zip(self.children, other.children)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag!r} children={len(self.children)}>"


class Text(Node):
    """A text node."""

    __slots__ = ("content",)

    def __init__(self, content: str) -> None:
        super().__init__()
        self.content = content

    def text_value(self) -> str:
        """Return the node's string-value (its content)."""
        return self.content

    def structurally_equal(self, other: Node) -> bool:
        return isinstance(other, Text) and self.content == other.content

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Text {self.content!r}>"


class Comment(Node):
    """A comment node (``<!-- ... -->``)."""

    __slots__ = ("content",)

    def __init__(self, content: str) -> None:
        super().__init__()
        self.content = content

    def structurally_equal(self, other: Node) -> bool:
        return isinstance(other, Comment) and self.content == other.content

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comment {self.content!r}>"


class ProcessingInstruction(Node):
    """A processing-instruction node (``<?target data?>``)."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = "") -> None:
        super().__init__()
        self.target = target
        self.data = data

    def structurally_equal(self, other: Node) -> bool:
        return (
            isinstance(other, ProcessingInstruction)
            and self.target == other.target
            and self.data == other.data
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PI {self.target!r}>"


class Document(ParentNode):
    """The document node: owns the root element plus prolog/epilog nodes."""

    __slots__ = ()

    @property
    def root(self) -> Optional[Element]:
        """Return the document (root) element, or ``None`` if empty."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        return None

    def structurally_equal(self, other: Node) -> bool:
        if not isinstance(other, Document):
            return False
        if len(self.children) != len(other.children):
            return False
        return all(
            a.structurally_equal(b)
            for a, b in zip(self.children, other.children)
        )

    def node_count(self) -> int:
        """Return the total number of tree nodes (excluding the document)."""
        return self.subtree_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        root = self.root
        tag = root.tag if root is not None else None
        return f"<Document root={tag!r} nodes={self.node_count()}>"


def document_order(doc: Document) -> dict[int, int]:
    """Map ``id(node) -> position`` for every node in *doc*, in preorder.

    Used by tests and by the native XPath evaluator to sort node sets into
    document order without mutating the nodes.
    """
    return {id(node): pos for pos, node in enumerate(doc.iter_preorder())}


def new_document(root_tag: str) -> tuple[Document, Element]:
    """Convenience constructor: a document with a single empty root."""
    doc = Document()
    root = Element(root_tag)
    doc.append(root)
    return doc, root
