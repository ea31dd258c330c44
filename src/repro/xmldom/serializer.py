"""Serialisation: DOM -> XML text.

Supports compact (verbatim) output and a pretty-printed mode used by the
examples.  Round-trip fidelity (`parse(serialize(doc))` structurally equal
to `doc`) is property-tested for the compact mode.
"""

from __future__ import annotations

from typing import Union

from repro.xmldom import chars
from repro.xmldom.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)


def serialize(
    node: Union[Document, Node],
    pretty: bool = False,
    indent: str = "  ",
    xml_declaration: bool = False,
) -> str:
    """Serialise a document or a subtree rooted at *node* to XML text."""
    parts: list[str] = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if not pretty:
            parts.append("\n")
    if isinstance(node, Document):
        for i, child in enumerate(node.children):
            _write(child, parts, pretty, indent)
            if pretty and i < len(node.children) - 1:
                parts.append("\n")
    else:
        _write(node, parts, pretty, indent)
    if pretty:
        parts.append("\n")
    return "".join(parts)


def _write(root: Node, parts: list[str], pretty: bool, indent: str) -> None:
    """Append the text of *root*'s subtree to *parts*.

    Iterative: a stored document may nest deeper than the interpreter's
    recursion limit.  One frame per open element holds the iterator
    over its children, its closing text and the layout of its content.
    """
    append = parts.append
    stack: list[tuple] = []
    children = iter((root,))
    closing = ""
    level = 0
    # Whether each child starts on its own line: inside an element laid
    # out pretty, which the subtree's root is not.
    own_line = False
    while True:
        for node in children:
            if own_line:
                append("\n")
            pad = indent * level if pretty else ""
            if isinstance(node, Element):
                tag = node.tag
                attrs = "".join(
                    f' {name}="{chars.escape_attribute(value)}"'
                    for name, value in node.attributes.items()
                ) if node.attributes else ""
                if not node.children:
                    append(f"{pad}<{tag}{attrs}/>")
                    continue
                append(f"{pad}<{tag}{attrs}>")
                stack.append((children, closing, pretty, own_line))
                # Pretty mode only reformats element-only content; any
                # text child means mixed content, which must be
                # reproduced verbatim to preserve meaning.
                pretty = own_line = pretty and not any(
                    isinstance(c, Text) for c in node.children
                )
                closing = f"\n{pad}</{tag}>" if pretty else f"</{tag}>"
                children = iter(node.children)
                level += 1
                break
            if isinstance(node, Text):
                append(chars.escape_text(node.content))
            elif isinstance(node, Comment):
                append(f"{pad}<!--{node.content}-->")
            elif isinstance(node, ProcessingInstruction):
                data = f" {node.data}" if node.data else ""
                append(f"{pad}<?{node.target}{data}?>")
            else:  # pragma: no cover - exhaustive over node kinds
                raise TypeError(f"cannot serialise {type(node).__name__}")
        else:
            if not stack:
                return
            append(closing)
            children, closing, pretty, own_line = stack.pop()
            level -= 1
