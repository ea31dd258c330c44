"""Well-formedness and tree construction: tokens -> events -> DOM.

:func:`events` is the one place that enforces well-formedness above the
token level (matching tags, a single root element, no character data
outside the root) and applies the whitespace policy; it turns the token
stream into a stream of validated events.  Two consumers read it:
:func:`build_tree` (behind :func:`parse` / :func:`parse_fragment`) makes
a :class:`~repro.xmldom.dom.Document` of the events, and the shredder
(:func:`repro.core.shredder.shred_text`) labels them directly, with no
tree in between.  Stored rows read back as the same events
(:func:`repro.core.reconstruct.row_events`), so both consumers serve the
way out of the database as well.

The paper's shredders discard whitespace that appears between elements
in data-centric documents ("ignorable" whitespace); we make the same
choice available, defaulting to *keep*, and the shredding/reconstruction
round-trip tests pin the behaviour down.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import XmlSyntaxError
from repro.xmldom.dom import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
)
from repro.xmldom.tokenizer import (
    CommentToken,
    EndTagToken,
    StartTagToken,
    TextToken,
    Tokenizer,
)

#: Event kinds.  An event is a triple ``(kind, a, b)``:
#: ``(START, tag, attributes)``, ``(END, None, None)``,
#: ``(TEXT, content, None)``, ``(COMMENT, content, None)``,
#: ``(PI, target, data)``.
START, END, TEXT, COMMENT, PI = "start", "end", "text", "comment", "pi"

Event = tuple[str, Optional[str], object]


def events(
    source: str, strip_whitespace: bool = False, fragment: bool = False
) -> Iterator[Event]:
    """Yield the validated parse events of *source*, in document order.

    Every ``START`` is closed by its own ``END`` (a self-closing tag
    yields both), and adjacent character data — text and CDATA sections
    — arrives as one ``TEXT`` event per maximal run, matching the XPath
    data model.  When *strip_whitespace* is true, text tokens that
    consist entirely of whitespace are dropped (the usual policy for
    data-centric shredding); whitespace inside mixed content is always
    preserved verbatim.

    A document allows exactly one top-level element and no top-level
    character data.  *fragment* mode admits any number of top-level
    nodes, including bare text runs; :func:`parse_fragment` validates
    the count afterwards so it can report a fragment-specific message.

    Raises
    ------
    XmlSyntaxError
        On any lexical or well-formedness violation, at the point in
        the stream where it is found.
    """
    open_tags: list[str] = []
    saw_root = False
    run: Optional[str] = None  # the character data run being merged
    for token in Tokenizer(source).tokens():
        cls = type(token)
        if cls is TextToken:
            content = token.content
            blank = not content.strip()
            if not open_tags:
                # Character data outside an element is only legal when
                # blank — except in fragment mode, where a bare text
                # run is a valid fragment (a top-level text node).
                if blank:
                    continue
                if not fragment:
                    raise XmlSyntaxError(
                        "character data outside the root element",
                        token.line,
                        token.column,
                    )
            elif blank and strip_whitespace and not token.is_cdata:
                continue
            if content:
                run = content if run is None else run + content
            continue
        if run is not None:
            yield (TEXT, run, None)
            run = None
        if cls is StartTagToken:
            if not open_tags:
                if saw_root and not fragment:
                    raise XmlSyntaxError(
                        "document has more than one root element",
                        token.line,
                        token.column,
                    )
                saw_root = True
            yield (START, token.name, token.attributes)
            if token.self_closing:
                yield (END, None, None)
            else:
                open_tags.append(token.name)
        elif cls is EndTagToken:
            if not open_tags:
                raise XmlSyntaxError(
                    f"unexpected closing tag </{token.name}>",
                    token.line,
                    token.column,
                )
            expected = open_tags.pop()
            if expected != token.name:
                raise XmlSyntaxError(
                    f"mismatched closing tag </{token.name}>, "
                    f"expected </{expected}>",
                    token.line,
                    token.column,
                )
            yield (END, None, None)
        elif cls is CommentToken:
            yield (COMMENT, token.content, None)
        else:
            yield (PI, token.target, token.data)
    if open_tags:
        raise XmlSyntaxError(f"unclosed element <{open_tags[-1]}>")
    if run is not None:
        yield (TEXT, run, None)
    if not saw_root and not fragment:
        raise XmlSyntaxError("document has no root element")


def parse(source: str, strip_whitespace: bool = False) -> Document:
    """Parse *source* into a :class:`Document`.

    Parameters
    ----------
    source:
        The XML text.
    strip_whitespace:
        When true, text nodes that consist entirely of whitespace are
        dropped (see :func:`events`).

    Raises
    ------
    XmlSyntaxError
        On any lexical or well-formedness violation.
    """
    return build_tree(events(source, strip_whitespace))


def build_tree(stream: Iterable[Event]) -> Document:
    """The DOM of an event stream — the one place events become nodes,
    whether they come from XML text or from stored rows."""
    doc = Document()
    parent: Document | Element = doc
    for kind, a, b in stream:
        if kind == START:
            parent = parent.append(Element(a, b))
        elif kind == END:
            parent = parent.parent
        elif kind == TEXT:
            parent.append(Text(a))
        elif kind == COMMENT:
            parent.append(Comment(a))
        else:
            parent.append(ProcessingInstruction(a, b))
    return doc


def _describe_node(node: object) -> str:
    if isinstance(node, Element):
        return f"element <{node.tag}>"
    if isinstance(node, Text):
        return "text"
    if isinstance(node, Comment):
        return "comment"
    if isinstance(node, ProcessingInstruction):
        return f"processing instruction <?{node.target}?>"
    return type(node).__name__  # pragma: no cover - defensive


def parse_fragment(source: str, strip_whitespace: bool = False):
    """Parse an XML fragment and return its single top-level node.

    A fragment is either one element (with any content), or a bare run
    of character data (returned as a :class:`Text` node), or a single
    comment / processing instruction.  Surrounding whitespace-only text
    is ignored, matching document parsing.

    Raises
    ------
    XmlSyntaxError
        On malformed XML, an empty fragment, or a fragment with more
        than one top-level node (e.g. ``"<a/><b/>"`` or ``"text <a/>"``
        — insert such pieces one node at a time).
    """
    doc = build_tree(events(source, strip_whitespace, fragment=True))
    tops = list(doc.children)
    if not tops:
        raise XmlSyntaxError(
            "empty fragment: expected one element, text run, comment, "
            "or processing instruction"
        )
    if len(tops) > 1:
        shapes = ", ".join(_describe_node(n) for n in tops)
        raise XmlSyntaxError(
            f"fragment has {len(tops)} top-level nodes ({shapes}); "
            "a fragment must have exactly one root — insert multiple "
            "nodes one at a time"
        )
    node = tops[0]
    node.detach()
    return node
