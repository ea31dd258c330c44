"""A scanning tokenizer for XML 1.0 documents.

Produces a flat sequence of :class:`Token` objects (start tags, end tags,
character data, comments, processing instructions).  DOCTYPE declarations
and the XML declaration are recognised and skipped; external entities and
DTD validation are out of scope, matching the non-validating parsers the
paper's systems used for shredding.

The scanner works on offsets: every construct is delimited by
``str.find`` or by a regular expression compiled from the name tables of
:mod:`repro.xmldom.chars`, and a line/column pair is derived from an
offset (newlines counted over the span just consumed) once per token or
per error — never by visiting characters one at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import XmlSyntaxError
from repro.xmldom import chars


@dataclass(slots=True)
class Token:
    """Base token; carries the 1-based source position for diagnostics."""

    line: int
    column: int


@dataclass(slots=True)
class StartTagToken(Token):
    name: str = ""
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass(slots=True)
class EndTagToken(Token):
    name: str = ""


@dataclass(slots=True)
class TextToken(Token):
    content: str = ""
    is_cdata: bool = False


@dataclass(slots=True)
class CommentToken(Token):
    content: str = ""


@dataclass(slots=True)
class PIToken(Token):
    target: str = ""
    data: str = ""


_S = "[" + chars.WHITESPACE + "]"
_NAME = chars.NAME_PATTERN

#: ``<name`` and, when no attribute follows, the tag's close as well.
_START_TAG = re.compile(f"<({_NAME})(?:{_S}*(/?)>)?").match
#: One attribute with the whitespace before it; ``<`` in the value is
#: matched here and rejected by the caller, which knows where it is.
_ATTRIBUTE = re.compile(
    f"{_S}+({_NAME}){_S}*={_S}*(?:\"([^\"]*)\"|'([^']*)')"
).match
_TAG_CLOSE = re.compile(f"{_S}*(/?)>").match
_END_TAG = re.compile(f"</({_NAME}){_S}*>").match
_PI_TARGET = re.compile(rf"<\?({_NAME})").match
_NAME_AT = re.compile(_NAME).match
_SPACE_AT = re.compile(f"{_S}*").match
#: Inside ``<!DOCTYPE``: the characters that change what the next ``>``
#: or ``]`` means.
_DOCTYPE_STOP = re.compile(r"""[\]\[<>"']""").search


class Tokenizer:
    """Single-pass tokenizer over an XML source string."""

    def __init__(self, source: str) -> None:
        # A byte-order mark is not part of the document (XML 1.0 §4.3.3);
        # ``Path.read_text()`` leaves the UTF-8 one in place.
        self._src = source[1:] if source.startswith("\ufeff") else source

    def _error(self, message: str, offset: int) -> XmlSyntaxError:
        return XmlSyntaxError(message, *self._position(offset))

    def _position(self, offset: int) -> tuple[int, int]:
        """The 1-based (line, column) of *offset*."""
        src = self._src
        return (
            src.count("\n", 0, offset) + 1,
            offset - src.rfind("\n", 0, offset),
        )

    # -- token productions -------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, in order."""
        src = self._src
        size = len(src)
        find, count, rfind = src.find, src.count, src.rfind
        unescape = chars.unescape
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of *line*
        while pos < size:
            column = pos - line_start + 1
            if src[pos] != "<":
                end = find("<", pos)
                if end == -1:
                    end = size
                raw = src[pos:end]
                if "&" in raw:
                    raw = unescape(raw, line, column)
                yield TextToken(line, column, raw)
            else:
                match = _START_TAG(src, pos)
                if match is not None:
                    name, slash = match.groups()
                    end = match.end()
                    attributes: dict[str, str] = {}
                    if slash is None:
                        slash, end = self._read_attributes(
                            name, end, attributes
                        )
                    yield StartTagToken(
                        line, column, name, attributes, slash == "/"
                    )
                elif (match := _END_TAG(src, pos)) is not None:
                    end = match.end()
                    yield EndTagToken(line, column, match.group(1))
                elif src.startswith("</", pos):
                    raise self._end_tag_error(pos)
                elif src.startswith("<!--", pos):
                    close = find("-->", pos + 4)
                    if close == -1:
                        raise self._error("unterminated comment", pos + 4)
                    content = src[pos + 4:close]
                    if "--" in content:
                        raise XmlSyntaxError(
                            "'--' not allowed in comment", line, column
                        )
                    end = close + 3
                    yield CommentToken(line, column, content)
                elif src.startswith("<![CDATA[", pos):
                    close = find("]]>", pos + 9)
                    if close == -1:
                        raise self._error(
                            "unterminated CDATA section", pos + 9
                        )
                    end = close + 3
                    yield TextToken(line, column, src[pos + 9:close], True)
                elif src.startswith("<?", pos):
                    match = _PI_TARGET(src, pos)
                    if match is None:
                        raise self._error("expected an XML name", pos + 2)
                    close = find("?>", match.end())
                    if close == -1:
                        raise self._error(
                            "unterminated processing instruction",
                            match.end(),
                        )
                    end = close + 2
                    target = match.group(1)
                    # The XML declaration carries no tree content.
                    if target.lower() != "xml":
                        yield PIToken(
                            line, column, target,
                            src[match.end():close].strip(),
                        )
                elif src.startswith("<!DOCTYPE", pos):
                    end = self._skip_doctype(pos + 9)
                elif src.startswith("<!", pos):
                    raise self._error("unrecognised markup declaration", pos)
                else:
                    raise self._error("expected an XML name", pos + 1)
            newlines = count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = rfind("\n", pos, end) + 1
            pos = end

    def _read_attributes(
        self, tag: str, pos: int, attributes: dict[str, str]
    ) -> tuple[str, int]:
        """Read a start tag from the end of its name at *pos* to its
        close, filling *attributes*; returns (``"/"`` if self-closing,
        the offset after the close)."""
        src = self._src
        while True:
            match = _ATTRIBUTE(src, pos)
            if match is None:
                match = _TAG_CLOSE(src, pos)
                if match is None:
                    raise self._tag_error(pos)
                return match.group(1), match.end()
            name, value, single_quoted = match.groups()
            if value is None:
                value = single_quoted
            pos = match.end()
            if "<" in value:
                raise self._error(f"'<' in value of attribute {name!r}", pos)
            if name in attributes:
                raise self._error(
                    f"duplicate attribute {name!r} on element {tag!r}", pos
                )
            if "&" in value:
                # Where this is in lines and columns costs a scan from
                # the start of the text: only an error pays for it.
                try:
                    value = chars.unescape(value)
                except XmlSyntaxError as exc:
                    raise self._error(str(exc), pos) from None
            attributes[name] = value

    def _tag_error(self, pos: int) -> XmlSyntaxError:
        """Why neither an attribute nor the tag's close starts at *pos*
        (just past the tag name or the previous attribute)."""
        src = self._src
        here = _SPACE_AT(src, pos).end()
        nxt = src[here:here + 1]
        if nxt in ("", "/"):
            # The close did not match: the input ends here, or a '/'
            # is not followed by '>'.
            return self._error("expected '>'", here + len(nxt))
        if here == pos:
            return self._error("expected whitespace before attribute", here)
        match = _NAME_AT(src, here)
        if match is None:
            return self._error("expected an XML name", here)
        name = match.group()
        here = _SPACE_AT(src, match.end()).end()
        if not src.startswith("=", here):
            return self._error("expected '='", here)
        here = _SPACE_AT(src, here + 1).end()
        if src[here:here + 1] not in ("'", '"'):
            return self._error("attribute value must be quoted", here)
        return self._error(f"unterminated attribute {name!r}", here + 1)

    def _end_tag_error(self, pos: int) -> XmlSyntaxError:
        match = _NAME_AT(self._src, pos + 2)
        if match is None:
            return self._error("expected an XML name", pos + 2)
        return self._error(
            "expected '>'", _SPACE_AT(self._src, match.end()).end()
        )

    def _skip_doctype(self, pos: int) -> int:
        """Skip ``<!DOCTYPE ...>`` from just past the keyword, including
        a bracketed internal subset; returns the offset after its ``>``.

        Quoted literals anywhere, and comments and processing
        instructions inside the subset, may contain ``>`` and ``]``.
        """
        src = self._src
        in_subset = False
        while True:
            match = _DOCTYPE_STOP(src, pos)
            if match is None:
                raise self._error("unterminated DOCTYPE", len(src))
            pos = match.end()
            ch = match.group()
            if ch == ">":
                if not in_subset:
                    return pos
                continue
            if ch == "[":
                in_subset = True
                continue
            if ch == "]":
                in_subset = False
                continue
            if ch != "<":
                terminator = ch  # a quoted literal
            elif in_subset and src.startswith("!--", pos):
                terminator = "-->"
            elif in_subset and src.startswith("?", pos):
                terminator = "?>"
            else:
                continue
            close = src.find(terminator, pos)
            if close == -1:
                raise self._error("unterminated DOCTYPE", len(src))
            pos = close + len(terminator)
