"""Character-level utilities for the XML substrate.

Implements the XML 1.0 character classes needed by a non-validating parser:
name start/continue characters, whitespace, and text escaping/unescaping of
the five predefined entities plus numeric character references.
"""

from __future__ import annotations

import re

from repro.errors import XmlSyntaxError

#: The five predefined XML entities, in unescape direction.
PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_ESCAPE_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ESCAPE_ATTR = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}

#: XML whitespace characters (production S).
WHITESPACE = " \t\r\n"

# Ranges for NameStartChar per the XML 1.0 (5th ed) spec, minus the
# surrogate plane subtleties we do not need for BMP documents.
_NAME_START_RANGES = (
    (ord(":"), ord(":")),
    (ord("A"), ord("Z")),
    (ord("_"), ord("_")),
    (ord("a"), ord("z")),
    (0xC0, 0xD6),
    (0xD8, 0xF6),
    (0xF8, 0x2FF),
    (0x370, 0x37D),
    (0x37F, 0x1FFF),
    (0x200C, 0x200D),
    (0x2070, 0x218F),
    (0x2C00, 0x2FEF),
    (0x3001, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFFD),
    (0x10000, 0xEFFFF),
)

_NAME_EXTRA_RANGES = (
    (ord("-"), ord("-")),
    (ord("."), ord(".")),
    (ord("0"), ord("9")),
    (0xB7, 0xB7),
    (0x300, 0x36F),
    (0x203F, 0x2040),
)


def _class_body(ranges: tuple[tuple[int, int], ...]) -> str:
    """*ranges* as the inside of a regular-expression character class."""
    return "".join(
        re.escape(chr(lo)) if lo == hi
        else f"{re.escape(chr(lo))}-{re.escape(chr(hi))}"
        for lo, hi in ranges
    )


#: Regular-expression source matching one XML Name, built from the same
#: two tables the predicates below consult.
NAME_PATTERN = (
    f"[{_class_body(_NAME_START_RANGES)}]"
    f"[{_class_body(_NAME_START_RANGES + _NAME_EXTRA_RANGES)}]*"
)


def _in_ranges(code: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    for lo, hi in ranges:
        if lo <= code <= hi:
            return True
    return False


def is_whitespace(ch: str) -> bool:
    """Return True if *ch* is an XML whitespace character."""
    return ch in WHITESPACE


def is_name_start_char(ch: str) -> bool:
    """Return True if *ch* may begin an XML Name."""
    return _in_ranges(ord(ch), _NAME_START_RANGES)


def is_name_char(ch: str) -> bool:
    """Return True if *ch* may appear inside an XML Name."""
    code = ord(ch)
    return _in_ranges(code, _NAME_START_RANGES) or _in_ranges(
        code, _NAME_EXTRA_RANGES
    )


def is_valid_name(name: str) -> bool:
    """Return True if *name* is a well-formed XML Name."""
    if not name:
        return False
    if not is_name_start_char(name[0]):
        return False
    return all(is_name_char(ch) for ch in name[1:])


def escape_text(text: str) -> str:
    """Escape character data for inclusion in element content."""
    if not any(ch in text for ch in "&<>"):
        return text
    return "".join(_ESCAPE_TEXT.get(ch, ch) for ch in text)


def escape_attribute(text: str) -> str:
    """Escape character data for inclusion in a double-quoted attribute."""
    if not any(ch in text for ch in '&<>"'):
        return text
    return "".join(_ESCAPE_ATTR.get(ch, ch) for ch in text)


def resolve_entity(name: str, line: int = 0, column: int = 0) -> str:
    """Resolve an entity reference body (without ``&``/``;``) to text.

    Handles the five predefined entities plus decimal (``#nnn``) and
    hexadecimal (``#xhh``) character references.
    """
    if name in PREDEFINED_ENTITIES:
        return PREDEFINED_ENTITIES[name]
    if name.startswith("#x") or name.startswith("#X"):
        body, base = name[2:], 16
    elif name.startswith("#"):
        body, base = name[1:], 10
    else:
        raise XmlSyntaxError(f"unknown entity &{name};", line, column)
    try:
        code = int(body, base)
        return chr(code)
    except (ValueError, OverflowError) as exc:
        raise XmlSyntaxError(
            f"bad character reference &{name};", line, column
        ) from exc


def unescape(text: str, line: int = 0, column: int = 0) -> str:
    """Replace entity and character references in *text* with characters."""
    out: list[str] = []
    done = 0
    while True:
        amp = text.find("&", done)
        if amp == -1:
            break
        end = text.find(";", amp + 1)
        if end == -1:
            raise XmlSyntaxError("unterminated entity reference", line, column)
        out.append(text[done:amp])
        out.append(resolve_entity(text[amp + 1 : end], line, column))
        done = end + 1
    if not done:
        return text
    out.append(text[done:])
    return "".join(out)
