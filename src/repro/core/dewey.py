"""Dewey order keys and their order-preserving binary codec.

A Dewey key identifies a node by the path of 1-based sibling positions from
the document root, e.g. ``1.2.3`` is the third child of the second child of
the first (root) node.  Two properties make Dewey the paper's balanced
encoding:

* **order**: component-wise comparison of Dewey keys equals document order
  (an ancestor sorts immediately before its subtree);
* **ancestry**: the ancestors of a node are exactly the proper prefixes of
  its key, so parent/ancestor relationships are computed from the key alone
  with no joins.

The binary codec maps a key to a byte string such that *bytewise* (memcmp)
comparison of encoded keys equals component-wise key comparison.  Each
component is encoded in a UTF-8-style variable-length scheme whose
first-byte ranges are disjoint and increasing with length, so longer
encodings of larger values still compare correctly byte-by-byte.  This is
what lets a relational B-tree index on a BLOB column answer document-order
and subtree-range queries directly.

Component ranges (values are biased so every length has a dense range):

===========  ==================  ==========================
bytes        first byte          component range
===========  ==================  ==========================
1            ``0x00-0x7F``       0 .. 127
2            ``0x80-0xBF``       128 .. 16,511
3            ``0xC0-0xDF``       16,512 .. 2,113,663
4            ``0xE0-0xEF``       2,113,664 .. 270,549,119
===========  ==================  ==========================
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Optional

from repro.errors import EncodingError

_ONE_BYTE_MAX = 0x7F
_TWO_BYTE_MAX = _ONE_BYTE_MAX + (1 << 14)  # 16511
_THREE_BYTE_MAX = _TWO_BYTE_MAX + (1 << 21)  # 2113663
_FOUR_BYTE_MAX = _THREE_BYTE_MAX + (1 << 28)  # 270549119


def encode_component(value: int) -> bytes:
    """Encode one non-negative component as order-preserving bytes."""
    if value < 0:
        raise EncodingError(f"Dewey component must be >= 0, got {value}")
    if value <= _ONE_BYTE_MAX:
        return bytes((value,))
    if value <= _TWO_BYTE_MAX:
        biased = value - (_ONE_BYTE_MAX + 1)
        return bytes((0x80 | (biased >> 8), biased & 0xFF))
    if value <= _THREE_BYTE_MAX:
        biased = value - (_TWO_BYTE_MAX + 1)
        return bytes(
            (0xC0 | (biased >> 16), (biased >> 8) & 0xFF, biased & 0xFF)
        )
    if value <= _FOUR_BYTE_MAX:
        biased = value - (_THREE_BYTE_MAX + 1)
        return bytes(
            (
                0xE0 | (biased >> 24),
                (biased >> 16) & 0xFF,
                (biased >> 8) & 0xFF,
                biased & 0xFF,
            )
        )
    raise EncodingError(f"Dewey component {value} exceeds codec range")


def _component_length(first_byte: int) -> int:
    if first_byte < 0x80:
        return 1
    if first_byte < 0xC0:
        return 2
    if first_byte < 0xE0:
        return 3
    if first_byte < 0xF0:
        return 4
    raise EncodingError(f"invalid Dewey lead byte {first_byte:#x}")


def decode_components(data: bytes) -> tuple[int, ...]:
    """Decode a byte string back into the component tuple."""
    components: list[int] = []
    i = 0
    n = len(data)
    while i < n:
        length = _component_length(data[i])
        if i + length > n:
            raise EncodingError("truncated Dewey key")
        chunk = data[i : i + length]
        if length == 1:
            value = chunk[0]
        elif length == 2:
            value = ((chunk[0] & 0x3F) << 8 | chunk[1]) + _ONE_BYTE_MAX + 1
        elif length == 3:
            value = (
                (chunk[0] & 0x1F) << 16 | chunk[1] << 8 | chunk[2]
            ) + _TWO_BYTE_MAX + 1
        else:
            value = (
                (chunk[0] & 0x0F) << 24
                | chunk[1] << 16
                | chunk[2] << 8
                | chunk[3]
            ) + _THREE_BYTE_MAX + 1
        components.append(value)
        i += length
    return tuple(components)


@total_ordering
class DeweyKey:
    """An immutable Dewey key.

    Comparison is component-wise (document order).  ``bytes(key)`` returns
    the order-preserving binary encoding.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[int]) -> None:
        comps = tuple(int(c) for c in components)
        for c in comps:
            if c < 0:
                raise EncodingError(f"negative Dewey component in {comps}")
        object.__setattr__(self, "components", comps)

    # -- construction ------------------------------------------------------

    @classmethod
    def root(cls, position: int = 1) -> "DeweyKey":
        """The key of the document's *position*-th top-level node."""
        return cls((position,))

    @classmethod
    def parse(cls, text: str) -> "DeweyKey":
        """Parse dotted-decimal form, e.g. ``"1.2.3"``."""
        if not text:
            return cls(())
        try:
            return cls(int(part) for part in text.split("."))
        except ValueError as exc:
            raise EncodingError(f"bad Dewey key text {text!r}") from exc

    @classmethod
    def decode(cls, data: bytes) -> "DeweyKey":
        """Decode the binary codec form."""
        return cls(decode_components(data))

    # -- algebra -------------------------------------------------------------

    def child(self, position: int) -> "DeweyKey":
        """Key of this node's child at sibling position *position*."""
        return DeweyKey((*self.components, position))

    def parent(self) -> Optional["DeweyKey"]:
        """Key of the parent, or ``None`` for a top-level node."""
        if len(self.components) <= 1:
            return None
        return DeweyKey(self.components[:-1])

    def ancestors(self) -> Iterator["DeweyKey"]:
        """Yield every proper-prefix (ancestor) key, nearest first."""
        for length in range(len(self.components) - 1, 0, -1):
            yield DeweyKey(self.components[:length])

    def local_position(self) -> int:
        """The last component: the node's (possibly gapped) sibling slot."""
        if not self.components:
            raise EncodingError("the empty key has no local position")
        return self.components[-1]

    def with_local_position(self, position: int) -> "DeweyKey":
        """Replace the last component."""
        return DeweyKey((*self.components[:-1], position))

    def is_ancestor_of(self, other: "DeweyKey") -> bool:
        """True if *self* is a proper prefix of *other*."""
        k = len(self.components)
        return k < len(other.components) and other.components[:k] == self.components

    def sibling_successor(self) -> "DeweyKey":
        """The key position immediately after this node's entire subtree.

        Every key ``k`` with ``self < k < self.sibling_successor()`` (in
        key order) lies inside this node's subtree; this is the upper bound
        used by relational range scans over the binary codec.
        """
        return self.with_local_position(self.local_position() + 1)

    def depth(self) -> int:
        """Number of components (top-level nodes have depth 1)."""
        return len(self.components)

    # -- encoding --------------------------------------------------------------

    def encode(self) -> bytes:
        """Order-preserving binary form (see module docstring)."""
        return b"".join(encode_component(c) for c in self.components)

    def __bytes__(self) -> bytes:
        return self.encode()

    # -- dunder ------------------------------------------------------------------

    def __str__(self) -> str:
        return ".".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"DeweyKey({self})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeweyKey) and self.components == other.components
        )

    def __lt__(self, other: "DeweyKey") -> bool:
        if not isinstance(other, DeweyKey):
            return NotImplemented
        return self.components < other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __len__(self) -> int:
        return len(self.components)


# -- helpers used by the SQL layer (registered as scalar functions) -----------


def _last_component_start(data: bytes) -> int:
    """Offset of the last component of *data*, found by its lead bytes
    (0 for an empty key).  The codec is a bijection, so every valid key
    is canonical and its prefixes are its ancestors' keys as they are."""
    start = end = 0
    while end < len(data):
        start = end
        end += _component_length(data[end])
    if end > len(data):
        raise EncodingError("truncated Dewey key")
    return start


def dewey_parent_bytes(data: bytes) -> Optional[bytes]:
    """SQL scalar: binary key of the parent, or ``None`` for top level.

    Works on the bytes, as :func:`dewey_shift` does: the parent's key
    is the key without its last component."""
    start = _last_component_start(data)
    return data[:start] if start else None


def dewey_successor_bytes(data: bytes) -> bytes:
    """SQL scalar: binary upper bound of the node's subtree range: the
    key with its last component moved up by one."""
    if not data:
        raise EncodingError("the empty key has no local position")
    start = _last_component_start(data)
    (value,) = decode_components(data[start:])
    return data[:start] + encode_component(value + 1)


def dewey_shift(data: bytes, level: int, delta: int) -> bytes:
    """SQL scalar: *data* with component *level* (0-based) moved by
    *delta* — how every key of a subtree follows its root to another
    sibling slot, evaluated by the engine inside one ``UPDATE``.

    Works on the bytes: the components before *level* are skipped by
    their lead bytes, the one component is re-encoded (it may change
    width), and the descendants' suffix is spliced back untouched.
    """
    start = 0
    for _ in range(level):
        if start >= len(data):
            break
        start += _component_length(data[start])
    if start >= len(data):
        raise EncodingError(
            f"Dewey key of {len(data)} bytes has no component {level}"
        )
    end = start + _component_length(data[start])
    (value,) = decode_components(data[start:end])
    return data[:start] + encode_component(value + delta) + data[end:]
