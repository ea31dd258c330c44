"""ORDPATH keys: Dewey-style order labels that never require relabeling.

The paper's Dewey encoding must relabel the following siblings' subtrees
when a gap between sibling labels is exhausted.  The follow-up technique
the paper's discussion anticipates — published as ORDPATH (O'Neil et al.,
SIGMOD 2004) and adopted by Microsoft SQL Server — removes relabeling
entirely:

* at load time children receive *odd* labels 1, 3, 5, …;
* an insertion between two siblings that have no free odd label in
  between extends the key with a *caret*: an even component that does
  not terminate a level, followed by further components ending in an odd
  one.  Between ``5`` and ``7`` one can insert ``6.1``, then ``6.3``,
  then between those ``6.2.1`` … — forever, without touching any
  existing key;
* components may be negative, so there is also always room before the
  first and after the last sibling.

Order is plain component-wise comparison; ancestry is still a key-prefix
test (a child's key extends its parent's by one *level* — one maximal
run of even components closed by an odd one).

The binary codec here encodes each component as 4 big-endian bytes of
``component + 2**31``, which is order-preserving across signs and keeps
the prefix property (fixed width means byte prefixes are exactly
component prefixes).  It trades a little space against Dewey's
variable-length codec — experiment E11 quantifies both sides.
"""

from __future__ import annotations

import struct
from functools import total_ordering
from typing import Iterable, Optional, Sequence

from repro.errors import EncodingError

_BIAS = 1 << 31
_COMPONENT = struct.Struct(">I")
_MIN = -_BIAS
_MAX = _BIAS - 1


def encode_signed_component(value: int) -> bytes:
    """Encode one signed component as 4 order-preserving bytes."""
    if not _MIN <= value <= _MAX:
        raise EncodingError(f"ORDPATH component {value} out of range")
    return _COMPONENT.pack(value + _BIAS)


def decode_signed_components(data: bytes) -> tuple[int, ...]:
    """Decode a byte string back into signed components."""
    if len(data) % 4:
        raise EncodingError("truncated ORDPATH key")
    return tuple(
        _COMPONENT.unpack_from(data, offset)[0] - _BIAS
        for offset in range(0, len(data), 4)
    )


def is_valid_suffix(components: Sequence[int]) -> bool:
    """A level suffix is non-empty and ends with an odd component."""
    return bool(components) and components[-1] % 2 != 0


@total_ordering
class OrdpathKey:
    """An immutable ORDPATH key (component tuple, odd-terminated)."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[int]) -> None:
        comps = tuple(int(c) for c in components)
        if comps and comps[-1] % 2 == 0:
            raise EncodingError(
                f"ORDPATH key must end with an odd component: {comps}"
            )
        object.__setattr__(self, "components", comps)

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "OrdpathKey":
        if not text:
            return cls(())
        try:
            return cls(int(part) for part in text.split("."))
        except ValueError as exc:
            raise EncodingError(f"bad ORDPATH text {text!r}") from exc

    @classmethod
    def decode(cls, data: bytes) -> "OrdpathKey":
        return cls(decode_signed_components(data))

    @classmethod
    def initial_child(cls, parent: "OrdpathKey", index: int,
                      gap: int = 1) -> "OrdpathKey":
        """The load-time key of the *index*-th (1-based) child.

        Children get odd slots ``2*gap*i - 1`` so a ``gap`` of g leaves
        g-1 free odd labels between adjacent siblings before careting is
        needed (carets make even that unnecessary, but staying on short
        keys is cheaper).
        """
        return cls((*parent.components, 2 * gap * index - 1))

    # -- structure ----------------------------------------------------------

    def levels(self) -> list[tuple[int, ...]]:
        """Split components into levels (even runs closed by an odd)."""
        levels: list[tuple[int, ...]] = []
        current: list[int] = []
        for component in self.components:
            current.append(component)
            if component % 2 != 0:
                levels.append(tuple(current))
                current = []
        if current:
            raise EncodingError(f"dangling caret in {self}")
        return levels

    def depth(self) -> int:
        """Number of levels (top-level nodes have depth 1)."""
        return len(self.levels())

    def parent(self) -> Optional["OrdpathKey"]:
        """Drop the last level; ``None`` for a top-level key."""
        levels = self.levels()
        if len(levels) <= 1:
            return None
        out: list[int] = []
        for level in levels[:-1]:
            out.extend(level)
        return OrdpathKey(out)

    def suffix_after(self, ancestor: "OrdpathKey") -> tuple[int, ...]:
        """The components of this key beyond *ancestor*'s prefix."""
        k = len(ancestor.components)
        if self.components[:k] != ancestor.components:
            raise EncodingError(f"{ancestor} is not a prefix of {self}")
        return self.components[k:]

    def is_ancestor_of(self, other: "OrdpathKey") -> bool:
        k = len(self.components)
        return (
            k < len(other.components)
            and other.components[:k] == self.components
        )

    def subtree_successor(self) -> tuple[int, ...]:
        """Component tuple bounding this node's subtree from above.

        Every key strictly between this key and the successor (in
        component/byte order) starts with this key's components, i.e. is
        a descendant.  Incrementing the last component by one (making it
        even) gives the tight bound; it is not itself a valid key, only
        a range endpoint.
        """
        return (*self.components[:-1], self.components[-1] + 1)

    # -- encoding ---------------------------------------------------------------

    def encode(self) -> bytes:
        return b"".join(
            encode_signed_component(c) for c in self.components
        )

    def encode_successor(self) -> bytes:
        return b"".join(
            encode_signed_component(c) for c in self.subtree_successor()
        )

    def __bytes__(self) -> bytes:
        return self.encode()

    # -- dunder --------------------------------------------------------------------

    def __str__(self) -> str:
        return ".".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"OrdpathKey({self})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrdpathKey)
            and self.components == other.components
        )

    def __lt__(self, other: "OrdpathKey") -> bool:
        if not isinstance(other, OrdpathKey):
            return NotImplemented
        return self.components < other.components

    def __hash__(self) -> int:
        return hash(("ordpath", self.components))

    def __len__(self) -> int:
        return len(self.components)


# -- SQL scalar helpers (registered on both backends) -------------------


def ordpath_successor_bytes(data: bytes) -> bytes:
    """SQL scalar: binary upper bound of the node's subtree range."""
    return OrdpathKey.decode(data).encode_successor()


def ordpath_parent_bytes(data: bytes) -> Optional[bytes]:
    """SQL scalar: binary key of the parent, or NULL for top level."""
    parent = OrdpathKey.decode(data).parent()
    return parent.encode() if parent is not None else None


def suffix_between(
    left: Optional[Sequence[int]], right: Optional[Sequence[int]]
) -> tuple[int, ...]:
    """A level suffix strictly between two sibling suffixes.

    ``left``/``right`` are the component suffixes (relative to the
    shared parent) of the siblings surrounding the insertion point;
    ``None`` means open-ended.  The result:

    * compares strictly between the two in component order,
    * ends with an odd component (a well-formed level),
    * is never a prefix of either neighbour, nor prefixed by one —
      no existing key needs to change, ever.
    """
    if left is not None and not is_valid_suffix(left):
        raise EncodingError(f"invalid left suffix {left!r}")
    if right is not None and not is_valid_suffix(right):
        raise EncodingError(f"invalid right suffix {right!r}")
    result = _between(tuple(left) if left is not None else None,
                      tuple(right) if right is not None else None)
    assert is_valid_suffix(result)
    return result


def _between(
    left: Optional[tuple[int, ...]], right: Optional[tuple[int, ...]]
) -> tuple[int, ...]:
    if left == () or right == ():
        # Only reachable if one neighbour's suffix were a prefix of the
        # other's, which the tree invariant (sibling keys are mutually
        # non-prefix) rules out.
        raise EncodingError("sibling suffixes must not be prefixes")
    if left is None and right is None:
        return (1,)
    if left is None:
        first = right[0]  # type: ignore[index]
        # Largest odd strictly below the right neighbour's first slot.
        candidate = first - 1 if (first - 1) % 2 != 0 else first - 2
        return (candidate,)
    if right is None:
        first = left[0]
        candidate = first + 1 if (first + 1) % 2 != 0 else first + 2
        return (candidate,)

    l0, r0 = left[0], right[0]
    if l0 == r0:
        # Siblings are never prefixes of one another, so both extend.
        return (l0, *_between(left[1:], right[1:]))
    # l0 < r0: look for a free odd slot strictly between.
    candidate = l0 + 1 if (l0 + 1) % 2 != 0 else l0 + 2
    if candidate < r0:
        return (candidate,)
    if r0 - l0 >= 2:
        # Only an even value fits (e.g. between odd 5 and odd 7): open
        # a caret there — the classic ORDPATH move.
        return (l0 + 1, 1)
    # r0 == l0 + 1: adjacent slots.  Extend under the left key's own
    # remainder when it has one; otherwise descend along the right
    # neighbour (whose first component is even, so it must continue).
    if len(left) > 1:
        return (l0, *_between(left[1:], None))
    return (r0, *_between(None, right[1:]))
