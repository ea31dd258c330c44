"""SQL value model for the minidb engine.

Values are plain Python objects: ``None`` (SQL NULL), ``int``/``float``
(NUMERIC), ``str`` (TEXT), ``bytes`` (BLOB).  Booleans appear transiently
during expression evaluation (with ``None`` standing for UNKNOWN in the
three-valued logic) and are stored as integers.

Two orderings exist on purpose:

* :func:`compare` — *strict* comparison used by ``WHERE`` predicates.
  Comparing NULL with anything yields UNKNOWN (``None``); comparing
  incompatible types (e.g. TEXT with BLOB) raises, which surfaces
  translation bugs instead of silently mis-sorting.
* :func:`sort_key` — a *total* order used by B-trees and ``ORDER BY``:
  NULL < numbers < text < blobs, mirroring SQLite's type ordering, so
  indexes can store heterogeneous columns (e.g. ``tag`` is NULL for text
  nodes).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.errors import ExecutionError

SqlValue = Union[None, int, float, str, bytes]

#: Type-class ranks for the total order.
_RANK_NULL = 0
_RANK_NUMBER = 1
_RANK_TEXT = 2
_RANK_BLOB = 3

#: Ranks of the exact types values arrive as, so the hot paths rank a
#: value with one dict lookup; subclasses go through :func:`type_rank`.
_TYPE_RANKS = {
    type(None): _RANK_NULL,
    bool: _RANK_NUMBER,
    int: _RANK_NUMBER,
    float: _RANK_NUMBER,
    str: _RANK_TEXT,
    bytes: _RANK_BLOB,
}


class _NullKey:
    """The NULL of an index probe's key.

    ``col IS NULL`` reads the rows whose key holds NULL, where
    ``col = NULL`` matches none (an equality probe with a ``None``
    value reads nothing); this stands for NULL in the first, and sorts
    where NULL sorts."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NULL_KEY"


NULL_KEY = _NullKey()
_TYPE_RANKS[_NullKey] = _RANK_NULL


def type_rank(value: SqlValue) -> int:
    """Return the type-class rank of *value* in the total order."""
    rank = _TYPE_RANKS.get(type(value))
    if rank is not None:
        return rank
    if isinstance(value, (int, float)):
        return _RANK_NUMBER
    if isinstance(value, str):
        return _RANK_TEXT
    if isinstance(value, bytes):
        return _RANK_BLOB
    raise ExecutionError(f"unsupported SQL value {value!r}")


def sort_key(value: SqlValue) -> tuple:
    """Total-order key over all SQL values (used by indexes/ORDER BY)."""
    rank = _TYPE_RANKS.get(type(value))
    if rank is None:
        rank = type_rank(value)
    if rank == _RANK_NUMBER:
        return (rank, float(value))  # type: ignore[arg-type]
    if rank == _RANK_NULL:
        return (rank, 0)
    return (rank, value)


def row_sort_key(values: tuple) -> tuple:
    """Total-order key over a tuple of SQL values."""
    return tuple(map(sort_key, values))


#: Key components that bound a column inside a total-order key without
#: naming a value: every non-NULL ``sort_key`` sorts at or after
#: :data:`FIRST_NON_NULL` (a shorter tuple sorts before its extensions),
#: every ``sort_key`` before :data:`AFTER_EVERY_VALUE`.  So ``(*prefix,
#: AFTER_EVERY_VALUE)`` ends the keys that start with ``prefix``.
FIRST_NON_NULL = (_RANK_NUMBER,)
AFTER_EVERY_VALUE = (_RANK_BLOB + 1,)


#: Exact types on which :func:`compare` agrees with Python's own
#: operators, so a comparison of two values of one of them may skip it.
#: Not ``float``: ``compare`` calls NaN equal to everything.
NATIVE_ORDER_TYPES = frozenset({int, str, bytes})


def compare(left: SqlValue, right: SqlValue) -> Optional[int]:
    """Strict three-valued comparison.

    Returns -1/0/1, or ``None`` (UNKNOWN) when either side is NULL.
    Raises :class:`ExecutionError` for cross-type comparisons other than
    int/float.
    """
    if left is None or right is None:
        return None
    if type_rank(left) != type_rank(right):
        raise ExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    if left < right:  # type: ignore[operator]
        return -1
    if left > right:  # type: ignore[operator]
        return 1
    return 0


def is_true(value: Any) -> bool:
    """Collapse three-valued logic to WHERE semantics (UNKNOWN = false)."""
    return value is not None and bool(value)


def logical_and(left: Any, right: Any) -> Optional[bool]:
    """Kleene AND over {True, False, None}."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return bool(left) and bool(right)


def logical_or(left: Any, right: Any) -> Optional[bool]:
    """Kleene OR over {True, False, None}."""
    if is_true(left) or is_true(right):
        return True
    if left is None or right is None:
        return None
    return False


def logical_not(value: Any) -> Optional[bool]:
    """Kleene NOT over {True, False, None}."""
    if value is None:
        return None
    return not value
