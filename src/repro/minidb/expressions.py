"""Scalar functions, aggregates, and operator semantics for minidb.

The built-in scalars are the three the translations call (``substr``,
``instr`` and ``coalesce``); the
aggregates are MIN, MAX and GROUP_CONCAT (COUNT(*) is its own node).
The engine adds the key helpers of :mod:`repro.core.scalars`
(``dewey_parent``, ``dewey_successor`` and the rest) on top, exactly as
the sqlite3 backend registers them — keeping the SQL dialect identical
across backends.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ExecutionError
from repro.minidb.values import SqlValue, sort_key


# -- scalar built-ins ----------------------------------------------------


def _fn_substr(
    value: SqlValue, start: SqlValue, length: SqlValue = None
) -> Optional[str]:
    if value is None or start is None:
        return None
    text = value if isinstance(value, str) else str(value)
    begin = int(start)
    # SQL substr is 1-based; 0/negative starts follow SQLite's convention
    # closely enough for our use (translations always pass start >= 1).
    index = begin - 1 if begin > 0 else 0
    if length is None:
        return text[index:]
    return text[index : index + int(length)]


def _fn_instr(haystack: SqlValue, needle: SqlValue) -> Optional[int]:
    if haystack is None or needle is None:
        return None
    hay = haystack if isinstance(haystack, str) else str(haystack)
    sub = needle if isinstance(needle, str) else str(needle)
    return hay.find(sub) + 1


def _fn_coalesce(*args: SqlValue) -> SqlValue:
    for arg in args:
        if arg is not None:
            return arg
    return None


#: Built-in scalar functions (name -> callable).
BUILTIN_SCALARS: dict[str, Callable[..., SqlValue]] = {
    "substr": _fn_substr,
    "instr": _fn_instr,
    "coalesce": _fn_coalesce,
}


# -- aggregates --------------------------------------------------------------


#: Aggregate names as they appear in parsed FunctionExpr nodes.
AGGREGATE_NAMES = frozenset({"min", "max", "group_concat"})


def aggregate(name: str, values: list, separator: str) -> SqlValue:
    """MIN, MAX or GROUP_CONCAT of the non-NULL *values*, NULL when
    there are none.  Like SQLite, GROUP_CONCAT joins in arrival order."""
    if not values:
        return None
    if name == "min":
        return min(values, key=sort_key)
    if name == "max":
        return max(values, key=sort_key)
    return separator.join(
        v if isinstance(v, str) else _stringify(v) for v in values
    )


# -- arithmetic -----------------------------------------------------------------


def arithmetic(op: str, left: SqlValue, right: SqlValue) -> SqlValue:
    """``+`` and ``||`` concatenation, with NULL propagation."""
    if left is None or right is None:
        return None
    if op == "||":
        lt = left if isinstance(left, str) else _stringify(left)
        rt = right if isinstance(right, str) else _stringify(right)
        return lt + rt
    if not isinstance(left, (int, float)) or not isinstance(
        right, (int, float)
    ):
        raise ExecutionError(
            f"arithmetic {op} on non-numeric values {left!r}, {right!r}"
        )
    return left + right


def _stringify(value: SqlValue) -> str:
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    return str(value)
