"""Scalar functions, aggregates, and operator semantics for minidb.

The function registry starts with the SQL built-ins the translations use
(``length``, ``substr``, ``instr``, ``upper``, ``lower``, ``abs``,
``coalesce``, ``min``/``max`` as aggregates, etc.).  The engine registers
the key helpers (``dewey_parent``, ``dewey_successor`` and their
``ordpath_*`` twins) on top, exactly as the sqlite3 backend registers them
via ``create_function`` — keeping the SQL dialect identical across backends.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Optional

from repro.errors import ExecutionError
from repro.minidb.values import SqlValue, compare, sort_key


# -- scalar built-ins ----------------------------------------------------


def _fn_length(value: SqlValue) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        return len(value)
    return len(str(value))


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


def _fn_upper(value: SqlValue) -> Optional[str]:
    return None if value is None else str(value).upper()


def _fn_lower(value: SqlValue) -> Optional[str]:
    return None if value is None else str(value).lower()


def _fn_abs(value: SqlValue) -> SqlValue:
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise ExecutionError(f"abs() of non-number {value!r}")
    return abs(value)


def _fn_coalesce(*args: SqlValue) -> SqlValue:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_nullif(a: SqlValue, b: SqlValue) -> SqlValue:
    result = None
    try:
        result = compare(a, b)
    except ExecutionError:
        result = 1  # different types are never equal
    return None if result == 0 else a


def _fn_typeof(value: SqlValue) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "text"
    return "blob"


#: Default scalar function registry (name -> callable).
BUILTIN_SCALARS: dict[str, Callable[..., SqlValue]] = {
    "length": _fn_length,
    "substr": _fn_substr,
    "instr": _fn_instr,
    "upper": _fn_upper,
    "lower": _fn_lower,
    "abs": _fn_abs,
    "coalesce": _fn_coalesce,
    "nullif": _fn_nullif,
    "typeof": _fn_typeof,
}


# -- aggregates --------------------------------------------------------------


class Aggregate:
    """Incremental aggregate computation over a group."""

    def __init__(
        self,
        kind: str,
        distinct: bool = False,
        separator: str = ",",
    ) -> None:
        self.kind = kind
        self.distinct = distinct
        self.separator = separator
        self._values: list[SqlValue] = []
        self._seen: set = set()
        self._count = 0

    def add(self, value: SqlValue) -> None:
        if self.kind == "count_star":
            self._count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._values.append(value)

    def result(self) -> SqlValue:
        if self.kind == "count_star":
            return self._count
        if self.kind == "count":
            return len(self._values)
        if not self._values:
            return None
        if self.kind == "sum":
            return sum(self._values)  # type: ignore[arg-type]
        if self.kind == "avg":
            return sum(self._values) / len(self._values)  # type: ignore[arg-type]
        if self.kind == "min":
            return min(self._values, key=sort_key)
        if self.kind == "max":
            return max(self._values, key=sort_key)
        if self.kind == "group_concat":
            # Like SQLite: NULLs skipped (in add()), concatenation in
            # arrival order, NULL when no non-NULL value was seen.
            return self.separator.join(
                v if isinstance(v, str) else _stringify(v)
                for v in self._values
            )
        raise ExecutionError(f"unknown aggregate {self.kind!r}")


#: Aggregate names as they appear in parsed FunctionExpr nodes.
AGGREGATE_NAMES = frozenset(
    {
        "count", "sum", "avg", "min", "max", "count distinct", "total",
        "group_concat",
    }
)


def make_aggregate(
    name: str, star: bool, separator: str = ","
) -> Aggregate:
    """Create an aggregate accumulator for a parsed function name."""
    if name == "count" and star:
        return Aggregate("count_star")
    if name == "count distinct":
        return Aggregate("count", distinct=True)
    if name == "total":
        return Aggregate("sum")
    if name == "group_concat":
        return Aggregate("group_concat", separator=separator)
    return Aggregate(name)


# -- LIKE --------------------------------------------------------------------


_LIKE_CACHE: dict[str, re.Pattern] = {}


def like_match(value: SqlValue, pattern: SqlValue) -> Optional[bool]:
    """SQL LIKE with ``%``/``_`` wildcards, case-insensitive like SQLite."""
    if value is None or pattern is None:
        return None
    text = value if isinstance(value, str) else str(value)
    pat = pattern if isinstance(pattern, str) else str(pattern)
    compiled = _LIKE_CACHE.get(pat)
    if compiled is None:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pat
        )
        compiled = re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)
        if len(_LIKE_CACHE) < 1024:
            _LIKE_CACHE[pat] = compiled
    return compiled.match(text) is not None


# -- arithmetic -----------------------------------------------------------------


def arithmetic(op: str, left: SqlValue, right: SqlValue) -> SqlValue:
    """Numeric arithmetic (and ``||`` concatenation) with NULL propagation."""
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
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQLite yields NULL on division by zero
        if isinstance(left, int) and isinstance(right, int):
            return left // right if left % right == 0 else left / right
        return left / right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _stringify(value: SqlValue) -> str:
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    if isinstance(value, float) and value == int(value):
        return str(value)
    return str(value)


def iterable_to_set(values: Iterable[SqlValue]) -> set:
    """Hashable set of values for IN-list evaluation (NULLs dropped)."""
    return {v for v in values if v is not None}
