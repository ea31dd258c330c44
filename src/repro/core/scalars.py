"""The scalar SQL functions translated plans may call, declared once.

Both engines register every entry — ``connect_sqlite`` on each
connection, :class:`~repro.minidb.MiniDb` at construction — so a
function the translator emits exists wherever the SQL text runs.
"""

from __future__ import annotations

from repro.core.dewey import (
    dewey_parent_bytes,
    dewey_shift,
    dewey_successor_bytes,
)
from repro.core.numeric import xpath_number_value
from repro.core.ordpath import ordpath_parent_bytes, ordpath_successor_bytes
from repro.core.pathmatch import path_match


def lpos_key(lpos: int) -> str:
    """One sibling position as fixed-width text.

    Concatenated root-down, the pieces compare as text the way the
    positions compare level by level — document order for the Local
    encoding, which stores no key of its own (a position is positive
    and fits 64 bits).
    """
    return f"{lpos:016x}"


#: ``(name, arity, function)``; every function is deterministic.
SCALAR_FUNCTIONS = (
    ("dewey_parent", 1, dewey_parent_bytes),
    ("dewey_successor", 1, dewey_successor_bytes),
    ("dewey_shift", 3, dewey_shift),
    ("ordpath_parent", 1, ordpath_parent_bytes),
    ("ordpath_successor", 1, ordpath_successor_bytes),
    ("xpath_number", 1, xpath_number_value),
    ("path_match", 2, path_match),
    ("lpos_key", 1, lpos_key),
)
