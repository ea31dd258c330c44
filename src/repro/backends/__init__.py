"""Storage backends: sqlite3 (in memory or on a file) and the
from-scratch minidb engine."""

from typing import Optional

from repro.backends.base import Backend, BackendResult
from repro.backends.minidb_backend import MiniDbBackend
from repro.backends.sqlite_backend import SqliteBackend


def make_backend(name: str, path: Optional[str] = None) -> Backend:
    """Create a backend by name.

    ``"sqlite"`` — in memory, or on the file *path* (see
    :class:`SqliteBackend` for how each shares its connections);
    ``"minidb"`` — the from-scratch engine (in memory; *path* ignored).
    """
    if name == "sqlite":
        return SqliteBackend(path)
    if name == "minidb":
        return MiniDbBackend()
    raise ValueError(f"unknown backend {name!r}")


__all__ = [
    "Backend",
    "BackendResult",
    "MiniDbBackend",
    "SqliteBackend",
    "make_backend",
]
