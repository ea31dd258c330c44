"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can install a single ``except`` clause around any use of the public
API.  Sub-hierarchies mirror the subsystems: the XML substrate, the XPath
substrate, the relational engine, and the ordered-storage core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class XmlError(ReproError):
    """Base class for errors in the XML substrate (:mod:`repro.xmldom`)."""


class XmlSyntaxError(XmlError):
    """Malformed XML input.

    Attributes
    ----------
    line, column:
        1-based position of the offending character in the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XPathError(ReproError):
    """Base class for errors in the XPath substrate (:mod:`repro.xpath`)."""


class XPathSyntaxError(XPathError):
    """Malformed XPath expression."""

    def __init__(self, message: str, position: int = 0) -> None:
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class UnsupportedXPathError(XPathError):
    """Syntactically valid XPath outside the supported fragment."""


class DatabaseError(ReproError):
    """Base class for errors raised by the relational substrate."""


class SqlSyntaxError(DatabaseError):
    """Malformed SQL text handed to the minidb engine."""

    def __init__(self, message: str, position: int = 0) -> None:
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class CatalogError(DatabaseError):
    """Unknown or duplicate table/column/index names."""


class ExecutionError(DatabaseError):
    """Runtime failure while executing a statement (type errors etc.)."""


class StorageError(ReproError):
    """Base class for errors in the ordered-XML storage core."""


class EncodingError(StorageError):
    """Invalid order-encoding operation (e.g. exhausted key space)."""


class UpdateError(StorageError):
    """Invalid update request (e.g. inserting at a nonexistent position)."""


class TranslationError(StorageError):
    """XPath query that cannot be translated to SQL for an encoding."""


class MigrationError(StorageError):
    """An encoding migration refused or failed (the target's tables
    cannot be created, the stored rows do not match the catalogue); the
    document is as it was."""
