"""The paper's contribution: order encodings, shredding, translation,
reconstruction, and ordered updates."""

from repro.core.dewey import DeweyKey
from repro.core.encodings import (
    ENCODINGS,
    DeweyEncoding,
    GlobalEncoding,
    LocalEncoding,
    OrderEncoding,
    get_encoding,
)
from repro.core.shredder import (
    ShreddedAttribute,
    ShreddedDocument,
    ShreddedNode,
    shred,
    shred_text,
)
from repro.core.translator import TranslatedQuery, make_translator
from repro.core.updates import UpdateManager, UpdateReport

__all__ = [
    "DeweyEncoding",
    "DeweyKey",
    "ENCODINGS",
    "GlobalEncoding",
    "LocalEncoding",
    "OrderEncoding",
    "ShreddedAttribute",
    "ShreddedDocument",
    "ShreddedNode",
    "TranslatedQuery",
    "UpdateManager",
    "UpdateReport",
    "get_encoding",
    "make_translator",
    "shred",
    "shred_text",
]
