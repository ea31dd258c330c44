"""XPath -> SQL translators: one for the ranged encodings (Global,
Dewey and ORDPATH), whose axes compare subtree ranges, and Local's,
which walks the parent pointers for the closure axes."""

from repro.core.encodings import get_encoding
from repro.core.relalg import CompiledPlan
from repro.core.translator.base import (
    NODE_PROJECTION,
    NormStep,
    SqlTranslator,
    TranslatedQuery,
    normalize_steps,
)
from repro.core.translator.shape import extract_shape
from repro.core.translator.local_sql import LocalSqlTranslator

_TRANSLATORS = {
    "global": SqlTranslator,
    "local": LocalSqlTranslator,
    "dewey": SqlTranslator,
    "ordpath": SqlTranslator,
}


def make_translator(encoding: str) -> SqlTranslator:
    """Create the translator for an encoding name."""
    enc = get_encoding(encoding)
    return _TRANSLATORS[enc.name](enc)


__all__ = [
    "NODE_PROJECTION",
    "CompiledPlan",
    "NormStep",
    "SqlTranslator",
    "TranslatedQuery",
    "extract_shape",
    "LocalSqlTranslator",
    "make_translator",
    "normalize_steps",
]
