"""XPath -> SQL translators: Global, Local, and one for the prefix-key
encodings (Dewey and ORDPATH)."""

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
from repro.core.translator.global_sql import GlobalSqlTranslator
from repro.core.translator.local_sql import LocalSqlTranslator
from repro.core.translator.prefix_sql import PrefixKeySqlTranslator

_TRANSLATORS = {
    "global": GlobalSqlTranslator,
    "local": LocalSqlTranslator,
    "dewey": PrefixKeySqlTranslator,
    "ordpath": PrefixKeySqlTranslator,
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
    "GlobalSqlTranslator",
    "LocalSqlTranslator",
    "PrefixKeySqlTranslator",
    "make_translator",
    "normalize_steps",
]
