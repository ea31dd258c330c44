"""XPath number() semantics for SQL scalar functions.

Translated value predicates must compare numbers the way the XPath
data model does, not the way SQL ``CAST`` does: ``CAST('t11' AS REAL)``
is ``0.0``, while XPath ``number('t11')`` is NaN — and every comparison
against NaN is false.  Both backends therefore register
:func:`xpath_number_value` as the scalar function ``xpath_number`` and
the translators wrap it around the non-literal side of every numeric
comparison.

NaN itself cannot round-trip through the engines (sqlite stores float
NaN as NULL anyway), so the function returns ``None`` for non-numeric
input.  SQL's NULL comparison semantics — ``NULL < 25`` is not true —
then coincide exactly with XPath's NaN semantics.
"""

from __future__ import annotations

import math
from typing import Optional, Union

SqlScalar = Union[None, int, float, str, bytes]

#: The ASCII characters a text ``float()`` accepts can start with, once
#: stripped: signs, digits, the point and the first letters of ``inf``,
#: ``infinity`` and ``nan``.
_NUMBER_STARTS = frozenset("+-.0123456789iInN")


def xpath_number_value(value: SqlScalar) -> Optional[float]:
    """``number(value)`` with NaN (and NULL) mapped to SQL NULL.

    Mirrors :func:`repro.xpath.evaluator.to_number` for the scalar
    types that can appear in a value column; the differential fuzzer
    holds the two in lockstep.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, (bytes, bytearray)):
        return None  # BLOBs (Dewey keys) are never numbers
    else:
        text = str(value).strip()
        # float() copies a text it rejects into its ValueError, which
        # costs as much as the text is long.  An ASCII first character
        # no number starts with rejects it for nothing; a non-ASCII one
        # may be a digit float() reads ('١٢').
        if text and text[0] < "\x80" and text[0] not in _NUMBER_STARTS:
            return None
        try:
            number = float(text)
        except ValueError:
            return None
    return None if math.isnan(number) else number
