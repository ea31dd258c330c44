"""Root-path pattern matching for the path index.

The path index (:mod:`repro.index`) stores each element's root-to-
element path as a string like ``/bib/book/title`` in its ``idx_sval``
row.  An XPath location path made of ``child``/``descendant`` name
steps compiles to a *pattern* over those strings — ``/bib//title``,
``/bib/*/title`` — and both backends register :func:`path_match` as the
scalar SQL function the rewritten access path filters those rows with:

* ``/tag``  — one child step (one path component);
* ``//tag`` — a descendant step (any number of intermediate components);
* ``*``     — a wildcard name test (exactly one component, any tag).

Patterns are translated to anchored regular expressions once and cached.
"""

from __future__ import annotations

import re
from typing import Optional, Union

SqlScalar = Union[None, int, float, str, bytes]

_PATTERN_CACHE: dict[str, re.Pattern] = {}

#: One path component: a tag name (no slashes).
_COMPONENT = "[^/]+"

_STEP = re.compile(r"(//|/)([^/]+)")


def compile_pattern(pattern: str) -> re.Pattern:
    """The anchored regex equivalent of a path-index *pattern*."""
    compiled = _PATTERN_CACHE.get(pattern)
    if compiled is not None:
        return compiled
    pieces = ["^"]
    for separator, name in _STEP.findall(pattern):
        if separator == "//":
            # Descendant: any number of intermediate components.
            pieces.append(f"(?:/{_COMPONENT})*/")
        else:
            pieces.append("/")
        pieces.append(_COMPONENT if name == "*" else re.escape(name))
    pieces.append("$")
    compiled = re.compile("".join(pieces))
    if len(_PATTERN_CACHE) < 1024:
        _PATTERN_CACHE[pattern] = compiled
    return compiled


def path_match(path: SqlScalar, pattern: SqlScalar) -> Optional[bool]:
    """SQL scalar: does stored root *path* match the step *pattern*?

    NULL propagates like every SQL scalar; both backends register this
    under the name ``path_match`` so the rewritten plans stay dialect-
    identical.
    """
    if path is None or pattern is None:
        return None
    text = path if isinstance(path, str) else str(path)
    pat = pattern if isinstance(pattern, str) else str(pattern)
    return compile_pattern(pat).match(text) is not None
