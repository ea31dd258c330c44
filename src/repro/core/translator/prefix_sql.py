"""Prefix-key translation (Dewey and ORDPATH): axes are byte-range tests.

Both binary codecs make document order bytewise key order, a node's
subtree the half-open key range ``(key, successor(key))``, and ancestry
a prefix test — so every ordered axis becomes one or two comparisons on
a single indexed BLOB column, plus the encoding's two scalar helpers
(``dewey_parent``/``dewey_successor`` or their ``ordpath_*`` twins) that
both backends register.  The key column and the scalar names come from
the :class:`~repro.core.encodings.PrefixKeyEncoding`; nothing else
differs between the two.
"""

from __future__ import annotations

from repro.core.encodings import PrefixKeyEncoding
from repro.core.relalg import And, Cmp, Col, Func, RelExpr
from repro.core.translator.base import SqlTranslator, _Translation
from repro.errors import TranslationError


class PrefixKeySqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_dewey`` / ``node_ordpath``."""

    encoding: PrefixKeyEncoding

    def _key(self, alias: str) -> Col:
        return Col(alias, self.encoding.key_column)

    def _succ(self, alias: str) -> Func:
        return Func(self.encoding.successor_function, (self._key(alias),))

    def node_axis_condition(
        self, axis: str, ctx: str, cand: str, t: _Translation
    ) -> RelExpr:
        key, succ = self._key, self._succ
        if axis == "child":
            # Derivable from the key alone: the candidate's key is one
            # component longer inside the context's subtree.  The parent
            # id join is equivalent and index-friendly on both backends.
            return Cmp("=", Col(cand, "parent"), Col(ctx, "id"))
        if axis == "descendant":
            return And((
                Cmp(">", key(cand), key(ctx)),
                Cmp("<", key(cand), succ(ctx)),
            ))
        if axis == "descendant-or-self":
            return And((
                Cmp(">=", key(cand), key(ctx)),
                Cmp("<", key(cand), succ(ctx)),
            ))
        if axis == "self":
            return Cmp("=", key(cand), key(ctx))
        if axis == "parent":
            # The parent's key is a prefix of the context's key — the
            # paper's headline property: no join through parent pointers.
            parent = Func(self.encoding.parent_function, (key(ctx),))
            return Cmp("=", key(cand), parent)
        if axis == "ancestor":
            return And((
                Cmp("<", key(cand), key(ctx)),
                Cmp(">", succ(cand), key(ctx)),
            ))
        if axis == "ancestor-or-self":
            return And((
                Cmp("<=", key(cand), key(ctx)),
                Cmp(">", succ(cand), key(ctx)),
            ))
        if axis == "following-sibling":
            return And((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp(">", key(cand), key(ctx)),
            ))
        if axis == "preceding-sibling":
            return And((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp("<", key(cand), key(ctx)),
            ))
        if axis == "following":
            # Everything at or past the subtree's upper bound comes after
            # the context in document order and is not a descendant.
            return Cmp(">=", key(cand), succ(ctx))
        if axis == "preceding":
            # Before the context in key order, excluding ancestors
            # (whose subtree range still contains the context).
            return And((
                Cmp("<", key(cand), key(ctx)),
                Cmp("<=", succ(cand), key(ctx)),
            ))
        raise TranslationError(
            f"axis {axis!r} not supported ({self.encoding.name})"
        )
