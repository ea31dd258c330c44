"""Global-encoding translation: every axis is an integer comparison.

With ``pos`` (preorder rank) and ``endpos`` (rank of the last descendant)
on each row, subtree containment is interval containment and document
order is plain ``<`` — the reason the paper finds global order fastest for
ordered queries.
"""

from __future__ import annotations

from repro.core.relalg import Cmp, Col, RelExpr
from repro.core.sqlgen import all_of
from repro.core.translator.base import SqlTranslator, _Translation
from repro.errors import TranslationError


class GlobalSqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_global``."""

    def node_axis_condition(
        self, axis: str, ctx: str, cand: str, t: _Translation
    ) -> RelExpr:
        if axis == "child":
            return Cmp("=", Col(cand, "parent"), Col(ctx, "id"))
        if axis == "descendant":
            return all_of((
                Cmp(">", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp("<=", Col(cand, "pos"), Col(ctx, "endpos")),
            ))
        if axis == "descendant-or-self":
            return all_of((
                Cmp(">=", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp("<=", Col(cand, "pos"), Col(ctx, "endpos")),
            ))
        if axis == "self":
            return Cmp("=", Col(cand, "id"), Col(ctx, "id"))
        if axis == "parent":
            return Cmp("=", Col(cand, "id"), Col(ctx, "parent"))
        if axis == "ancestor":
            return all_of((
                Cmp("<", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp(">=", Col(cand, "endpos"), Col(ctx, "pos")),
            ))
        if axis == "ancestor-or-self":
            return all_of((
                Cmp("<=", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp(">=", Col(cand, "endpos"), Col(ctx, "pos")),
            ))
        if axis == "following-sibling":
            return all_of((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp(">", Col(cand, "pos"), Col(ctx, "pos")),
            ))
        if axis == "preceding-sibling":
            return all_of((
                Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
                Cmp("<", Col(cand, "pos"), Col(ctx, "pos")),
            ))
        if axis == "following":
            return Cmp(">", Col(cand, "pos"), Col(ctx, "endpos"))
        if axis == "preceding":
            # A subtree that ends before the context starts; the bound
            # on ``pos`` is implied, and makes the read an index range.
            return all_of((
                Cmp("<", Col(cand, "pos"), Col(ctx, "pos")),
                Cmp("<", Col(cand, "endpos"), Col(ctx, "pos")),
            ))
        raise TranslationError(f"axis {axis!r} not supported (global)")
