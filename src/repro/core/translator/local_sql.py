"""Local-encoding translation: parent/sibling axes only, chains for the rest.

Local order stores nothing but the position among siblings, so:

* child and sibling axes are direct (and cheap — the paper's motivation
  for local order);
* descendant/ancestor axes require *transitive closure*, which plain SQL
  of the paper's era cannot express.  We use the standard workaround the
  paper alludes to: depth-bounded expansion.  "``a`` is an ancestor of
  ``n``" becomes an OR over distances 1..D of EXISTS chains walking the
  parent pointers, with D taken from the document catalogue's recorded
  maximum depth;
* ``following``/``preceding`` compose three expansions (ancestor-or-self,
  following-sibling, descendant-or-self) — the big, slow queries the
  paper reports for local order on document-order axes;
* document-order comparison between arbitrary nodes (needed by positional
  predicates on document-order axes) is not expressible at all and raises
  :class:`TranslationError`;
* results carry no document-order column: the store runs a client-side
  order-resolution pass (fetching ancestor paths) to sort them.
"""

from __future__ import annotations

from repro.core.relalg import (
    And,
    Cmp,
    Col,
    Const,
    Exists,
    RelExpr,
    RelQuery,
    SelectItem,
    UnionQuery,
)
from repro.core.schema import KIND_TEXT
from repro.core.sqlgen import SelectBuilder, any_of, exists
from repro.core.translator.base import SqlTranslator, _Translation
from repro.errors import TranslationError


class LocalSqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_local``."""

    # -- expansion helpers -------------------------------------------------

    def ancestor_chain(
        self,
        anc: str,
        node: str,
        t: _Translation,
        include_self: bool = False,
    ) -> RelExpr:
        """OR-expansion: *anc* is an ancestor of *node* (distance <= D)."""
        arms: list[RelExpr] = []
        if include_self:
            arms.append(Cmp("=", Col(anc, "id"), Col(node, "id")))
        arms.append(Cmp("=", Col(anc, "id"), Col(node, "parent")))
        expansion_arms = 0
        for distance in range(2, self.max_depth):
            arms.append(self._chain_arm(anc, node, distance, t))
            expansion_arms += 1
        condition = any_of(arms, expansion_arms=expansion_arms)
        assert condition is not None
        return condition

    def _chain_arm(
        self, anc: str, node: str, distance: int, t: _Translation
    ) -> Exists:
        """EXISTS arm walking *distance* parent pointers up from *node*."""
        hops = [t.aliases.next() for _ in range(distance - 1)]
        sub = SelectBuilder()
        sub.select = [SelectItem(Const(1))]
        # Chain hops are expansion plumbing, not semantic joins or
        # subqueries; keep them out of the E9 stats (counted via
        # or_expansions instead).
        sub.count_joins = False
        previous = node
        for hop in hops:
            sub.add_from(self.node_table, hop)
            sub.add_where(t.doc_cond(hop))
            sub.add_where(
                Cmp("=", Col(hop, "id"), Col(previous, "parent"))
            )
            previous = hop
        sub.add_where(Cmp("=", Col(anc, "id"), Col(previous, "parent")))
        return exists(sub, counted=False)

    # -- axis conditions -------------------------------------------------------

    def node_axis_condition(
        self, axis: str, ctx: str, cand: str, t: _Translation
    ) -> RelExpr:
        if axis == "child":
            return Cmp("=", Col(cand, "parent"), Col(ctx, "id"))
        if axis == "descendant":
            return self.ancestor_chain(ctx, cand, t)
        if axis == "descendant-or-self":
            return self.ancestor_chain(ctx, cand, t, include_self=True)
        if axis == "self":
            return Cmp("=", Col(cand, "id"), Col(ctx, "id"))
        if axis == "parent":
            return Cmp("=", Col(cand, "id"), Col(ctx, "parent"))
        if axis == "ancestor":
            return self.ancestor_chain(cand, ctx, t)
        if axis == "ancestor-or-self":
            return self.ancestor_chain(cand, ctx, t, include_self=True)
        if axis == "following-sibling":
            return all_of_siblings(cand, ctx, ">")
        if axis == "preceding-sibling":
            return all_of_siblings(cand, ctx, "<")
        if axis in ("following", "preceding"):
            return self._document_order_axis(axis, ctx, cand, t)
        raise TranslationError(f"axis {axis!r} not supported (local)")

    def _document_order_axis(
        self, axis: str, ctx: str, cand: str, t: _Translation
    ) -> RelExpr:
        """``following``/``preceding`` as a triple expansion.

        cand is in following(ctx) iff some ancestor-or-self *f* of cand is
        a following sibling of some ancestor-or-self *a* of ctx.
        """
        a = t.aliases.next()
        f = t.aliases.next()
        sub = SelectBuilder()
        sub.select = [SelectItem(Const(1))]
        # The two FROM items are expansion plumbing (see _chain_arm),
        # but the EXISTS itself is a real subquery the old translation
        # also counted.
        sub.count_joins = False
        sub.add_from(self.node_table, a)
        sub.add_from(self.node_table, f)
        sub.add_where(t.doc_cond(a))
        sub.add_where(t.doc_cond(f))
        sub.add_where(self.ancestor_chain(a, ctx, t, include_self=True))
        sub.add_where(self.ancestor_chain(f, cand, t, include_self=True))
        sub.add_where(Cmp("=", Col(f, "parent"), Col(a, "parent")))
        if axis == "following":
            sub.add_where(Cmp(">", Col(f, "lpos"), Col(a, "lpos")))
        else:
            sub.add_where(Cmp("<", Col(f, "lpos"), Col(a, "lpos")))
        return exists(sub)

    def string_value_query(
        self, cand: str, t: _Translation
    ) -> RelQuery:
        """Descendant text of *cand* via depth-bounded chain arms.

        Arm *d* walks *d* parent-pointer hops below *cand* and projects
        the text value plus the chain's ``lpos`` path as sort keys
        ``k1..kD`` (missing levels padded with ``-1``, which sorts
        before every real ``lpos`` >= 1).  Text nodes are leaves, so no
        key path is a prefix of another and the padded lexicographic
        order is document order within the subtree; the full key paths
        are also unique, which makes the UNION's set semantics safe.
        """
        depth_limit = max(self.max_depth - 1, 1)
        key_names = tuple(f"k{i}" for i in range(1, depth_limit + 1))
        arms = []
        for distance in range(1, depth_limit + 1):
            chain = [t.aliases.next() for _ in range(distance)]
            sub = SelectBuilder()
            sub.count_joins = False
            previous = cand
            for hop in chain:
                sub.add_from(self.node_table, hop)
                sub.add_where(t.doc_cond(hop))
                sub.add_where(
                    Cmp("=", Col(hop, "parent"), Col(previous, "id"))
                )
                previous = hop
            sub.add_where(
                Cmp("=", Col(chain[-1], "kind"), Const(KIND_TEXT))
            )
            items = [SelectItem(Col(chain[-1], "value"), "v")]
            for index, name in enumerate(key_names):
                if index < distance:
                    items.append(
                        SelectItem(Col(chain[index], "lpos"), name)
                    )
                else:
                    items.append(SelectItem(Const(-1), name))
            sub.select = items
            arms.append(sub.build())
        return UnionQuery(selects=tuple(arms), order_by=key_names)


def all_of_siblings(cand: str, ctx: str, op: str) -> RelExpr:
    """Same parent plus an lpos comparison."""
    return And((
        Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
        Cmp(op, Col(cand, "lpos"), Col(ctx, "lpos")),
    ))
