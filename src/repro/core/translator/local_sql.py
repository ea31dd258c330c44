"""Local-encoding translation: parent/sibling axes direct, recursion for
the rest.

Local order stores nothing but the position among siblings, so:

* child and sibling axes are direct (and cheap — the paper's motivation
  for local order);
* descendant/ancestor axes require *transitive closure*, which the SQL
  of the paper's era could not express and its workaround (an ``OR`` of
  parent-pointer chains, one per level of the deepest document) no
  engine can probe by index.  The closure is one
  :class:`~repro.core.relalg.Recursive` instead: "``a`` is an ancestor
  of ``n``" walks up from ``n``, one point probe of the ``(doc, id)``
  index per level, and stops at ``a``'s stored ``depth`` — so the plan
  does not depend on how deep any document is;
* ``following``/``preceding`` nest two such walks (the candidate's
  ancestors against the context's) around a sibling comparison — still
  the expensive queries the paper reports for local order on
  document-order axes, now by rows read rather than by SQL size;
* an element's string-value is the same construct walking *down*,
  carrying a concatenated fixed-width sibling-order key to sort by;
* document-order comparison between arbitrary nodes (needed by positional
  predicates on document-order axes) is not expressible at all and raises
  :class:`TranslationError`;
* results carry no document-order column: the store runs a client-side
  order-resolution pass (fetching ancestor paths) to sort them.

Every walk compares stored ``depth`` values, so a row can only extend a
walk in one direction and a corrupt parent cycle ends it (the auditor
reports such rows as ``store-depth-mismatch``).
"""

from __future__ import annotations

from repro.core.relalg import (
    And,
    Arith,
    Cmp,
    Col,
    Const,
    Exists,
    Func,
    Or,
    Recursive,
    RelExpr,
    RelQuery,
    Select,
    SelectItem,
)
from repro.core.schema import KIND_ELEMENT, KIND_TEXT
from repro.core.sqlgen import SelectBuilder
from repro.core.translator.base import SqlTranslator, _Translation
from repro.errors import TranslationError

#: What a walk up the parent pointers carries of each row it visits:
#: where to go next and when to stop, plus, to compare siblings, where
#: the row sits among them.
_CLIMB = ("parent", "depth")
_CLIMB_SIBLINGS = ("parent", "depth", "lpos")


class LocalSqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_local``."""

    # -- closure helpers ---------------------------------------------------

    def _climb(
        self,
        node: str,
        floor: RelExpr,
        columns: tuple[str, ...],
        t: _Translation,
    ) -> tuple[str, Select, Select]:
        """*columns* of *node* and its ancestors, as a recursive table.

        Returns ``(name, anchor, step)``: the anchor is *node*'s own
        row (read from the enclosing query, no probe), the step fetches
        the parent of the row before while that row is deeper than
        *floor*.
        """
        walk = t.aliases.next()
        up = t.aliases.next()
        anchor = Select(
            columns=tuple(SelectItem(Col(node, c)) for c in columns),
            count_joins=False,
        )
        step = SelectBuilder()
        step.count_joins = False
        step.select = [SelectItem(Col(up, c)) for c in columns]
        step.add_from(walk, walk)
        step.add_from(self.node_table, up)
        step.add_where(t.doc_cond(up))
        step.add_where(Cmp("=", Col(up, "id"), Col(walk, "parent")))
        step.add_where(Cmp(">", Col(walk, "depth"), floor))
        return walk, anchor, step.build()

    def ancestor_chain(
        self,
        anc: str,
        node: str,
        t: _Translation,
        include_self: bool = False,
    ) -> RelExpr:
        """*anc* is an ancestor of *node*: some row on *node*'s walk up
        has *anc* for its parent.  The walk stops one level below
        *anc*, so a child costs no probe at all."""
        walk, anchor, step = self._climb(
            node, Arith("+", Col(anc, "depth"), Const(1)), _CLIMB, t
        )
        closure: RelExpr = Exists(
            Recursive(
                walk, _CLIMB, anchor, step,
                _any_row(walk, Cmp("=", Col(walk, "parent"), Col(anc, "id"))),
            ),
            counted=False,
        )
        if include_self:
            return Or((Cmp("=", Col(anc, "id"), Col(node, "id")), closure))
        return closure

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
        """``following``/``preceding`` as two nested walks.

        cand is in following(ctx) iff some ancestor-or-self *f* of cand
        is a following sibling of some ancestor-or-self *a* of ctx.
        Siblings are equally deep, so for each *f* the walk up from ctx
        stops at *f*'s depth.
        """
        f, f_anchor, f_step = self._climb(
            cand, Const(1), _CLIMB_SIBLINGS, t
        )
        a, a_anchor, a_step = self._climb(
            ctx, Col(f, "depth"), _CLIMB_SIBLINGS, t
        )
        a_body = _any_row(
            a,
            Cmp("=", Col(a, "parent"), Col(f, "parent")),
            Cmp(
                "<" if axis == "following" else ">",
                Col(a, "lpos"), Col(f, "lpos"),
            ),
        )
        f_body = _any_row(
            f,
            Exists(
                Recursive(a, _CLIMB_SIBLINGS, a_anchor, a_step, a_body),
                counted=False,
            ),
        )
        return Exists(
            Recursive(f, _CLIMB_SIBLINGS, f_anchor, f_step, f_body)
        )

    def string_value_query(
        self, cand: str, t: _Translation
    ) -> RelQuery:
        """Descendant text of *cand*: a walk down from its children.

        Each row carries ``k``, its ancestors' and its own ``lpos`` as
        fixed-width ``lpos_key`` pieces below *cand*, concatenated.
        Text nodes are leaves, so no key is a prefix of another and
        plain text order of ``k`` is document order within the
        subtree.  Only elements have children, and a child is deeper
        than its parent — which is also what ends the walk on a corrupt
        parent cycle, where ``k`` grows and rows never repeat.
        """
        walk = t.aliases.next()
        down = t.aliases.next()
        columns = ("id", "kind", "depth", "v", "k")

        def level(parent: RelExpr, key: RelExpr) -> SelectBuilder:
            sub = SelectBuilder()
            sub.count_joins = False
            sub.select = [
                SelectItem(Col(down, "id")),
                SelectItem(Col(down, "kind")),
                SelectItem(Col(down, "depth")),
                SelectItem(Col(down, "value")),
                SelectItem(key),
            ]
            sub.add_from(self.node_table, down)
            sub.add_where(t.doc_cond(down))
            sub.add_where(Cmp("=", Col(down, "parent"), parent))
            return sub

        own_key = Func("lpos_key", (Col(down, "lpos"),))
        anchor = level(Col(cand, "id"), own_key)
        step = level(Col(walk, "id"), Arith("||", Col(walk, "k"), own_key))
        step.from_items.insert(0, (walk, walk))
        step.add_where(Cmp("=", Col(walk, "kind"), Const(KIND_ELEMENT)))
        step.add_where(Cmp(">", Col(down, "depth"), Col(walk, "depth")))
        body = Select(
            columns=(SelectItem(Col(walk, "v"), "v"),),
            from_items=((walk, walk),),
            where=(Cmp("=", Col(walk, "kind"), Const(KIND_TEXT)),),
            order_by=(Col(walk, "k"),),
            count_joins=False,
        )
        return Recursive(walk, columns, anchor.build(), step.build(), body)


def _any_row(walk: str, *conditions: RelExpr) -> Select:
    """``SELECT 1 FROM walk WHERE conditions``: the body of an EXISTS
    over a recursive table."""
    return Select(
        columns=(SelectItem(Const(1)),),
        from_items=((walk, walk),),
        where=conditions,
        count_joins=False,
    )


def all_of_siblings(cand: str, ctx: str, op: str) -> RelExpr:
    """Same parent plus an lpos comparison."""
    return And((
        Cmp("=", Col(cand, "parent"), Col(ctx, "parent")),
        Cmp(op, Col(cand, "lpos"), Col(ctx, "lpos")),
    ))
