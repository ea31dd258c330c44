"""Local-encoding translation: parent/sibling axes direct, recursion for
the rest.

Local order stores nothing but the position among siblings, so:

* child and sibling axes are direct (and cheap — the paper's motivation
  for local order);
* descendant/ancestor axes require *transitive closure*, which the SQL
  of the paper's era could not express and its workaround (an ``OR`` of
  parent-pointer chains, one per level of the deepest document) no
  engine can probe by index.  The closure is one
  :class:`~repro.core.relalg.Recursive` instead, so the plan does not
  depend on how deep any document is:

  - a descendant step from a node context reads its candidates from one
    walk *down* from the whole context set (:meth:`node_source`): the
    builder's terms so far — the path up to the context — are the
    walk's anchor, each round reads the children of the rows before,
    and the walk carries each row whole, so the step joins nothing
    back and reads every subtree once, however many contexts it lies
    under.  Deep attributes read their owner from the ``-or-self``
    walk;
  - "``a`` is an ancestor of ``n``" walks up from ``n``, one point probe
    of the ``(doc, id)`` index per level, and stops at ``a``'s stored
    ``depth``;

* ``following``/``preceding`` nest two upward walks (the candidate's
  ancestors against the context's) around a sibling comparison — still
  the expensive queries the paper reports for local order on
  document-order axes, now by rows read rather than by SQL size;
* an element's string-value is the same construct walking *down*,
  carrying a concatenated fixed-width sibling-order key to sort by;
* document-order comparison between arbitrary nodes (needed by positional
  predicates on document-order axes) is not expressible at all and raises
  :class:`TranslationError`; so does ``last() <op> k`` along a
  descendant axis of a node, which counts per context, while a walk
  down takes the context into its anchor;
* results carry no document-order column: the store runs a client-side
  order-resolution pass (fetching ancestor paths) to sort them.

Every walk compares stored ``depth`` values, so a row can only extend a
walk in one direction and a corrupt parent cycle ends it (the auditor
reports such rows as ``store-depth-mismatch``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.relalg import (
    Arith,
    Cmp,
    Col,
    Const,
    Exists,
    FromItem,
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
from repro.core.translator.base import (
    NODE_PROJECTION,
    SqlTranslator,
    _Translation,
)
from repro.errors import TranslationError

#: The axes a step reads by walking down from its context set.
_DOWNWARD = ("descendant", "descendant-or-self")

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

    def node_source(
        self,
        axis: str,
        ctx: Optional[str],
        cand: str,
        builder: SelectBuilder,
        t: _Translation,
    ) -> tuple[FromItem, Optional[RelExpr], Optional[RelExpr]]:
        if ctx is None or axis not in _DOWNWARD:
            return super().node_source(axis, ctx, cand, builder, t)
        return (
            self._walk_down(ctx, axis == "descendant-or-self", builder, t),
            None,
            None,
        )

    def _walk_down(
        self,
        ctx: str,
        include_self: bool,
        builder: SelectBuilder,
        t: _Translation,
    ) -> Recursive:
        """Every descendant of the context set, as one recursive table.

        The anchor takes over *builder*'s FROM/WHERE terms — the path
        that selects *ctx*, or an EXISTS's correlation to its outer row
        — and reads the context rows' children (or, for ``-or-self``,
        the context rows themselves); the step reads the children of
        the rows before.  The table carries each row whole, so the
        enclosing query reads its candidates from it and joins nothing
        back.  ``UNION`` reads a subtree once however many contexts it
        lies under.
        """
        row = NODE_PROJECTION + self.encoding.order_columns
        walk = t.aliases.next()
        anchor = SelectBuilder()
        anchor.count_joins = builder.count_joins
        anchor.from_items, builder.from_items = builder.from_items, []
        anchor.where, builder.where = builder.where, []
        top = ctx
        if not include_self:
            top = t.aliases.next()
            anchor.add_from(self.node_table, top)
            anchor.add_where(t.doc_cond(top))
            anchor.add_where(Cmp("=", Col(top, "parent"), Col(ctx, "id")))
        anchor.select = [SelectItem(Col(top, c)) for c in row]
        down = t.aliases.next()
        step = SelectBuilder()
        step.count_joins = False
        step.select = [SelectItem(Col(down, c)) for c in row]
        step.add_from(walk, walk)
        step.add_from(self.node_table, down)
        step.add_where(t.doc_cond(down))
        step.add_where(Cmp("=", Col(down, "parent"), Col(walk, "id")))
        step.add_where(Cmp("=", Col(walk, "kind"), Const(KIND_ELEMENT)))
        step.add_where(Cmp(">", Col(down, "depth"), Col(walk, "depth")))
        body = Select(
            columns=tuple(SelectItem(Col(walk, c)) for c in row),
            from_items=((walk, walk),),
            count_joins=False,
        )
        return Recursive(walk, row, anchor.build(), step.build(), body)

    # -- axis conditions -------------------------------------------------------

    def node_axis_condition(
        self, axis: str, ctx: str, cand: str, t: _Translation
    ) -> RelExpr:
        """The closure axes, which Local has no range for; the rest is
        the base's table."""
        if axis in _DOWNWARD:
            # A step reads these axes from _walk_down, which hides the
            # context from the step's own predicates; only a position
            # counted along the axis still asks for the condition.
            raise TranslationError(
                f"{self.encoding.name} order cannot count positions "
                f"along the {axis} axis of a node"
            )
        if axis == "ancestor":
            return self.ancestor_chain(cand, ctx, t)
        if axis == "ancestor-or-self":
            return self.ancestor_chain(cand, ctx, t, include_self=True)
        if axis in ("following", "preceding"):
            return self._document_order_axis(axis, ctx, cand, t)
        return super().node_axis_condition(axis, ctx, cand, t)

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
