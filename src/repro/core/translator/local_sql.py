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

  a descendant or ancestor step from a node context reads its
  candidates from one walk from the whole context set
  (:meth:`node_source`): the builder's terms so far — the path up to
  the context — are the walk's anchor, each round reads the children
  (going *down*) or the parents (going *up*, one point probe of the
  ``(doc, id)`` index per level) of the rows before, and the walk
  carries each row whole, so the step joins nothing back and reads
  every subtree, or chain of ancestors, once however many contexts
  share it.  Deep attributes read their owner from the
  ``descendant-or-self`` walk;

* ``following``/``preceding`` nest two upward walks (the candidate's
  ancestors against the context's) around a sibling comparison — still
  the expensive queries the paper reports for local order on
  document-order axes, now by rows read rather than by SQL size;
* an element's string-value is the same construct walking *down*,
  carrying a concatenated fixed-width sibling-order key to sort by;
* document-order comparison between arbitrary nodes (needed by positional
  predicates on document-order axes) is not expressible at all and raises
  :class:`TranslationError`; so does ``last() <op> k`` along a
  descendant or ancestor axis of a node, which counts per context,
  while a walk takes the context into its anchor;
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

#: The axes a step reads by walking from its context set: down, and up.
_DOWNWARD = ("descendant", "descendant-or-self")
_WALKED = _DOWNWARD + ("ancestor", "ancestor-or-self")

#: What a walk up the parent pointers carries of each row it visits to
#: compare siblings: where to go next, when to stop, and where the row
#: sits among them.
_CLIMB_SIBLINGS = ("parent", "depth", "lpos")


class LocalSqlTranslator(SqlTranslator):
    """XPath -> SQL over ``node_local``."""

    # -- closure helpers ---------------------------------------------------

    def _climb(
        self, node: str, floor: RelExpr, t: _Translation
    ) -> tuple[str, Select, Select]:
        """*node* and its ancestors, as a recursive table of
        :data:`_CLIMB_SIBLINGS`.

        Returns ``(name, anchor, step)``: the anchor is *node*'s own
        row (read from the enclosing query, no probe), the step fetches
        the parent of the row before while that row is deeper than
        *floor*.
        """
        walk = t.aliases.next()
        up = t.aliases.next()
        anchor = Select(
            columns=tuple(SelectItem(Col(node, c)) for c in _CLIMB_SIBLINGS),
            count_joins=False,
        )
        step = SelectBuilder()
        step.count_joins = False
        step.select = [SelectItem(Col(up, c)) for c in _CLIMB_SIBLINGS]
        step.add_from(walk, walk)
        step.add_from(self.node_table, up)
        step.add_where(t.doc_cond(up))
        step.add_where(Cmp("=", Col(up, "id"), Col(walk, "parent")))
        step.add_where(Cmp(">", Col(walk, "depth"), floor))
        return walk, anchor, step.build()

    def node_source(
        self,
        axis: str,
        ctx: Optional[str],
        cand: str,
        builder: SelectBuilder,
        t: _Translation,
    ) -> tuple[FromItem, Optional[RelExpr], Optional[RelExpr]]:
        if ctx is None or axis not in _WALKED:
            return super().node_source(axis, ctx, cand, builder, t)
        return self._walk(ctx, axis, builder, t), None, None

    def _walk(
        self,
        ctx: str,
        axis: str,
        builder: SelectBuilder,
        t: _Translation,
    ) -> Recursive:
        """Every node on *axis* of the context set, as one recursive
        table.

        The anchor takes over *builder*'s FROM/WHERE terms — the path
        that selects *ctx*, or an EXISTS's correlation to its outer row
        — and reads the context rows' children going down, their
        parents going up (or, for ``-or-self``, the context rows
        themselves); the step reads the children, or the parents, of
        the rows before, one ``(doc, parent)`` or ``(doc, id)`` probe
        per level.  The table carries each row whole, so the enclosing
        query reads its candidates from it and joins nothing back.
        ``UNION`` reads a subtree, or a chain of ancestors, once however
        many contexts share it.
        """
        down = axis in _DOWNWARD
        # The column of the next row that names the row before, and
        # the one it names.
        near, far = ("parent", "id") if down else ("id", "parent")
        row = NODE_PROJECTION + self.encoding.order_columns
        walk = t.aliases.next()
        anchor = SelectBuilder()
        anchor.count_joins = builder.count_joins
        anchor.from_items, builder.from_items = builder.from_items, []
        anchor.where, builder.where = builder.where, []
        top = ctx
        if not axis.endswith("-or-self"):
            top = t.aliases.next()
            anchor.add_from(self.node_table, top)
            anchor.add_where(t.doc_cond(top))
            anchor.add_where(Cmp("=", Col(top, near), Col(ctx, far)))
        anchor.select = [SelectItem(Col(top, c)) for c in row]
        nxt = t.aliases.next()
        step = SelectBuilder()
        step.count_joins = False
        step.select = [SelectItem(Col(nxt, c)) for c in row]
        step.add_from(walk, walk)
        step.add_from(self.node_table, nxt)
        step.add_where(t.doc_cond(nxt))
        step.add_where(Cmp("=", Col(nxt, near), Col(walk, far)))
        if down:
            step.add_where(Cmp("=", Col(walk, "kind"), Const(KIND_ELEMENT)))
        step.add_where(
            Cmp(">" if down else "<", Col(nxt, "depth"), Col(walk, "depth"))
        )
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
        if axis in _WALKED:
            # A step reads these axes from _walk, which hides the
            # context from the step's own predicates; only a position
            # counted along the axis still asks for the condition.
            raise TranslationError(
                f"{self.encoding.name} order cannot count positions "
                f"along the {axis} axis of a node"
            )
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
        f, f_anchor, f_step = self._climb(cand, Const(1), t)
        a, a_anchor, a_step = self._climb(ctx, Col(f, "depth"), t)
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
