"""XPath -> SQL translation framework.

:class:`SqlTranslator` walks a parsed location path and builds one
relational expression AST (:mod:`repro.core.relalg`) over the encoding's
node/attribute tables.  Each location step adds a node-table alias joined
to the previous step's alias through the encoding's *axis condition* —
the heart of the paper: with order encoded as data, every ordered axis
becomes a comparison over order columns.

Predicates compile to:

* **positional** conditions (``[k]``, ``[position() <= k]``, ``[last()]``)
  — correlated ``COUNT(*)`` subqueries counting axis-mates that precede
  the candidate, or ``NOT EXISTS`` for ``last()``;
* **existence** conditions (``[author]``, ``[@id]``) — ``EXISTS``
  subqueries built by recursive translation;
* **value** conditions (``[@id = "x"]``, ``[price < 10]``) — ``EXISTS``
  subqueries ending in a comparison against the stored value column;
* boolean connectives, ``count()``, ``contains()`` and ``starts-with()``.

The AST is then rendered as SQL text — the same text for both engines —
into a :class:`~repro.core.relalg.CompiledPlan` that contains no
document id, context id, or predicate literal — those bind later, so one
compiled plan serves every document and every literal value of the same
query shape.

The two leading-``//`` steps the parser produces
(``descendant-or-self::node()`` + ``child::T``) are merged into a single
``descendant::T`` step whose positional predicates keep child-axis
semantics (they count siblings under the candidate's own parent, which is
exactly what the unmerged form would do for every possible parent).

Encoding subclasses provide the axis conditions, sibling/document-order
comparisons, and result ordering:

* Global — integer comparisons on ``pos``/``endpos``;
* Dewey and ORDPATH — byte-range comparisons on the binary key (via
  the encoding's ``*_successor`` scalar), one translator for both;
* Local — only parent/sibling axes are direct; everything that needs
  transitive closure is a recursive walk over the parent pointers, and
  result ordering falls back to a client-side order-resolution pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.encodings import OrderEncoding
from repro.core.relalg import (
    CTX,
    DOC,
    Bool,
    Cmp,
    Col,
    CompiledPlan,
    Const,
    Exists,
    FixedSlot,
    Func,
    LitSlot,
    Param,
    RelExpr,
    RelQuery,
    ScalarCount,
    Select,
    SelectItem,
    SqlTextDialect,
    StringValueAgg,
    TranslatedQuery,
    UnionQuery,
    compute_stats,
)
from repro.core.schema import KIND_COMMENT, KIND_ELEMENT, KIND_TEXT
from repro.core.sqlgen import (
    AliasGenerator,
    SelectBuilder,
    exists,
    scalar_count,
)
from repro.core.translator.shape import extract_shape, is_slot
from repro.errors import TranslationError, UnsupportedXPathError
from repro.obs import METRICS
from repro.xpath.ast import (
    BinaryOp,
    Expr,
    FunctionCall,
    LocationPath,
    NodeTest,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    UnionPath,
)

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

#: Structural projection columns shared by the four encodings, in the
#: order the store expects result rows.
NODE_PROJECTION = ("id", "parent", "kind", "tag", "value", "depth")


@dataclass(frozen=True)
class NormStep:
    """A normalised location step.

    ``positional_axis`` records which axis positional predicates count
    along; it differs from ``axis`` only for steps created by merging the
    abbreviated ``//`` pair, where candidates come from the descendant
    axis but positions keep child semantics.
    """

    axis: str
    test: NodeTest
    predicates: tuple[Expr, ...]
    positional_axis: str


def normalize_steps(steps: tuple[Step, ...]) -> list[NormStep]:
    """Merge ``//`` step pairs and tag positional axes.

    A bare ``descendant-or-self::node()`` step (the parser's expansion of
    ``//``) cannot be kept as a standalone relational step: its result
    set would have to include the document node, which has no row.  It is
    therefore *fused* with the following step:

    * ``// child::T``      -> ``descendant::T``  (positional predicates
      keep child semantics, which the counting translation preserves
      exactly — siblings are counted under each candidate's own parent);
    * ``// attribute::T``  -> a deep attribute step;
    * ``// descendant[-or-self]::T`` -> the same axis (set-equal), legal
      only without positional predicates (their contexts would differ);
    * ``// self::T``       -> ``descendant-or-self::T`` (set-equal), same
      restriction, and T must not be ``node()`` (the document node would
      qualify);
    * any other following axis keeps the bare step: those axes yield the
      empty set for the document-node context, so row contexts suffice.
    """
    out: list[NormStep] = []
    i = 0
    while i < len(steps):
        step = steps[i]
        is_bare_dos = (
            step.axis == "descendant-or-self"
            and step.test.kind == "node"
            and not step.predicates
        )
        if is_bare_dos and i + 1 < len(steps):
            nxt = steps[i + 1]
            has_positional = any(
                _contains_positional(p) for p in nxt.predicates
            )
            if nxt.axis == "child":
                out.append(
                    NormStep("descendant", nxt.test, nxt.predicates, "child")
                )
                i += 2
                continue
            if nxt.axis == "attribute":
                out.append(
                    NormStep(
                        "attribute-deep", nxt.test, nxt.predicates,
                        "attribute",
                    )
                )
                i += 2
                continue
            if nxt.axis in ("descendant", "descendant-or-self"):
                if has_positional:
                    raise UnsupportedXPathError(
                        "positional predicates on a descendant axis "
                        "directly after '//' are outside the "
                        "translatable fragment"
                    )
                out.append(
                    NormStep(nxt.axis, nxt.test, nxt.predicates, nxt.axis)
                )
                i += 2
                continue
            if nxt.axis == "self":
                if nxt.test.kind == "node" or has_positional:
                    raise UnsupportedXPathError(
                        "self::node() or positional predicates after "
                        "'//' are outside the translatable fragment"
                    )
                out.append(
                    NormStep(
                        "descendant-or-self", nxt.test, nxt.predicates,
                        "self",
                    )
                )
                i += 2
                continue
        out.append(NormStep(step.axis, step.test, step.predicates,
                            step.axis))
        i += 1
    return out


def _contains_positional(expr: Expr) -> bool:
    """True if *expr* references position()/last() or is a bare number."""
    if isinstance(expr, NumberLiteral):
        return True
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            return True
        return any(_contains_positional(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        # A number inside a comparison is positional only if the other
        # side involves position()/last(); a number compared to a path
        # (e.g. [@x = 3]) is a plain value.  Checking both sides for
        # position()/last() is exact; bare numbers below a BinaryOp are
        # not bare predicates any more.
        return _mentions_position(expr.left) or _mentions_position(
            expr.right
        )
    return False


def _mentions_position(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            return True
        return any(_mentions_position(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return _mentions_position(expr.left) or _mentions_position(
            expr.right
        )
    return False


@dataclass
class _Arm:
    """One translated union arm (or a whole single-path query)."""

    select: Select
    result_kind: str  # "node" | "attribute"
    needs_client_order: bool
    columns: tuple[str, ...]


class SqlTranslator(ABC):
    """Base translator; one concrete subclass per encoding."""

    def __init__(self, encoding: OrderEncoding) -> None:
        self.encoding = encoding
        self.node_table = encoding.node_table.name
        self.attr_table = encoding.attr_table.name
        # Per-compile() state (see compile()): whether the document is
        # indexed, and the index rewrites its eligible fragments name.
        self._indexed = False
        self._eligible: set = set()

    # -- per-encoding hooks ------------------------------------------------

    def axis_condition(
        self,
        axis: str,
        ctx: Optional[str],
        cand: str,
        t: "_Translation",
    ) -> Optional[RelExpr]:
        """Condition relating candidate alias to context alias.

        ``ctx`` is ``None`` when the context is the document node —
        the same few conditions for every encoding; a ``None`` result
        means "no restriction".
        """
        if ctx is None:
            return _document_axis(axis, cand)
        return self.node_axis_condition(axis, ctx, cand, t)

    @abstractmethod
    def node_axis_condition(
        self, axis: str, ctx: str, cand: str, t: "_Translation"
    ) -> RelExpr:
        """The encoding's axis table: the condition placing candidate
        alias *cand* on *axis* of the stored node at alias *ctx*."""

    def sibling_before(self, a: str, b: str) -> RelExpr:
        """``a`` strictly before ``b`` among siblings (same parent assumed)."""
        column = self.encoding.sibling_order_column
        return Cmp("<", Col(a, column), Col(b, column))

    def doc_before(self, a: str, b: str) -> RelExpr:
        """``a`` strictly before ``b`` in document order.

        An encoding without a document-order column (Local) cannot
        express this; :class:`TranslationError` is raised for it.
        """
        column = self.encoding.order_by_column
        if column is None:
            raise TranslationError(
                f"{self.encoding.name} order cannot compare document "
                "order of arbitrary nodes; positional predicates on "
                "document-order axes are not translatable"
            )
        return Cmp("<", Col(a, column), Col(b, column))

    def order_by_columns(self, alias: str) -> Optional[list[Col]]:
        """ORDER BY columns yielding document order, or ``None`` when
        results need the client-side order-resolution pass."""
        column = self.encoding.order_by_column
        return None if column is None else [Col(alias, column)]

    # -- public API -----------------------------------------------------------

    def translate(
        self,
        path: Union[LocationPath, UnionPath, str],
        doc: int,
        context_id: Optional[int] = None,
    ) -> TranslatedQuery:
        """Translate a path (or a top-level ``|`` union) into one bound
        SQL query.

        Convenience wrapper: extracts the query shape, compiles it, and
        binds *doc* / *context_id* / the extracted literals.  Relative
        paths require *context_id*: the surrogate id of the node to
        navigate from, anchored by an extra self-join on the node
        table.  Absolute paths ignore the context.
        """
        if isinstance(path, str):
            from repro.xpath.parser import parse_xpath

            path = parse_xpath(path)
        shaped, literals = extract_shape(path)
        plan = self.compile(shaped)
        return plan.bind(doc, context_id, literals)

    def compile(
        self,
        path: Union[LocationPath, UnionPath, str],
        indexed: bool = False,
    ) -> CompiledPlan:
        """Compile a (possibly shape-extracted) path to SQL text.

        The result is document-independent: ``doc``/context/literal
        values become parameter slots resolved by
        :meth:`~repro.core.relalg.CompiledPlan.bind`.

        An index is used when it exists: with *indexed* every eligible
        fragment probes the ``idx_*`` side tables — structural paths
        the path index, value predicates the value index — and the plan
        records that access path; without it the same fragments compile
        to the scan and the plan records the miss.  One indexed plan
        serves every indexed document.
        """
        if isinstance(path, str):
            from repro.xpath.parser import parse_xpath

            path = parse_xpath(path)
        self._indexed = indexed
        self._eligible = set()
        if isinstance(path, UnionPath):
            query, kind, needs_client_order, columns = (
                self._compile_union(path)
            )
        else:
            arm = self._compile_arm(path, with_order_by=True)
            query = arm.select
            kind = arm.result_kind
            needs_client_order = arm.needs_client_order
            columns = arm.columns
        stats = compute_stats(query)
        sql, slots = SqlTextDialect().compile(query)
        METRICS.inc("translate.queries")
        METRICS.inc("translate.compile")
        METRICS.inc("translate.joins", stats.joins)
        METRICS.inc(
            "translate.subqueries",
            stats.exists_subqueries + stats.count_subqueries,
        )
        return CompiledPlan(
            sql=sql,
            param_slots=slots,
            result_kind=kind,
            needs_client_order=needs_client_order,
            encoding=self.encoding.name,
            columns=columns,
            stats=stats,
            access_path=(
                "+".join(sorted(self._eligible))
                if indexed and self._eligible else "scan"
            ),
            index_miss=bool(self._eligible) and not indexed,
        )

    def _compile_union(
        self, union: UnionPath
    ) -> tuple[RelQuery, str, bool, tuple[str, ...]]:
        """``p1 | p2 | ...`` -> ``SELECT .. UNION SELECT ..``.

        SQL UNION (without ALL) deduplicates across arms exactly like
        the XPath node-set union; the compound ORDER BY uses the output
        column names, which both backends support.
        """
        arms = [
            self._compile_arm(p, with_order_by=False)
            for p in union.paths
        ]
        kinds = {a.result_kind for a in arms}
        if len(kinds) != 1:
            raise UnsupportedXPathError(
                "union arms must all select nodes or all select "
                "attributes"
            )
        kind = kinds.pop()
        if kind == "attribute" and len({a.columns for a in arms}) != 1:
            # Attribute arms only project the owner's order columns when
            # the owner has a stable alias; arms can therefore disagree
            # on projection width (e.g. ``/@id | //@x``), which SQL
            # UNION rejects.  Fall back to the minimal three-column
            # projection for every arm and sort client-side.
            arms = [
                self._compile_arm(
                    p, with_order_by=False,
                    minimal_attr_projection=True,
                )
                for p in union.paths
            ]
        needs_client_order = any(a.needs_client_order for a in arms)
        columns = arms[0].columns
        order_names: tuple[str, ...] = ()
        if not needs_client_order:
            if kind == "attribute":
                order_names = tuple(columns[3:]) + ("name",)
            else:
                order_names = (self.encoding.order_by_column or "",)
        query = UnionQuery(
            selects=tuple(a.select for a in arms),
            order_by=order_names,
        )
        return query, kind, needs_client_order, columns

    def _compile_arm(
        self,
        path: LocationPath,
        with_order_by: bool,
        minimal_attr_projection: bool = False,
    ) -> _Arm:
        if not path.steps:
            raise TranslationError(
                "the bare document path '/' has no relational result"
            )
        indexed = self._path_index_arm(path, with_order_by)
        if indexed is not None:
            return indexed
        t = _Translation(self)
        builder = SelectBuilder()
        builder.distinct = True
        start: Optional[str] = None
        if not path.absolute:
            # Anchor the context node with a dedicated alias; the
            # context id itself binds later (CTX slot).
            start = t.aliases.next()
            builder.add_from(self.node_table, start)
            builder.add_where(t.doc_cond(start))
            builder.add_where(
                Cmp("=", Col(start, "id"), Param(CTX))
            )
        alias, kind = self._compile_steps(
            normalize_steps(path.steps), start, builder, t
        )
        # Projection items carry explicit AS aliases so compound (UNION)
        # selects can ORDER BY output-column name on both backends.
        if kind == "attribute":
            columns = ("owner", "name", "value")
            builder.select = [
                SelectItem(Col(alias, "owner"), "owner"),
                SelectItem(Col(alias, "name"), "name"),
                SelectItem(Col(alias, "value"), "value"),
            ]
            owner = t.attribute_owner_alias
            order_cols = (
                self.order_by_columns(owner)
                if owner is not None and not minimal_attr_projection
                else None
            )
            if order_cols is not None:
                builder.select.extend(
                    SelectItem(c, c.name) for c in order_cols
                )
                columns += tuple(c.name for c in order_cols)
                if with_order_by:
                    builder.order_by = [*order_cols, Col(alias, "name")]
                needs_client_order = False
            else:
                needs_client_order = True
        else:
            columns = NODE_PROJECTION + self.encoding.order_columns
            builder.select = [
                SelectItem(Col(alias, c), c) for c in columns
            ]
            order_cols = self.order_by_columns(alias)
            if order_cols is not None:
                if with_order_by:
                    builder.order_by = list(order_cols)
                needs_client_order = False
            else:
                needs_client_order = True
        return _Arm(
            select=builder.build(),
            result_kind=kind,
            needs_client_order=needs_client_order,
            columns=columns,
        )

    # -- index-aware access paths ------------------------------------------

    def _path_index_pattern(self, path: LocationPath) -> Optional[str]:
        """The ``path_match`` pattern of *path* when it is a pure
        structural path the path index can answer: absolute, every step
        a predicate-free child/descendant element name (or wildcard)
        test."""
        if not path.absolute or not path.steps:
            return None
        pieces: list[str] = []
        for step in normalize_steps(path.steps):
            if step.predicates or step.axis not in ("child", "descendant"):
                return None
            if step.test.kind == "name":
                name = step.test.name
            elif step.test.kind == "wildcard":
                name = "*"
            else:
                return None
            separator = "//" if step.axis == "descendant" else "/"
            pieces.append(separator + name)
        return "".join(pieces)

    def _path_index_arm(
        self, path: LocationPath, with_order_by: bool
    ) -> Optional[_Arm]:
        """The path-index access path for an eligible structural arm.

        ``idx_paths`` (the root-path dictionary) is filtered by the
        ``path_match`` scalar against a pattern derived from the steps,
        ``idx_pathmap`` expands matching paths to element ids, and a
        final join against the node table re-projects the ordinary
        node columns — result rows are identical to the scan plan's.
        """
        pattern = self._path_index_pattern(path)
        if pattern is None:
            return None
        self._eligible.add("path-index")
        if not self._indexed:
            return None
        t = _Translation(self)
        builder = SelectBuilder()
        builder.distinct = True
        p = t.aliases.next()
        m = t.aliases.next()
        n = t.aliases.next()
        builder.add_from("idx_paths", p)
        builder.add_from("idx_pathmap", m)
        builder.add_from(self.node_table, n)
        builder.add_where(t.doc_cond(p))
        builder.add_where(t.doc_cond(m))
        builder.add_where(t.doc_cond(n))
        builder.add_where(
            Cmp(
                "=",
                Func(
                    "path_match",
                    (Col(p, "path"), Param(FixedSlot(pattern))),
                ),
                Const(1),
            )
        )
        builder.add_where(Cmp("=", Col(m, "pathid"), Col(p, "pathid")))
        builder.add_where(Cmp("=", Col(n, "id"), Col(m, "id")))
        columns = NODE_PROJECTION + self.encoding.order_columns
        builder.select = [SelectItem(Col(n, c), c) for c in columns]
        order_cols = self.order_by_columns(n)
        if order_cols is not None:
            if with_order_by:
                builder.order_by = list(order_cols)
            needs_client_order = False
        else:
            needs_client_order = True
        METRICS.inc("index.rewrite_path")
        return _Arm(
            select=builder.build(),
            result_kind="node",
            needs_client_order=needs_client_order,
            columns=columns,
        )

    def _value_index_exists(
        self,
        path: LocationPath,
        context: Optional[str],
        t: "_Translation",
        value_cond: Callable[[RelExpr], RelExpr],
    ) -> Optional[Exists]:
        """The value-index access path for an eligible value predicate.

        ``[tag = literal]`` (one predicate-free child element name step
        plus a value condition) probes ``idx_sval`` instead of running
        the correlated string-value aggregation: ``sval`` holds exactly
        the XPath string-value the scan plan would aggregate.
        """
        if len(path.steps) != 1:
            return None
        step = path.steps[0]
        if (
            step.axis != "child"
            or step.predicates
            or step.test.kind != "name"
        ):
            return None
        self._eligible.add("value-index")
        if not self._indexed:
            return None
        tag = step.test.name
        parent: RelExpr = (
            Const(0)
            if path.absolute or context is None
            else Col(context, "id")
        )
        v = t.aliases.next()
        sub = SelectBuilder()
        sub.select = [SelectItem(Const(1))]
        sub.add_from("idx_sval", v)
        sub.add_where(t.doc_cond(v))
        sub.add_where(Cmp("=", Col(v, "parent"), parent))
        sub.add_where(Cmp("=", Col(v, "tag"), Param(FixedSlot(tag))))
        sub.add_where(value_cond(Col(v, "sval")))
        METRICS.inc("index.rewrite_value")
        return exists(sub)

    # -- step pipeline -----------------------------------------------------------

    def _compile_steps(
        self,
        steps: list[NormStep],
        context: Optional[str],
        builder: SelectBuilder,
        t: "_Translation",
    ) -> tuple[str, str]:
        """Add FROM/WHERE items for *steps*; return (final alias, kind)."""
        ctx = context
        for index, step in enumerate(steps):
            final = index == len(steps) - 1
            if step.axis in ("attribute", "attribute-deep"):
                if not final:
                    raise UnsupportedXPathError(
                        "attribute steps are only supported in final "
                        "position"
                    )
                return self._compile_attribute_step(step, ctx, builder, t)
            alias = t.aliases.next()
            builder.add_from(self.node_table, alias)
            builder.add_where(t.doc_cond(alias))
            builder.add_where(
                self.axis_condition(step.axis, ctx, alias, t)
            )
            builder.add_where(self.test_condition(step.test, alias))
            for pred_index, predicate in enumerate(step.predicates):
                if pred_index > 0 and _contains_positional(predicate):
                    # XPath re-ranks positions after each predicate
                    # filters the candidate list; a flat SQL translation
                    # counts positions over the unfiltered axis, which
                    # is only correct for the first predicate.
                    raise UnsupportedXPathError(
                        "positional predicates after another predicate "
                        "are outside the translatable fragment"
                    )
                builder.add_where(
                    self._predicate_condition(
                        predicate, alias, ctx, step, t
                    )
                )
            ctx = alias
        assert ctx is not None
        return ctx, "node"

    def _compile_attribute_step(
        self,
        step: NormStep,
        ctx: Optional[str],
        builder: SelectBuilder,
        t: "_Translation",
    ) -> tuple[str, str]:
        alias = t.aliases.next()
        builder.add_from(self.attr_table, alias)
        builder.add_where(t.doc_cond(alias))
        if step.axis == "attribute":
            if ctx is None:
                # Attributes of the document node: there are none.
                builder.add_where(Bool(False))
            else:
                builder.add_where(
                    Cmp("=", Col(alias, "owner"), Col(ctx, "id"))
                )
                t.attribute_owner_alias = ctx
        else:  # attribute-deep: any attribute in the context's subtree
            owner = t.aliases.next()
            builder.add_from(self.node_table, owner)
            builder.add_where(t.doc_cond(owner))
            builder.add_where(
                Cmp("=", Col(owner, "id"), Col(alias, "owner"))
            )
            if ctx is not None:
                builder.add_where(
                    self.axis_condition(
                        "descendant-or-self", ctx, owner, t
                    )
                )
            t.attribute_owner_alias = owner
        if step.test.kind == "name":
            builder.add_where(
                Cmp(
                    "=",
                    Col(alias, "name"),
                    Param(FixedSlot(step.test.name)),
                )
            )
        elif step.test.kind not in ("wildcard", "node"):
            raise UnsupportedXPathError(
                f"node test {step.test.kind}() on the attribute axis"
            )
        for predicate in step.predicates:
            builder.add_where(
                self._attribute_predicate(predicate, alias, t)
            )
        return alias, "attribute"

    def _attribute_predicate(
        self, expr: Expr, alias: str, t: "_Translation"
    ) -> RelExpr:
        """Predicates on attribute candidates: value comparisons only."""
        if isinstance(expr, BinaryOp) and expr.op in _COMPARISON_OPS:
            if isinstance(expr.left, PathExpr) or isinstance(
                expr.right, PathExpr
            ):
                raise UnsupportedXPathError(
                    "path predicates on attribute steps"
                )
            left, right = expr.left, expr.right
            if isinstance(left, FunctionCall) or isinstance(
                right, FunctionCall
            ):
                raise UnsupportedXPathError(
                    "function predicates on attribute steps"
                )
            # [. = 'x'] style is not parsed here; compare self value.
            raise UnsupportedXPathError(
                "only positional-free attribute predicates are supported"
            )
        raise UnsupportedXPathError("predicates on attribute steps")

    # -- node tests ------------------------------------------------------------------

    def test_condition(
        self, test: NodeTest, alias: str
    ) -> Optional[RelExpr]:
        """Condition for a node test on a node-table alias."""
        if test.kind == "name":
            from repro.core.relalg import And

            return And((
                Cmp("=", Col(alias, "kind"), Const(KIND_ELEMENT)),
                Cmp("=", Col(alias, "tag"), Param(FixedSlot(test.name))),
            ))
        if test.kind == "wildcard":
            return Cmp("=", Col(alias, "kind"), Const(KIND_ELEMENT))
        if test.kind == "text":
            return Cmp("=", Col(alias, "kind"), Const(KIND_TEXT))
        if test.kind == "comment":
            return Cmp("=", Col(alias, "kind"), Const(KIND_COMMENT))
        if test.kind == "node":
            return None
        raise UnsupportedXPathError(f"node test {test.kind!r}")

    # -- predicates ---------------------------------------------------------------------

    def _lit_param(
        self, literal: Union[NumberLiteral, StringLiteral], transform: str
    ) -> Param:
        """A parameter for an XPath literal.

        Shape-extracted slots bind from the per-query literal list;
        plain literals (compile() called on an unextracted path) bind a
        fixed value — either way the SQL text carries ``?``.
        """
        from repro.core.relalg import _apply_transform

        if is_slot(literal):
            return Param(LitSlot(literal.index, transform))
        return Param(
            FixedSlot(_apply_transform(transform, literal.value))
        )

    def _predicate_condition(
        self,
        expr: Expr,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> RelExpr:
        # Number-valued predicates are position tests *only* when they
        # are the entire predicate; nested in boolean context (not/and/
        # or) they convert to booleans instead.
        if isinstance(expr, NumberLiteral):
            return self._positional("=", expr, cand, ctx, step, t)
        if isinstance(expr, FunctionCall) and expr.name == "last":
            return self._positional_last(cand, ctx, step, t)
        return self._boolean_condition(expr, cand, ctx, step, t)

    def _boolean_condition(
        self,
        expr: Expr,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> RelExpr:
        from repro.core.relalg import And, Or

        if isinstance(expr, BinaryOp):
            if expr.op == "and":
                return And((
                    self._boolean_condition(expr.left, cand, ctx, step, t),
                    self._boolean_condition(expr.right, cand, ctx, step, t),
                ))
            if expr.op == "or":
                return Or((
                    self._boolean_condition(expr.left, cand, ctx, step, t),
                    self._boolean_condition(expr.right, cand, ctx, step, t),
                ))
            if expr.op in _COMPARISON_OPS:
                return self._comparison_condition(
                    expr, cand, ctx, step, t
                )
            raise UnsupportedXPathError(f"operator {expr.op!r}")
        if isinstance(expr, PathExpr):
            return self._exists_path(expr.path, cand, t)
        if isinstance(expr, FunctionCall):
            return self._function_condition(expr, cand, ctx, step, t)
        if isinstance(expr, NumberLiteral):
            # In boolean context a number is true iff non-zero.
            _require_foldable(expr)
            return Bool(expr.value != 0)
        if isinstance(expr, StringLiteral):
            _require_foldable(expr)
            return Bool(bool(expr.value))
        raise UnsupportedXPathError(f"predicate {expr!r}")

    def _function_condition(
        self,
        call: FunctionCall,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> RelExpr:
        from repro.core.relalg import Not

        if call.name == "not":
            return Not(
                self._boolean_condition(call.args[0], cand, ctx, step, t)
            )
        if call.name in ("last", "position"):
            # In boolean context a number converts via boolean(): both
            # position() and last() are >= 1 for an existing candidate,
            # so they are always true here.  (A bare [last()] predicate
            # is positional and handled in _predicate_condition.)
            return Bool(True)
        if call.name == "count":
            path = _require_path(call.args[0], "count()")
            count = self._count_path(path, cand, t)
            return Cmp(">", count, Const(0))
        if call.name in ("contains", "starts-with"):
            return self._string_function_condition(call, cand, t)
        raise UnsupportedXPathError(f"function {call.name}()")

    def _string_function_condition(
        self, call: FunctionCall, cand: str, t: "_Translation"
    ) -> RelExpr:
        target, literal = call.args
        if not isinstance(literal, StringLiteral):
            raise UnsupportedXPathError(
                f"{call.name}() requires a string-literal second argument"
            )
        if call.name == "contains":
            def value_cond(value: RelExpr) -> RelExpr:
                return Cmp(
                    ">",
                    Func("INSTR", (value, self._lit_param(literal, "raw"))),
                    Const(0),
                )
        else:
            def value_cond(value: RelExpr) -> RelExpr:
                return Cmp(
                    "=",
                    Func(
                        "SUBSTR",
                        (
                            value,
                            Const(1),
                            self._lit_param(literal, "len"),
                        ),
                    ),
                    self._lit_param(literal, "raw"),
                )
        path = _require_path(target, call.name + "()")
        return self._exists_path(path, cand, t, value_cond)

    def _comparison_condition(
        self,
        expr: BinaryOp,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> RelExpr:
        left, right, op = expr.left, expr.right, expr.op
        # Normalise so any position()/last()/count()/path is on the left.
        if _is_literal(left) and not _is_literal(right):
            left, right = right, left
            op = _FLIP[op]

        if isinstance(left, FunctionCall) and left.name == "position":
            if isinstance(right, NumberLiteral):
                return self._positional(op, right, cand, ctx, step, t)
            if isinstance(right, FunctionCall) and right.name == "last":
                if op == "=":
                    return self._positional_last(cand, ctx, step, t)
                raise UnsupportedXPathError(
                    "only position() = last() is supported"
                )
            raise UnsupportedXPathError(
                "position() must be compared with a number or last()"
            )
        if isinstance(left, FunctionCall) and left.name == "last":
            if isinstance(right, NumberLiteral):
                count = self._axis_mates_count(cand, ctx, step, t)
                return Cmp(op, count, self._lit_param(right, "int"))
            raise UnsupportedXPathError(
                "last() must be compared with a number"
            )
        if isinstance(left, FunctionCall) and left.name == "count":
            path = _require_path(left.args[0], "count()")
            if not isinstance(right, NumberLiteral):
                raise UnsupportedXPathError(
                    "count() must be compared with a number"
                )
            count = self._count_path(path, cand, t)
            return Cmp(op, count, self._lit_param(right, "num"))
        if isinstance(left, PathExpr):
            if isinstance(right, (NumberLiteral, StringLiteral)):
                return self._exists_path(
                    left.path,
                    cand,
                    t,
                    lambda value: self._value_comparison(
                        value, op, right
                    ),
                )
            raise UnsupportedXPathError(
                "path comparisons must be against literals"
            )
        if _is_literal(left) and _is_literal(right):
            _require_foldable(left)
            _require_foldable(right)
            return Bool(_literal_compare(left, op, right))
        raise UnsupportedXPathError(f"comparison {expr!r}")

    def _value_comparison(
        self,
        value: RelExpr,
        op: str,
        literal: Union[NumberLiteral, StringLiteral],
    ) -> RelExpr:
        """Compare a stored value column with a literal, XPath-style.

        Numbers (and relational operators) compare numerically through
        the ``xpath_number`` scalar, which yields NULL for non-numeric
        text where ``number()`` yields NaN — NULL comparisons are false
        just as NaN comparisons are, except ``!=``, where NaN compares
        true and needs the IS NULL disjunct.  String equality compares
        as text.
        """
        if isinstance(literal, NumberLiteral):
            return self._numeric_comparison(
                value, op, self._lit_param(literal, "num")
            )
        if op in ("=", "!="):
            return Cmp(op, value, self._lit_param(literal, "raw"))
        # Relational comparison against a string: XPath converts both
        # sides to numbers; a non-numeric literal can never compare
        # true.  The branch depends on the value, so such literals are
        # never shape-extracted.
        _require_foldable(literal)
        try:
            number = float(literal.value)
        except ValueError:
            return Bool(False)
        return self._numeric_comparison(value, op, Const(number))

    def _numeric_comparison(
        self, value: RelExpr, op: str, number: RelExpr
    ) -> RelExpr:
        """``number(value) <op> number`` under XPath NaN semantics."""
        from repro.core.relalg import IsNull, Or

        guarded = Func("xpath_number", (value,))
        comparison = Cmp(op, guarded, number)
        if op == "!=":
            return Or((comparison, IsNull(guarded)))
        return comparison

    # -- positional predicates -------------------------------------------------------------

    def _positional(
        self,
        op: str,
        k: NumberLiteral,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> RelExpr:
        """``position() <op> k`` via counting preceding axis-mates."""
        if step.positional_axis == "self":
            # The candidate's position on the self axis is always 1.
            if is_slot(k):
                return Cmp(op, Const(1), self._lit_param(k, "int"))
            return Bool(_int_compare(1, op, int(k.value)))
        count = self._preceding_mates_count(cand, ctx, step, t)
        # position = count + 1, so position <op> k  <=>  count <op> k-1.
        return Cmp(op, count, self._lit_param(k, "posm1"))

    def _positional_last(
        self,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> RelExpr:
        """``position() = last()``: no axis-mate follows the candidate."""
        if step.positional_axis == "self":
            return Bool(True)
        sub, m = self._axis_mates_builder(cand, ctx, step, t)
        sub.add_where(self._mate_order_condition(m, cand, ctx, step,
                                                 after=True))
        return exists(sub, negated=True)

    def _preceding_mates_count(
        self,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> ScalarCount:
        sub, m = self._axis_mates_builder(cand, ctx, step, t)
        sub.add_where(self._mate_order_condition(m, cand, ctx, step,
                                                 after=False))
        return scalar_count(sub)

    def _axis_mates_count(
        self,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> ScalarCount:
        sub, _m = self._axis_mates_builder(cand, ctx, step, t)
        return scalar_count(sub)

    def _axis_mates_builder(
        self,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        t: "_Translation",
    ) -> tuple[SelectBuilder, str]:
        """Subquery over nodes on the same positional axis as *cand*."""
        axis = step.positional_axis
        m = t.aliases.next()
        sub = SelectBuilder()
        sub.select = [SelectItem(Const(1))]
        sub.add_from(self.node_table, m)
        sub.add_where(t.doc_cond(m))
        sub.add_where(self.test_condition(step.test, m))
        if axis == "child":
            sub.add_where(Cmp("=", Col(m, "parent"), Col(cand, "parent")))
        elif axis in ("following-sibling", "preceding-sibling"):
            if ctx is None:
                raise TranslationError(
                    "sibling axes need an element context"
                )
            sub.add_where(Cmp("=", Col(m, "parent"), Col(cand, "parent")))
            if axis == "following-sibling":
                sub.add_where(self.sibling_before(ctx, m))
            else:
                sub.add_where(self.sibling_before(m, ctx))
        elif axis in ("descendant", "descendant-or-self", "following",
                      "preceding", "ancestor", "ancestor-or-self"):
            sub.add_where(self.axis_condition(axis, ctx, m, t))
        else:
            raise UnsupportedXPathError(
                f"positional predicate on axis {axis!r}"
            )
        return sub, m

    def _mate_order_condition(
        self,
        m: str,
        cand: str,
        ctx: Optional[str],
        step: NormStep,
        after: bool,
    ) -> RelExpr:
        """Order *m* relative to *cand* along the positional axis.

        ``after=False`` selects mates at smaller positions (earlier in
        axis order); ``after=True`` selects mates at greater positions.
        """
        axis = step.positional_axis
        reverse = axis in ("preceding-sibling", "preceding", "ancestor",
                           "ancestor-or-self")
        sibling_axes = ("child", "following-sibling", "preceding-sibling")
        want_doc_after = after != reverse
        if axis in sibling_axes:
            if want_doc_after:
                return self.sibling_before(cand, m)
            return self.sibling_before(m, cand)
        if want_doc_after:
            return self.doc_before(cand, m)
        return self.doc_before(m, cand)

    # -- existence / value subqueries ------------------------------------------------------

    def _exists_path(
        self,
        path: LocationPath,
        context: str,
        t: "_Translation",
        value_cond: Optional[Callable[[RelExpr], RelExpr]] = None,
    ) -> Exists:
        """EXISTS subquery: *path* (from *context*) selects something.

        ``value_cond``, when given, maps the final node's comparable
        value (string-value aggregate for elements, stored column
        otherwise — see :meth:`_value_expr`) to an extra condition
        (used for value comparisons and string functions).
        """
        if value_cond is not None:
            rewritten = self._value_index_exists(
                path, context, t, value_cond
            )
            if rewritten is not None:
                return rewritten
        sub = SelectBuilder()
        sub.select = [SelectItem(Const(1))]
        start = None if path.absolute else context
        steps = normalize_steps(path.steps)
        if not steps:
            raise UnsupportedXPathError("empty predicate path")
        alias, kind = self._compile_steps(steps, start, sub, t)
        if value_cond is not None:
            sub.add_where(
                value_cond(self._value_expr(alias, kind, steps[-1], t))
            )
        return exists(sub)

    def _value_expr(
        self, alias: str, kind: str, last: NormStep, t: "_Translation"
    ) -> RelExpr:
        """The comparable XPath value of the final step's result.

        Attributes and ``text()``/``comment()`` results compare their
        stored ``value`` column directly.  *Element* results compare
        their string-value — the concatenation of all descendant text in
        document order — which the stored column (direct text only) gets
        wrong for mixed content like ``<p>a<b>x</b>c</p>``; those
        compile to a correlated descendant-text aggregation instead.
        """
        if kind == "node" and last.test.kind in ("name", "wildcard"):
            return StringValueAgg(
                self.string_value_query(alias, t), t.aliases.next()
            )
        return Col(alias, "value")

    def string_value_query(
        self, cand: str, t: "_Translation"
    ) -> RelQuery:
        """Correlated query over *cand*'s descendant text, in doc order.

        Must project each text value as a column named ``v`` (plus any
        order-key columns) and order rows in document order, so that
        ``GROUP_CONCAT(v, '')`` over the result is exactly the element's
        XPath string-value.

        This default serves every encoding whose ``descendant`` axis is
        a range of its ORDER BY column (one ordered range scan); Local
        has neither and overrides it.
        """
        s = t.aliases.next()
        sub = SelectBuilder()
        sub.select = [SelectItem(Col(s, "value"), "v")]
        sub.count_joins = False
        sub.add_from(self.node_table, s)
        sub.add_where(t.doc_cond(s))
        sub.add_where(Cmp("=", Col(s, "kind"), Const(KIND_TEXT)))
        for bound in self.axis_condition("descendant", cand, s, t).items:
            sub.add_where(bound)
        sub.order_by = self.order_by_columns(s)
        return sub.build()

    def _count_path(
        self, path: LocationPath, context: str, t: "_Translation"
    ) -> ScalarCount:
        sub = SelectBuilder()
        sub.select = [SelectItem(Const(1))]
        start = None if path.absolute else context
        steps = normalize_steps(path.steps)
        self._compile_steps(steps, start, sub, t)
        return scalar_count(sub)


class _Translation:
    """Per-call state: alias generator, attribute-owner bookkeeping."""

    def __init__(self, translator: SqlTranslator) -> None:
        self.translator = translator
        self.aliases = AliasGenerator()
        self.attribute_owner_alias: Optional[str] = None

    def doc_cond(self, alias: str) -> RelExpr:
        return Cmp("=", Col(alias, "doc"), Param(DOC))


# -- small helpers ------------------------------------------------------------


def _document_axis(axis: str, cand: str) -> Optional[RelExpr]:
    """Axis conditions when the context is the document node itself
    (the same for every encoding: only ``parent = 0`` is involved)."""
    if axis == "child":
        return Cmp("=", Col(cand, "parent"), Const(0))
    if axis in ("descendant", "descendant-or-self"):
        return None  # every stored node descends from the document
    if axis in ("self", "parent", "ancestor", "ancestor-or-self"):
        raise TranslationError(
            "the document node itself has no relational representation"
        )
    # following/preceding/sibling axes of the document are empty.
    return Bool(False)


def _is_literal(expr: Expr) -> bool:
    return isinstance(expr, (NumberLiteral, StringLiteral))


def _require_foldable(expr: Expr) -> None:
    """Guard: a shape slot must never reach a constant-folding position.

    Folding reads the literal's value, which a slot does not carry; if
    the shape extractor and the translator ever disagreed on which
    positions are value-dependent, sharing plans across literal values
    would be unsound — fail loudly instead.
    """
    if is_slot(expr):
        raise TranslationError(
            "internal error: shape slot reached a value-dependent "
            "position; shape extraction is out of sync with the "
            "translator"
        )


def _require_path(expr: Expr, what: str) -> LocationPath:
    if not isinstance(expr, PathExpr):
        raise UnsupportedXPathError(f"{what} requires a path argument")
    return expr.path


def _int_compare(a: int, op: str, b: float) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _literal_compare(left: Expr, op: str, right: Expr) -> bool:
    """Constant-fold literal-vs-literal comparisons (XPath semantics)."""
    if isinstance(left, NumberLiteral) or isinstance(right, NumberLiteral):
        try:
            lval = (
                left.value
                if isinstance(left, NumberLiteral)
                else float(left.value)  # type: ignore[union-attr]
            )
            rval = (
                right.value
                if isinstance(right, NumberLiteral)
                else float(right.value)  # type: ignore[union-attr]
            )
        except ValueError:
            return op == "!="
        return _int_compare(lval, op, rval)  # type: ignore[arg-type]
    if op == "=":
        return left.value == right.value  # type: ignore[union-attr]
    if op == "!=":
        return left.value != right.value  # type: ignore[union-attr]
    try:
        return _int_compare(
            float(left.value), op, float(right.value)  # type: ignore[union-attr]
        )
    except ValueError:
        return False
