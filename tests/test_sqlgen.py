"""Unit tests for the relational AST, builders, and the SQL text renderer."""

import json
from pathlib import Path

import pytest

from repro.core.relalg import (
    CTX,
    DOC,
    And,
    Bool,
    Cmp,
    Col,
    CompiledPlan,
    Const,
    Exists,
    FixedSlot,
    LitSlot,
    Not,
    Or,
    Param,
    Recursive,
    ScalarSubquery,
    Select,
    SelectItem,
    SqlTextDialect,
    TranslationStats,
    UnionQuery,
    _number,
    compute_stats,
    position_range,
    sql_string_literal,
)
from repro.core.sqlgen import (
    AliasGenerator,
    SelectBuilder,
    exists,
    scalar_count,
)
from repro.core.translator import make_translator
from repro.core.translator.shape import extract_shape
from repro.errors import TranslationError
from repro.xpath import parse_xpath
from tests.test_golden_sql import DRIVE_SNAPSHOT_QUERIES


def compile_text(query):
    return SqlTextDialect().compile(query)


def simple_builder() -> SelectBuilder:
    b = SelectBuilder()
    b.select = [SelectItem(Col("n0", "id"), "id")]
    b.add_from("node_global", "n0")
    b.add_where(Cmp("=", Col("n0", "doc"), Param(DOC)))
    return b


class TestAliasGenerator:
    def test_unique_sequence(self):
        gen = AliasGenerator()
        names = [gen.next() for _ in range(4)]
        assert names == ["n0", "n1", "n2", "n3"]

    def test_custom_prefix(self):
        gen = AliasGenerator("x")
        assert gen.next() == "x0"


class TestSqlTextDialect:
    def test_select_render(self):
        sql, slots = compile_text(simple_builder().build())
        assert sql == (
            "SELECT n0.id AS id FROM node_global n0 WHERE n0.doc = ?"
        )
        assert slots == (DOC,)

    def test_distinct_and_order_by(self):
        b = simple_builder()
        b.distinct = True
        b.order_by = [Col("n0", "pos")]
        sql, _slots = compile_text(b.build())
        assert sql.startswith("SELECT DISTINCT ")
        assert sql.endswith(" ORDER BY n0.pos")

    def test_and_or_parenthesised(self):
        cond = Or((
            And((Bool(True), Bool(False))),
            Cmp("=", Col("a", "x"), Const(3)),
        ))
        b = simple_builder()
        b.add_where(cond)
        sql, _slots = compile_text(b.build())
        assert "((1 = 1 AND 1 = 0) OR a.x = 3)" in sql

    def test_not_render(self):
        b = simple_builder()
        b.add_where(Not(Bool(True)))
        sql, _slots = compile_text(b.build())
        assert "NOT (1 = 1)" in sql

    def test_exists_render(self):
        sub = simple_builder()
        sub.select = [SelectItem(Const(1))]
        b = simple_builder()
        b.add_where(exists(sub))
        sql, slots = compile_text(b.build())
        assert "EXISTS (SELECT 1 FROM node_global n0" in sql
        assert slots == (DOC, DOC)

    def test_negated_exists_render(self):
        sub = simple_builder()
        sub.select = [SelectItem(Const(1))]
        b = simple_builder()
        b.add_where(exists(sub, negated=True))
        sql, _slots = compile_text(b.build())
        assert "NOT EXISTS (" in sql

    def test_union_orders_by_output_names(self):
        arm = simple_builder().build()
        sql, _slots = compile_text(
            UnionQuery(selects=(arm, arm), order_by=("id",))
        )
        assert sql.count("SELECT") == 2
        assert " UNION " in sql
        assert sql.endswith(" ORDER BY id")

    def test_slots_collected_in_placeholder_order(self):
        b = simple_builder()
        b.add_where(Cmp("=", Col("n0", "id"), Param(CTX)))
        b.add_where(Cmp("=", Col("n0", "tag"), Param(FixedSlot("book"))))
        b.add_where(Cmp("=", Col("n0", "value"), Param(LitSlot(0))))
        sql, slots = compile_text(b.build())
        assert sql.count("?") == 4
        assert slots == (DOC, CTX, FixedSlot("book"), LitSlot(0))

    def test_string_constants_escaped(self):
        b = simple_builder()
        b.add_where(Cmp("=", Col("n0", "tag"), Const("O'Reilly")))
        sql, _slots = compile_text(b.build())
        assert "'O''Reilly'" in sql


class TestScalarCount:
    def test_renders_count_star(self):
        b = simple_builder()
        sql, _slots = compile_text(
            Select(columns=(SelectItem(scalar_count(b)),))
        )
        assert sql == (
            "SELECT (SELECT COUNT(*) FROM node_global n0 "
            "WHERE n0.doc = ?)"
        )

    def test_does_not_mutate_builder(self):
        # Regression: the old implementation swapped builder.select in
        # place and restored it without try/finally, so a failure
        # mid-render corrupted the builder for subsequent renders.  The
        # node-based version works on an immutable snapshot.
        b = simple_builder()
        before = list(b.select)
        count = scalar_count(b)
        assert b.select == before
        assert isinstance(count, ScalarSubquery)
        assert count.query.columns[0].expr.__class__.__name__ == "CountStar"
        # The builder still renders its original projection afterwards.
        sql, _slots = compile_text(b.build())
        assert sql.startswith("SELECT n0.id AS id")

    def test_usable_repeatedly(self):
        b = simple_builder()
        assert scalar_count(b) == scalar_count(b)


class TestHelpers:
    def test_sql_string_literal_escapes_quotes(self):
        assert sql_string_literal("O'Reilly") == "'O''Reilly'"
        assert sql_string_literal("plain") == "'plain'"

    def test_translation_stats_total(self):
        stats = TranslationStats(
            joins=2, exists_subqueries=1, scalar_subqueries=1,
            recursions=3,
        )
        assert stats.total_relational_operations() == 7


class TestStats:
    def test_counts_joins_per_select(self):
        b = SelectBuilder()
        b.select = [SelectItem(Const(1))]
        b.add_from("t", "a")
        b.add_from("t", "b")
        b.add_from("t", "c")
        assert compute_stats(b.build()).joins == 2

    def test_uncounted_select_contributes_no_joins(self):
        b = SelectBuilder()
        b.select = [SelectItem(Const(1))]
        b.count_joins = False
        b.add_from("t", "a")
        b.add_from("t", "b")
        assert compute_stats(b.build()).joins == 0

    def test_exists_and_count_subqueries(self):
        sub = simple_builder()
        sub.select = [SelectItem(Const(1))]
        b = simple_builder()
        b.add_where(exists(sub))
        b.add_where(Cmp(">", scalar_count(sub), Const(0)))
        stats = compute_stats(b.build())
        assert stats.exists_subqueries == 1
        assert stats.scalar_subqueries == 1

    def test_uncounted_exists(self):
        sub = simple_builder()
        sub.select = [SelectItem(Const(1))]
        b = simple_builder()
        b.add_where(exists(sub, counted=False))
        assert compute_stats(b.build()).exists_subqueries == 0

    def test_recursions(self):
        walk = Recursive(
            "w", ("id",),
            anchor=Select((SelectItem(Col("n0", "id")),)),
            step=Select(
                (SelectItem(Col("p", "id")),),
                (("w", "w"), ("t", "p")), count_joins=False,
            ),
            body=Select((SelectItem(Const(1)),), (("w", "w"),)),
        )
        b = simple_builder()
        b.add_where(Exists(walk, counted=False))
        stats = compute_stats(b.build())
        assert (stats.recursions, stats.exists_subqueries, stats.joins) == (
            1, 0, 0
        )
        sql, _slots = compile_text(b.build())
        assert (
            "EXISTS (WITH RECURSIVE w(id) AS (SELECT n0.id UNION "
            "SELECT p.id FROM w, t p) SELECT 1 FROM w)"
        ) in sql


class TestCompiledPlanBind:
    def plan(self, slots) -> CompiledPlan:
        return CompiledPlan(
            sql="SELECT 1",
            param_slots=tuple(slots),
            result_kind="node",
            encoding="global",
            columns=("id",),
            stats=TranslationStats(),
        )

    def test_binds_doc_ctx_fixed_and_literals(self):
        plan = self.plan([DOC, CTX, FixedSlot("book"), LitSlot(0)])
        bound = plan.bind(7, context_id=3, literals=("x",))
        assert bound.params == (7, 3, "book", "x")

    def test_relative_without_context_raises(self):
        plan = self.plan([DOC, CTX])
        with pytest.raises(TranslationError):
            plan.bind(1)

    def test_literal_transforms(self):
        plan = self.plan([
            LitSlot(0, "posm1"),
            LitSlot(0, "skip:="),
            LitSlot(0, "take:="),
            LitSlot(0, "num"),
            LitSlot(1, "len"),
            LitSlot(1, "raw"),
        ])
        bound = plan.bind(1, literals=(3.0, "abc"))
        assert bound.params == (2, 2, 1, 3, 3, "abc")

    def test_position_transforms_round_as_xpath_compares(self):
        """``position() <op> k`` for a fractional or out-of-range k: the
        count stays fractional, and the pick keeps exactly the integer
        positions that compare true — never a negative OFFSET or LIMIT,
        which the engines would read as 0 and as no limit, nor an integer
        too large to bind."""
        transforms = ("posm1", "skip:=", "take:=", "skip:>=", "skip:>",
                      "take:<=", "take:<")
        plan = self.plan([LitSlot(0, name) for name in transforms])
        expected = {
            1.5: (0.5, 0, 0, 1, 1, 1, 1),
            2.5: (1.5, 0, 0, 2, 2, 2, 2),
            0.0: (-1, 0, 0, 0, 0, 0, 0),
            1.0: (0, 0, 1, 0, 1, 1, 0),
            # Past sqlite's 64-bit integers: bound at 2**62.
            1e20: (1e20, 2**62 - 1, 1, 2**62 - 1, 2**62 - 1, 2**62, 2**62),
        }
        for k, params in expected.items():
            assert plan.bind(1, literals=(k,)).params == params, k

    def test_literal_slot_out_of_range(self):
        plan = self.plan([LitSlot(2)])
        with pytest.raises(TranslationError):
            plan.bind(1, literals=("only",))


def reference_transform(transform: str, value):
    """The literal transforms as a chain of tests, one call per slot."""
    if transform == "raw":
        return value
    if transform == "num":
        return _number(value)
    if transform == "posm1":
        return _number(value) - 1
    if transform == "len":
        return len(value)
    kind, _, op = transform.partition(":")
    first, last = position_range(op, float(value))
    first, last = min(max(first, 1), 2**62), min(last, 2**62)
    if kind == "skip":
        return first - 1
    return int(max(last - first + 1, 0))


def reference_bind(plan: CompiledPlan, doc, context_id, literals) -> tuple:
    """What ``bind`` must return: each slot resolved in turn."""
    params = []
    for slot in plan.param_slots:
        if slot is DOC:
            params.append(doc)
        elif slot is CTX:
            params.append(context_id)
        elif isinstance(slot, FixedSlot):
            params.append(slot.value)
        else:
            params.append(
                reference_transform(slot.transform, literals[slot.index])
            )
    return tuple(params)


def golden_shapes():
    """Every query of ``tests/data/golden_sql.json``, per encoding, with
    whether its plan is compiled for an indexed document."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "golden_sql.json").read_text()
    )
    for encoding in ("global", "local", "dewey", "ordpath"):
        for xpath in golden[encoding]:
            yield encoding, xpath, False
        for xpath in golden["positional_siblings"][encoding]:
            yield encoding, xpath, False
        for xpath in golden["index_plans"][encoding]:
            yield encoding, xpath, True
        for xpath in golden["drives"][encoding]:
            yield encoding, xpath, DRIVE_SNAPSHOT_QUERIES[xpath]


class TestBindTemplate:
    """``bind`` fills a template built once per plan; it must bind what
    resolving every slot in turn binds, and fail as that did."""

    def test_every_golden_shape_binds_as_the_slot_loop(self):
        shapes = list(golden_shapes())
        assert len(shapes) == 4 * 20 + 4 * 6 + 4 * 3 + 4 * 2
        for encoding, xpath, indexed in shapes:
            shaped, literals = extract_shape(parse_xpath(xpath))
            plan = make_translator(encoding).compile(shaped, indexed=indexed)
            bound = plan.bind(7, None, literals)
            assert bound.params == reference_bind(plan, 7, None, literals), (
                encoding, xpath,
            )
            assert bound.sql == plan.sql

    @pytest.mark.parametrize("encoding", ["global", "local", "dewey"])
    def test_a_relative_shape_binds_its_context(self, encoding):
        shaped, literals = extract_shape(
            parse_xpath("book[2]/author[position() < 3][. = 'x']")
        )
        plan = make_translator(encoding).compile(shaped)
        bound = plan.bind(7, 5, literals)
        assert 5 in bound.params
        assert bound.params == reference_bind(plan, 7, 5, literals)

    def test_every_transform_binds_as_the_slot_loop(self):
        transforms = ["raw", "num", "posm1", "len"] + [
            f"{kind}:{op}" for kind in ("skip", "take")
            for op in ("=", ">=", ">", "<=", "<")
        ]
        plan = TestCompiledPlanBind().plan(
            [DOC, FixedSlot("t"), CTX, DOC]
            + [LitSlot(0, name) for name in transforms if name != "len"]
            + [LitSlot(1, "len"), LitSlot(1)]
        )
        for k in (0.0, 1.0, 1.5, 2.5, 3.0, -2.0, 1e20):
            literals = (k, "abcd")
            assert plan.bind(4, 9, literals).params == reference_bind(
                plan, 4, 9, literals
            ), k

    def test_the_three_bind_errors_keep_their_messages(self):
        plan = TestCompiledPlanBind().plan([DOC, CTX, LitSlot(1)])
        with pytest.raises(TranslationError, match=(
            r"^relative paths need a context node \(pass context_id\) "
            r"or an absolute path$"
        )):
            plan.bind(1, None, ("a", "b"))
        with pytest.raises(TranslationError, match=(
            r"^context_id is a node id, an int, not str$"
        )):
            plan.bind(1, "3", ("a", "b"))
        with pytest.raises(TranslationError, match=(
            r"^literal slot out of range: plan compiled from a different "
            r"query shape$"
        )):
            plan.bind(1, 3, ("a",))
