"""Unit tests for the relational AST, builders, and the SQL text renderer."""

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
    compute_stats,
    sql_string_literal,
)
from repro.core.sqlgen import (
    AliasGenerator,
    SelectBuilder,
    exists,
    scalar_count,
)
from repro.errors import TranslationError


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
