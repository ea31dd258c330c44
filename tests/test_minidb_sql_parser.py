"""Tests for the minidb SQL lexer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.minidb.sql_ast import (
    Binary,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Exists,
    FunctionExpr,
    InList,
    InSelect,
    Insert,
    IsNull,
    Literal,
    Param,
    ScalarSubquery,
    Star,
    SubquerySource,
    TableSource,
    Union_,
    Unary,
    Update,
    With,
)
from repro.minidb.sql_lexer import tokenize_sql
from repro.minidb.sql_parser import parse_sql


class TestLexer:
    def test_keywords_case_insensitive(self):
        kinds = [t.kind for t in tokenize_sql("select From WHERE")]
        assert kinds == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_preserve_case(self):
        token = tokenize_sql("myTable")[0]
        assert token.kind == "ident"
        assert token.value == "myTable"

    def test_string_with_escaped_quote(self):
        token = tokenize_sql("'it''s'")[0]
        assert token.value == "it's"

    def test_numbers(self):
        tokens = tokenize_sql("1 2.5 1e3")
        assert [t.value for t in tokens] == ["1", "2.5", "1e3"]

    def test_params_and_operators(self):
        kinds = [t.kind for t in tokenize_sql("a <> ? <= >= ||")]
        assert kinds == ["ident", "<>", "param", "<=", ">=", "||"]

    def test_line_comments_skipped(self):
        tokens = tokenize_sql("SELECT 1 -- the one\n, 2")
        assert len(tokens) == 4

    def test_quoted_identifier(self):
        token = tokenize_sql('"order"')[0]
        assert token.kind == "ident"
        assert token.value == "order"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize_sql("'open")

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize_sql("SELECT $x")


class TestDdl:
    def test_create_table(self):
        statement = parse_sql(
            "CREATE TABLE t (a INTEGER, b TEXT, c REAL, d BLOB)"
        )
        assert isinstance(statement, CreateTable)
        assert [c.name for c in statement.columns] == list("abcd")
        assert [c.type for c in statement.columns] == [
            "INTEGER", "TEXT", "REAL", "BLOB",
        ]

    def test_create_table_if_not_exists(self):
        statement = parse_sql(
            "CREATE TABLE IF NOT EXISTS t (a INTEGER)"
        )
        assert statement.if_not_exists

    def test_create_index(self):
        statement = parse_sql("CREATE INDEX ix ON t (a, b)")
        assert isinstance(statement, CreateIndex)
        assert statement.columns == ("a", "b")
        assert not statement.unique

    def test_create_unique_index(self):
        statement = parse_sql("CREATE UNIQUE INDEX ux ON t (a)")
        assert statement.unique

    def test_drop_table(self):
        statement = parse_sql("DROP TABLE IF EXISTS t")
        assert isinstance(statement, DropTable)
        assert statement.if_exists


class TestDml:
    def test_insert_with_params(self):
        statement = parse_sql("INSERT INTO t VALUES (?, ?, 'x')")
        assert isinstance(statement, Insert)
        assert statement.values[0][0] == Param(0)
        assert statement.values[0][1] == Param(1)
        assert statement.values[0][2] == Literal("x")

    def test_insert_with_columns(self):
        statement = parse_sql("INSERT INTO t (a, b) VALUES (1, 2)")
        assert statement.columns == ("a", "b")

    def test_insert_multiple_rows(self):
        statement = parse_sql("INSERT INTO t VALUES (1), (2), (3)")
        assert len(statement.values) == 3

    def test_update(self):
        statement = parse_sql("UPDATE t SET a = a + 1 WHERE b = ?")
        assert isinstance(statement, Update)
        assert statement.assignments[0][0] == "a"
        assert isinstance(statement.where, Binary)

    def test_delete(self):
        statement = parse_sql("DELETE FROM t WHERE a IS NULL")
        assert isinstance(statement, Delete)
        assert isinstance(statement.where, IsNull)


class TestSelect:
    def test_star(self):
        statement = parse_sql("SELECT * FROM t")
        assert statement.items == (Star(),)
        assert statement.from_items[0].source == TableSource("t")

    def test_qualified_star(self):
        statement = parse_sql("SELECT t.* FROM t")
        assert statement.items == (Star("t"),)

    def test_aliases(self):
        statement = parse_sql("SELECT a AS x, b y FROM t u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_items[0].alias == "u"

    def test_comma_join(self):
        statement = parse_sql("SELECT 1 FROM a, b, c")
        assert [f.alias for f in statement.from_items] == ["a", "b", "c"]

    def test_inner_join_on(self):
        statement = parse_sql(
            "SELECT 1 FROM a JOIN b ON a.x = b.x"
        )
        assert statement.from_items[1].join_type == "inner"
        assert statement.from_items[1].on is not None

    def test_left_join(self):
        statement = parse_sql(
            "SELECT 1 FROM a LEFT OUTER JOIN b ON a.x = b.x"
        )
        assert statement.from_items[1].join_type == "left"

    def test_derived_table(self):
        statement = parse_sql("SELECT d.a FROM (SELECT a FROM t) d")
        assert isinstance(statement.from_items[0].source, SubquerySource)

    def test_where_precedence(self):
        statement = parse_sql(
            "SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3"
        )
        assert statement.where.op == "OR"
        assert statement.where.right.op == "AND"

    def test_not(self):
        statement = parse_sql("SELECT 1 FROM t WHERE NOT a = 1")
        assert isinstance(statement.where, Unary)
        assert statement.where.op == "NOT"

    def test_between_desugars(self):
        statement = parse_sql("SELECT 1 FROM t WHERE a BETWEEN 2 AND 5")
        where = statement.where
        assert where.op == "AND"
        assert where.left.op == ">="
        assert where.right.op == "<="

    def test_in_list(self):
        statement = parse_sql("SELECT 1 FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(statement.where, InList)
        assert len(statement.where.items) == 3

    def test_not_in(self):
        statement = parse_sql("SELECT 1 FROM t WHERE a NOT IN (1)")
        assert statement.where.negated

    def test_in_select(self):
        statement = parse_sql(
            "SELECT 1 FROM t WHERE a IN (SELECT b FROM u)"
        )
        assert isinstance(statement.where, InSelect)

    def test_exists(self):
        statement = parse_sql(
            "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u)"
        )
        assert isinstance(statement.where, Exists)

    def test_scalar_subquery(self):
        statement = parse_sql(
            "SELECT (SELECT COUNT(*) FROM u) FROM t"
        )
        assert isinstance(statement.items[0].expr, ScalarSubquery)

    def test_like(self):
        statement = parse_sql("SELECT 1 FROM t WHERE a LIKE 'x%'")
        assert statement.where.op == "LIKE"

    def test_cast(self):
        statement = parse_sql("SELECT CAST(a AS REAL) FROM t")
        assert statement.items[0].expr.target == "REAL"

    def test_functions(self):
        statement = parse_sql("SELECT COUNT(*), MAX(a), length(b) FROM t")
        count, mx, length = [i.expr for i in statement.items]
        assert count == FunctionExpr("count", star=True)
        assert mx.name == "max"
        assert length.name == "length"

    def test_group_by_having(self):
        statement = parse_sql(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_by_limit(self):
        statement = parse_sql(
            "SELECT a FROM t ORDER BY a DESC, b LIMIT 5"
        )
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert statement.limit == Literal(5)

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct

    def test_union_all(self):
        statement = parse_sql(
            "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY 1"
        )
        assert isinstance(statement, Union_)
        assert statement.all
        assert len(statement.arms) == 2

    def test_union_distinct(self):
        statement = parse_sql("SELECT a FROM t UNION SELECT a FROM u")
        assert not statement.all

    def test_mixed_union_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql(
                "SELECT 1 UNION SELECT 2 UNION ALL SELECT 3"
            )

    def test_param_numbering_in_source_order(self):
        statement = parse_sql(
            "SELECT ? FROM t WHERE a = ? AND b = ?"
        )
        assert statement.items[0].expr == Param(0)
        assert statement.where.left.right == Param(1)
        assert statement.where.right.right == Param(2)

    def test_negative_literal_folded(self):
        statement = parse_sql("SELECT -5 FROM t")
        assert statement.items[0].expr == Literal(-5)

    def test_trailing_semicolon_ok(self):
        parse_sql("SELECT 1;")

    def test_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT FROM WHERE")
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELEC 1")
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT 1 2")  # a number cannot be an alias


CHAIN = (
    "WITH RECURSIVE up(id, boss) AS ("
    "SELECT id, boss FROM emp WHERE id = ? "
    "UNION SELECT e.id, e.boss FROM up, emp e WHERE e.id = up.boss) "
)


class TestWith:
    def test_recursive_splits_into_anchor_and_step(self):
        stmt = parse_sql(CHAIN + "SELECT id FROM up ORDER BY id")
        assert isinstance(stmt, With)
        assert (stmt.name, stmt.columns) == ("up", ("id", "boss"))
        assert stmt.query.from_items[0].source == TableSource("emp")
        assert [f.alias for f in stmt.step.from_items] == ["up", "e"]
        assert not stmt.union_all
        assert stmt.body.order_by

    def test_union_all_is_kept(self):
        stmt = parse_sql(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM r WHERE n < 5) SELECT n FROM r"
        )
        assert stmt.union_all and stmt.step is not None

    def test_without_self_reference_there_is_no_step(self):
        for keyword in ("WITH", "WITH RECURSIVE"):
            stmt = parse_sql(
                f"{keyword} w(x) AS (SELECT id FROM emp UNION "
                "SELECT boss FROM emp) SELECT x FROM w"
            )
            assert stmt.step is None
            assert isinstance(stmt.query, Union_)

    def test_accepted_wherever_a_subquery_select_is(self):
        inner = CHAIN + "SELECT id FROM up"
        stmt = parse_sql(
            f"SELECT 1 FROM ({inner}) d WHERE EXISTS ({inner}) "
            f"AND 1 IN ({inner}) AND ({inner}) = 1"
        )
        assert isinstance(stmt.from_items[0].source.select, With)
        exists, in_select, scalar = (
            stmt.where.left.left,
            stmt.where.left.right,
            stmt.where.right.left,
        )
        assert isinstance(exists, Exists)
        assert isinstance(exists.select, With)
        assert isinstance(in_select, InSelect)
        assert isinstance(in_select.select, With)
        assert isinstance(scalar, ScalarSubquery)
        assert isinstance(scalar.select, With)

    def test_params_number_through_the_definition_in_source_order(self):
        stmt = parse_sql(CHAIN + "SELECT id FROM up WHERE id > ?")
        assert stmt.query.where.right == Param(0)
        assert stmt.body.where.right == Param(1)

    @pytest.mark.parametrize("sql, complaint", [
        ("WITH RECURSIVE w AS (SELECT 1) SELECT * FROM w",
         "needs a column list"),
        ("WITH RECURSIVE w(a) AS (SELECT 1 UNION "
         "SELECT x.a FROM w x, w y) SELECT a FROM w",
         "exactly once"),
        ("WITH RECURSIVE w(a) AS (SELECT 1 UNION SELECT 2 FROM emp "
         "WHERE EXISTS (SELECT 1 FROM w)) SELECT a FROM w",
         "exactly once"),
        ("WITH RECURSIVE w(a) AS (SELECT a FROM w UNION SELECT 1) "
         "SELECT a FROM w",
         "exactly once"),
        ("WITH RECURSIVE w(a) AS (SELECT a FROM w) SELECT a FROM w",
         "one anchor select"),
        ("WITH w(a) AS (SELECT 1 UNION SELECT a FROM w) SELECT a FROM w",
         "WITH RECURSIVE"),
        ("WITH a(x) AS (SELECT 1), b(y) AS (SELECT 2) SELECT x FROM a",
         "expected SELECT"),
    ])
    def test_malformed_definitions_raise_typed(self, sql, complaint):
        with pytest.raises(SqlSyntaxError, match=complaint):
            parse_sql(sql)
