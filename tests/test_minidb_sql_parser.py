"""Tests for the minidb SQL lexer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.minidb.sql_ast import (
    Binary,
    ColumnRef,
    CountStar,
    CreateIndex,
    CreateTable,
    Delete,
    Exists,
    InList,
    Insert,
    IsNull,
    Literal,
    Not,
    Param,
    ScalarSubquery,
    Star,
    SubquerySource,
    TableSource,
    Union_,
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

class TestDml:
    def test_insert_with_params(self):
        statement = parse_sql("INSERT INTO t VALUES (?, ?, 'x')")
        assert isinstance(statement, Insert)
        assert statement.values == (Param(0), Param(1), Literal("x"))

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

    def test_aliases(self):
        statement = parse_sql("SELECT a AS x, b y FROM t u")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"
        assert statement.from_items[0].alias == "u"

    def test_comma_join(self):
        statement = parse_sql("SELECT 1 FROM a, b, c")
        assert [f.alias for f in statement.from_items] == ["a", "b", "c"]

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
        assert isinstance(statement.where, Not)
        assert statement.where.operand.op == "="

    def test_in_list(self):
        statement = parse_sql("SELECT 1 FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(statement.where, InList)
        assert len(statement.where.items) == 3

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

    def test_functions(self):
        statement = parse_sql("SELECT COUNT(*), MAX(a), instr(b, 'x') FROM t")
        count, mx, instr = [i.expr for i in statement.items]
        assert count == CountStar()
        assert mx.name == "max"
        assert instr.name == "instr" and len(instr.args) == 2

    def test_order_by_columns(self):
        statement = parse_sql("SELECT a FROM t u ORDER BY a, u.b")
        assert statement.order_by == (
            ColumnRef(None, "a"), ColumnRef("u", "b"),
        )

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct

    def test_union_distinct(self):
        statement = parse_sql(
            "SELECT a FROM t UNION SELECT a FROM u ORDER BY a"
        )
        assert isinstance(statement, Union_)
        assert len(statement.arms) == 2
        assert statement.order_by == (ColumnRef(None, "a"),)

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
        assert stmt.anchor.from_items[0].source == TableSource("emp")
        assert [f.alias for f in stmt.step.from_items] == ["up", "e"]
        assert stmt.body.order_by

    def test_accepted_wherever_a_subquery_select_is(self):
        inner = CHAIN + "SELECT id FROM up"
        stmt = parse_sql(
            f"SELECT 1 FROM ({inner}) d WHERE EXISTS ({inner}) "
            f"AND ({inner}) = 1"
        )
        assert isinstance(stmt.from_items[0].source.select, With)
        exists, scalar = stmt.where.left, stmt.where.right.left
        assert isinstance(exists, Exists)
        assert isinstance(exists.select, With)
        assert isinstance(scalar, ScalarSubquery)
        assert isinstance(scalar.select, With)

    def test_without_self_reference_there_is_no_step(self):
        """The grammar's one CTE is a recursion: a definition that never
        selects from itself has no step and is rejected."""
        with pytest.raises(SqlSyntaxError, match="exactly once"):
            parse_sql(
                "WITH RECURSIVE w(x) AS (SELECT id FROM emp UNION "
                "SELECT boss FROM emp) SELECT x FROM w"
            )

    def test_params_number_through_the_definition_in_source_order(self):
        stmt = parse_sql(CHAIN + "SELECT id FROM up WHERE id > ?")
        assert stmt.anchor.where.right == Param(0)
        assert stmt.body.where.right == Param(1)

    @pytest.mark.parametrize("sql, complaint", [
        ("WITH RECURSIVE w AS (SELECT 1) SELECT * FROM w",
         "expected \\(, found AS"),
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
        ("WITH RECURSIVE w(a) AS (SELECT 1) SELECT a FROM w",
         "one anchor select"),
        ("WITH RECURSIVE w(a) AS (SELECT 1 UNION SELECT a FROM w "
         "ORDER BY a) SELECT a FROM w",
         "one anchor select"),
        ("WITH w(a) AS (SELECT 1 UNION SELECT a FROM w) SELECT a FROM w",
         "expected RECURSIVE"),
        ("WITH RECURSIVE a(x) AS (SELECT 1 UNION SELECT x FROM a), "
         "b(y) AS (SELECT 2 UNION SELECT y FROM b) SELECT x FROM a",
         "expected SELECT"),
    ])
    def test_malformed_definitions_raise_typed(self, sql, complaint):
        with pytest.raises(SqlSyntaxError, match=complaint):
            parse_sql(sql)
