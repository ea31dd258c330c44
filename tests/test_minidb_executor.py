"""Functional tests for the minidb engine (executor + planner)."""

import pytest

from repro.errors import CatalogError, ExecutionError, SqlSyntaxError
from repro.minidb import MiniDb

#: Entries either of the engine's statement caches holds (spelled out,
#: not imported, so these tests also run against an engine without the
#: constant).
CACHE_CAP = 4096


@pytest.fixture
def db():
    engine = MiniDb()
    engine.execute("CREATE TABLE emp (id INTEGER, name TEXT, "
                   "dept TEXT, salary REAL, boss INTEGER)")
    engine.execute("CREATE INDEX ix_emp_dept ON emp (dept, salary)")
    engine.execute("CREATE UNIQUE INDEX ux_emp_id ON emp (id)")
    rows = [
        (1, "ann", "eng", 120.0, None),
        (2, "bob", "eng", 100.0, 1),
        (3, "cid", "ops", 80.0, 1),
        (4, "dee", "ops", 95.0, 3),
        (5, "eve", "sales", 70.0, 1),
    ]
    engine.executemany("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", rows)
    return engine


class TestSelectBasics:
    def test_full_scan(self, db):
        result = db.execute("SELECT name FROM emp ORDER BY name")
        assert [r[0] for r in result.rows] == [
            "ann", "bob", "cid", "dee", "eve",
        ]

    def test_star_columns(self, db):
        result = db.execute("SELECT * FROM emp WHERE id = 1")
        assert result.columns == ("id", "name", "dept", "salary", "boss")
        assert result.rows == [(1, "ann", "eng", 120.0, None)]

    def test_where_equality_uses_index(self, db):
        before = db.stats.full_scans
        result = db.execute(
            "SELECT name FROM emp WHERE dept = 'eng' ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["ann", "bob"]
        assert db.stats.full_scans == before  # index path

    def test_index_range_after_equality(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE dept = 'ops' AND salary > 85"
        )
        assert result.rows == [("dee",)]

    def test_pure_range_scan(self, db):
        db.execute("CREATE INDEX ix_emp_salary ON emp (salary)")
        result = db.execute(
            "SELECT name FROM emp WHERE salary >= 95 AND salary <= 110 "
            "ORDER BY salary"
        )
        assert [r[0] for r in result.rows] == ["dee", "bob"]

    def test_order_by_desc(self, db):
        result = db.execute(
            "SELECT name FROM emp ORDER BY salary DESC LIMIT 2"
        )
        assert [r[0] for r in result.rows] == ["ann", "bob"]

    def test_limit_zero(self, db):
        assert db.execute("SELECT * FROM emp LIMIT 0").rows == []

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert [r[0] for r in result.rows] == ["eng", "ops", "sales"]

    def test_expression_select_list(self, db):
        result = db.execute(
            "SELECT name || '!', salary * 2 FROM emp WHERE id = 3"
        )
        assert result.rows == [("cid!", 160.0)]

    def test_is_null(self, db):
        result = db.execute("SELECT name FROM emp WHERE boss IS NULL")
        assert result.rows == [("ann",)]
        result = db.execute(
            "SELECT COUNT(*) FROM emp WHERE boss IS NOT NULL"
        )
        assert result.rows == [(4,)]

    def test_null_comparison_filters_rows(self, db):
        # boss = 1 excludes the NULL row (UNKNOWN, not TRUE).
        result = db.execute("SELECT COUNT(*) FROM emp WHERE boss = 1")
        assert result.rows == [(3,)]

    def test_like(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE name LIKE '%e%' ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["dee", "eve"]

    def test_in_list(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE dept IN ('ops', 'sales') "
            "ORDER BY id"
        )
        assert [r[0] for r in result.rows] == ["cid", "dee", "eve"]


class TestJoins:
    def test_self_join(self, db):
        result = db.execute(
            "SELECT e.name, b.name FROM emp e, emp b "
            "WHERE e.boss = b.id ORDER BY e.id"
        )
        assert result.rows == [
            ("bob", "ann"), ("cid", "ann"), ("dee", "cid"),
            ("eve", "ann"),
        ]

    def test_join_on_syntax(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM emp e JOIN emp b ON e.boss = b.id"
        )
        assert result.rows == [(4,)]

    def test_left_join_produces_nulls(self, db):
        result = db.execute(
            "SELECT e.name, b.name FROM emp e "
            "LEFT JOIN emp b ON e.boss = b.id WHERE e.id = 1"
        )
        assert result.rows == [("ann", None)]

    def test_three_way_join(self, db):
        result = db.execute(
            "SELECT e.name FROM emp e, emp b, emp g "
            "WHERE e.boss = b.id AND b.boss = g.id"
        )
        assert result.rows == [("dee",)]

    def test_derived_table_join(self, db):
        result = db.execute(
            "SELECT e.name FROM (SELECT id FROM emp WHERE dept = 'ops') "
            "d, emp e WHERE e.boss = d.id"
        )
        assert result.rows == [("dee",)]


class TestSubqueries:
    def test_correlated_exists(self, db):
        result = db.execute(
            "SELECT name FROM emp e WHERE EXISTS "
            "(SELECT 1 FROM emp u WHERE u.boss = e.id) ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["ann", "cid"]

    def test_not_exists(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM emp e WHERE NOT EXISTS "
            "(SELECT 1 FROM emp u WHERE u.boss = e.id)"
        )
        assert result.rows == [(3,)]

    def test_correlated_scalar_count(self, db):
        result = db.execute(
            "SELECT name, (SELECT COUNT(*) FROM emp u "
            "WHERE u.boss = e.id) FROM emp e ORDER BY e.id"
        )
        assert result.rows == [
            ("ann", 3), ("bob", 0), ("cid", 1), ("dee", 0), ("eve", 0),
        ]

    def test_in_select(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE id IN "
            "(SELECT boss FROM emp WHERE boss IS NOT NULL) ORDER BY id"
        )
        assert [r[0] for r in result.rows] == ["ann", "cid"]

    def test_scalar_subquery_empty_is_null(self, db):
        result = db.execute(
            "SELECT (SELECT name FROM emp WHERE id = 99)"
        )
        assert result.rows == [(None,)]


class TestRecursion:
    """``WITH [RECURSIVE]``: the bosses above dee are cid and ann."""

    CHAIN = (
        "WITH RECURSIVE up(id, boss) AS ("
        "SELECT id, boss FROM emp WHERE id = ? "
        "UNION SELECT b.id, b.boss FROM up, emp b WHERE b.id = up.boss) "
    )

    def test_top_level_closure(self, db):
        result = db.execute(self.CHAIN + "SELECT id FROM up ORDER BY id",
                            (4,))
        assert result.columns == ("id",)
        assert result.rows == [(1,), (3,), (4,)]

    def test_each_round_runs_the_step_on_the_rows_just_added(self, db):
        # Semi-naive: three levels, one point probe each for the two
        # bosses, one more that finds nobody above ann (boss NULL
        # matches nothing) - not a rescan of everything found so far.
        db.reset_stats()
        db.execute(self.CHAIN + "SELECT id FROM up", (4,))
        assert db.stats.rows_read == 3
        assert db.stats.full_scans == 0

    def test_inside_exists_correlated_in_anchor_and_step(self, db):
        # Who has a boss, at any distance, paid less than twice as
        # much?  The anchor starts at the outer row, the step filters
        # on it.
        result = db.execute(
            "SELECT name FROM emp e WHERE EXISTS ("
            "WITH RECURSIVE up(id, boss) AS ("
            "SELECT e.id, e.boss UNION "
            "SELECT b.id, b.boss FROM up, emp b "
            "WHERE b.id = up.boss AND b.salary < e.salary * 2) "
            "SELECT 1 FROM up WHERE up.id != e.id) ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["bob", "cid", "dee", "eve"]

    def test_inside_in(self, db):
        result = db.execute(
            "SELECT name FROM emp e WHERE 3 IN ("
            "WITH RECURSIVE up(id, boss) AS ("
            "SELECT e.id, e.boss UNION "
            "SELECT b.id, b.boss FROM up, emp b WHERE b.id = up.boss) "
            "SELECT id FROM up) ORDER BY name"
        )
        assert [r[0] for r in result.rows] == ["cid", "dee"]

    def test_as_a_derived_table_it_is_evaluated_per_outer_row(self, db):
        result = db.execute(
            "SELECT name, (SELECT COUNT(*) FROM ("
            "WITH RECURSIVE up(id, boss) AS ("
            "SELECT e.id, e.boss UNION "
            "SELECT b.id, b.boss FROM up, emp b WHERE b.id = up.boss) "
            "SELECT id FROM up) chain) FROM emp e ORDER BY e.id"
        )
        assert [r[1] for r in result.rows] == [1, 2, 2, 3, 2]

    def test_union_ends_a_cycle_that_union_all_would_not(self, db):
        db.execute("UPDATE emp SET boss = 4 WHERE id = 1")  # 4 > 3 > 1 > 4
        result = db.execute(self.CHAIN + "SELECT id FROM up ORDER BY id",
                            (4,))
        assert result.rows == [(1,), (3,), (4,)]

    def test_union_all_keeps_duplicates_and_needs_its_own_stop(self, db):
        result = db.execute(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
            "SELECT n + 1 FROM r WHERE n < 4) SELECT n FROM r"
        )
        assert result.rows == [(1,), (2,), (3,), (4,)]
        result = db.execute(
            "WITH RECURSIVE r(n, d) AS (SELECT 1, 0 UNION ALL "
            "SELECT 1, d + 1 FROM r WHERE d < 2) SELECT n FROM r"
        )
        assert result.rows == [(1,), (1,), (1,)]

    def test_non_recursive_with_is_a_named_subquery(self, db):
        result = db.execute(
            "WITH heads(dept, n) AS ("
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept) "
            "SELECT e.name, h.n FROM emp e, heads h "
            "WHERE h.dept = e.dept AND h.n > 1 ORDER BY e.name"
        )
        assert result.rows == [
            ("ann", 2), ("bob", 2), ("cid", 2), ("dee", 2),
        ]

    def test_column_list_must_match_the_select(self, db):
        with pytest.raises(ExecutionError):
            db.execute("WITH w(a, b) AS (SELECT 1) SELECT a FROM w")

    def test_explain_names_the_steps_access_method(self, db):
        lines = db.explain(self.CHAIN + "SELECT id FROM up")
        assert lines[0] == "WITH RECURSIVE up(id, boss):"
        steps = [line for line in lines if line.startswith("  step: ")]
        assert len(steps) == 2
        assert "common table up" in steps[0]
        assert "INDEX ux_emp_id (eq[1])" in steps[1]

    def test_explain_shows_a_subquerys_plan_under_its_select(self, db):
        lines = db.explain(
            "SELECT name FROM emp e WHERE EXISTS ("
            "WITH RECURSIVE up(id, boss) AS ("
            "SELECT e.id, e.boss UNION "
            "SELECT b.id, b.boss FROM up, emp b WHERE b.id = up.boss) "
            "SELECT 1 FROM up WHERE up.id = 1)"
        )
        assert "FULL SCAN" in lines[0]
        assert any(
            line.startswith("  [subquery]   step: ")
            and "INDEX ux_emp_id" in line
            for line in lines
        )


class TestAggregates:
    def test_global_aggregates(self, db):
        result = db.execute(
            "SELECT COUNT(*), MIN(salary), MAX(salary), SUM(salary), "
            "AVG(salary) FROM emp"
        )
        assert result.rows == [(5, 70.0, 120.0, 465.0, 93.0)]

    def test_count_skips_nulls(self, db):
        result = db.execute("SELECT COUNT(boss) FROM emp")
        assert result.rows == [(4,)]

    def test_group_by(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept"
        )
        assert result.rows == [("eng", 2), ("ops", 2), ("sales", 1)]

    def test_having(self, db):
        result = db.execute(
            "SELECT dept FROM emp GROUP BY dept "
            "HAVING COUNT(*) > 1 ORDER BY dept"
        )
        assert [r[0] for r in result.rows] == ["eng", "ops"]

    def test_aggregate_over_empty_set(self, db):
        result = db.execute(
            "SELECT COUNT(*), MAX(salary) FROM emp WHERE dept = 'hr'"
        )
        assert result.rows == [(0, None)]

    def test_group_by_empty_set_has_no_groups(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*) FROM emp WHERE dept = 'hr' "
            "GROUP BY dept"
        )
        assert result.rows == []

    def test_aggregate_inside_function(self, db):
        result = db.execute(
            "SELECT COALESCE(MAX(salary), 0) FROM emp WHERE dept = 'hr'"
        )
        assert result.rows == [(0,)]

    def test_order_by_aggregate_alias(self, db):
        result = db.execute(
            "SELECT dept, COUNT(*) n FROM emp GROUP BY dept ORDER BY n "
            "DESC, dept"
        )
        assert result.rows == [("eng", 2), ("ops", 2), ("sales", 1)]


class TestUnion:
    def test_union_all(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE dept = 'eng' UNION ALL "
            "SELECT name FROM emp WHERE salary > 110"
        )
        assert sorted(r[0] for r in result.rows) == ["ann", "ann", "bob"]

    def test_union_dedupes(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE dept = 'eng' UNION "
            "SELECT name FROM emp WHERE salary > 110 ORDER BY 1"
        )
        assert [r[0] for r in result.rows] == ["ann", "bob"]

    def test_union_order_by_name(self, db):
        result = db.execute(
            "SELECT name FROM emp WHERE id <= 2 UNION ALL "
            "SELECT name FROM emp WHERE id = 5 ORDER BY name DESC"
        )
        assert [r[0] for r in result.rows] == ["eve", "bob", "ann"]


class TestDml:
    def test_update_with_index_where(self, db):
        result = db.execute(
            "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'"
        )
        assert result.rowcount == 2
        check = db.execute("SELECT salary FROM emp WHERE id = 1")
        assert check.rows == [(130.0,)]

    def test_update_is_visible_to_index(self, db):
        db.execute("UPDATE emp SET dept = 'hr' WHERE id = 5")
        assert db.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'hr'"
        ).rows == [(1,)]
        assert db.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'sales'"
        ).rows == [(0,)]

    def test_delete(self, db):
        result = db.execute("DELETE FROM emp WHERE salary < 90")
        assert result.rowcount == 2
        assert db.row_count("emp") == 3

    def test_delete_all(self, db):
        db.execute("DELETE FROM emp")
        assert db.row_count("emp") == 0

    def test_unique_violation(self, db):
        with pytest.raises(ExecutionError):
            db.execute(
                "INSERT INTO emp VALUES (1, 'dup', 'eng', 1.0, NULL)"
            )
        # The failed insert must not leave a phantom row behind.
        assert db.row_count("emp") == 5

    def test_executemany_rowcount(self, db):
        result = db.executemany(
            "INSERT INTO emp VALUES (?, ?, ?, ?, ?)",
            [(10, "x", "hr", 1.0, None), (11, "y", "hr", 2.0, None)],
        )
        assert result.rowcount == 2

    def test_shift_update_no_unique_collision(self, db):
        # The renumbering pattern used by the Global encoding.
        db.execute("CREATE TABLE seq (pos INTEGER)")
        db.execute("CREATE INDEX ix_seq ON seq (pos)")
        db.executemany(
            "INSERT INTO seq VALUES (?)", [(i,) for i in range(10)]
        )
        db.execute("UPDATE seq SET pos = pos + 5 WHERE pos >= 3")
        result = db.execute("SELECT pos FROM seq ORDER BY pos")
        assert [r[0] for r in result.rows] == [0, 1, 2] + list(
            range(8, 15)
        )


class TestErrors:
    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT shoe_size FROM emp")

    def test_ambiguous_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT id FROM emp a, emp b")

    def test_duplicate_alias(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT 1 FROM emp e, emp e")

    def test_missing_parameter(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM emp WHERE id = ?")

    def test_unknown_function(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT frobnicate(id) FROM emp")

    def test_executemany_rejects_select(self, db):
        with pytest.raises(ExecutionError):
            db.executemany("SELECT 1", [()])

    def test_syntax_error(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT * FORM emp")


class TestFunctionsAndCache:
    def test_builtin_scalars(self, db):
        result = db.execute(
            "SELECT LENGTH(name), SUBSTR(name, 1, 2), INSTR(name, 'n'), "
            "UPPER(name) FROM emp WHERE id = 1"
        )
        assert result.rows == [(3, "an", 2, "ANN")]

    def test_custom_function(self, db):
        db.create_function("double_it", lambda v: v * 2)
        result = db.execute("SELECT double_it(salary) FROM emp "
                            "WHERE id = 2")
        assert result.rows == [(200.0,)]

    def test_plan_cache_invalidated_by_ddl(self, db):
        sql = "SELECT COUNT(*) FROM emp WHERE dept = 'eng'"
        assert db.execute(sql).rows == [(2,)]
        db.execute("CREATE TABLE other (a INTEGER)")
        assert db.execute(sql).rows == [(2,)]

    def test_ddl_churn_past_the_cap_does_not_stop_plan_caching(
        self, db, minidb_work
    ):
        """Plans are dropped when DDL moves ``catalog.version``, so dead
        entries cannot fill the cache: after more version bumps than the
        cap holds entries, a repeated SELECT still compiles once per
        version — not, as when the key was ``(text, version)`` and a
        full cache refused inserts, once per execution for good."""
        sql = "SELECT COUNT(*) FROM emp WHERE dept = 'eng'"
        for _ in range(CACHE_CAP // 2 + 2):
            db.execute("CREATE TABLE churn (a INTEGER)")
            db.execute(sql)
            db.execute("DROP TABLE churn")
            db.execute(sql)
        db.execute("CREATE TABLE other (a INTEGER)")
        minidb_work.clear()
        for _ in range(50):
            assert db.execute(sql).rows == [(2,)]
        assert minidb_work == {"compile": 1}

    def test_a_full_statement_cache_starts_over(self, db, minidb_work):
        """Neither cache refuses entries when full: past the cap of
        distinct texts, a new text is still parsed and planned once."""
        for i in range(CACHE_CAP):
            db.execute(f"SELECT {i}")
        sql = "SELECT COUNT(*) FROM emp WHERE dept = 'ops'"
        minidb_work.clear()
        for _ in range(50):
            assert db.execute(sql).rows == [(2,)]
        assert minidb_work == {"parse": 1, "compile": 1}

    def test_dewey_functions_preregistered(self, db):
        from repro.core.dewey import DeweyKey

        key = DeweyKey.parse("1.2.3").encode()
        result = db.execute("SELECT dewey_successor(?)", (key,))
        assert result.rows == [(DeweyKey.parse("1.2.4").encode(),)]

    def test_stats_track_reads_and_writes(self, db):
        db.reset_stats()
        db.execute("SELECT * FROM emp")
        assert db.stats.rows_read == 5
        db.execute("INSERT INTO emp VALUES (9, 'z', 'hr', 1.0, NULL)")
        assert db.stats.rows_written == 1


class TestExplain:
    def test_index_access_reported(self, db):
        lines = db.explain("SELECT name FROM emp WHERE dept = 'eng'")
        assert len(lines) == 1
        assert "INDEX ix_emp_dept" in lines[0]
        assert "eq[1]" in lines[0]

    def test_full_scan_reported(self, db):
        lines = db.explain("SELECT name FROM emp WHERE name = 'ann'")
        assert "FULL SCAN" in lines[0]

    def test_join_order_and_filters(self, db):
        lines = db.explain(
            "SELECT 1 FROM emp e, emp b WHERE e.boss = b.id "
            "AND b.salary > 100"
        )
        assert len(lines) == 2
        assert "e" in lines[0]
        assert "INDEX ux_emp_id" in lines[1]

    def test_range_access_reported(self, db):
        lines = db.explain(
            "SELECT 1 FROM emp WHERE dept = 'eng' AND salary > 50"
        )
        assert "range" in lines[0]

    def test_union_arms_indented(self, db):
        lines = db.explain(
            "SELECT id FROM emp WHERE dept = 'eng' "
            "UNION SELECT id FROM emp WHERE dept = 'ops'"
        )
        assert lines[0].startswith("UNION")
        assert any("arm 0" in line for line in lines)

    def test_derived_table_nested(self, db):
        lines = db.explain(
            "SELECT 1 FROM (SELECT id FROM emp WHERE dept = 'eng') d"
        )
        assert any("derived d" in line for line in lines)
        assert any("[d]" in line for line in lines)

    def test_explain_rejects_dml(self, db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            db.explain("DELETE FROM emp")
