"""Unit tests for the minidb planner (conjunct analysis, access paths)."""


from repro.minidb import MiniDb
from repro.minidb.planner import (
    choose_access_path,
    free_column_refs,
    split_conjuncts,
)
from repro.minidb.sql_parser import parse_sql
from repro.minidb.tables import HeapTable, TableIndex


def where_of(sql: str):
    return parse_sql(sql).where


class TestSplitConjuncts:
    def test_flattens_nested_ands(self):
        where = where_of("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert len(split_conjuncts(where)) == 3

    def test_or_is_one_conjunct(self):
        where = where_of("SELECT 1 FROM t WHERE a = 1 OR b = 2")
        assert len(split_conjuncts(where)) == 1

    def test_none_is_empty(self):
        assert split_conjuncts(None) == []


class TestFreeColumnRefs:
    def test_simple_refs(self):
        where = where_of("SELECT 1 FROM t WHERE t.a = u.b")
        refs = free_column_refs(where)
        assert ("t", "a") in refs and ("u", "b") in refs

    def test_subquery_bound_aliases_excluded(self):
        where = where_of(
            "SELECT 1 FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.x = t.y)"
        )
        refs = free_column_refs(where)
        assert ("t", "y") in refs
        assert ("u", "x") not in refs

    def test_function_args_walked(self):
        where = where_of("SELECT 1 FROM t WHERE LENGTH(t.a) > 2")
        assert ("t", "a") in free_column_refs(where)

    def test_in_list_walked(self):
        where = where_of("SELECT 1 FROM t WHERE t.a IN (t.b, 3)")
        refs = free_column_refs(where)
        assert ("t", "a") in refs and ("t", "b") in refs


def _table_with_indexes() -> HeapTable:
    table = HeapTable("t", ("a", "b", "c"), ("INTEGER",) * 3)
    table.add_index(TableIndex("ix_ab", table, (0, 1)))
    table.add_index(TableIndex("ix_c", table, (2,)))
    return table


def _conjuncts(sql: str):
    return split_conjuncts(where_of(sql))


class TestChooseAccessPath:
    def test_equality_prefix_chosen(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.a = 1 AND t.b = 2"),
            set(),
        )
        assert path.index is not None
        assert path.index.name == "ix_ab"
        assert len(path.eq_exprs) == 2
        assert path.residual == []

    def test_range_after_equality(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.a = 1 AND t.b > 5"),
            set(),
        )
        assert path.index.name == "ix_ab"
        assert len(path.eq_exprs) == 1
        assert path.lower and not path.upper

    def test_two_sided_range(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts(
                "SELECT 1 FROM t WHERE t.c >= 1 AND t.c < 9"
            ),
            set(),
        )
        assert path.index.name == "ix_c"
        assert path.lower and path.upper

    def test_in_list_probing(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.c IN (1, 2, 3)"),
            set(),
        )
        assert path.index.name == "ix_c"
        assert path.in_exprs is not None
        assert len(path.in_exprs) == 3

    def test_unusable_conjuncts_stay_residual(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts(
                "SELECT 1 FROM t WHERE t.a = 1 AND t.c + 1 = 2"
            ),
            set(),
        )
        assert path.index.name == "ix_ab"
        assert len(path.residual) == 1

    def test_no_index_match_full_scan(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.b = 1"),
            set(),
        )
        assert path.index is None
        assert len(path.residual) == 1

    def test_flipped_comparison_recognised(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE 5 = t.a"),
            set(),
        )
        assert path.index is not None
        assert path.index.name == "ix_ab"

    def test_is_null_binds_an_equality_column(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.a = 1 AND t.b IS NULL"),
            set(),
        )
        assert path.index.name == "ix_ab"
        assert len(path.eq_exprs) == 2
        assert path.residual == []

    def test_join_conjunct_with_unbound_side_not_usable(self):
        table = _table_with_indexes()
        # u is not bound yet, so t.a = u.x cannot drive an index.
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.a = u.x"),
            set(),  # u not in bound set
        )
        assert path.index is None

    def test_join_conjunct_with_bound_side_usable(self):
        table = _table_with_indexes()
        path = choose_access_path(
            table, "t",
            _conjuncts("SELECT 1 FROM t WHERE t.a = u.x"),
            {"u"},
        )
        assert path.index is not None
        assert path.index.name == "ix_ab"


class TestPlannerBehaviourEndToEnd:
    def test_index_nested_loop_join_reads_few_rows(self):
        db = MiniDb()
        db.execute("CREATE TABLE big (k INTEGER, v TEXT)")
        db.execute("CREATE INDEX ix_big_k ON big (k)")
        db.executemany(
            "INSERT INTO big VALUES (?, ?)",
            [(i, f"v{i}") for i in range(1000)],
        )
        db.execute("CREATE TABLE small (k INTEGER)")
        db.executemany(
            "INSERT INTO small VALUES (?)", [(5,), (500,)]
        )
        db.reset_stats()
        result = db.execute(
            "SELECT b.v FROM small s, big b WHERE b.k = s.k ORDER BY b.v"
        )
        assert [r[0] for r in result.rows] == ["v5", "v500"]
        # 2 small rows + 2 index probes — not 1000 reads.
        assert db.stats.rows_read < 20

    def test_is_null_probe_reads_only_the_null_keys(self):
        """``b IS NULL`` reads the rows whose key holds NULL, where
        ``b = NULL`` matches none."""
        db = MiniDb()
        db.execute("CREATE TABLE r (a INTEGER, b TEXT)")
        db.execute("CREATE INDEX ix_r ON r (a, b)")
        db.executemany(
            "INSERT INTO r VALUES (?, ?)",
            [(i % 3, None if i % 10 == 0 else f"v{i}") for i in range(300)],
        )
        db.reset_stats()
        rows = db.execute(
            "SELECT a FROM r WHERE a = 0 AND b IS NULL"
        ).rows
        assert rows == [(0,)] * 10
        assert db.stats.rows_read == 10
        assert db.execute(
            "SELECT a FROM r WHERE a = 0 AND b = ?", (None,)
        ).rows == []

    def test_range_scan_touches_only_matching_rows(self):
        db = MiniDb()
        db.execute("CREATE TABLE r (k INTEGER)")
        db.execute("CREATE INDEX ix_r ON r (k)")
        db.executemany("INSERT INTO r VALUES (?)",
                       [(i,) for i in range(500)])
        db.reset_stats()
        db.execute("SELECT k FROM r WHERE k >= 100 AND k < 110")
        assert db.stats.rows_read == 10
