"""Differential tests: minidb must agree with sqlite3 on a shared SQL
dialect over randomized relational data (invariant 6 in DESIGN.md)."""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.minidb import MiniDb

SCHEMA = "CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)"
INDEX = "CREATE INDEX ix_t ON t (a, b)"

QUERIES = [
    "SELECT a, b, c FROM t ORDER BY a, b, c",
    "SELECT COUNT(*) FROM t WHERE a = 3",
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a",
    "SELECT DISTINCT c FROM t ORDER BY c",
    "SELECT t1.c, t2.c FROM t t1, t t2 "
    "WHERE t1.a = t2.a AND t1.b < t2.b ORDER BY t1.c, t2.c",
    "SELECT c FROM t WHERE a >= 2 AND a <= 4 ORDER BY c",
    "SELECT c FROM t WHERE b IN (1, 3, 5) ORDER BY c",
    "SELECT c FROM t u WHERE EXISTS "
    "(SELECT 1 FROM t v WHERE v.a = u.a AND v.b > u.b) ORDER BY c",
    "SELECT (SELECT COUNT(*) FROM t v WHERE v.a = u.a) , c FROM t u "
    "ORDER BY c",
    "SELECT MIN(b), MAX(b), SUM(b) FROM t WHERE a = 1",
    "SELECT a FROM t WHERE c LIKE 'x%' ORDER BY a, b",
    "SELECT a FROM t WHERE b = 1 UNION SELECT a FROM t WHERE b = 2 "
    "ORDER BY 1",
    "SELECT a, b FROM t WHERE NOT (a = 1 OR b = 2) ORDER BY a, b, c",
    "SELECT CAST(c AS TEXT) FROM t WHERE a = 2 ORDER BY c LIMIT 3",
    "SELECT a + b, a - b, a * b FROM t ORDER BY a, b, c LIMIT 5",
    # Common table expressions.  Read (a, b) as an edge a -> b: the
    # random rows are full of cycles, which UNION must cut.
    "WITH RECURSIVE r(n) AS (SELECT 0 UNION "
    "SELECT t.b FROM r, t WHERE t.a = r.n) SELECT n FROM r ORDER BY n",
    "SELECT c FROM t u WHERE EXISTS (WITH RECURSIVE r(n) AS ("
    "SELECT u.b UNION SELECT t.b FROM r, t WHERE t.a = r.n "
    "AND t.b >= u.a) SELECT 1 FROM r WHERE r.n = 5) ORDER BY c",
    "SELECT a, b FROM t u WHERE 3 IN (WITH RECURSIVE r(n) AS ("
    "SELECT u.a UNION SELECT t.b FROM r, t WHERE t.a = r.n) "
    "SELECT n FROM r) ORDER BY a, b, c",
    "SELECT a, (SELECT COUNT(*) FROM (WITH RECURSIVE r(n) AS ("
    "SELECT u.a UNION SELECT t.b FROM r, t WHERE t.a = r.n) "
    "SELECT n FROM r) d) FROM t u ORDER BY a, b, c",
    "WITH RECURSIVE r(n, hops) AS (SELECT 0, 0 UNION ALL "
    "SELECT t.b, r.hops + 1 FROM r, t WHERE t.a = r.n AND r.hops < 3) "
    "SELECT n, hops FROM r ORDER BY hops, n",
    "WITH w(x, y) AS (SELECT a, COUNT(*) FROM t GROUP BY a) "
    "SELECT x, y FROM w WHERE y > 1 ORDER BY x",
]

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.sampled_from(["x1", "x2", "y1", "zz", ""]),
    ),
    max_size=30,
)


def run_both(rows, query):
    mini = MiniDb()
    mini.execute(SCHEMA)
    mini.execute(INDEX)
    mini.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)

    lite = sqlite3.connect(":memory:")
    lite.execute(SCHEMA)
    lite.execute(INDEX)
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)

    mini_rows = mini.execute(query).rows
    lite_rows = [tuple(r) for r in lite.execute(query).fetchall()]
    lite.close()
    return mini_rows, lite_rows


@pytest.mark.parametrize("query", QUERIES)
@settings(max_examples=25, deadline=None)
@given(rows=rows_strategy)
def test_query_agrees_with_sqlite(query, rows):
    mini_rows, lite_rows = run_both(rows, query)
    assert mini_rows == lite_rows, query


@settings(max_examples=30, deadline=None)
@given(
    rows=rows_strategy,
    delta=st.integers(-3, 3),
    threshold=st.integers(0, 5),
)
def test_update_delete_agree_with_sqlite(rows, delta, threshold):
    mini = MiniDb()
    mini.execute(SCHEMA)
    mini.execute(INDEX)
    mini.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)

    lite = sqlite3.connect(":memory:")
    lite.execute(SCHEMA)
    lite.execute(INDEX)
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)

    update = "UPDATE t SET b = b + ? WHERE a >= ?"
    mini_count = mini.execute(update, (delta, threshold)).rowcount
    lite_count = lite.execute(update, (delta, threshold)).rowcount
    assert mini_count == lite_count

    delete = "DELETE FROM t WHERE b < ?"
    mini_count = mini.execute(delete, (threshold,)).rowcount
    lite_count = lite.execute(delete, (threshold,)).rowcount
    assert mini_count == lite_count

    final = "SELECT a, b, c FROM t ORDER BY a, b, c"
    assert mini.execute(final).rows == [
        tuple(r) for r in lite.execute(final).fetchall()
    ]
    lite.close()
