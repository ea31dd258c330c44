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


# -- renumbering statement shapes ---------------------------------------------
#
# The update routines renumber with one UPDATE whose WHERE is a range of
# the very index its SET rewrites: ``SET k = f(k) WHERE k >= ? AND k <
# ?``.  A scan that wrote while it read would meet a row again after
# moving it forward (the Halloween problem); ``hits`` counts the writes
# each row received, so once-and-only-once is checkable.

RENUMBER_SCHEMA = (
    "CREATE TABLE h (g INTEGER, k INTEGER, last INTEGER, hits INTEGER)"
)
RENUMBER_INDEX = "CREATE INDEX ix_h ON h (g, k)"


def renumber_twins(rows):
    mini = MiniDb()
    mini.create_function("bump", lambda k, by: k + by)
    lite = sqlite3.connect(":memory:")
    lite.create_function("bump", 2, lambda k, by: k + by)
    for engine in (mini, lite):
        engine.execute(RENUMBER_SCHEMA)
        engine.execute(RENUMBER_INDEX)
        engine.executemany("INSERT INTO h VALUES (?, ?, ?, 0)", rows)
    return mini, lite


def both(mini, lite, sql, params=()):
    """Run *sql* on both engines: ``(minidb rowcount, sqlite rowcount)``
    for DML, the two row lists for a query."""
    if sql.startswith("SELECT"):
        return (
            mini.execute(sql, params).rows,
            [tuple(r) for r in lite.execute(sql, params).fetchall()],
        )
    return (
        mini.execute(sql, params).rowcount,
        lite.execute(sql, params).rowcount,
    )


renumber_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 40), st.integers(0, 60)),
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(
    rows=renumber_rows,
    group=st.integers(0, 2),
    low=st.integers(0, 40),
    width=st.integers(0, 41),
    by=st.integers(1, 12),
)
def test_range_update_over_the_rewritten_index_touches_each_row_once(
    rows, group, low, width, by
):
    mini, lite = renumber_twins(rows)
    in_range = sum(
        1 for g, k, _last in rows if g == group and low <= k < low + width
    )
    counts = both(
        mini, lite,
        "UPDATE h SET k = bump(k, ?), hits = hits + 1 "
        "WHERE g = ? AND k >= ? AND k < ?",
        (by, group, low, low + width),
    )
    assert counts == (in_range, in_range)
    final = "SELECT g, k, last, hits FROM h ORDER BY g, k, last, hits"
    mini_rows, lite_rows = both(mini, lite, final)
    assert mini_rows == lite_rows
    assert sum(hits for *_row, hits in mini_rows) == in_range
    assert all(hits <= 1 for *_row, hits in mini_rows)
    # The index agrees with the heap after the rewrite.
    probe = "SELECT COUNT(*) FROM h WHERE g = ? AND k >= ? AND k < ?"
    params = (group, low + by, low + width + by)
    mini_count, lite_count = both(mini, lite, probe, params)
    assert mini_count == lite_count
    assert mini_count[0][0] >= in_range
    lite.close()


@settings(max_examples=40, deadline=None)
@given(
    rows=renumber_rows,
    group=st.integers(0, 2),
    low=st.integers(0, 40),
    by=st.integers(-5, 12),
)
def test_open_lasted_multi_column_shift_agrees(rows, group, low, by):
    """Global's tail shift: two columns move together, no upper bound."""
    mini, lite = renumber_twins(rows)
    tail = sum(1 for g, k, _last in rows if g == group and k >= low)
    counts = both(
        mini, lite,
        "UPDATE h SET k = k + ?, last = last + ? WHERE g = ? AND k >= ?",
        (by, by, group, low),
    )
    assert counts == (tail, tail)
    final = "SELECT g, k, last, hits FROM h ORDER BY g, k, last, hits"
    mini_rows, lite_rows = both(mini, lite, final)
    assert mini_rows == lite_rows
    assert sorted(mini_rows) == sorted(
        (g, k + by, last + by, 0) if g == group and k >= low
        else (g, k, last, 0)
        for g, k, last in rows
    )
    lite.close()
