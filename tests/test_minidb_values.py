"""Tests for the minidb value model (comparison, logic, ordering)."""

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.minidb import MiniDb
from repro.minidb.values import (
    compare,
    is_true,
    logical_and,
    logical_not,
    logical_or,
    row_sort_key,
    sort_key,
)


class TestCompare:
    def test_numbers(self):
        assert compare(1, 2) == -1
        assert compare(2.5, 2.5) == 0
        assert compare(3, 2.5) == 1
        assert compare(1, 1.0) == 0

    def test_strings(self):
        assert compare("a", "b") == -1
        assert compare("b", "b") == 0

    def test_blobs(self):
        assert compare(b"\x01", b"\x02") == -1

    def test_null_is_unknown(self):
        assert compare(None, 1) is None
        assert compare("x", None) is None
        assert compare(None, None) is None

    def test_cross_type_raises(self):
        with pytest.raises(ExecutionError):
            compare("1", 1)
        with pytest.raises(ExecutionError):
            compare(b"x", "x")


class TestSortKey:
    def test_type_class_order(self):
        values = [b"\x00", "a", 3, None, 1.5]
        ordered = sorted(values, key=sort_key)
        assert ordered == [None, 1.5, 3, "a", b"\x00"]

    def test_row_sort_key_tuples(self):
        rows = [(1, "b"), (1, "a"), (None, "z")]
        ordered = sorted(rows, key=row_sort_key)
        assert ordered == [(None, "z"), (1, "a"), (1, "b")]

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.integers(-100, 100),
                st.floats(allow_nan=False, allow_infinity=False,
                          width=32),
                st.text(max_size=5),
                st.binary(max_size=5),
            ),
            max_size=10,
        )
    )
    def test_sort_key_is_total(self, values):
        sorted(values, key=sort_key)  # must never raise


#: Every type class, the values where numbers tie across types, signed
#: zero and the non-finite floats.
GRID = [
    None, False, True, -1, 0, 1, 2, 2 ** 60, -0.0, 0.0, 0.5, 1.0, 2.0,
    float("nan"), float("inf"), float("-inf"),
    "", "a", "ab", "b", "é", b"", b"\x00", b"a", b"b",
]

OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def reference_sort_key(value):
    """The total-order key as written before ranks came from a table."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    raise ExecutionError(f"unsupported SQL value {value!r}")


class TestCompiledComparisons:
    """The executor's comparison closures take a shortcut for two values
    of one native type; every answer must still be the one ``compare``
    implies, and every cross-type pair must still raise."""

    @pytest.mark.parametrize("op", sorted(OPERATORS))
    def test_every_grid_pair_answers_as_compare_implies(self, op):
        db = MiniDb()
        sql = f"SELECT ? {op} ?"
        for left in GRID:
            for right in GRID:
                try:
                    result = compare(left, right)
                except ExecutionError:
                    with pytest.raises(ExecutionError):
                        db.execute(sql, (left, right))
                    continue
                want = None if result is None else OPERATORS[op](result, 0)
                got = db.execute(sql, (left, right)).rows[0][0]
                assert got is want, (left, op, right)

    def test_column_against_literal_takes_the_same_rules(self):
        db = MiniDb()
        db.execute("CREATE TABLE t (v REAL)")
        db.executemany("INSERT INTO t VALUES (?)",
                       [(0.0,), (float("nan"),), (2.0,)])
        # compare() calls NaN equal to everything; the float shortcut
        # would not, so floats take the strict path.
        assert db.execute("SELECT COUNT(*) FROM t WHERE v = 2.0").rows \
            == [(2,)]
        with pytest.raises(ExecutionError):
            db.execute("SELECT COUNT(*) FROM t WHERE v = 'x'")


class TestSortKeyTable:
    def test_keys_equal_the_reference_on_the_grid(self):
        for value in GRID:
            got, want = sort_key(value), reference_sort_key(value)
            if isinstance(value, float) and math.isnan(value):
                assert got[0] == want[0] and math.isnan(got[1])
            else:
                assert got == want, value

    def test_grid_orders_as_the_reference_including_ties(self):
        finite = [v for v in GRID
                  if not (isinstance(v, float) and math.isnan(v))]
        assert [sort_key(v) for v in sorted(finite, key=sort_key)] == [
            reference_sort_key(v)
            for v in sorted(finite, key=reference_sort_key)
        ]
        assert sort_key(True) == sort_key(1) == sort_key(1.0)
        assert sort_key(False) == sort_key(0) == sort_key(-0.0)
        assert row_sort_key((1, "a", None)) == tuple(
            reference_sort_key(v) for v in (1, "a", None)
        )

    def test_subclasses_rank_by_isinstance_and_others_raise(self):
        class Name(str):
            pass

        assert sort_key(Name("x")) == (2, "x")
        with pytest.raises(ExecutionError):
            sort_key(bytearray(b"x"))
        with pytest.raises(ExecutionError):
            sort_key([1])


class TestLogic:
    def test_kleene_and(self):
        assert logical_and(True, True) is True
        assert logical_and(True, False) is False
        assert logical_and(False, None) is False
        assert logical_and(True, None) is None

    def test_kleene_or(self):
        assert logical_or(False, True) is True
        assert logical_or(False, False) is False
        assert logical_or(None, True) is True
        assert logical_or(False, None) is None

    def test_kleene_not(self):
        assert logical_not(True) is False
        assert logical_not(None) is None

    def test_is_true_collapses_unknown(self):
        assert is_true(True)
        assert not is_true(None)
        assert not is_true(False)
