"""Unit tests for minidb scalar functions, aggregates and arithmetic."""

import pytest

from repro.errors import ExecutionError
from repro.minidb.expressions import BUILTIN_SCALARS, aggregate, arithmetic


class TestScalars:
    def test_substr_one_based(self):
        fn = BUILTIN_SCALARS["substr"]
        assert fn("hello", 2) == "ello"
        assert fn("hello", 1, 2) == "he"
        assert fn("hello", 0) == "hello"
        assert fn(None, 1) is None

    def test_instr(self):
        fn = BUILTIN_SCALARS["instr"]
        assert fn("hello", "ll") == 3
        assert fn("hello", "zz") == 0
        assert fn(None, "x") is None

    def test_coalesce(self):
        fn = BUILTIN_SCALARS["coalesce"]
        assert fn(None, None, 3, 4) == 3
        assert fn(None) is None


class TestAggregates:
    def test_min_max_mixed_numbers(self):
        assert aggregate("min", [3, 1.5, 2], ",") == 1.5
        assert aggregate("max", [3, 1.5, 2], ",") == 3

    def test_empty_aggregates_are_null(self):
        for name in ("min", "max", "group_concat"):
            assert aggregate(name, [], "") is None

    def test_group_concat_joins_in_arrival_order(self):
        assert aggregate("group_concat", ["b", "a", 1], "") == "ba1"
        assert aggregate("group_concat", ["b", "a"], ",") == "b,a"


class TestArithmetic:
    def test_basic_ops(self):
        assert arithmetic("+", 2, 3) == 5
        assert arithmetic("+", 2, 0.5) == 2.5

    def test_null_propagation(self):
        assert arithmetic("+", None, 1) is None
        assert arithmetic("+", 1, None) is None

    def test_concat(self):
        assert arithmetic("||", "a", "b") == "ab"
        assert arithmetic("||", "a", 1) == "a1"
        assert arithmetic("||", None, "b") is None

    def test_non_numeric_rejected(self):
        with pytest.raises(ExecutionError):
            arithmetic("+", "a", 1)
